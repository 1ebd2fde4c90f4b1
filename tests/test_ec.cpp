// Tests for the from-scratch Ristretto255 stack: field arithmetic,
// scalar arithmetic mod l, group laws, and the official
// draft-irtf-cfrg-ristretto255 test vectors (small multiples of the base
// point and hash-to-group).
#include <gtest/gtest.h>

#include "common/rng.h"
#include "ec/fe25519.h"
#include "ec/ristretto.h"
#include "ec/ristretto_kernels.h"
#include "ec/scalar.h"
#include "hash/sha512.h"

namespace cbl::ec {
namespace {

using cbl::ChaChaRng;

std::array<std::uint8_t, 32> arr32(const Bytes& b) {
  std::array<std::uint8_t, 32> out{};
  std::copy(b.begin(), b.end(), out.begin());
  return out;
}

Fe25519 random_fe(Rng& rng) {
  std::array<std::uint8_t, 32> b;
  rng.fill(b.data(), b.size());
  b[31] &= 0x7f;
  return Fe25519::from_bytes(b);
}

// ---------------------------------------------------------------- Fe25519

TEST(Fe25519, ZeroAndOneEncodings) {
  EXPECT_EQ(to_hex(ByteView(Fe25519::zero().to_bytes())),
            "0000000000000000000000000000000000000000000000000000000000000000");
  EXPECT_EQ(to_hex(ByteView(Fe25519::one().to_bytes())),
            "0100000000000000000000000000000000000000000000000000000000000000");
}

TEST(Fe25519, PReducesToZero) {
  // p = 2^255 - 19 encodes as ed ff .. ff 7f and is congruent to 0.
  auto p_bytes = arr32(from_hex(
      "edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f")
      .value());
  EXPECT_TRUE(Fe25519::from_bytes(p_bytes).is_zero());
}

TEST(Fe25519, FromBytesIgnoresTopBit) {
  auto a = arr32(from_hex(
      "0100000000000000000000000000000000000000000000000000000000000080")
      .value());
  EXPECT_EQ(Fe25519::from_bytes(a), Fe25519::one());
}

TEST(Fe25519, RoundTrip) {
  auto rng = ChaChaRng::from_string_seed("fe-roundtrip");
  for (int i = 0; i < 50; ++i) {
    const Fe25519 x = random_fe(rng);
    EXPECT_EQ(Fe25519::from_bytes(x.to_bytes()), x);
  }
}

TEST(Fe25519, FieldAxioms) {
  auto rng = ChaChaRng::from_string_seed("fe-axioms");
  for (int i = 0; i < 25; ++i) {
    const Fe25519 a = random_fe(rng), b = random_fe(rng), c = random_fe(rng);
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ((a * b) * c, a * (b * c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a - a, Fe25519::zero());
    EXPECT_EQ(a + (-a), Fe25519::zero());
    EXPECT_EQ(a * Fe25519::one(), a);
  }
}

TEST(Fe25519, SquareMatchesMul) {
  auto rng = ChaChaRng::from_string_seed("fe-square");
  for (int i = 0; i < 25; ++i) {
    const Fe25519 a = random_fe(rng);
    EXPECT_EQ(a.square(), a * a);
  }
}

TEST(Fe25519, InvertIsInverse) {
  auto rng = ChaChaRng::from_string_seed("fe-invert");
  for (int i = 0; i < 10; ++i) {
    const Fe25519 a = random_fe(rng);
    if (a.is_zero()) continue;
    EXPECT_EQ(a * a.invert(), Fe25519::one());
  }
  EXPECT_TRUE(Fe25519::zero().invert().is_zero());
}

TEST(Fe25519, SqrtM1IsARootOfMinusOne) {
  EXPECT_EQ(Fe25519::sqrt_m1().square(), -Fe25519::one());
  EXPECT_FALSE(Fe25519::sqrt_m1().is_negative());
}

TEST(Fe25519, EdwardsDValue) {
  // d = -121665/121666, a well-known constant.
  EXPECT_EQ(to_hex(ByteView(Fe25519::edwards_d().to_bytes())),
            "a3785913ca4deb75abd841414d0a700098e879777940c78c73fe6f2bee6c0352");
}

TEST(Fe25519, SqrtRatioOfSquares) {
  auto rng = ChaChaRng::from_string_seed("fe-sqrt");
  for (int i = 0; i < 20; ++i) {
    const Fe25519 x = random_fe(rng);
    if (x.is_zero()) continue;
    const Fe25519 u = x.square();
    const auto r = sqrt_ratio_m1(u, Fe25519::one());
    EXPECT_TRUE(r.was_square);
    EXPECT_EQ(r.root.square(), u);
    EXPECT_FALSE(r.root.is_negative());
  }
}

TEST(Fe25519, SqrtRatioOfNonSquare) {
  // -1 is a QR mod p (p = 1 mod 4), but a quadratic non-residue times a
  // square is a non-square; use sqrt_m1 * x^2 * some non-square. 2 is a
  // non-square mod 2^255-19.
  const Fe25519 two = Fe25519::from_u64(2);
  const auto r = sqrt_ratio_m1(two, Fe25519::one());
  EXPECT_FALSE(r.was_square);
  // The returned root is sqrt(sqrt(-1) * 2).
  EXPECT_EQ(r.root.square(), Fe25519::sqrt_m1() * two);
}

TEST(Fe25519, AbsIsNonNegative) {
  auto rng = ChaChaRng::from_string_seed("fe-abs");
  for (int i = 0; i < 20; ++i) {
    const Fe25519 x = random_fe(rng);
    EXPECT_FALSE(x.abs().is_negative());
    if (!x.is_zero()) {
      EXPECT_TRUE(x.abs() == x || x.abs() == -x);
    }
  }
}

// ------------------------------------------------------------------ Scalar

TEST(Scalar, GroupOrderReducesToZero) {
  // l = 2^252 + 27742317777372353535851937790883648493.
  auto l_bytes = arr32(from_hex(
      "edd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010")
      .value());
  EXPECT_TRUE(Scalar::from_bytes_mod_order(l_bytes).is_zero());
  EXPECT_FALSE(Scalar::from_canonical_bytes(l_bytes).has_value());
}

TEST(Scalar, CanonicalAcceptsLMinusOne) {
  auto lm1 = arr32(from_hex(
      "ecd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010")
      .value());
  const auto s = Scalar::from_canonical_bytes(lm1);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(*s + Scalar::one(), Scalar::zero());
}

TEST(Scalar, FieldAxioms) {
  auto rng = ChaChaRng::from_string_seed("sc-axioms");
  for (int i = 0; i < 25; ++i) {
    const Scalar a = Scalar::random(rng), b = Scalar::random(rng),
                 c = Scalar::random(rng);
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ((a * b) * c, a * (b * c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a - a, Scalar::zero());
    EXPECT_EQ(a + (-a), Scalar::zero());
    EXPECT_EQ(a * Scalar::one(), a);
  }
}

TEST(Scalar, SmallValueArithmetic) {
  EXPECT_EQ(Scalar::from_u64(3) * Scalar::from_u64(5), Scalar::from_u64(15));
  EXPECT_EQ(Scalar::from_u64(100) - Scalar::from_u64(58),
            Scalar::from_u64(42));
  EXPECT_EQ(Scalar::from_u64(1) - Scalar::from_u64(2) + Scalar::from_u64(1),
            Scalar::zero());
}

TEST(Scalar, InvertIsInverse) {
  auto rng = ChaChaRng::from_string_seed("sc-invert");
  for (int i = 0; i < 10; ++i) {
    const Scalar a = Scalar::random(rng);
    if (a.is_zero()) continue;
    EXPECT_EQ(a * a.invert(), Scalar::one());
  }
}

TEST(Scalar, WideReductionMatchesModOrder) {
  // For 32-byte inputs the two entry points must agree.
  auto rng = ChaChaRng::from_string_seed("sc-wide");
  for (int i = 0; i < 10; ++i) {
    std::array<std::uint8_t, 32> narrow;
    rng.fill(narrow.data(), narrow.size());
    std::array<std::uint8_t, 64> wide{};
    std::copy(narrow.begin(), narrow.end(), wide.begin());
    EXPECT_EQ(Scalar::from_bytes_wide(wide),
              Scalar::from_bytes_mod_order(narrow));
  }
}

TEST(Scalar, WideReductionHighHalf) {
  // 2^256 mod l: wide input with a single bit at position 256.
  std::array<std::uint8_t, 64> wide{};
  wide[32] = 1;
  const Scalar two_256 = Scalar::from_bytes_wide(wide);
  // Must equal (2^128)^2 computed by multiplication.
  std::array<std::uint8_t, 32> b{};
  b[16] = 1;  // 2^128
  const Scalar two_128 = Scalar::from_bytes_mod_order(b);
  EXPECT_EQ(two_256, two_128 * two_128);
}

TEST(Scalar, ToBytesRoundTrip) {
  auto rng = ChaChaRng::from_string_seed("sc-bytes");
  for (int i = 0; i < 10; ++i) {
    const Scalar a = Scalar::random(rng);
    const auto back = Scalar::from_canonical_bytes(a.to_bytes());
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, a);
  }
}

// ------------------------------------------------------------- Ristretto

// Small multiples of the base point, from the ristretto255 spec.
const char* kSmallMultiples[] = {
    "0000000000000000000000000000000000000000000000000000000000000000",
    "e2f2ae0a6abc4e71a884a961c500515f58e30b6aa582dd8db6a65945e08d2d76",
    "6a493210f7499cd17fecb510ae0cea23a110e8d5b901f8acadd3095c73a3b919",
    "94741f5d5d52755ece4f23f044ee27d5d1ea1e2bd196b462166b16152a9d0259",
    "da80862773358b466ffadfe0b3293ab3d9fd53c5ea6c955358f568322daf6a57",
    "e882b131016b52c1d3337080187cf768423efccbb517bb495ab812c4160ff44e",
    "f64746d3c92b13050ed8d80236a7f0007c3b3f962f5ba793d19a601ebb1df403",
    "44f53520926ec81fbd5a387845beb7df85a96a24ece18738bdcfa6a7822a176d",
    "903293d8f2287ebe10e2374dc1a53e0bc887e592699f02d077d5263cdd55601c",
    "02622ace8f7303a31cafc63f8fc48fdc16e1c8c8d234b2f0d6685282a9076031",
    "20706fd788b2720a1ed2a5dad4952b01f413bcf0e7564de8cdc816689e2db95f",
    "bce83f8ba5dd2fa572864c24ba1810f9522bc6004afe95877ac73241cafdab42",
    "e4549ee16b9aa03099ca208c67adafcafa4c3f3e4e5303de6026e3ca8ff84460",
    "aa52e000df2e16f55fb1032fc33bc42742dad6bd5a8fc0be0167436c5948501f",
    "46376b80f409b29dc2b5f6f0c52591990896e5716f41477cd30085ab7f10301e",
    "e0c418f7c8d9c4cdd7395b93ea124f3ad99021bb681dfc3302a9d99a2e53e64e",
};

TEST(Ristretto, SpecSmallMultiplesByAddition) {
  RistrettoPoint p = RistrettoPoint::identity();
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(to_hex(ByteView(p.encode())), kSmallMultiples[i]) << "i=" << i;
    p = p + RistrettoPoint::base();
  }
}

TEST(Ristretto, SpecSmallMultiplesByScalarMul) {
  for (int i = 0; i < 16; ++i) {
    const RistrettoPoint p =
        RistrettoPoint::base() * Scalar::from_u64(static_cast<std::uint64_t>(i));
    EXPECT_EQ(to_hex(ByteView(p.encode())), kSmallMultiples[i]) << "i=" << i;
  }
}

TEST(Ristretto, DecodeSmallMultiples) {
  RistrettoPoint p = RistrettoPoint::identity();
  for (int i = 0; i < 16; ++i) {
    const auto enc = arr32(from_hex(kSmallMultiples[i]).value());
    const auto decoded = RistrettoPoint::decode(enc);
    ASSERT_TRUE(decoded.has_value()) << "i=" << i;
    EXPECT_EQ(*decoded, p);
    p = p + RistrettoPoint::base();
  }
}

TEST(Ristretto, SpecHashToGroupEspresso) {
  // From the ristretto255 spec: SHA-512 of the label as uniform bytes.
  const auto uniform = hash::Sha512::digest(
      "Ristretto is traditionally a short shot of espresso coffee");
  const auto p = RistrettoPoint::from_uniform_bytes(uniform);
  EXPECT_EQ(to_hex(ByteView(p.encode())),
            "3066f82a1a747d45120d1740f14358531a8f04bbffe6a819f86dfe50f44a0a46");
}

TEST(Ristretto, FromUniformBytesIsDeterministicAndValid) {
  auto rng = ChaChaRng::from_string_seed("ristretto-uniform");
  for (int i = 0; i < 10; ++i) {
    std::array<std::uint8_t, 64> uniform;
    rng.fill(uniform.data(), uniform.size());
    const auto p = RistrettoPoint::from_uniform_bytes(uniform);
    const auto q = RistrettoPoint::from_uniform_bytes(uniform);
    EXPECT_EQ(p.encode(), q.encode());
    // The output must be a canonically decodable group element.
    const auto decoded = RistrettoPoint::decode(p.encode());
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, p);
  }
}

TEST(Ristretto, DecodeRejectsNonCanonical) {
  // s >= p is non-canonical.
  auto bad = arr32(from_hex(
      "edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f")
      .value());
  EXPECT_FALSE(RistrettoPoint::decode(bad).has_value());
  // Top bit set: from_bytes drops it, so re-encoding differs.
  bad = arr32(from_hex(
      "0000000000000000000000000000000000000000000000000000000000000080")
      .value());
  EXPECT_FALSE(RistrettoPoint::decode(bad).has_value());
  // All ff: both non-canonical and negative.
  bad.fill(0xff);
  EXPECT_FALSE(RistrettoPoint::decode(bad).has_value());
}

TEST(Ristretto, DecodeRejectsYZero) {
  // s = 1 yields y = 0, which the spec rejects.
  auto bad = arr32(from_hex(
      "0100000000000000000000000000000000000000000000000000000000000000")
      .value());
  EXPECT_FALSE(RistrettoPoint::decode(bad).has_value());
}

TEST(Ristretto, EncodeDecodeRoundTrip) {
  auto rng = ChaChaRng::from_string_seed("ristretto-roundtrip");
  for (int i = 0; i < 20; ++i) {
    const RistrettoPoint p = RistrettoPoint::base() * Scalar::random(rng);
    const auto decoded = RistrettoPoint::decode(p.encode());
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, p);
    EXPECT_EQ(decoded->encode(), p.encode());
  }
}

TEST(Ristretto, GroupLaws) {
  auto rng = ChaChaRng::from_string_seed("ristretto-laws");
  const RistrettoPoint p = RistrettoPoint::base() * Scalar::random(rng);
  const RistrettoPoint q = RistrettoPoint::base() * Scalar::random(rng);
  const RistrettoPoint r = RistrettoPoint::base() * Scalar::random(rng);
  EXPECT_EQ(p + q, q + p);
  EXPECT_EQ((p + q) + r, p + (q + r));
  EXPECT_EQ(p + RistrettoPoint::identity(), p);
  EXPECT_EQ(p - p, RistrettoPoint::identity());
  EXPECT_EQ(p + (-p), RistrettoPoint::identity());
}

TEST(Ristretto, ScalarMulHomomorphism) {
  auto rng = ChaChaRng::from_string_seed("ristretto-homo");
  for (int i = 0; i < 5; ++i) {
    const Scalar a = Scalar::random(rng), b = Scalar::random(rng);
    const RistrettoPoint base = RistrettoPoint::base();
    EXPECT_EQ(base * (a + b), base * a + base * b);
    EXPECT_EQ((base * a) * b, base * (a * b));
  }
}

TEST(Ristretto, OrderAnnihilatesBase) {
  // (l - 1) * B + B = identity.
  const Scalar l_minus_1 = Scalar::zero() - Scalar::one();
  EXPECT_EQ(RistrettoPoint::base() * l_minus_1 + RistrettoPoint::base(),
            RistrettoPoint::identity());
}

TEST(Ristretto, HashToGroupDomainSeparation) {
  const Bytes msg = to_bytes("some address");
  const auto p1 = RistrettoPoint::hash_to_group(msg, "ds1");
  const auto p2 = RistrettoPoint::hash_to_group(msg, "ds2");
  EXPECT_FALSE(p1 == p2);
}

TEST(Ristretto, MultiscalarMatchesNaive) {
  auto rng = ChaChaRng::from_string_seed("ristretto-msm");
  std::vector<Scalar> scalars;
  std::vector<RistrettoPoint> points;
  RistrettoPoint expected = RistrettoPoint::identity();
  for (int i = 0; i < 6; ++i) {
    scalars.push_back(Scalar::random(rng));
    points.push_back(RistrettoPoint::base() * Scalar::random(rng));
    expected = expected + points.back() * scalars.back();
  }
  EXPECT_EQ(RistrettoPoint::multiscalar_mul(scalars, points), expected);
}

// ------------------------------------------ Ladder differential checks

// s * P by plain double-and-add over the 256 bits of s, msb first, built
// only from operator+: an independent reference for the radix-16 ladder.
RistrettoPoint naive_mul(const RistrettoPoint& p, const Scalar& s) {
  const auto bytes = s.to_bytes();
  RistrettoPoint acc = RistrettoPoint::identity();
  for (std::size_t bit = 256; bit-- > 0;) {
    acc = acc + acc;
    if ((bytes[bit / 8] >> (bit % 8)) & 1) acc = acc + p;
  }
  return acc;
}

Scalar scalar_from_hex(const char* hex) {
  return Scalar::from_canonical_bytes(arr32(from_hex(hex).value())).value();
}

// Scalars that stress the signed radix-16 recoding: digits at and around
// the +-8 boundary, the all-8s nibble pattern whose carry ripples through
// every digit, the top of the 2^252 range, and the values just below l.
std::vector<Scalar> recoding_edge_scalars() {
  std::vector<Scalar> out;
  for (std::uint64_t v : {0, 1, 7, 8, 9, 15, 16, 17}) {
    out.push_back(Scalar::from_u64(v));
  }
  out.push_back(scalar_from_hex(  // every nibble 8
      "8888888888888888888888888888888888888888888888888888888888888808"));
  out.push_back(scalar_from_hex(  // 2^252 - 1
      "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff0f"));
  out.push_back(scalar_from_hex(  // 2^252
      "0000000000000000000000000000000000000000000000000000000000000010"));
  out.push_back(Scalar::zero() - Scalar::from_u64(8));  // l - 8
  out.push_back(Scalar::zero() - Scalar::one());        // l - 1
  return out;
}

// The base point, a hashed point, and points decoded from the wire: the
// ladder must not depend on how its input was produced.
std::vector<RistrettoPoint> ladder_points() {
  std::vector<RistrettoPoint> out = {
      RistrettoPoint::base(),
      RistrettoPoint::hash_to_group(to_bytes("ladder"), "test_ec")};
  for (const char* hex : {kSmallMultiples[3], kSmallMultiples[15]}) {
    out.push_back(RistrettoPoint::decode(arr32(from_hex(hex).value())).value());
  }
  return out;
}

TEST(Ristretto, ScalarMulMatchesNaiveOnRecodingEdges) {
  for (const RistrettoPoint& p : ladder_points()) {
    for (const Scalar& s : recoding_edge_scalars()) {
      EXPECT_EQ((p * s).encode(), naive_mul(p, s).encode())
          << "s=" << to_hex(ByteView(s.to_bytes()))
          << " P=" << to_hex(ByteView(p.encode()));
    }
  }
}

TEST(Ristretto, ScalarMulMatchesNaiveOnRandomScalars) {
  auto rng = ChaChaRng::from_string_seed("ristretto-ladder");
  const auto points = ladder_points();
  for (int i = 0; i < 200; ++i) {
    const RistrettoPoint& p =
        points[static_cast<std::size_t>(i) % points.size()];
    const Scalar s = Scalar::random(rng);
    EXPECT_EQ((p * s).encode(), naive_mul(p, s).encode())
        << "i=" << i << " s=" << to_hex(ByteView(s.to_bytes()));
  }
}

TEST(Ristretto, MultiscalarMatchesScalarMulOnRecodingEdges) {
  const auto points = ladder_points();
  const auto scalars = recoding_edge_scalars();
  // One term at a time, then every edge scalar in a single call.
  std::vector<Scalar> all_scalars;
  std::vector<RistrettoPoint> all_points;
  RistrettoPoint expected = RistrettoPoint::identity();
  for (std::size_t k = 0; k < scalars.size(); ++k) {
    const RistrettoPoint& p = points[k % points.size()];
    EXPECT_EQ(RistrettoPoint::multiscalar_mul({scalars[k]}, {p}).encode(),
              (p * scalars[k]).encode())
        << "s=" << to_hex(ByteView(scalars[k].to_bytes()));
    all_scalars.push_back(scalars[k]);
    all_points.push_back(p);
    expected = expected + p * scalars[k];
  }
  EXPECT_EQ(RistrettoPoint::multiscalar_mul(all_scalars, all_points).encode(),
            expected.encode());
  EXPECT_TRUE(RistrettoPoint::multiscalar_mul({}, {}).is_identity());
}

TEST(Ristretto, MultiscalarSizeMismatchThrows) {
  EXPECT_THROW(RistrettoPoint::multiscalar_mul({Scalar::one()}, {}),
               std::invalid_argument);
}

// --------------------------------------- Scalar-multiplication kernels

// The IFMA bodies, or nullptr where this CPU (or build) cannot run them.
RistrettoKernels::MulFn ifma_mul() {
#if CBL_RISTRETTO_IFMA
  if (RistrettoKernels::ifma_supported()) return RistrettoKernels::mul_ifma;
#endif
  return nullptr;
}

RistrettoKernels::MultiscalarFn ifma_multiscalar() {
#if CBL_RISTRETTO_IFMA
  if (RistrettoKernels::ifma_supported()) {
    return RistrettoKernels::multiscalar_ifma;
  }
#endif
  return nullptr;
}

constexpr const char* kNoIfma =
    "CPU lacks avx512ifma/avx512vl (or the build is not x86-64); the IFMA "
    "kernel cannot run here";

// The same group element as p, with every coordinate limb moved to the
// top of Fe25519's reduced bound (< 2^52): each coordinate is carried
// down to limbs below 2^51 (limb 0 below 2^51 + 19), then p's own limbs
// (2^51 - 19, 2^51 - 1, ...) are added, which adds p = 0 to the value.
RistrettoPoint at_top_of_limb_bound(const RistrettoPoint& p) {
  constexpr std::uint64_t kMask = (std::uint64_t{1} << 51) - 1;
  RistrettoKernels::Limbs limbs = RistrettoKernels::to_limbs(p);
  for (auto& c : limbs) {
    for (int pass = 0; pass < 2; ++pass) {
      for (std::size_t k = 0; k < 4; ++k) {
        c[k + 1] += c[k] >> 51;
        c[k] &= kMask;
      }
      c[0] += 19 * (c[4] >> 51);
      c[4] &= kMask;
    }
    c[0] += kMask - 18;
    for (std::size_t k = 1; k < 5; ++k) c[k] += kMask;
  }
  return RistrettoKernels::from_limbs(limbs);
}

TEST(RistrettoKernels, ActiveKernelFollowsCpuid) {
  EXPECT_STREQ(RistrettoKernels::active_name(),
               RistrettoKernels::ifma_supported() ? "ifma" : "serial");
}

// operator* may run the IFMA body, so the serial one is checked directly.
TEST(RistrettoKernels, SerialMatchesNaiveOnRecodingEdges) {
  for (const RistrettoPoint& p : ladder_points()) {
    for (const Scalar& s : recoding_edge_scalars()) {
      EXPECT_EQ(RistrettoKernels::mul_serial(p, s).encode(),
                naive_mul(p, s).encode())
          << "s=" << to_hex(ByteView(s.to_bytes()));
    }
  }
}

TEST(RistrettoKernels, IfmaMatchesSerialAndNaiveOnRecodingEdges) {
  const auto mul = ifma_mul();
  if (!mul) GTEST_SKIP() << kNoIfma;
  for (const RistrettoPoint& p : ladder_points()) {
    for (const Scalar& s : recoding_edge_scalars()) {
      const auto got = mul(p, s).encode();
      EXPECT_EQ(got, RistrettoKernels::mul_serial(p, s).encode())
          << "s=" << to_hex(ByteView(s.to_bytes()))
          << " P=" << to_hex(ByteView(p.encode()));
      EXPECT_EQ(got, naive_mul(p, s).encode());
    }
  }
}

TEST(RistrettoKernels, IfmaMatchesSerialAndNaiveOnRandomScalars) {
  const auto mul = ifma_mul();
  if (!mul) GTEST_SKIP() << kNoIfma;
  auto rng = ChaChaRng::from_string_seed("ristretto-kernels");
  const auto points = ladder_points();
  for (int i = 0; i < 200; ++i) {
    const RistrettoPoint& p =
        points[static_cast<std::size_t>(i) % points.size()];
    const Scalar s = Scalar::random(rng);
    const auto got = mul(p, s).encode();
    EXPECT_EQ(got, RistrettoKernels::mul_serial(p, s).encode()) << "i=" << i;
    EXPECT_EQ(got, naive_mul(p, s).encode()) << "i=" << i;
  }
}

TEST(RistrettoKernels, IfmaMatchesSerialAtTopOfLimbBound) {
  const auto mul = ifma_mul();
  const auto multiscalar = ifma_multiscalar();
  if (!mul) GTEST_SKIP() << kNoIfma;
  auto rng = ChaChaRng::from_string_seed("ristretto-kernels-top");
  std::vector<Scalar> scalars = recoding_edge_scalars();
  for (int i = 0; i < 8; ++i) scalars.push_back(Scalar::random(rng));
  for (const RistrettoPoint& p : ladder_points()) {
    const RistrettoPoint top = at_top_of_limb_bound(p);
    for (const auto& c : RistrettoKernels::to_limbs(top)) {
      for (const std::uint64_t limb : c) ASSERT_GE(limb, (1ull << 51) - 19);
    }
    ASSERT_EQ(top.encode(), p.encode());
    for (const Scalar& s : scalars) {
      const auto want = RistrettoKernels::mul_serial(p, s).encode();
      EXPECT_EQ(mul(top, s).encode(), want)
          << "s=" << to_hex(ByteView(s.to_bytes()));
      EXPECT_EQ(RistrettoKernels::mul_serial(top, s).encode(), want);
    }
    const std::vector<RistrettoPoint> tops(scalars.size(), top);
    const std::vector<RistrettoPoint> ps(scalars.size(), p);
    EXPECT_EQ(multiscalar(scalars, tops).encode(),
              RistrettoKernels::multiscalar_serial(scalars, ps).encode());
  }
}

TEST(RistrettoKernels, IfmaMultiscalarMatchesSerial) {
  const auto multiscalar = ifma_multiscalar();
  if (!multiscalar) GTEST_SKIP() << kNoIfma;
  auto rng = ChaChaRng::from_string_seed("ristretto-kernels-msm");
  const auto edges = recoding_edge_scalars();
  const auto points = ladder_points();
  for (std::size_t n : {0u, 1u, 2u, 7u, 13u}) {
    std::vector<Scalar> scalars;
    std::vector<RistrettoPoint> terms;
    for (std::size_t k = 0; k < n; ++k) {
      scalars.push_back(k % 2 == 0 ? edges[k % edges.size()]
                                   : Scalar::random(rng));
      terms.push_back(points[k % points.size()] * Scalar::random(rng));
    }
    EXPECT_EQ(multiscalar(scalars, terms).encode(),
              RistrettoKernels::multiscalar_serial(scalars, terms).encode())
        << "n=" << n;
  }
}

TEST(Ristretto, OprfBlindUnblindCycle) {
  // The algebra underpinning Fig. 2: H(u)^(r*R) unblinded by 1/r equals
  // H(u)^R.
  auto rng = ChaChaRng::from_string_seed("oprf-cycle");
  const RistrettoPoint h = RistrettoPoint::hash_to_group(to_bytes("addr"), "H");
  const Scalar big_r = Scalar::random(rng);
  const Scalar r = Scalar::random(rng);
  const RistrettoPoint masked = h * r;
  const RistrettoPoint evaluated = masked * big_r;
  const RistrettoPoint unblinded = evaluated * r.invert();
  EXPECT_EQ(unblinded, h * big_r);
}

}  // namespace
}  // namespace cbl::ec
