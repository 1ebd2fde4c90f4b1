// Differential harness over the two independent decode paths for group
// elements: RistrettoPoint::decode / Scalar::from_canonical_bytes versus
// ec::WireReader's point()/scalar(). Both must accept exactly the same
// byte strings, agree on the decoded value, and re-encode canonically.
// Inputs of 64 bytes or more also drive the scalar-multiplication ladder:
// bytes 32..63, reduced mod l, multiply the decoded point (the base point
// when bytes 0..31 do not decode), and the result must match a plain
// double-and-add and a one-term multiscalar_mul, through the dispatched
// operator* and through each scalar-multiplication kernel this CPU runs.
// Inputs of 96 bytes or more also drive both inversions: bytes 64..95,
// as a Scalar (reduced mod l) and as an Fe25519, must satisfy
// x * x^-1 = 1, and 0 -> 0.
// Also covers from_hex/to_hex (the text-facing byte codec).
#include <algorithm>
#include <array>
#include <cctype>
#include <string>

#include "common/bytes.h"
#include "ec/codec.h"
#include "ec/fe25519.h"
#include "ec/ristretto.h"
#include "ec/ristretto_kernels.h"
#include "ec/scalar.h"
#include "fuzz/harness.h"

using namespace cbl;

namespace {

// s * P by double-and-add over the 256 bits of s, built only from
// operator+.
ec::RistrettoPoint naive_mul(const ec::RistrettoPoint& p,
                             const ec::Scalar& s) {
  const auto bytes = s.to_bytes();
  ec::RistrettoPoint acc = ec::RistrettoPoint::identity();
  for (std::size_t bit = 256; bit-- > 0;) {
    acc = acc + acc;
    if ((bytes[bit / 8] >> (bit % 8)) & 1) acc = acc + p;
  }
  return acc;
}

}  // namespace

CBL_FUZZ_TARGET(cbl_fuzz_ristretto_diff) {
  if (size >= 32) {
    std::array<std::uint8_t, 32> enc{};
    std::copy_n(data, 32, enc.begin());

    const auto direct = ec::RistrettoPoint::decode(enc);
    ec::WireReader point_reader(ByteView(data, 32));
    const ec::RistrettoPoint via_reader = point_reader.point();
    CBL_FUZZ_CHECK(direct.has_value() == point_reader.finish());
    if (direct) {
      CBL_FUZZ_CHECK(via_reader == *direct);
      CBL_FUZZ_CHECK(direct->encode() == enc);  // canonical re-encode
    }

    const auto canonical = ec::Scalar::from_canonical_bytes(enc);
    ec::WireReader scalar_reader(ByteView(data, 32));
    const ec::Scalar via_scalar = scalar_reader.scalar();
    CBL_FUZZ_CHECK(canonical.has_value() == scalar_reader.finish());
    if (canonical) {
      CBL_FUZZ_CHECK(via_scalar == *canonical);
      CBL_FUZZ_CHECK(canonical->to_bytes() == enc);
    }

    if (size >= 64) {
      std::array<std::uint8_t, 32> scalar_bytes{};
      std::copy_n(data + 32, 32, scalar_bytes.begin());
      const ec::Scalar s = ec::Scalar::from_bytes_mod_order(scalar_bytes);
      const ec::RistrettoPoint p =
          direct ? *direct : ec::RistrettoPoint::base();
      const auto product = (p * s).encode();
      CBL_FUZZ_CHECK(product == naive_mul(p, s).encode());
      CBL_FUZZ_CHECK(product ==
                     ec::RistrettoPoint::multiscalar_mul({s}, {p}).encode());
      using K = ec::RistrettoKernels;
      CBL_FUZZ_CHECK(product == K::mul_serial(p, s).encode());
      CBL_FUZZ_CHECK(product ==
                     K::multiscalar_serial({&s, 1}, {&p, 1}).encode());
#if CBL_RISTRETTO_IFMA
      if (K::ifma_supported()) {
        CBL_FUZZ_CHECK(product == K::mul_ifma(p, s).encode());
        CBL_FUZZ_CHECK(product ==
                       K::multiscalar_ifma({&s, 1}, {&p, 1}).encode());
      }
#endif
    }

    if (size >= 96) {
      std::array<std::uint8_t, 32> inv_bytes{};
      std::copy_n(data + 64, 32, inv_bytes.begin());
      const ec::Scalar s = ec::Scalar::from_bytes_mod_order(inv_bytes);
      const ec::Scalar s_inv = s.invert();
      CBL_FUZZ_CHECK(s.is_zero() ? s_inv.is_zero()
                                 : s * s_inv == ec::Scalar::one());
      const ec::Fe25519 x = ec::Fe25519::from_bytes(inv_bytes);
      const ec::Fe25519 x_inv = x.invert();
      CBL_FUZZ_CHECK(x.is_zero() ? x_inv.is_zero()
                                 : x * x_inv == ec::Fe25519::one());
    }
  }

  const std::string text(reinterpret_cast<const char*>(data), size);
  if (const auto bytes = from_hex(text)) {
    CBL_FUZZ_CHECK(bytes->size() * 2 == text.size());
    std::string lowered(text);
    std::transform(lowered.begin(), lowered.end(), lowered.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    CBL_FUZZ_CHECK(to_hex(*bytes) == lowered);
  }
  return 0;
}
