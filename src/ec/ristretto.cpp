#include "ec/ristretto.h"

#include <cassert>
#include <stdexcept>

#include "common/ct.h"
#include "ec/ristretto_kernels.h"
#include "hash/sha512.h"

namespace cbl::ec {

namespace {

// Derived curve constants, computed once at startup and cross-checked by
// the ristretto255 specification test vectors in the test suite.
const Fe25519& one_minus_d_sq() noexcept {
  static const Fe25519 v =
      Fe25519::one() - Fe25519::edwards_d().square();
  return v;
}

const Fe25519& d_minus_one_sq() noexcept {
  static const Fe25519 v =
      (Fe25519::edwards_d() - Fe25519::one()).square();
  return v;
}

const Fe25519& sqrt_ad_minus_one() noexcept {
  // sqrt(a*d - 1) with a = -1, i.e. sqrt(-d - 1). The ristretto255
  // specification fixes the NEGATIVE (odd) root for this constant; the
  // hash-to-group test vectors pin the choice down.
  static const Fe25519 v = [] {
    const auto r =
        sqrt_ratio_m1(-Fe25519::edwards_d() - Fe25519::one(), Fe25519::one());
    assert(r.was_square);
    return -r.root;
  }();
  return v;
}

const Fe25519& invsqrt_a_minus_d() noexcept {
  // 1/sqrt(a - d) = 1/sqrt(-1 - d); the non-negative root.
  static const Fe25519 v = [] {
    const auto r =
        sqrt_ratio_m1(Fe25519::one(), -Fe25519::one() - Fe25519::edwards_d());
    assert(r.was_square);
    return r.root;
  }();
  return v;
}

const Fe25519& two_d() noexcept {
  static const Fe25519 v = Fe25519::edwards_d() + Fe25519::edwards_d();
  return v;
}

// Constant-initialised to the serial bodies, so a multiplication run by
// another translation unit's static initialiser before this one's still
// computes correctly; switched to IFMA once, during static
// initialisation.
constinit RistrettoKernels::MulFn g_mul = RistrettoKernels::mul_serial;
constinit RistrettoKernels::MultiscalarFn g_multiscalar =
    RistrettoKernels::multiscalar_serial;
[[maybe_unused]] const bool g_kernels_selected = [] {
#if CBL_RISTRETTO_IFMA
  if (RistrettoKernels::ifma_supported()) {
    g_mul = RistrettoKernels::mul_ifma;
    g_multiscalar = RistrettoKernels::multiscalar_ifma;
  }
#endif
  return true;
}();

}  // namespace

// (Y+X, Y-X, Z, 2dT): the addend form of the unified addition, with the
// sums and the multiplication by 2d hoisted out of every addition.
struct RistrettoPoint::Cached {
  Fe25519 y_plus_x, y_minus_x, z, t2d;

  void cmov(const Cached& o, std::uint64_t mask) noexcept {
    y_plus_x.cmov(o.y_plus_x, mask);
    y_minus_x.cmov(o.y_minus_x, mask);
    z.cmov(o.z, mask);
    t2d.cmov(o.t2d, mask);
  }

  // -P swaps Y+X with Y-X and negates T.
  Cached operator-() const noexcept {
    return Cached{y_minus_x, y_plus_x, z, -t2d};
  }

  // {1P, 2P, ..., 8P}: the table both scalar multiplications index by
  // |digit| - 1.
  static std::array<Cached, 8> multiples(const RistrettoPoint& p) noexcept;
};

// ((X:Z), (Y:T)): x = X/Z, y = Y/T. Leaving the last four products undone
// lets a doubling chain skip the one (T) it never reads.
struct RistrettoPoint::Completed {
  Fe25519 x, y, z, t;

  RistrettoPoint to_extended() const noexcept {
    return RistrettoPoint(x * t, y * z, z * t, x * y);
  }
  Projective to_projective() const noexcept;
};

struct RistrettoPoint::Projective {
  Fe25519 x, y, z;

  // 16 * P: four doublings chained in projective form, with T restored
  // only at the end.
  RistrettoPoint mul_by_16() const noexcept;

  // dbl-2008-bbjlp with a = -1; reads only X, Y, Z.
  Completed doubled() const noexcept {
    const Fe25519 xx = x.square();
    const Fe25519 yy = y.square();
    const Fe25519 zz = z.square();
    const Fe25519 zz2 = zz + zz;
    const Fe25519 yy_plus_xx = yy + xx;
    const Fe25519 yy_minus_xx = yy - xx;
    return Completed{(x + y).square() - yy_plus_xx, yy_plus_xx, yy_minus_xx,
                     zz2 - yy_minus_xx};
  }
};

RistrettoPoint::Projective RistrettoPoint::Completed::to_projective()
    const noexcept {
  return Projective{x * t, y * z, z * t};
}

RistrettoPoint::Cached RistrettoPoint::to_cached() const noexcept {
  return Cached{y_ + x_, y_ - x_, z_, t_ * two_d()};
}

RistrettoPoint::Completed RistrettoPoint::add(const Cached& q) const noexcept {
  // Unified addition in extended coordinates (add-2008-hwcd-3, a = -1).
  const Fe25519 pp = (y_ + x_) * q.y_plus_x;
  const Fe25519 mm = (y_ - x_) * q.y_minus_x;
  const Fe25519 tt2d = t_ * q.t2d;
  const Fe25519 zz = z_ * q.z;
  const Fe25519 zz2 = zz + zz;
  return Completed{pp - mm, pp + mm, zz2 + tt2d, zz2 - tt2d};
}

std::array<RistrettoPoint::Cached, 8> RistrettoPoint::Cached::multiples(
    const RistrettoPoint& p) noexcept {
  std::array<Cached, 8> table;
  table[0] = p.to_cached();
  for (std::size_t j = 1; j < 8; ++j) {
    table[j] = p.add(table[j - 1]).to_extended().to_cached();
  }
  return table;
}

RistrettoPoint RistrettoPoint::Projective::mul_by_16() const noexcept {
  Projective p = *this;
  for (int i = 0; i < 3; ++i) p = p.doubled().to_projective();
  return p.doubled().to_extended();
}

RistrettoPoint::RistrettoPoint() noexcept
    : x_(Fe25519::zero()),
      y_(Fe25519::one()),
      z_(Fe25519::one()),
      t_(Fe25519::zero()) {}

const RistrettoPoint& RistrettoPoint::identity() noexcept {
  static const RistrettoPoint p;
  return p;
}

const RistrettoPoint& RistrettoPoint::base() noexcept {
  static const RistrettoPoint p = [] {
    // The ed25519 base point: y = 4/5, x the even root of
    // (y^2 - 1) / (d*y^2 + 1).
    const Fe25519 y = Fe25519::from_u64(4) * Fe25519::from_u64(5).invert();
    const Fe25519 y_sq = y.square();
    const auto r = sqrt_ratio_m1(y_sq - Fe25519::one(),
                                 Fe25519::edwards_d() * y_sq + Fe25519::one());
    assert(r.was_square);
    const Fe25519 x = r.root;  // non-negative == even lsb, matching ed25519 B
    return RistrettoPoint(x, y, Fe25519::one(), x * y);
  }();
  return p;
}

std::optional<RistrettoPoint> RistrettoPoint::decode(
    const Encoding& bytes) noexcept {
  const Fe25519 s = Fe25519::from_bytes(bytes);
  // Validity flags accumulate with `&`/`|` (no short-circuit) and gate a
  // single exit at the end: the verdict itself is public protocol state,
  // but WHICH check failed — or any value along the way — must not shape
  // the instruction trace. The canonicity compare is ct_equal, not the
  // early-exit array operator==.
  const bool canonical = ct_equal(s.to_bytes(), bytes);
  const bool nonneg = !s.is_negative();

  const Fe25519 ss = s.square();
  const Fe25519 u1 = Fe25519::one() - ss;
  const Fe25519 u2 = Fe25519::one() + ss;
  const Fe25519 u2_sqr = u2.square();
  const Fe25519 v = -(Fe25519::edwards_d() * u1.square()) - u2_sqr;

  const auto inv = sqrt_ratio_m1(Fe25519::one(), v * u2_sqr);
  const Fe25519 den_x = inv.root * u2;
  const Fe25519 den_y = inv.root * den_x * v;

  const Fe25519 x = ((s + s) * den_x).abs();
  const Fe25519 y = u1 * den_y;
  const Fe25519 t = x * y;

  const bool valid = canonical & nonneg & inv.was_square &
                     !t.is_negative() & !y.is_zero();
  if (!valid) return std::nullopt;  // ct:public — verdict is protocol state
  return RistrettoPoint(x, y, Fe25519::one(), t);
}

RistrettoPoint::Encoding RistrettoPoint::encode_with_invsqrt(
    const Fe25519& inv_root) const noexcept {
  const Fe25519 u1 = (z_ + y_) * (z_ - y_);
  const Fe25519 u2 = x_ * y_;
  const Fe25519 den1 = inv_root * u1;
  const Fe25519 den2 = inv_root * u2;
  const Fe25519 z_inv = den1 * den2 * t_;

  const Fe25519 ix = x_ * Fe25519::sqrt_m1();
  const Fe25519 iy = y_ * Fe25519::sqrt_m1();
  const Fe25519 enchanted_den = den1 * invsqrt_a_minus_d();

  const bool rotate = (t_ * z_inv).is_negative();
  const Fe25519 x = Fe25519::select(rotate, iy, x_);
  Fe25519 y = Fe25519::select(rotate, ix, y_);
  const Fe25519 den_inv = Fe25519::select(rotate, enchanted_den, den2);

  // cmov, not a branch: the coordinates may derive from secret scalars.
  y = Fe25519::select((x * z_inv).is_negative(), -y, y);
  return (den_inv * (z_ - y)).abs().to_bytes();
}

RistrettoPoint::Encoding RistrettoPoint::encode() const noexcept {
  const Fe25519 u1 = (z_ + y_) * (z_ - y_);
  const Fe25519 u2 = x_ * y_;
  const auto inv = sqrt_ratio_m1(Fe25519::one(), u1 * u2.square());
  return encode_with_invsqrt(inv.root);
}

RistrettoPoint RistrettoPoint::doubled_for_encode(Fe25519& w) const noexcept {
  // For P = (X:Y:Z:T), write e = 2XY, f = Z^2 + dT^2, g = Y^2 + X^2,
  // h = Z^2 - dT^2. The curve identity Y^2 - X^2 = Z^2 + dT^2 turns the
  // extended doubling formula into 2P = (eh : gf : fh : eg), and makes
  // the encode target of 2P a rational square:
  //   u1 * u2^2 = -(1+d) * (e^2 f^2 g h)^2,
  // so 1/sqrt(u1*u2^2) = invsqrt_a_minus_d() / (e^2 f^2 g h) up to sign
  // (encode_with_invsqrt is sign-invariant): one field inversion of
  // W = e^2 f^2 g h replaces encode()'s pow_p58 exponentiation.
  // W = 0 exactly when 2P is in the identity coset; the inversion's
  // 0 -> 0 then yields the all-zero encoding, matching encode().
  const Fe25519 xx = x_.square();
  const Fe25519 yy = y_.square();
  const Fe25519 zz = z_.square();
  const Fe25519 dtt = Fe25519::edwards_d() * t_.square();
  const Fe25519 e = (x_ + y_).square() - xx - yy;
  const Fe25519 f = zz + dtt;
  const Fe25519 g = yy + xx;
  const Fe25519 h = zz - dtt;
  w = e.square() * f.square() * g * h;
  return RistrettoPoint(e * h, g * f, f * h, e * g);
}

RistrettoPoint::Encoding RistrettoPoint::double_and_encode() const noexcept {
  Fe25519 w;
  const RistrettoPoint doubled = doubled_for_encode(w);
  w = w.invert();
  const Encoding out = doubled.encode_with_invsqrt(invsqrt_a_minus_d() * w);
  w.wipe();  // entangled with the (possibly secret-derived) point
  return out;
}

std::vector<RistrettoPoint::Encoding> RistrettoPoint::double_and_encode_batch(
    std::span<const RistrettoPoint> halves) {
  const std::size_t n = halves.size();
  std::vector<Encoding> out(n);
  if (n == 0) return out;

  // double_and_encode() per point, with one batch_invert over every W_i
  // in place of n inversions.
  std::vector<RistrettoPoint> doubled(n);
  std::vector<Fe25519> w(n);
  for (std::size_t i = 0; i < n; ++i) {
    doubled[i] = halves[i].doubled_for_encode(w[i]);
  }

  Fe25519::batch_invert(w);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = doubled[i].encode_with_invsqrt(invsqrt_a_minus_d() * w[i]);
  }

  // Intermediates are entangled with the (possibly secret-derived) inputs.
  for (auto& v : w) v.wipe();
  return out;
}

std::vector<RistrettoPoint> RistrettoPoint::batch_hash_to_group(
    std::span<const Bytes> inputs, std::string_view domain_sep) {
  std::vector<RistrettoPoint> out(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    out[i] = hash_to_group(inputs[i], domain_sep);
  }
  return out;
}

RistrettoPoint RistrettoPoint::elligator_map(const Fe25519& t) noexcept {
  const Fe25519& d = Fe25519::edwards_d();
  const Fe25519 r = Fe25519::sqrt_m1() * t.square();
  const Fe25519 u = (r + Fe25519::one()) * one_minus_d_sq();
  const Fe25519 v = (-Fe25519::one() - r * d) * (r + d);

  // Elligator runs over hashed-but-secret data (the queried entry), so
  // both fixups are selects rather than branches.
  const auto sq = sqrt_ratio_m1(u, v);
  const Fe25519 s_prime = -(sq.root * t).abs();
  const Fe25519 s = Fe25519::select(sq.was_square, sq.root, s_prime);
  const Fe25519 c = Fe25519::select(sq.was_square, -Fe25519::one(), r);

  const Fe25519 n = c * (r - Fe25519::one()) * d_minus_one_sq() - v;
  const Fe25519 s_sq = s.square();

  const Fe25519 w0 = (s + s) * v;
  const Fe25519 w1 = n * sqrt_ad_minus_one();
  const Fe25519 w2 = Fe25519::one() - s_sq;
  const Fe25519 w3 = Fe25519::one() + s_sq;

  return RistrettoPoint(w0 * w3, w2 * w1, w1 * w3, w0 * w2);
}

RistrettoPoint RistrettoPoint::from_uniform_bytes(
    const std::array<std::uint8_t, 64>& bytes) noexcept {
  std::array<std::uint8_t, 32> half;
  std::copy(bytes.begin(), bytes.begin() + 32, half.begin());
  const RistrettoPoint p1 = elligator_map(Fe25519::from_bytes(half));
  std::copy(bytes.begin() + 32, bytes.end(), half.begin());
  const RistrettoPoint p2 = elligator_map(Fe25519::from_bytes(half));
  return p1 + p2;
}

RistrettoPoint RistrettoPoint::hash_to_group(
    ByteView data, std::string_view domain_sep) noexcept {
  hash::Sha512 h;
  h.update(domain_sep).update(data);
  return from_uniform_bytes(h.finalize());
}

RistrettoPoint RistrettoPoint::operator+(const RistrettoPoint& o) const noexcept {
  return add(o.to_cached()).to_extended();
}

RistrettoPoint RistrettoPoint::operator-() const noexcept {
  return RistrettoPoint(-x_, y_, z_, -t_);
}

RistrettoPoint RistrettoPoint::operator-(const RistrettoPoint& o) const noexcept {
  return add(-o.to_cached()).to_extended();
}

RistrettoPoint RistrettoPoint::operator*(const Scalar& s) const noexcept {
  return g_mul(*this, s);
}

RistrettoPoint RistrettoKernels::mul_serial(const RistrettoPoint& p,
                                            const Scalar& s) noexcept {
  // The scalar is routinely secret (OPRF mask, blinding factor, VRF
  // key), so each digit reaches the table only through select's full
  // scan, and the double/add schedule below is the same for every scalar.
  // Between digits the accumulator stays projective: the next doublings
  // never read T, so only the last addition pays for it.
  using Cached = RistrettoPoint::Cached;
  using Projective = RistrettoPoint::Projective;
  const std::array<Cached, 8> table = Cached::multiples(p);

  // |digit| * P by cmov over every entry (identity when digit = 0), then
  // a cmov negation when digit < 0.
  const auto select = [&table](std::int8_t digit) noexcept {
    const std::uint64_t neg_mask =  // ct:secret
        static_cast<std::uint64_t>(std::int64_t{digit} >> 63);
    const std::uint64_t abs_digit =  // ct:secret
        (static_cast<std::uint64_t>(std::int64_t{digit}) ^ neg_mask) - neg_mask;
    Cached r{Fe25519::one(), Fe25519::one(), Fe25519::one(), Fe25519::zero()};
    for (std::size_t j = 0; j < 8; ++j) {
      r.cmov(table[j], eq_mask(abs_digit, j + 1));
    }
    r.cmov(-r, neg_mask);
    return r;
  };

  std::array<std::int8_t, 64> digits = radix16(s);  // ct:secret
  Projective acc =
      RistrettoPoint::identity().add(select(digits[63])).to_projective();
  for (std::size_t i = 63; i-- > 1;) {
    acc = acc.mul_by_16().add(select(digits[i])).to_projective();
  }
  const RistrettoPoint result =
      acc.mul_by_16().add(select(digits[0])).to_extended();
  secure_wipe(digits);
  return result;
}

bool RistrettoPoint::operator==(const RistrettoPoint& o) const noexcept {
  // Ristretto equality: x1*y2 == y1*x2 or y1*y2 == x1*x2. Both products
  // are always computed and the verdicts combine with `|` — point
  // equality runs on commitment openings and OPRF outputs.
  const bool xy = x_ * o.y_ == y_ * o.x_;
  const bool yx = y_ * o.y_ == x_ * o.x_;
  return xy | yx;
}

RistrettoPoint RistrettoPoint::multiscalar_mul(
    const std::vector<Scalar>& scalars,
    const std::vector<RistrettoPoint>& points) {
  if (scalars.size() != points.size()) {
    throw std::invalid_argument("multiscalar_mul: size mismatch");
  }
  return g_multiscalar(scalars, points);
}

RistrettoPoint RistrettoKernels::multiscalar_serial(
    std::span<const Scalar> scalars, std::span<const RistrettoPoint> points) {
  // Shared-doubling (interleaved) evaluation over signed radix-16
  // digits: one doubling chain for all terms instead of one per term.
  // Variable-time BY DESIGN: this path only runs on public data
  // (NIZK/DLEQ verification, tally checks); secret scalars must use
  // operator*. ct:public
  using Cached = RistrettoPoint::Cached;
  using Projective = RistrettoPoint::Projective;
  std::vector<std::array<Cached, 8>> tables(points.size());
  std::vector<std::array<std::int8_t, 64>> recoded(scalars.size());
  for (std::size_t k = 0; k < points.size(); ++k) {
    tables[k] = Cached::multiples(points[k]);
    recoded[k] = radix16(scalars[k]);
  }

  RistrettoPoint acc = RistrettoPoint::identity();
  for (std::size_t i = 64; i-- > 0;) {
    acc = Projective{acc.x_, acc.y_, acc.z_}.mul_by_16();
    for (std::size_t k = 0; k < scalars.size(); ++k) {
      const std::array<Cached, 8>& table = tables[k];
      const std::int8_t d = recoded[k][i];
      if (d > 0) {
        acc = acc.add(table[static_cast<std::size_t>(d - 1)]).to_extended();
      } else if (d < 0) {
        acc = acc.add(-table[static_cast<std::size_t>(-d - 1)]).to_extended();
      }
    }
  }
  return acc;
}

// Each nibble above 7 borrows 16 from the next one up; the carry is
// computed by an arithmetic shift, not a branch. Scalars are < l < 2^253,
// so the top digit ends in [0, 2] and needs no further carry.
std::array<std::int8_t, 64> RistrettoKernels::radix16(
    const Scalar& s) noexcept {
  std::array<std::uint8_t, 32> bytes = s.to_bytes();
  std::array<std::int8_t, 64> digits;  // ct:secret
  for (std::size_t i = 0; i < 32; ++i) {
    digits[2 * i] = static_cast<std::int8_t>(bytes[i] & 0x0f);
    digits[2 * i + 1] = static_cast<std::int8_t>(bytes[i] >> 4);
  }
  for (std::size_t i = 0; i < 63; ++i) {
    const std::int8_t carry = static_cast<std::int8_t>((digits[i] + 8) >> 4);
    digits[i] = static_cast<std::int8_t>(digits[i] - (carry << 4));
    digits[i + 1] = static_cast<std::int8_t>(digits[i + 1] + carry);
  }
  secure_wipe(bytes);
  return digits;
}

std::array<std::uint64_t, 5> RistrettoKernels::limbs(
    const Fe25519& f) noexcept {
  std::array<std::uint64_t, 5> out;
  for (std::size_t k = 0; k < 5; ++k) {
    out[k] = f.limbs_[k];
    assert(out[k] >> 52 == 0);  // the vector multiplier's input bound
  }
  return out;
}

RistrettoKernels::Limbs RistrettoKernels::to_limbs(
    const RistrettoPoint& p) noexcept {
  return {limbs(p.x_), limbs(p.y_), limbs(p.z_), limbs(p.t_)};
}

RistrettoPoint RistrettoKernels::from_limbs(const Limbs& l) noexcept {
  auto fe = [&l](std::size_t c) {
    return Fe25519(l[c][0], l[c][1], l[c][2], l[c][3], l[c][4]);
  };
  return RistrettoPoint(fe(0), fe(1), fe(2), fe(3));
}

#if CBL_RISTRETTO_IFMA

bool RistrettoKernels::ifma_supported() noexcept {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512ifma") &&
         __builtin_cpu_supports("avx512vl");
}

#else

bool RistrettoKernels::ifma_supported() noexcept { return false; }

#endif

const char* RistrettoKernels::active_name() noexcept {
  return g_mul == mul_serial ? "serial" : "ifma";
}

}  // namespace cbl::ec
