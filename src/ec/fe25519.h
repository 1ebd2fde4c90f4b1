// Arithmetic in GF(2^255 - 19), the base field of Curve25519, implemented
// from scratch with 5 x 51-bit unsigned limbs and 128-bit intermediate
// products. This is the foundation of the Ristretto255 group used by the
// paper's OPRF, commitments, NIZKs, and VRF.
//
// The hot kernels (add, sub, negate, mul, the dedicated square, select,
// cmov and the carries behind them) are defined inline right after
// the class, so the group code in ristretto.cpp compiles to straight-line
// limb arithmetic instead of thousands of opaque calls per scalar
// multiplication. The exponentiation chain, encoding and inversion stay
// in fe25519.cpp.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <span>

#include "common/bytes.h"
#include "common/ct.h"

namespace cbl::ec {

struct RistrettoKernels;  // ec/ristretto_kernels.h reads the limbs

/// A field element of GF(p), p = 2^255 - 19. Canonical form is only
/// produced by to_bytes(); in between, two limb bounds hold:
///
///  - Reduced: every limb < 2^52. operator-, operator*, square(),
///    from_bytes() and invert() return reduced elements.
///  - Operand: every limb < 2^54 (curve25519-dalek's u64 bound). This is
///    what operator-, operator*, square() and to_bytes() accept. operator+
///    is a bare limbwise sum with no carry chain, so a sum of up to four
///    reduced values (< 4 * 2^52 = 2^54) is a valid operand.
///
/// Why the operand bound suffices: with a_i, b_i < 2^54, the worst column
/// sum of a product is (1 + 4 * 19) * 2^108 < 2^114.3 < 2^115, so each
/// carry (column >> 51) fits a u64, and 19 * b_i < 2^59 fits before the
/// multiply. The top column r4 has no 19s: it stays below 5 * 2^108 plus
/// the incoming carry, its carry is below 2^59.4, and 19 times that still
/// fits a u64. A subtrahend below 2^54 stays below 16p's limbs
/// (>= 2^55 - 304), so operator- never wraps. Debug builds assert the
/// operand bound at the entry of operator-, operator* and square().
class Fe25519 {
 public:
  /// Zero element.
  constexpr Fe25519() noexcept : limbs_{0, 0, 0, 0, 0} {}

  /// Small constant.
  static Fe25519 from_u64(std::uint64_t v) noexcept;

  static const Fe25519& zero() noexcept;
  static const Fe25519& one() noexcept;

  /// Interprets 32 little-endian bytes; the top bit (bit 255) is ignored,
  /// matching the ed25519/ristretto conventions. The result may be
  /// non-canonical (>= p); callers needing canonicity must compare
  /// to_bytes() with the input.
  static Fe25519 from_bytes(const std::array<std::uint8_t, 32>& s) noexcept;

  /// Canonical (fully reduced) 32-byte little-endian encoding.
  std::array<std::uint8_t, 32> to_bytes() const noexcept;

  Fe25519 operator+(const Fe25519& o) const noexcept;
  Fe25519 operator-(const Fe25519& o) const noexcept;
  Fe25519 operator*(const Fe25519& o) const noexcept;
  Fe25519 operator-() const noexcept;

  /// *this * *this in 15 limb products instead of 25; bit-identical to
  /// the product.
  Fe25519 square() const noexcept;

  /// Multiplicative inverse by constant-time safegcd (ec/modinv.h) on the
  /// canonical encoding; inverse of zero is zero.
  Fe25519 invert() const noexcept;

  /// Inverts every element in place with Montgomery's trick: one
  /// inversion plus 3(n-1) multiplications for the whole batch, instead of
  /// n inversions. Matches invert() exactly, including 0 -> 0: zero inputs
  /// are swapped for 1 in the running product and restored to 0 at the end,
  /// both via cmov, so the instruction trace depends only on the batch
  /// size (public), never on which elements are zero (possibly secret).
  static void batch_invert(std::span<Fe25519> elems) noexcept;

  /// x^((p-5)/8), the core exponentiation of the square-root algorithm.
  Fe25519 pow_p58() const noexcept;

  /// True iff the canonical encoding's least significant bit is 1
  /// (the ristretto "negative" convention).
  bool is_negative() const noexcept;

  bool is_zero() const noexcept;

  bool operator==(const Fe25519& o) const noexcept;

  /// |x|: x if non-negative else -x.
  Fe25519 abs() const noexcept;

  /// Constant-time select: returns a if flag else b (mask-based limbwise
  /// cmov; no branch on `flag`).
  static Fe25519 select(bool flag, const Fe25519& a, const Fe25519& b) noexcept;

  /// Constant-time conditional move: *this = other when mask is all-ones
  /// (from cbl::ct_mask_u64), unchanged when mask is zero.
  void cmov(const Fe25519& other, std::uint64_t mask) noexcept;

  /// Zeroizes the limbs through a compiler barrier.
  void wipe() noexcept;

  /// sqrt(-1) mod p (the non-negative root), computed once at startup.
  static const Fe25519& sqrt_m1() noexcept;

  /// The Edwards curve constant d = -121665/121666.
  static const Fe25519& edwards_d() noexcept;

 private:
  friend struct RistrettoKernels;

  explicit constexpr Fe25519(std::uint64_t l0, std::uint64_t l1,
                             std::uint64_t l2, std::uint64_t l3,
                             std::uint64_t l4) noexcept
      : limbs_{l0, l1, l2, l3, l4} {}

  static constexpr std::uint64_t kMask51 = (std::uint64_t{1} << 51) - 1;

  // 16 * p, limbwise: adding this before a subtraction keeps limbs
  // non-negative for any subtrahend within the operand bound.
  static constexpr std::uint64_t k16P[5] = {
      (kMask51 - 18) << 4,  // 16 * (2^51 - 19)
      kMask51 << 4, kMask51 << 4, kMask51 << 4, kMask51 << 4};

  using u64 = std::uint64_t;
  using u128 = unsigned __int128;

  // True iff every limb is below 2^54, the operand bound (class comment).
  bool is_operand() const noexcept {
    return ((limbs_[0] | limbs_[1] | limbs_[2] | limbs_[3] | limbs_[4]) >>
            54) == 0;
  }

  // The carry chain shared by operator* and square(): folds the five
  // column sums of a product into reduced limbs.
  static Fe25519 from_columns(u128 r0, u128 r1, u128 r2, u128 r3,
                              u128 r4) noexcept;

  std::uint64_t limbs_[5];
};

inline Fe25519 Fe25519::operator+(const Fe25519& o) const noexcept {
  Fe25519 r;
  for (int i = 0; i < 5; ++i) r.limbs_[i] = limbs_[i] + o.limbs_[i];
  return r;
}

inline Fe25519 Fe25519::operator-(const Fe25519& o) const noexcept {
  assert(is_operand() && o.is_operand());
  u64 t[5];
  for (int i = 0; i < 5; ++i) t[i] = limbs_[i] + k16P[i] - o.limbs_[i];
  // t_i < 2^54 + 2^55 < 2^56, so every carry is below 2^5. All five are
  // taken from t at once (curve25519-dalek's reduce) rather than chained
  // through the limbs, and each limb ends below 2^51 + 19 * 2^5 < 2^52.
  Fe25519 r;
  r.limbs_[0] = (t[0] & kMask51) + 19 * (t[4] >> 51);
  r.limbs_[1] = (t[1] & kMask51) + (t[0] >> 51);
  r.limbs_[2] = (t[2] & kMask51) + (t[1] >> 51);
  r.limbs_[3] = (t[3] & kMask51) + (t[2] >> 51);
  r.limbs_[4] = (t[4] & kMask51) + (t[3] >> 51);
  return r;
}

inline Fe25519 Fe25519::operator-() const noexcept {
  return Fe25519{} - *this;
}

inline Fe25519 Fe25519::from_columns(u128 r0, u128 r1, u128 r2, u128 r3,
                                     u128 r4) noexcept {
  Fe25519 out;
  u64 c;
  c = static_cast<u64>(r0 >> 51); out.limbs_[0] = static_cast<u64>(r0) & kMask51;
  r1 += c;
  c = static_cast<u64>(r1 >> 51); out.limbs_[1] = static_cast<u64>(r1) & kMask51;
  r2 += c;
  c = static_cast<u64>(r2 >> 51); out.limbs_[2] = static_cast<u64>(r2) & kMask51;
  r3 += c;
  c = static_cast<u64>(r3 >> 51); out.limbs_[3] = static_cast<u64>(r3) & kMask51;
  r4 += c;
  c = static_cast<u64>(r4 >> 51); out.limbs_[4] = static_cast<u64>(r4) & kMask51;
  out.limbs_[0] += 19 * c;
  c = out.limbs_[0] >> 51; out.limbs_[0] &= kMask51; out.limbs_[1] += c;
  return out;
}

inline Fe25519 Fe25519::operator*(const Fe25519& o) const noexcept {
  assert(is_operand() && o.is_operand());
  const u64 a0 = limbs_[0], a1 = limbs_[1], a2 = limbs_[2], a3 = limbs_[3],
            a4 = limbs_[4];
  const u64 b0 = o.limbs_[0], b1 = o.limbs_[1], b2 = o.limbs_[2],
            b3 = o.limbs_[3], b4 = o.limbs_[4];
  // 2^255 = 19 (mod p): the wrapped-around products carry a factor 19,
  // applied to the b limbs here rather than to the column sums.
  const u64 b1_19 = 19 * b1, b2_19 = 19 * b2, b3_19 = 19 * b3,
            b4_19 = 19 * b4;

  auto m = [](u64 x, u64 y) { return static_cast<u128>(x) * y; };

  return from_columns(
      m(a0, b0) + m(a1, b4_19) + m(a2, b3_19) + m(a3, b2_19) + m(a4, b1_19),
      m(a0, b1) + m(a1, b0) + m(a2, b4_19) + m(a3, b3_19) + m(a4, b2_19),
      m(a0, b2) + m(a1, b1) + m(a2, b0) + m(a3, b4_19) + m(a4, b3_19),
      m(a0, b3) + m(a1, b2) + m(a2, b1) + m(a3, b0) + m(a4, b4_19),
      m(a0, b4) + m(a1, b3) + m(a2, b2) + m(a3, b1) + m(a4, b0));
}

inline Fe25519 Fe25519::square() const noexcept {
  assert(is_operand());
  const u64 a0 = limbs_[0], a1 = limbs_[1], a2 = limbs_[2], a3 = limbs_[3],
            a4 = limbs_[4];
  const u64 a3_19 = 19 * a3, a4_19 = 19 * a4;

  auto m = [](u64 x, u64 y) { return static_cast<u128>(x) * y; };

  // The columns of *this * *this with each symmetric pair a_i*a_j,
  // i != j, taken once and doubled: 15 limb products instead of 25.
  return from_columns(
      m(a0, a0) + 2 * (m(a1, a4_19) + m(a2, a3_19)),
      m(a3, a3_19) + 2 * (m(a0, a1) + m(a2, a4_19)),
      m(a1, a1) + 2 * (m(a0, a2) + m(a4, a3_19)),
      m(a4, a4_19) + 2 * (m(a0, a3) + m(a1, a2)),
      m(a2, a2) + 2 * (m(a0, a4) + m(a1, a3)));
}

inline Fe25519 Fe25519::select(bool flag, const Fe25519& a,
                               const Fe25519& b) noexcept {
  Fe25519 r;
  ct_select_u64(ct_mask_u64(flag), r.limbs_, a.limbs_, b.limbs_, 5);
  return r;
}

inline void Fe25519::cmov(const Fe25519& other, std::uint64_t mask) noexcept {
  ct_select_u64(mask, limbs_, other.limbs_, limbs_, 5);
}

/// Computes sqrt(u/v) when it exists. Returns {was_square, r} where r is
/// the non-negative root of u/v if u/v is square, or of (sqrt(-1) * u/v)
/// otherwise; r = 0 when u = 0. This is SQRT_RATIO_M1 from the
/// ristretto255 specification.
struct SqrtRatioResult {
  bool was_square;
  Fe25519 root;
};
SqrtRatioResult sqrt_ratio_m1(const Fe25519& u, const Fe25519& v) noexcept;

/// sqrt_ratio_m1 in two halves around its exponentiation, for callers
/// that run several chains at once (RistrettoKernels::sqrt_ratio_m1_x4):
/// with c = sqrt_ratio_m1_start(u, v),
///   sqrt_ratio_m1(u, v) == sqrt_ratio_m1_finish(u, v, c.uv3,
///                                               c.uv7.pow_p58()).
struct SqrtRatioChain {
  Fe25519 uv3;  // u * v^3
  Fe25519 uv7;  // u * v^7, the chain's input
};
SqrtRatioChain sqrt_ratio_m1_start(const Fe25519& u,
                                   const Fe25519& v) noexcept;
SqrtRatioResult sqrt_ratio_m1_finish(const Fe25519& u, const Fe25519& v,
                                     const Fe25519& uv3,
                                     const Fe25519& uv7_p58) noexcept;

}  // namespace cbl::ec
