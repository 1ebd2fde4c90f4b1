// Arithmetic in GF(2^255 - 19), the base field of Curve25519, implemented
// from scratch with 5 x 51-bit unsigned limbs and 128-bit intermediate
// products. This is the foundation of the Ristretto255 group used by the
// paper's OPRF, commitments, NIZKs, and VRF.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "common/bytes.h"

namespace cbl::ec {

/// A field element of GF(p), p = 2^255 - 19. Limbs are kept below 2^52
/// between operations (the "weakly reduced" form); canonical form is only
/// produced by to_bytes().
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

  Fe25519 square() const noexcept;

  /// Multiplicative inverse via Fermat (x^(p-2), evaluated by a fixed
  /// addition chain); inverse of zero is zero.
  Fe25519 invert() const noexcept;

  /// Inverts every element in place with Montgomery's trick: one Fermat
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
  explicit constexpr Fe25519(std::uint64_t l0, std::uint64_t l1,
                             std::uint64_t l2, std::uint64_t l3,
                             std::uint64_t l4) noexcept
      : limbs_{l0, l1, l2, l3, l4} {}

  void weak_reduce() noexcept;

  std::uint64_t limbs_[5];
};

/// Computes sqrt(u/v) when it exists. Returns {was_square, r} where r is
/// the non-negative root of u/v if u/v is square, or of (sqrt(-1) * u/v)
/// otherwise; r = 0 when u = 0. This is SQRT_RATIO_M1 from the
/// ristretto255 specification.
struct SqrtRatioResult {
  bool was_square;
  Fe25519 root;
};
SqrtRatioResult sqrt_ratio_m1(const Fe25519& u, const Fe25519& v) noexcept;

}  // namespace cbl::ec
