// Internal: the scalar-multiplication and square-root kernels behind
// RistrettoPoint.
//
// RistrettoPoint::operator*, mul_batch and multiscalar_mul, and the
// Elligator square roots of hash-to-group, run one of two bodies of the
// same functions, chosen once during static initialisation from CPUID:
// an AVX-512 IFMA body when the CPU has avx512ifma and avx512vl, the
// serial code otherwise. The IFMA body works on the four coordinates of
// a point at once (256-bit registers), on two points at once (512-bit
// registers, the pair ladder), or on four independent field elements at
// once (the square-root chain). Both bodies follow the same schedules
// and return the same group and field elements, so every encoding is
// identical; nothing but the CPU decides which one runs. This header
// exposes each body directly so tests can compare them and the
// constant-time harness can trace them; everything else uses
// RistrettoPoint.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "ec/fe25519.h"
#include "ec/ristretto.h"
#include "ec/scalar.h"

#if defined(__x86_64__)
#define CBL_RISTRETTO_IFMA 1
#else
#define CBL_RISTRETTO_IFMA 0
#endif

namespace cbl::ec {

struct RistrettoKernels {
  /// p * s; constant-time in s.
  using MulFn = RistrettoPoint (*)(const RistrettoPoint& p,
                                   const Scalar& s) noexcept;
  /// {p0 * s0, p1 * s1}; constant-time in both scalars.
  using MulPairFn = std::array<RistrettoPoint, 2> (*)(
      const RistrettoPoint& p0, const Scalar& s0, const RistrettoPoint& p1,
      const Scalar& s1) noexcept;
  /// sum(scalars[i] * points[i]) over equal-length spans; variable-time.
  using MultiscalarFn = RistrettoPoint (*)(std::span<const Scalar> scalars,
                                           std::span<const RistrettoPoint>
                                               points);
  /// x[i] = x[i]^((p-5)/8) for i < n (n <= 4, public); lanes from n on
  /// hold unspecified values afterwards. Constant-time in the values.
  using PowP58x4Fn = void (*)(std::array<Fe25519, 4>& x,
                              std::size_t n) noexcept;

  static RistrettoPoint mul_serial(const RistrettoPoint& p,
                                   const Scalar& s) noexcept;
  /// Two mul_serial calls.
  static std::array<RistrettoPoint, 2> mul_pair_serial(
      const RistrettoPoint& p0, const Scalar& s0, const RistrettoPoint& p1,
      const Scalar& s1) noexcept;
  static RistrettoPoint multiscalar_serial(
      std::span<const Scalar> scalars, std::span<const RistrettoPoint> points);
  /// One Fe25519::pow_p58 per lane below n.
  static void pow_p58_x4_serial(std::array<Fe25519, 4>& x,
                                std::size_t n) noexcept;

#if CBL_RISTRETTO_IFMA
  /// Executes AVX-512 IFMA instructions: call only when ifma_supported().
  static RistrettoPoint mul_ifma(const RistrettoPoint& p,
                                 const Scalar& s) noexcept;
  /// The ladder on 512-bit registers: p0 in lanes 0-3, p1 in lanes 4-7,
  /// each half selecting from its own table by its own digit.
  static std::array<RistrettoPoint, 2> mul_pair_ifma(
      const RistrettoPoint& p0, const Scalar& s0, const RistrettoPoint& p1,
      const Scalar& s1) noexcept;
  static RistrettoPoint multiscalar_ifma(
      std::span<const Scalar> scalars, std::span<const RistrettoPoint> points);
  /// All four lanes in one chain, whatever n is.
  static void pow_p58_x4_ifma(std::array<Fe25519, 4>& x,
                              std::size_t n) noexcept;
#endif

  /// The dispatched pair body (mul_pair_ifma or mul_pair_serial).
  static std::array<RistrettoPoint, 2> mul_pair(
      const RistrettoPoint& p0, const Scalar& s0, const RistrettoPoint& p1,
      const Scalar& s1) noexcept;

  /// sqrt_ratio_m1(u[i], v[i]) for i < n (n <= 4, public), bit-identical
  /// to the serial function: the pre- and post-work run per lane as
  /// there, and the four exponentiation chains run in one call of the
  /// dispatched PowP58x4Fn. Entries from n on are unspecified.
  static std::array<SqrtRatioResult, 4> sqrt_ratio_m1_x4(
      const std::array<Fe25519, 4>& u, const std::array<Fe25519, 4>& v,
      std::size_t n) noexcept;

  /// True when this CPU has the avx512ifma and avx512vl extensions the
  /// IFMA body needs; always false on non-x86-64 builds.
  static bool ifma_supported() noexcept;

  /// The body RistrettoPoint dispatches to: "ifma" or "serial".
  static const char* active_name() noexcept;

  /// The schedule both bodies share: s = sum digits[i] * 16^i with every
  /// digit in [-8, 8). The digits are as secret as s; callers wipe them.
  static std::array<std::int8_t, 64> radix16(const Scalar& s) noexcept;

  /// All-ones iff a == b, for a, b < 2^63, without a compare: (a ^ b) - 1
  /// wraps to a top-bit-set value only when a ^ b is zero.
  static std::uint64_t eq_mask(std::uint64_t a, std::uint64_t b) noexcept {
    return 0 - (((a ^ b) - 1) >> 63);
  }

  /// The IFMA body's view of a point: limb k of coordinate c (X, Y, Z, T)
  /// at [c][k]. Reading asserts, in Debug builds, that every limb is
  /// below 2^52 (Fe25519's reduced bound), which the vector multiplier
  /// needs. Tests build points at the top of that bound through these.
  using Limbs = std::array<std::array<std::uint64_t, 5>, 4>;
  static Limbs to_limbs(const RistrettoPoint& p) noexcept;
  static RistrettoPoint from_limbs(const Limbs& limbs) noexcept;

 private:
  static std::array<std::uint64_t, 5> limbs(const Fe25519& f) noexcept;
  static Fe25519 fe(const std::array<std::uint64_t, 5>& limbs) noexcept;
  static const std::array<std::uint64_t, 5>& two_d_limbs() noexcept;
};

}  // namespace cbl::ec
