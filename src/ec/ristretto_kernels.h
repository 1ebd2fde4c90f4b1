// Internal: the scalar-multiplication kernels behind RistrettoPoint.
//
// RistrettoPoint::operator* and multiscalar_mul run one of two bodies of
// the same functions, chosen once during static initialisation from
// CPUID: an AVX-512 IFMA body that works on the four coordinates of a
// point at once when the CPU has avx512ifma and avx512vl, the serial
// radix-16 ladder otherwise. Both follow the same signed radix-16
// schedule and return the same group element, so every encoding is
// identical; nothing but the CPU decides which one runs. This header
// exposes each body directly so tests can compare them and the
// constant-time harness can trace them; everything else uses
// RistrettoPoint.
#pragma once

#include <array>
#include <cstdint>
#include <span>

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
  /// sum(scalars[i] * points[i]) over equal-length spans; variable-time.
  using MultiscalarFn = RistrettoPoint (*)(std::span<const Scalar> scalars,
                                           std::span<const RistrettoPoint>
                                               points);

  static RistrettoPoint mul_serial(const RistrettoPoint& p,
                                   const Scalar& s) noexcept;
  static RistrettoPoint multiscalar_serial(
      std::span<const Scalar> scalars, std::span<const RistrettoPoint> points);

#if CBL_RISTRETTO_IFMA
  /// Executes AVX-512 IFMA instructions: call only when ifma_supported().
  static RistrettoPoint mul_ifma(const RistrettoPoint& p,
                                 const Scalar& s) noexcept;
  static RistrettoPoint multiscalar_ifma(
      std::span<const Scalar> scalars, std::span<const RistrettoPoint> points);
#endif

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
  static const std::array<std::uint64_t, 5>& two_d_limbs() noexcept;
};

}  // namespace cbl::ec
