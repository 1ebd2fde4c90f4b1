// Constant-time modular inversion by Bernstein-Yang "safegcd" divsteps
// (TCHES 2019, eprint 2019/266), in the shape of libsecp256k1's modinv64:
// signed 62-bit limbs, 10 rounds of 59 branch-free divsteps (590 in all,
// enough for any modulus below 2^256), each round's 2x2 transition matrix
// applied to (f, g) and to (d, e), and a masked normalization at the end.
// One kernel serves both moduli of the library: the field prime p
// (Fe25519::invert) and the group order l (Scalar::invert).
#pragma once

#include <array>
#include <cstdint>

namespace cbl::ec {

/// An odd modulus below 2^256 in the kernel's layout.
struct InvModulus {
  std::array<std::int64_t, 5> limbs;  // 62-bit limbs, little-endian
  std::uint64_t inv62;                // modulus^-1 mod 2^62

  static constexpr std::uint64_t kM62 = ~std::uint64_t{0} >> 2;

  static constexpr InvModulus from_words(
      const std::array<std::uint64_t, 4>& w) noexcept {
    // Newton's iteration doubles the correct low bits each step, starting
    // from the 3 that any odd w0 gets right (w0 * w0 = 1 mod 8).
    std::uint64_t inv = w[0];
    for (int i = 0; i < 5; ++i) inv *= 2 - w[0] * inv;
    return InvModulus{limbs62(w), inv & kM62};
  }

  /// A value below 2^256, four little-endian 64-bit words, as 62-bit
  /// limbs (the top one holds the last 8 bits).
  static constexpr std::array<std::int64_t, 5> limbs62(
      const std::array<std::uint64_t, 4>& w) noexcept {
    return {static_cast<std::int64_t>(w[0] & kM62),
            static_cast<std::int64_t>((w[0] >> 62 | w[1] << 2) & kM62),
            static_cast<std::int64_t>((w[1] >> 60 | w[2] << 4) & kM62),
            static_cast<std::int64_t>((w[2] >> 58 | w[3] << 6) & kM62),
            static_cast<std::int64_t>(w[3] >> 56)};
  }
};

/// x^-1 mod m for x < m, both as four little-endian 64-bit words; 0 maps
/// to 0. The schedule is fixed and every step is masked, so the
/// instruction trace is the same for every x.
std::array<std::uint64_t, 4> mod_invert(const std::array<std::uint64_t, 4>& x,
                                        const InvModulus& m) noexcept;

}  // namespace cbl::ec
