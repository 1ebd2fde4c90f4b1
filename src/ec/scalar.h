// Arithmetic modulo the Ristretto255 group order
// l = 2^252 + 27742317777372353535851937790883648493 ("the finite field F"
// of the paper's protocols: blinding factors, commitment randomness, NIZK
// responses, votes). Built from scratch on 4 x 64-bit limbs with
// Montgomery multiplication.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "common/bytes.h"
#include "common/ct.h"
#include "common/rng.h"

namespace cbl::ec {

class Scalar {
 public:
  /// Zero.
  constexpr Scalar() noexcept : limbs_{0, 0, 0, 0} {}

  static Scalar from_u64(std::uint64_t v) noexcept;

  static const Scalar& zero() noexcept;
  static const Scalar& one() noexcept;

  /// Canonical deserialization: rejects encodings >= l.
  // wire:untrusted fuzz=fuzz_ristretto_diff
  [[nodiscard]] static std::optional<Scalar> from_canonical_bytes(
      const std::array<std::uint8_t, 32>& bytes) noexcept;

  /// Interprets 32 little-endian bytes and reduces mod l.
  static Scalar from_bytes_mod_order(
      const std::array<std::uint8_t, 32>& bytes) noexcept;

  /// Interprets 64 little-endian bytes and reduces mod l (the standard way
  /// to derive an unbiased scalar from a hash).
  static Scalar from_bytes_wide(
      const std::array<std::uint8_t, 64>& bytes) noexcept;

  /// Uniformly random scalar.
  static Scalar random(Rng& rng);

  std::array<std::uint8_t, 32> to_bytes() const noexcept;

  Scalar operator+(const Scalar& o) const noexcept;
  Scalar operator-(const Scalar& o) const noexcept;
  Scalar operator*(const Scalar& o) const noexcept;
  Scalar operator-() const noexcept;

  /// Multiplicative inverse by constant-time safegcd (ec/modinv.h);
  /// inverse of zero is zero.
  Scalar invert() const noexcept;

  /// Zeroizes the limbs through a compiler barrier. Key-holding types
  /// (OPRF masks, blinding factors, VRF keys) call this from their
  /// destructors per the DESIGN.md constant-time policy.
  void wipe() noexcept;

  /// Constant-time: a defaulted == would short-circuit limb by limb, and
  /// scalars are routinely secret (blinding factors, masks, keys).
  bool operator==(const Scalar& o) const noexcept {
    return ct_equal(reinterpret_cast<const std::uint8_t*>(limbs_.data()),
                    reinterpret_cast<const std::uint8_t*>(o.limbs_.data()),
                    sizeof(limbs_));
  }

  bool is_zero() const noexcept {
    return (limbs_[0] | limbs_[1] | limbs_[2] | limbs_[3]) == 0;
  }

 private:
  std::array<std::uint64_t, 4> limbs_;  // little-endian, always < l
};

}  // namespace cbl::ec
