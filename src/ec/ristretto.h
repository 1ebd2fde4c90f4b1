// The Ristretto255 prime-order group (draft-irtf-cfrg-ristretto255) built
// on twisted Edwards25519 extended coordinates. This is "the group G" of
// the paper: the OPRF runs over it, Pedersen commitments / NIZKs / VRF
// all use its elements, and its 32-byte canonical encodings are the wire
// format everywhere.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/secret.h"
#include "ec/fe25519.h"
#include "ec/scalar.h"

namespace cbl::ec {

struct RistrettoKernels;  // ec/ristretto_kernels.h

class RistrettoPoint {
 public:
  using Encoding = std::array<std::uint8_t, 32>;

  /// The identity element.
  RistrettoPoint() noexcept;

  /// The canonical base point (the ed25519 base point's coset).
  static const RistrettoPoint& base() noexcept;

  static const RistrettoPoint& identity() noexcept;

  /// Decodes a canonical 32-byte encoding; nullopt for invalid encodings
  /// (non-canonical field element, negative s, non-square, y = 0).
  // wire:untrusted fuzz=fuzz_ristretto_diff
  [[nodiscard]] static std::optional<RistrettoPoint> decode(
      const Encoding& bytes) noexcept;

  /// Canonical 32-byte encoding.
  Encoding encode() const noexcept;

  /// Encodes 2*P for every P in `halves`, paying ONE field inversion for
  /// the whole batch (Fe25519::batch_invert) instead of one inverse
  /// square root per point. Square roots do not Montgomery-batch, but for
  /// a doubled point the invsqrt target collapses to a rational square
  /// (see DESIGN.md "Throughput architecture"), so callers fold the 2
  /// into the exponent: to obtain encodings of P_i * s, compute
  /// Q_i = P_i * (s/2 mod l) and batch-encode the doubles of Q_i. Output
  /// is bit-identical to (half * Scalar(2)).encode() per element,
  /// including identity-coset inputs (all-zero encoding). Constant-time
  /// discipline matches encode(): only the batch size is public.
  static std::vector<Encoding> double_and_encode_batch(
      std::span<const RistrettoPoint> halves);

  /// The one-point double_and_encode_batch: the encoding of 2*P for one
  /// field inversion, with no heap allocation. Bit-identical to
  /// (*this + *this).encode(), and cheaper than encode()'s inverse square
  /// root, so a hot path that can fold a factor 1/2 into its scalar
  /// encodes this way.
  Encoding double_and_encode() const noexcept;

  /// Batched H(domain_sep || input_i). Elligator's sqrt_ratio_m1 must
  /// accept non-square inputs, so unlike encoding there is no shared
  /// inversion to amortize; this is the uniform batch surface (and the
  /// seam bench/throughput tooling drives), computed per element exactly
  /// as hash_to_group.
  static std::vector<RistrettoPoint> batch_hash_to_group(
      std::span<const Bytes> inputs, std::string_view domain_sep);

  /// Maps 64 uniformly random bytes to a group element (two Elligator2
  /// invocations, summed) — the "hash to group" used to build the random
  /// oracle H: {0,1}* -> G of Fig. 2.
  static RistrettoPoint from_uniform_bytes(
      const std::array<std::uint8_t, 64>& bytes) noexcept;

  /// H(domain_sep || data): SHA-512 then from_uniform_bytes.
  static RistrettoPoint hash_to_group(ByteView data,
                                      std::string_view domain_sep) noexcept;

  RistrettoPoint operator+(const RistrettoPoint& o) const noexcept;
  RistrettoPoint operator-(const RistrettoPoint& o) const noexcept;
  RistrettoPoint operator-() const noexcept;

  /// Scalar multiplication. Constant-time: the scalar is recoded into 64
  /// signed radix-16 digits in [-8, 8), and each digit picks |digit| * P
  /// from an 8-entry table by a full-scan cmov followed by a cmov
  /// negation. The double/add schedule is fixed (4 doublings, then 1
  /// addition, per digit), so neither branches nor data-dependent loads
  /// reveal the scalar. Two bodies run this schedule (see
  /// ec/ristretto_kernels.h): an AVX-512 IFMA one that computes the four
  /// coordinates of each doubling and addition at once, chosen by CPUID,
  /// and the serial ladder everywhere else. They return the same group
  /// element, so encodings do not depend on the CPU.
  RistrettoPoint operator*(const Scalar& s) const noexcept;

  /// Group equality (encoding-independent, per the ristretto spec).
  bool operator==(const RistrettoPoint& o) const noexcept;

  bool is_identity() const noexcept { return *this == identity(); }

  /// sum(scalars[i] * points[i]); sizes must match. Variable-time by
  /// design — verification-only path, never call with secret scalars.
  // vartime: public-inputs-only — DLEQ/Schnorr verification combines
  // proof scalars and public points; every input arrived on the wire.
  CBL_VARTIME static RistrettoPoint multiscalar_mul(
      const std::vector<Scalar>& scalars,
      const std::vector<RistrettoPoint>& points);

 private:
  friend struct RistrettoKernels;

  RistrettoPoint(const Fe25519& x, const Fe25519& y, const Fe25519& z,
                 const Fe25519& t) noexcept
      : x_(x), y_(y), z_(z), t_(t) {}

  static RistrettoPoint elligator_map(const Fe25519& t) noexcept;

  // The intermediate forms of the addition and doubling formulas
  // (defined in ristretto.cpp): Cached is an addend (Y+X, Y-X, Z, 2dT)
  // with its per-addition work done once; Completed ((X:Z), (Y:T)) is the
  // output of one addition or doubling before its final products;
  // Projective (X:Y:Z) drops T, which a doubling never reads.
  struct Cached;
  struct Completed;
  struct Projective;
  Cached to_cached() const noexcept;
  Completed add(const Cached& q) const noexcept;

  /// 2P, with the W = e^2 f^2 g h whose inverse turns into 2P's inverse
  /// square root (see double_and_encode_batch) stored in `w`.
  RistrettoPoint doubled_for_encode(Fe25519& w) const noexcept;

  /// The tail of encode() once 1/sqrt(u1*u2^2) is known. encode() feeds it
  /// the sqrt_ratio_m1 root; the double-and-encode paths feed it the
  /// inverted closed form. The output is invariant under
  /// inv_root -> -inv_root, so the two agree bit-for-bit.
  Encoding encode_with_invsqrt(const Fe25519& inv_root) const noexcept;

  // Extended twisted Edwards coordinates (X : Y : Z : T), x = X/Z,
  // y = Y/Z, T = XY/Z.
  Fe25519 x_, y_, z_, t_;
};

inline RistrettoPoint operator*(const Scalar& s, const RistrettoPoint& p) noexcept {
  return p * s;
}

// Secret-scalar multiplications. The point result deliberately exits the
// Secret<> taint: recovering the scalar from P and s*P is the discrete-log
// problem, and the underlying operator* is the constant-time signed
// radix-16 ladder (ctcheck's differential traces audit that claim
// dynamically). What stays forbidden is the scalar itself escaping — that
// still needs expose_secret()/reveal_for().
inline RistrettoPoint operator*(const RistrettoPoint& p,
                                const Secret<Scalar>& s) noexcept {
  return p * s.expose_secret();
}
inline RistrettoPoint operator*(const Secret<Scalar>& s,
                                const RistrettoPoint& p) noexcept {
  return p * s.expose_secret();
}

}  // namespace cbl::ec
