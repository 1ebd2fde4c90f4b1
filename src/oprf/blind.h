// The client's two secret-scalar steps of Fig. 2, as OprfClient runs
// them: blinding m = H(u)^r and unblinding psi^(1/r). Both encode
// through RistrettoPoint::double_and_encode (one field inversion) instead
// of encode() (one inverse square root), so each folds a factor 1/2 into
// its scalar; halve() is that fold, also used for the server's R/2.
#pragma once

#include "common/secret.h"
#include "ec/ristretto.h"
#include "ec/scalar.h"

namespace cbl::oprf {

/// s * 2^-1 mod l.
Secret<ec::Scalar> halve(const Secret<ec::Scalar>& s) noexcept;

/// H(u)^(r/2): the blinded query before its final doubling. Its
/// double_and_encode() is the wire encoding of m = H(u)^r, and adding it
/// to itself gives m.
ec::RistrettoPoint blind_half(const ec::RistrettoPoint& hashed,
                              const Secret<ec::Scalar>& r) noexcept;

/// The encoding of psi^(1/r), computed as psi^((2r)^-1) double-encoded:
/// one scalar inversion, one scalar multiplication, one field inversion.
ec::RistrettoPoint::Encoding unblind(const ec::RistrettoPoint& evaluated,
                                     const Secret<ec::Scalar>& r) noexcept;

}  // namespace cbl::oprf
