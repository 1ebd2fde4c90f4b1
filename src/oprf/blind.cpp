#include "oprf/blind.h"

namespace cbl::oprf {

Secret<ec::Scalar> halve(const Secret<ec::Scalar>& s) noexcept {
  static const ec::Scalar inv_two = ec::Scalar::from_u64(2).invert();
  return s * inv_two;
}

ec::RistrettoPoint blind_half(const ec::RistrettoPoint& hashed,
                              const Secret<ec::Scalar>& r) noexcept {
  return hashed * halve(r);
}

ec::RistrettoPoint::Encoding unblind(const ec::RistrettoPoint& evaluated,
                                     const Secret<ec::Scalar>& r) noexcept {
  const Secret<ec::Scalar> half_inverse = (r + r).invert();  // ct:secret
  return (evaluated * half_inverse).double_and_encode();
}

}  // namespace cbl::oprf
