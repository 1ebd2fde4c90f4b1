#include "nizk/sigma.h"

#include "ec/codec.h"

namespace cbl::nizk {

namespace {

ec::Scalar schnorr_challenge(std::string_view domain,
                             const ec::RistrettoPoint& base,
                             const ec::RistrettoPoint& y,
                             const ec::RistrettoPoint& commitment) {
  Transcript t("cbl/nizk/schnorr");
  t.absorb("domain", to_bytes(domain));
  t.absorb_point("base", base).absorb_point("y", y);
  t.absorb_point("commitment", commitment);
  return t.challenge("c");
}

ec::Scalar dleq_challenge(std::string_view domain,
                          const ec::RistrettoPoint& base1,
                          const ec::RistrettoPoint& y1,
                          const ec::RistrettoPoint& base2,
                          const ec::RistrettoPoint& y2,
                          const ec::RistrettoPoint& a1,
                          const ec::RistrettoPoint& a2) {
  Transcript t("cbl/nizk/dleq");
  t.absorb("domain", to_bytes(domain));
  t.absorb_point("base1", base1).absorb_point("y1", y1);
  t.absorb_point("base2", base2).absorb_point("y2", y2);
  t.absorb_point("a1", a1).absorb_point("a2", a2);
  return t.challenge("c");
}

}  // namespace

SchnorrProof SchnorrProof::prove(const ec::RistrettoPoint& base,
                                 const ec::RistrettoPoint& y,
                                 const ec::Scalar& x, std::string_view domain,
                                 Rng& rng) {
  const ec::Scalar k = ec::Scalar::random(rng);
  SchnorrProof proof;
  proof.commitment = base * k;
  const ec::Scalar c = schnorr_challenge(domain, base, y, proof.commitment);
  proof.response = k + c * x;
  return proof;
}

bool SchnorrProof::verify(const ec::RistrettoPoint& base,
                          const ec::RistrettoPoint& y,
                          std::string_view domain) const {
  const ec::Scalar c = schnorr_challenge(domain, base, y, commitment);
  // vartime: public-inputs-only — z*base - c*y == commitment, as one
  // two-term multiscalar over the proof and the statement.
  return ec::RistrettoPoint::multiscalar_mul({response, -c}, {base, y}) ==
         commitment;
}

Bytes SchnorrProof::to_bytes() const {
  Bytes out;
  append(out, commitment.encode());
  append(out, response.to_bytes());
  return out;
}

namespace {

ec::Scalar representation_challenge(std::string_view domain,
                                    const ec::RistrettoPoint& base_g,
                                    const ec::RistrettoPoint& base_h,
                                    const ec::RistrettoPoint& p,
                                    const ec::RistrettoPoint& commitment) {
  Transcript t("cbl/nizk/representation");
  t.absorb("domain", to_bytes(domain));
  t.absorb_point("base_g", base_g).absorb_point("base_h", base_h);
  t.absorb_point("p", p).absorb_point("commitment", commitment);
  return t.challenge("c");
}

}  // namespace

RepresentationProof RepresentationProof::prove(
    const ec::RistrettoPoint& base_g, const ec::RistrettoPoint& base_h,
    const ec::RistrettoPoint& p, const ec::Scalar& m, const ec::Scalar& r,
    std::string_view domain, Rng& rng) {
  const ec::Scalar k1 = ec::Scalar::random(rng);
  const ec::Scalar k2 = ec::Scalar::random(rng);
  RepresentationProof proof;
  proof.commitment = base_g * k1 + base_h * k2;
  const ec::Scalar c =
      representation_challenge(domain, base_g, base_h, p, proof.commitment);
  proof.z1 = k1 + c * m;
  proof.z2 = k2 + c * r;
  return proof;
}

bool RepresentationProof::verify(const ec::RistrettoPoint& base_g,
                                 const ec::RistrettoPoint& base_h,
                                 const ec::RistrettoPoint& p,
                                 std::string_view domain) const {
  const ec::Scalar c =
      representation_challenge(domain, base_g, base_h, p, commitment);
  // vartime: public-inputs-only — z1*g + z2*h - c*p == commitment, as
  // one three-term multiscalar over the proof and the statement.
  return ec::RistrettoPoint::multiscalar_mul({z1, z2, -c},
                                             {base_g, base_h, p}) ==
         commitment;
}

Bytes RepresentationProof::to_bytes() const {
  Bytes out;
  append(out, commitment.encode());
  append(out, z1.to_bytes());
  append(out, z2.to_bytes());
  return out;
}

DleqProof DleqProof::prove(const ec::RistrettoPoint& base1,
                           const ec::RistrettoPoint& y1,
                           const ec::RistrettoPoint& base2,
                           const ec::RistrettoPoint& y2, const ec::Scalar& x,
                           std::string_view domain, Rng& rng) {
  // One nonce on two bases: one two-point ladder computes both.
  const Secret<ec::Scalar> k(ec::Scalar::random(rng));
  const ec::RistrettoPoint bases[] = {base1, base2};
  const auto commitments = ec::RistrettoPoint::mul_batch(bases, k);
  DleqProof proof;
  proof.commitment1 = commitments[0];
  proof.commitment2 = commitments[1];
  const ec::Scalar c = dleq_challenge(domain, base1, y1, base2, y2,
                                      proof.commitment1, proof.commitment2);
  proof.response = k.expose_secret() + c * x;
  return proof;
}

bool DleqProof::verify(const ec::RistrettoPoint& base1,
                       const ec::RistrettoPoint& y1,
                       const ec::RistrettoPoint& base2,
                       const ec::RistrettoPoint& y2,
                       std::string_view domain) const {
  const ec::Scalar c =
      dleq_challenge(domain, base1, y1, base2, y2, commitment1, commitment2);
  // vartime: public-inputs-only — z*base_i - c*y_i == commitment_i for
  // i = 1, 2, as two two-term multiscalars over the proof and the
  // statement (the verifiable-OPRF check runs on wire data only).
  const ec::Scalar neg_c = -c;
  return ec::RistrettoPoint::multiscalar_mul({response, neg_c},
                                             {base1, y1}) == commitment1 &&
         ec::RistrettoPoint::multiscalar_mul({response, neg_c},
                                             {base2, y2}) == commitment2;
}

Bytes DleqProof::to_bytes() const {
  Bytes out;
  append(out, commitment1.encode());
  append(out, commitment2.encode());
  append(out, response.to_bytes());
  return out;
}

std::optional<SchnorrProof> SchnorrProof::from_bytes(ByteView data) {
  ec::WireReader r(data);
  SchnorrProof proof;
  proof.commitment = r.point();
  proof.response = r.scalar();
  if (!r.finish()) return std::nullopt;
  return proof;
}

std::optional<RepresentationProof> RepresentationProof::from_bytes(
    ByteView data) {
  ec::WireReader r(data);
  RepresentationProof proof;
  proof.commitment = r.point();
  proof.z1 = r.scalar();
  proof.z2 = r.scalar();
  if (!r.finish()) return std::nullopt;
  return proof;
}

std::optional<DleqProof> DleqProof::from_bytes(ByteView data) {
  ec::WireReader r(data);
  DleqProof proof;
  proof.commitment1 = r.point();
  proof.commitment2 = r.point();
  proof.response = r.scalar();
  if (!r.finish()) return std::nullopt;
  return proof;
}

}  // namespace cbl::nizk
