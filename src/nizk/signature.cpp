#include "nizk/signature.h"

#include "ec/codec.h"
#include "nizk/transcript.h"

namespace cbl::nizk {

namespace {

ec::Scalar signature_challenge(std::string_view domain,
                               const ec::RistrettoPoint& pk,
                               const ec::RistrettoPoint& nonce_commitment,
                               ByteView message) {
  Transcript t("cbl/nizk/schnorr-signature");
  t.absorb("domain", to_bytes(domain));
  t.absorb_point("pk", pk);  // key-prefixing
  t.absorb_point("R", nonce_commitment);
  t.absorb("message", message);
  return t.challenge("c");
}

}  // namespace

SigningKey SigningKey::generate(Rng& rng) {
  SigningKey key;
  key.sk = ec::Scalar::random(rng);
  key.pk = ec::RistrettoPoint::base() * key.sk;
  return key;
}

Signature sign(const SigningKey& key, ByteView message,
               std::string_view domain, Rng& rng) {
  const ec::Scalar k = ec::Scalar::random(rng);
  Signature sig;
  sig.nonce_commitment = ec::RistrettoPoint::base() * k;
  const ec::Scalar c =
      signature_challenge(domain, key.pk, sig.nonce_commitment, message);
  sig.response = k + c * key.sk;
  return sig;
}

bool verify_signature(const ec::RistrettoPoint& pk, ByteView message,
                      std::string_view domain, const Signature& sig) {
  const ec::Scalar c =
      signature_challenge(domain, pk, sig.nonce_commitment, message);
  // s*B - c*PK == R, as one two-term multiscalar: every input is public.
  return ec::RistrettoPoint::multiscalar_mul(
             {sig.response, -c}, {ec::RistrettoPoint::base(), pk}) ==
         sig.nonce_commitment;
}

ec::Scalar signature_challenge_for(const ec::RistrettoPoint& pk,
                                   const Signature& sig, ByteView message,
                                   std::string_view domain) {
  return signature_challenge(domain, pk, sig.nonce_commitment, message);
}

Bytes Signature::to_bytes() const {
  Bytes out;
  append(out, nonce_commitment.encode());
  append(out, response.to_bytes());
  return out;
}

std::optional<Signature> Signature::from_bytes(ByteView data) {
  ec::WireReader r(data);
  Signature sig;
  sig.nonce_commitment = r.point();
  sig.response = r.scalar();
  if (!r.finish()) return std::nullopt;
  return sig;
}

}  // namespace cbl::nizk
