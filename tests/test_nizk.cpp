// Tests for commitments, the Fiat-Shamir transcript, and all NIZK
// protocols: completeness, statement binding (proofs do not transfer to
// other statements), and forgery rejection.
#include <gtest/gtest.h>

#include "commit/crs.h"
#include "commit/pedersen.h"
#include "common/rng.h"
#include "nizk/proof_a.h"
#include "nizk/proof_b.h"
#include "nizk/sigma.h"
#include "nizk/signature.h"
#include "nizk/transcript.h"
#include "nizk/vote_or.h"

namespace cbl::nizk {
namespace {

using cbl::ChaChaRng;
using commit::Commitment;
using commit::Crs;
using commit::Opening;
using ec::RistrettoPoint;
using ec::Scalar;

class NizkTest : public ::testing::Test {
 protected:
  const Crs& crs_ = Crs::default_crs();
  ChaChaRng rng_ = ChaChaRng::from_string_seed("nizk-tests");
};

// ------------------------------------------------------------------- CRS

TEST_F(NizkTest, CrsGeneratorsAreDistinctAndNonIdentity) {
  const RistrettoPoint* gens[] = {&crs_.g, &crs_.h,     &crs_.h1,
                                  &crs_.h2, &crs_.g_hat, &crs_.h_hat};
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_FALSE(gens[i]->is_identity()) << i;
    for (std::size_t j = i + 1; j < 6; ++j) {
      EXPECT_FALSE(*gens[i] == *gens[j]) << i << "," << j;
    }
  }
}

TEST_F(NizkTest, CrsDistributedSetupDependsOnEveryContribution) {
  const auto crs1 = Crs::from_contributions({to_bytes("alice"), to_bytes("bob")});
  const auto crs2 = Crs::from_contributions({to_bytes("alice"), to_bytes("eve")});
  const auto crs3 = Crs::from_contributions({to_bytes("alice"), to_bytes("bob")});
  EXPECT_FALSE(crs1.h == crs2.h);
  EXPECT_TRUE(crs1.h == crs3.h);
  EXPECT_EQ(crs1.to_bytes(), crs3.to_bytes());
  EXPECT_EQ(crs1.to_bytes().size(), 6u * 32u);
}

// ------------------------------------------------------------ Commitments

TEST_F(NizkTest, PedersenCommitVerify) {
  const auto [c, opening] =
      Commitment::commit_random(crs_.g, crs_.h, Scalar::from_u64(42), rng_);
  EXPECT_TRUE(c.verify(crs_.g, crs_.h, opening));
  Opening wrong = opening;
  wrong.value = cbl::Secret(Scalar::from_u64(43));
  EXPECT_FALSE(c.verify(crs_.g, crs_.h, wrong));
}

TEST_F(NizkTest, PedersenIsHomomorphic) {
  const auto [c1, o1] =
      Commitment::commit_random(crs_.g, crs_.h, Scalar::from_u64(10), rng_);
  const auto [c2, o2] =
      Commitment::commit_random(crs_.g, crs_.h, Scalar::from_u64(32), rng_);
  const Commitment sum = c1 * c2;
  EXPECT_TRUE(sum.verify(crs_.g, crs_.h,
                         {o1.value + o2.value, o1.randomness + o2.randomness}));
  const Commitment diff = c2 / c1;
  EXPECT_TRUE(diff.verify(crs_.g, crs_.h,
                          {o2.value - o1.value, o2.randomness - o1.randomness}));
  const Commitment scaled = c1.pow(Scalar::from_u64(3));
  EXPECT_TRUE(scaled.verify(
      crs_.g, crs_.h,
      {o1.value * Scalar::from_u64(3), o1.randomness * Scalar::from_u64(3)}));
}

TEST_F(NizkTest, PedersenHiding) {
  // Same value, different randomness -> different commitments.
  const auto [c1, o1] =
      Commitment::commit_random(crs_.g, crs_.h, Scalar::from_u64(7), rng_);
  const auto [c2, o2] =
      Commitment::commit_random(crs_.g, crs_.h, Scalar::from_u64(7), rng_);
  EXPECT_FALSE(c1 == c2);
}

// -------------------------------------------------------------- Transcript

TEST_F(NizkTest, TranscriptIsDeterministic) {
  Transcript t1("proto"), t2("proto");
  t1.absorb("x", to_bytes("data"));
  t2.absorb("x", to_bytes("data"));
  EXPECT_EQ(t1.challenge("c"), t2.challenge("c"));
}

TEST_F(NizkTest, TranscriptSeparatesLabelsAndFraming) {
  Transcript t1("proto"), t2("proto"), t3("proto");
  t1.absorb("ab", to_bytes("c"));
  t2.absorb("a", to_bytes("bc"));
  t3.absorb("ab", to_bytes("c"));
  const auto c1 = t1.challenge("c");
  EXPECT_FALSE(c1 == t2.challenge("c"));
  EXPECT_TRUE(c1 == t3.challenge("c"));
}

TEST_F(NizkTest, TranscriptChallengesEvolve) {
  Transcript t("proto");
  const auto c1 = t.challenge("c");
  const auto c2 = t.challenge("c");
  EXPECT_FALSE(c1 == c2);
}

TEST_F(NizkTest, TranscriptProtocolSeparation) {
  Transcript t1("proto-a"), t2("proto-b");
  EXPECT_FALSE(t1.challenge("c") == t2.challenge("c"));
}

// ------------------------------------------------------------------ Schnorr

TEST_F(NizkTest, SchnorrCompleteness) {
  const Scalar x = Scalar::random(rng_);
  const RistrettoPoint y = crs_.h * x;
  const auto proof = SchnorrProof::prove(crs_.h, y, x, "test", rng_);
  EXPECT_TRUE(proof.verify(crs_.h, y, "test"));
  EXPECT_EQ(proof.to_bytes().size(), SchnorrProof::kWireSize);
}

TEST_F(NizkTest, SchnorrRejectsWrongStatement) {
  const Scalar x = Scalar::random(rng_);
  const RistrettoPoint y = crs_.h * x;
  const auto proof = SchnorrProof::prove(crs_.h, y, x, "test", rng_);
  EXPECT_FALSE(proof.verify(crs_.h, y + crs_.g, "test"));
  EXPECT_FALSE(proof.verify(crs_.g, y, "test"));
  EXPECT_FALSE(proof.verify(crs_.h, y, "other-domain"));
}

TEST_F(NizkTest, SchnorrRejectsTamperedProof) {
  const Scalar x = Scalar::random(rng_);
  const RistrettoPoint y = crs_.h * x;
  auto proof = SchnorrProof::prove(crs_.h, y, x, "test", rng_);
  proof.response = proof.response + Scalar::one();
  EXPECT_FALSE(proof.verify(crs_.h, y, "test"));
}

// -------------------------------------------------------------------- DLEQ

TEST_F(NizkTest, SignatureAcceptsValidAndRejectsEachTamperedPart) {
  const SigningKey key = SigningKey::generate(rng_);
  const SigningKey other = SigningKey::generate(rng_);
  const Bytes message = to_bytes("checkpoint 7");
  for (int i = 0; i < 8; ++i) {
    const Signature sig = sign(key, message, "sig-test", rng_);
    EXPECT_TRUE(verify_signature(key.pk, message, "sig-test", sig));
    // The verification equation s*B == R + c*PK, spelled out.
    const Scalar c = signature_challenge_for(key.pk, sig, message, "sig-test");
    EXPECT_EQ(RistrettoPoint::base() * sig.response,
              sig.nonce_commitment + key.pk * c);

    Signature bumped = sig;
    bumped.response = bumped.response + Scalar::one();
    EXPECT_FALSE(verify_signature(key.pk, message, "sig-test", bumped));
    EXPECT_FALSE(
        verify_signature(key.pk, to_bytes("checkpoint 8"), "sig-test", sig));
    EXPECT_FALSE(verify_signature(other.pk, message, "sig-test", sig));
    EXPECT_FALSE(verify_signature(key.pk, message, "other-domain", sig));
    Signature moved = sig;
    moved.nonce_commitment = sig.nonce_commitment + RistrettoPoint::base();
    EXPECT_FALSE(verify_signature(key.pk, message, "sig-test", moved));
    // Another signature's nonce commitment with this response.
    Signature swapped = sig;
    swapped.nonce_commitment =
        sign(key, message, "sig-test", rng_).nonce_commitment;
    EXPECT_FALSE(verify_signature(key.pk, message, "sig-test", swapped));
  }
}

TEST_F(NizkTest, DleqCompleteness) {
  const Scalar x = Scalar::random(rng_);
  const RistrettoPoint y1 = crs_.g * x;
  const RistrettoPoint y2 = crs_.h * x;
  const auto proof = DleqProof::prove(crs_.g, y1, crs_.h, y2, x, "test", rng_);
  EXPECT_TRUE(proof.verify(crs_.g, y1, crs_.h, y2, "test"));
  EXPECT_EQ(proof.to_bytes().size(), DleqProof::kWireSize);
}

TEST_F(NizkTest, DleqRejectsUnequalLogs) {
  const Scalar x = Scalar::random(rng_);
  const RistrettoPoint y1 = crs_.g * x;
  const RistrettoPoint y2 = crs_.h * (x + Scalar::one());
  const auto proof = DleqProof::prove(crs_.g, y1, crs_.h, y2, x, "test", rng_);
  EXPECT_FALSE(proof.verify(crs_.g, y1, crs_.h, y2, "test"));
}

// ----------------------------------------------------------------- Proof A

TEST_F(NizkTest, ProofACompleteness) {
  const Scalar x = Scalar::random(rng_);
  const StatementA st{crs_.g * x, crs_.h1 * x, crs_.h2 * x};
  const auto proof = ProofA::prove(crs_, st, x, rng_);
  EXPECT_TRUE(proof.verify(crs_, st));
  EXPECT_EQ(proof.to_bytes().size(), ProofA::kWireSize);
}

TEST_F(NizkTest, ProofARejectsInconsistentExponents) {
  // c2 derived from a different secret: the "same x" claim is false.
  const Scalar x = Scalar::random(rng_);
  const Scalar x2 = Scalar::random(rng_);
  const StatementA st{crs_.g * x, crs_.h1 * x, crs_.h2 * x2};
  const auto proof = ProofA::prove(crs_, st, x, rng_);
  EXPECT_FALSE(proof.verify(crs_, st));
}

TEST_F(NizkTest, ProofADoesNotTransferBetweenStatements) {
  const Scalar x = Scalar::random(rng_);
  const StatementA st{crs_.g * x, crs_.h1 * x, crs_.h2 * x};
  const auto proof = ProofA::prove(crs_, st, x, rng_);
  const Scalar x2 = Scalar::random(rng_);
  const StatementA other{crs_.g * x2, crs_.h1 * x2, crs_.h2 * x2};
  EXPECT_FALSE(proof.verify(crs_, other));
}

TEST_F(NizkTest, ProofATamperedFieldsRejected) {
  const Scalar x = Scalar::random(rng_);
  const StatementA st{crs_.g * x, crs_.h1 * x, crs_.h2 * x};
  auto proof = ProofA::prove(crs_, st, x, rng_);

  auto tampered = proof;
  tampered.omega = proof.omega + Scalar::one();
  EXPECT_FALSE(tampered.verify(crs_, st));

  tampered = proof;
  tampered.a = proof.a + Scalar::one();
  EXPECT_FALSE(tampered.verify(crs_, st));

  tampered = proof;
  tampered.b = proof.b + Scalar::one();
  EXPECT_FALSE(tampered.verify(crs_, st));

  tampered = proof;
  tampered.sigma0 = proof.sigma0 + crs_.g;
  EXPECT_FALSE(tampered.verify(crs_, st));

  tampered = proof;
  tampered.gamma1 = proof.gamma1 + crs_.h;
  EXPECT_FALSE(tampered.verify(crs_, st));
}

TEST_F(NizkTest, ProofAFreshRandomnessPerProof) {
  const Scalar x = Scalar::random(rng_);
  const StatementA st{crs_.g * x, crs_.h1 * x, crs_.h2 * x};
  const auto p1 = ProofA::prove(crs_, st, x, rng_);
  const auto p2 = ProofA::prove(crs_, st, x, rng_);
  EXPECT_NE(p1.to_bytes(), p2.to_bytes());
  EXPECT_TRUE(p1.verify(crs_, st));
  EXPECT_TRUE(p2.verify(crs_, st));
}

// ----------------------------------------------------------------- Proof B

struct Round2Fixture {
  Scalar x, v;
  StatementB st;
};

Round2Fixture make_round2(const Crs& crs, unsigned vote, Rng& rng) {
  Round2Fixture f;
  f.x = Scalar::random(rng);
  f.v = Scalar::from_u64(vote);
  // Y is an arbitrary aggregate of other members' c0 values.
  const RistrettoPoint y = crs.g * Scalar::random(rng);
  f.st.c0 = crs.g * f.x;
  f.st.big_c = crs.g * f.v + crs.h * f.x;
  f.st.psi = crs.g * f.v + y * f.x;
  f.st.y = y;
  return f;
}

TEST_F(NizkTest, ProofBCompletenessBothVotes) {
  for (unsigned vote : {0u, 1u}) {
    const auto f = make_round2(crs_, vote, rng_);
    const auto proof = ProofB::prove(crs_, f.st, f.x, f.v, rng_);
    EXPECT_TRUE(proof.verify(crs_, f.st)) << "vote=" << vote;
    EXPECT_EQ(proof.to_bytes().size(), ProofB::kWireSize);
  }
}

TEST_F(NizkTest, ProofBRejectsMismatchedPsi) {
  // psi computed with a different vote than C commits to.
  auto f = make_round2(crs_, 1, rng_);
  f.st.psi = f.st.y * f.x;  // psi for v = 0
  const auto proof = ProofB::prove(crs_, f.st, f.x, f.v, rng_);
  EXPECT_FALSE(proof.verify(crs_, f.st));
}

TEST_F(NizkTest, ProofBRejectsWrongY) {
  const auto f = make_round2(crs_, 1, rng_);
  const auto proof = ProofB::prove(crs_, f.st, f.x, f.v, rng_);
  StatementB other = f.st;
  other.y = f.st.y + crs_.g;
  EXPECT_FALSE(proof.verify(crs_, other));
}

TEST_F(NizkTest, ProofBRejectsTampering) {
  const auto f = make_round2(crs_, 0, rng_);
  auto proof = ProofB::prove(crs_, f.st, f.x, f.v, rng_);
  proof.omega_v = proof.omega_v + Scalar::one();
  EXPECT_FALSE(proof.verify(crs_, f.st));
}

// -------------------------------------------------------------- Binary vote

TEST_F(NizkTest, BinaryVoteCompleteness) {
  for (unsigned v : {0u, 1u}) {
    const Scalar x = Scalar::random(rng_);
    const RistrettoPoint c = crs_.g * Scalar::from_u64(v) + crs_.h * x;
    const auto proof = BinaryVoteProof::prove(crs_, c, v, x, rng_);
    EXPECT_TRUE(proof.verify(crs_, c)) << "v=" << v;
    EXPECT_EQ(proof.to_bytes().size(), BinaryVoteProof::kWireSize);
  }
}

TEST_F(NizkTest, BinaryVoteProverRefusesNonBinary) {
  const Scalar x = Scalar::random(rng_);
  const RistrettoPoint c = crs_.g * Scalar::from_u64(5) + crs_.h * x;
  EXPECT_THROW(BinaryVoteProof::prove(crs_, c, 5, x, rng_),
               std::invalid_argument);
  // And a claimed-binary opening that does not match C:
  EXPECT_THROW(BinaryVoteProof::prove(crs_, c, 1, x, rng_),
               std::invalid_argument);
}

TEST_F(NizkTest, BinaryVoteProofDoesNotTransfer) {
  const Scalar x = Scalar::random(rng_);
  const RistrettoPoint c = crs_.g + crs_.h * x;  // v = 1
  const auto proof = BinaryVoteProof::prove(crs_, c, 1, x, rng_);
  const RistrettoPoint other = crs_.g + crs_.h * Scalar::random(rng_);
  EXPECT_FALSE(proof.verify(crs_, other));
}

TEST_F(NizkTest, BinaryVoteRejectsTamperedChallengeSplit) {
  const Scalar x = Scalar::random(rng_);
  const RistrettoPoint c = crs_.h * x;  // v = 0
  auto proof = BinaryVoteProof::prove(crs_, c, 0, x, rng_);
  proof.c0 = proof.c0 + Scalar::one();
  EXPECT_FALSE(proof.verify(crs_, c));
  proof.c0 = proof.c0 - Scalar::one();
  proof.z1 = proof.z1 + Scalar::one();
  EXPECT_FALSE(proof.verify(crs_, c));
}

}  // namespace
}  // namespace cbl::nizk
