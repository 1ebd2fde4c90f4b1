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

// ------------------------------ Sigma verifiers as variable-time MSMs

// The challenges the verifiers derive, rebuilt from the same transcript
// labels, so the tests below can evaluate the constant-time formulas
// the verifiers used before they became multiscalar checks.
Scalar schnorr_c(const RistrettoPoint& base, const RistrettoPoint& y,
                 const RistrettoPoint& commitment) {
  Transcript t("cbl/nizk/schnorr");
  t.absorb("domain", to_bytes("test"));
  t.absorb_point("base", base).absorb_point("y", y);
  t.absorb_point("commitment", commitment);
  return t.challenge("c");
}

Scalar representation_c(const RistrettoPoint& g, const RistrettoPoint& h,
                        const RistrettoPoint& p,
                        const RistrettoPoint& commitment) {
  Transcript t("cbl/nizk/representation");
  t.absorb("domain", to_bytes("test"));
  t.absorb_point("base_g", g).absorb_point("base_h", h);
  t.absorb_point("p", p).absorb_point("commitment", commitment);
  return t.challenge("c");
}

Scalar dleq_c(const RistrettoPoint& b1, const RistrettoPoint& y1,
              const RistrettoPoint& b2, const RistrettoPoint& y2,
              const DleqProof& proof) {
  Transcript t("cbl/nizk/dleq");
  t.absorb("domain", to_bytes("test"));
  t.absorb_point("base1", b1).absorb_point("y1", y1);
  t.absorb_point("base2", b2).absorb_point("y2", y2);
  t.absorb_point("a1", proof.commitment1)
      .absorb_point("a2", proof.commitment2);
  return t.challenge("c");
}

RistrettoPoint random_point(Rng& rng) {
  return RistrettoPoint::base() * Scalar::random(rng);
}

TEST_F(NizkTest, SchnorrMsmVerifierAcceptsValidRejectsTamperedAndAgrees) {
  const Scalar x = Scalar::random(rng_);
  const RistrettoPoint y = crs_.h * x;
  const auto proof = SchnorrProof::prove(crs_.h, y, x, "test", rng_);
  EXPECT_TRUE(proof.verify(crs_.h, y, "test"));
  auto bad = proof;
  bad.commitment = bad.commitment + crs_.g;
  EXPECT_FALSE(bad.verify(crs_.h, y, "test"));
  bad = proof;
  bad.response = bad.response + Scalar::one();
  EXPECT_FALSE(bad.verify(crs_.h, y, "test"));
  EXPECT_FALSE(proof.verify(crs_.g, y, "test"));           // base
  EXPECT_FALSE(proof.verify(crs_.h, y + crs_.g, "test"));  // statement

  // 200 seeded proofs, valid or with one random part replaced: the MSM
  // verifier agrees with s*base == commitment + c*y on every one.
  auto rng = ChaChaRng::from_string_seed("nizk-schnorr-msm");
  int accepted = 0;
  for (int i = 0; i < 200; ++i) {
    const Scalar w = Scalar::random(rng);
    const RistrettoPoint base = random_point(rng);
    RistrettoPoint stmt = base * w;
    auto p = SchnorrProof::prove(base, stmt, w, "test", rng);
    switch (i % 4) {
      case 1: p.response = Scalar::random(rng); break;
      case 2: p.commitment = random_point(rng); break;
      case 3: stmt = random_point(rng); break;
      default: break;
    }
    const Scalar c = schnorr_c(base, stmt, p.commitment);
    const bool old_formula = base * p.response == p.commitment + stmt * c;
    EXPECT_EQ(p.verify(base, stmt, "test"), old_formula) << "i=" << i;
    accepted += old_formula;
  }
  EXPECT_EQ(accepted, 50);
}

TEST_F(NizkTest, RepresentationMsmVerifierAcceptsValidRejectsTamperedAndAgrees) {
  const Scalar m = Scalar::random(rng_);
  const Scalar r = Scalar::random(rng_);
  const RistrettoPoint p = crs_.g * m + crs_.h * r;
  const auto proof =
      RepresentationProof::prove(crs_.g, crs_.h, p, m, r, "test", rng_);
  EXPECT_TRUE(proof.verify(crs_.g, crs_.h, p, "test"));
  auto bad = proof;
  bad.commitment = bad.commitment + crs_.g;
  EXPECT_FALSE(bad.verify(crs_.g, crs_.h, p, "test"));
  bad = proof;
  bad.z1 = bad.z1 + Scalar::one();
  EXPECT_FALSE(bad.verify(crs_.g, crs_.h, p, "test"));
  bad = proof;
  bad.z2 = bad.z2 + Scalar::one();
  EXPECT_FALSE(bad.verify(crs_.g, crs_.h, p, "test"));
  EXPECT_FALSE(proof.verify(crs_.h, crs_.g, p, "test"));  // bases swapped
  EXPECT_FALSE(proof.verify(crs_.g, crs_.h, p + crs_.g, "test"));

  auto rng = ChaChaRng::from_string_seed("nizk-representation-msm");
  int accepted = 0;
  for (int i = 0; i < 200; ++i) {
    const Scalar a = Scalar::random(rng);
    const Scalar b = Scalar::random(rng);
    const RistrettoPoint g = random_point(rng);
    const RistrettoPoint h = random_point(rng);
    RistrettoPoint stmt = g * a + h * b;
    auto pr = RepresentationProof::prove(g, h, stmt, a, b, "test", rng);
    switch (i % 5) {
      case 1: pr.z1 = Scalar::random(rng); break;
      case 2: pr.z2 = Scalar::random(rng); break;
      case 3: pr.commitment = random_point(rng); break;
      case 4: stmt = random_point(rng); break;
      default: break;
    }
    const Scalar c = representation_c(g, h, stmt, pr.commitment);
    const bool old_formula =
        g * pr.z1 + h * pr.z2 == pr.commitment + stmt * c;
    EXPECT_EQ(pr.verify(g, h, stmt, "test"), old_formula) << "i=" << i;
    accepted += old_formula;
  }
  EXPECT_EQ(accepted, 40);
}

TEST_F(NizkTest, DleqMsmVerifierAcceptsValidRejectsTamperedAndAgrees) {
  const Scalar x = Scalar::random(rng_);
  const RistrettoPoint y1 = crs_.g * x;
  const RistrettoPoint y2 = crs_.h * x;
  const auto proof = DleqProof::prove(crs_.g, y1, crs_.h, y2, x, "test", rng_);
  EXPECT_TRUE(proof.verify(crs_.g, y1, crs_.h, y2, "test"));
  auto bad = proof;
  bad.commitment1 = bad.commitment1 + crs_.g;
  EXPECT_FALSE(bad.verify(crs_.g, y1, crs_.h, y2, "test"));
  bad = proof;
  bad.commitment2 = bad.commitment2 + crs_.g;
  EXPECT_FALSE(bad.verify(crs_.g, y1, crs_.h, y2, "test"));
  bad = proof;
  bad.response = bad.response + Scalar::one();
  EXPECT_FALSE(bad.verify(crs_.g, y1, crs_.h, y2, "test"));
  EXPECT_FALSE(proof.verify(crs_.g, y1 + crs_.g, crs_.h, y2, "test"));
  EXPECT_FALSE(proof.verify(crs_.g, y1, crs_.h, y2 + crs_.g, "test"));

  auto rng = ChaChaRng::from_string_seed("nizk-dleq-msm");
  int accepted = 0;
  for (int i = 0; i < 200; ++i) {
    const Scalar w = Scalar::random(rng);
    const RistrettoPoint b1 = random_point(rng);
    const RistrettoPoint b2 = random_point(rng);
    RistrettoPoint s1 = b1 * w;
    RistrettoPoint s2 = b2 * w;
    auto pr = DleqProof::prove(b1, s1, b2, s2, w, "test", rng);
    switch (i % 5) {
      case 1: pr.response = Scalar::random(rng); break;
      case 2: pr.commitment1 = random_point(rng); break;
      case 3: pr.commitment2 = random_point(rng); break;
      case 4: s2 = random_point(rng); break;
      default: break;
    }
    const Scalar c = dleq_c(b1, s1, b2, s2, pr);
    const bool old_formula = b1 * pr.response == pr.commitment1 + s1 * c &&
                             b2 * pr.response == pr.commitment2 + s2 * c;
    EXPECT_EQ(pr.verify(b1, s1, b2, s2, "test"), old_formula) << "i=" << i;
    accepted += old_formula;
  }
  EXPECT_EQ(accepted, 40);
}

// The prover computes both commitments with one RistrettoPoint::mul_batch
// (the two-point ladder). Its proofs must be byte-identical to the same
// nonce applied by two separate operator* calls.
TEST_F(NizkTest, DleqProveMatchesTwoSingleMultiplicationsByteForByte) {
  auto statements = ChaChaRng::from_string_seed("nizk-dleq-pair");
  for (int i = 0; i < 24; ++i) {
    const Scalar x = Scalar::random(statements);
    const RistrettoPoint b1 = random_point(statements);
    const RistrettoPoint b2 = random_point(statements);
    const RistrettoPoint y1 = b1 * x;
    const RistrettoPoint y2 = b2 * x;
    const std::string seed = "nizk-dleq-pair/" + std::to_string(i);
    auto rng = ChaChaRng::from_string_seed(seed);
    auto twin = ChaChaRng::from_string_seed(seed);
    const auto proof = DleqProof::prove(b1, y1, b2, y2, x, "test", rng);

    const Scalar k = Scalar::random(twin);  // the prover's one draw
    DleqProof expected;
    expected.commitment1 = b1 * k;
    expected.commitment2 = b2 * k;
    expected.response = k + dleq_c(b1, y1, b2, y2, expected) * x;
    EXPECT_EQ(proof.to_bytes(), expected.to_bytes()) << "i=" << i;
    EXPECT_TRUE(proof.verify(b1, y1, b2, y2, "test")) << "i=" << i;
  }
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
