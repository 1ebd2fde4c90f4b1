// Differential lockdown of the batched crypto kernels (the throughput
// layer's foundation): every batch kernel must be bit-identical to the
// scalar path it amortizes, on random inputs and on the edge cases —
// empty batch, size-1, identity points, zero field elements — plus the
// OPRF batch API (evaluate_batch) byte-for-byte against its
// per-element counterpart, and the rebuild(num_threads)
// determinism sweep. See DESIGN.md "Throughput architecture".
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "common/rng.h"
#include "ec/fe25519.h"
#include "ec/ristretto.h"
#include "ec/scalar.h"
#include "exec/parallel_for.h"
#include "obs/metrics.h"
#include "oprf/blind.h"
#include "oprf/client.h"
#include "oprf/oracle.h"
#include "oprf/server.h"
#include "oprf/wire.h"

namespace {

using cbl::Bytes;
using cbl::ChaChaRng;
using cbl::ec::Fe25519;
using cbl::ec::RistrettoPoint;
using cbl::ec::Scalar;

Fe25519 random_fe(cbl::Rng& rng) {
  std::array<std::uint8_t, 32> b{};
  rng.fill(b.data(), b.size());
  return Fe25519::from_bytes(b);
}

RistrettoPoint random_point(cbl::Rng& rng) {
  return RistrettoPoint::base() * Scalar::random(rng);
}

// ---------------------------------------------------------------------------
// Fe25519::batch_invert
// ---------------------------------------------------------------------------

TEST(BatchInvert, MatchesScalarInvertOnRandomInputs) {
  auto rng = ChaChaRng::from_string_seed("batch-invert-random");
  for (const std::size_t n : {1u, 2u, 3u, 17u, 64u, 257u}) {
    std::vector<Fe25519> batch(n);
    std::vector<Fe25519> expected(n);
    for (std::size_t i = 0; i < n; ++i) {
      batch[i] = random_fe(rng);
      expected[i] = batch[i].invert();
    }
    Fe25519::batch_invert(batch);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(batch[i].to_bytes(), expected[i].to_bytes())
          << "n=" << n << " i=" << i;
    }
  }
}

TEST(BatchInvert, EmptyBatchIsANoOp) {
  std::vector<Fe25519> empty;
  Fe25519::batch_invert(empty);  // must not crash
  EXPECT_TRUE(empty.empty());
}

TEST(BatchInvert, ZeroElementsMapToZeroWithoutPoisoningNeighbors) {
  auto rng = ChaChaRng::from_string_seed("batch-invert-zeros");
  // Zeros sprinkled through the batch: each must come back zero (matching
  // invert()'s 0 -> 0) while every neighbor still gets its true inverse.
  std::vector<Fe25519> batch(9);
  std::vector<Fe25519> expected(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    batch[i] = (i % 3 == 1) ? Fe25519::zero() : random_fe(rng);
    expected[i] = batch[i].invert();
  }
  Fe25519::batch_invert(batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch[i].to_bytes(), expected[i].to_bytes()) << "i=" << i;
    if (i % 3 == 1) {
      EXPECT_TRUE(batch[i].is_zero());
    }
  }
}

TEST(BatchInvert, AllZeroBatch) {
  std::vector<Fe25519> batch(5, Fe25519::zero());
  Fe25519::batch_invert(batch);
  for (const auto& v : batch) EXPECT_TRUE(v.is_zero());
}

TEST(BatchInvert, SingleElementEdgeValues) {
  for (std::uint64_t v : {std::uint64_t{0}, std::uint64_t{1},
                          std::uint64_t{2}, std::uint64_t{121666}}) {
    std::vector<Fe25519> batch{Fe25519::from_u64(v)};
    Fe25519::batch_invert(batch);
    EXPECT_EQ(batch[0].to_bytes(), Fe25519::from_u64(v).invert().to_bytes());
  }
}

TEST(BatchInvert, ProductWithInputIsOne) {
  auto rng = ChaChaRng::from_string_seed("batch-invert-product");
  std::vector<Fe25519> batch(32);
  std::vector<Fe25519> original(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    batch[i] = random_fe(rng);
    original[i] = batch[i];
  }
  Fe25519::batch_invert(batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ((batch[i] * original[i]).to_bytes(), Fe25519::one().to_bytes());
  }
}

// ---------------------------------------------------------------------------
// RistrettoPoint::double_and_encode_batch
// ---------------------------------------------------------------------------

TEST(DoubleAndEncodeBatch, MatchesScalarDoubleEncode) {
  auto rng = ChaChaRng::from_string_seed("batch-encode-random");
  for (const std::size_t n : {1u, 2u, 7u, 64u, 129u}) {
    std::vector<RistrettoPoint> halves(n);
    std::vector<RistrettoPoint::Encoding> expected(n);
    for (std::size_t i = 0; i < n; ++i) {
      halves[i] = random_point(rng);
      expected[i] = (halves[i] + halves[i]).encode();
    }
    const auto got = RistrettoPoint::double_and_encode_batch(halves);
    ASSERT_EQ(got.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(got[i], expected[i]) << "n=" << n << " i=" << i;
    }
  }
}

TEST(DoubleAndEncodeBatch, EmptyBatch) {
  EXPECT_TRUE(RistrettoPoint::double_and_encode_batch({}).empty());
}

TEST(DoubleAndEncodeBatch, IdentityPointsEncodeAsIdentity) {
  auto rng = ChaChaRng::from_string_seed("batch-encode-identity");
  // Identity halves hit the W = 0 branch of the closed form (the batch
  // inversion's 0 -> 0); they must still produce the canonical all-zero
  // encoding, and must not disturb the non-identity neighbors.
  std::vector<RistrettoPoint> halves = {
      RistrettoPoint::identity(), random_point(rng),
      RistrettoPoint::identity(), random_point(rng)};
  const auto got = RistrettoPoint::double_and_encode_batch(halves);
  const RistrettoPoint::Encoding zero{};
  EXPECT_EQ(got[0], zero);
  EXPECT_EQ(got[2], zero);
  EXPECT_EQ(got[1], (halves[1] + halves[1]).encode());
  EXPECT_EQ(got[3], (halves[3] + halves[3]).encode());
}

TEST(DoubleAndEncodeBatch, FoldsHalvedExponent) {
  // The intended use: encodings of P^s obtained by batch-doubling
  // P^(s/2). Must agree with the direct scalar multiplication.
  auto rng = ChaChaRng::from_string_seed("batch-encode-fold");
  const Scalar inv_two = Scalar::from_u64(2).invert();
  std::vector<RistrettoPoint> halves;
  std::vector<RistrettoPoint::Encoding> expected;
  for (int i = 0; i < 16; ++i) {
    const RistrettoPoint p = random_point(rng);
    const Scalar s = Scalar::random(rng);
    halves.push_back(p * (s * inv_two));
    expected.push_back((p * s).encode());
  }
  const auto got = RistrettoPoint::double_and_encode_batch(halves);
  for (std::size_t i = 0; i < halves.size(); ++i) {
    EXPECT_EQ(got[i], expected[i]) << "i=" << i;
  }
}

TEST(DoubleAndEncodeBatch, HashToGroupInputsSurviveRoundTrip) {
  // Batch-encoded outputs must decode back to the doubled group element.
  auto rng = ChaChaRng::from_string_seed("batch-encode-roundtrip");
  std::vector<RistrettoPoint> halves;
  for (int i = 0; i < 8; ++i) {
    halves.push_back(RistrettoPoint::hash_to_group(
        rng.bytes(20), "cbl/test/batch-roundtrip"));
  }
  const auto got = RistrettoPoint::double_and_encode_batch(halves);
  for (std::size_t i = 0; i < halves.size(); ++i) {
    const auto decoded = RistrettoPoint::decode(got[i]);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_TRUE(*decoded == halves[i] + halves[i]);
  }
}

TEST(DoubleAndEncode, SinglePointMatchesBatchAndEncode) {
  // The one-point kernel inverts its W directly instead of through
  // batch_invert; identity points take the W = 0 path there too.
  auto rng = ChaChaRng::from_string_seed("double-encode-single");
  std::vector<RistrettoPoint> points = {RistrettoPoint::identity(),
                                        RistrettoPoint::base()};
  for (int i = 0; i < 8; ++i) points.push_back(random_point(rng));
  points.push_back(RistrettoPoint::hash_to_group(rng.bytes(20), "cbl/test"));
  const auto batch = RistrettoPoint::double_and_encode_batch(points);
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].double_and_encode(), batch[i]) << "i=" << i;
    EXPECT_EQ(points[i].double_and_encode(),
              (points[i] + points[i]).encode())
        << "i=" << i;
  }
}

// ---------------------------------------------------------------------------
// RistrettoPoint::batch_hash_to_group
// ---------------------------------------------------------------------------

TEST(BatchHashToGroup, MatchesScalarHashToGroup) {
  auto rng = ChaChaRng::from_string_seed("batch-hash");
  constexpr std::string_view kDomain = "cbl/test/batch-hash/v1";
  std::vector<Bytes> inputs;
  for (int i = 0; i < 33; ++i) inputs.push_back(rng.bytes(1 + i % 40));
  const auto got = RistrettoPoint::batch_hash_to_group(inputs, kDomain);
  ASSERT_EQ(got.size(), inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    EXPECT_EQ(got[i].encode(),
              RistrettoPoint::hash_to_group(inputs[i], kDomain).encode());
  }
}

TEST(BatchHashToGroup, EmptyBatch) {
  EXPECT_TRUE(
      RistrettoPoint::batch_hash_to_group({}, "cbl/test/batch-hash/v1")
          .empty());
}

// ---------------------------------------------------------------------------
// Oracle::map_to_group_batch
// ---------------------------------------------------------------------------

TEST(OracleBatch, FastOracleBatchMatchesScalar) {
  const auto oracle = cbl::oprf::Oracle::fast();
  std::vector<Bytes> entries;
  for (int i = 0; i < 9; ++i) {
    entries.push_back(cbl::to_bytes("addr-" + std::to_string(i)));
  }
  const auto got = oracle.map_to_group_batch(entries);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(got[i].encode(), oracle.map_to_group(entries[i]).encode());
  }
}

// ---------------------------------------------------------------------------
// OprfServer::evaluate_batch: batch size never changes a response
// ---------------------------------------------------------------------------

class EvaluateBatchTest : public ::testing::Test {
 protected:
  EvaluateBatchTest()
      : rng_(ChaChaRng::from_string_seed("evaluate-batch")),
        server_(cbl::oprf::Oracle::fast(), /*lambda=*/4, rng_),
        client_(cbl::oprf::Oracle::fast(), /*lambda=*/4, rng_) {
    std::vector<std::string> corpus;
    for (int i = 0; i < 200; ++i) {
      corpus.push_back("entry-" + std::to_string(i));
    }
    server_.setup(corpus);
  }

  ChaChaRng rng_;
  cbl::oprf::OprfServer server_;
  cbl::oprf::OprfClient client_;
};

TEST_F(EvaluateBatchTest, ResponsesIndependentOfBatchSize) {
  using Status = cbl::oprf::OprfServer::BatchOutcome::Status;
  std::vector<cbl::oprf::QueryRequest> requests;
  std::vector<cbl::oprf::PendingQuery> pending;
  for (int i = 0; i < 40; ++i) {
    // Mix listed and unlisted entries, and exercise the cached-epoch path
    // on every third request.
    auto p = client_.prepare(i % 2 == 0 ? "entry-" + std::to_string(i)
                                        : "unlisted-" + std::to_string(i));
    if (i % 3 == 0) p.request.cached_epoch = server_.epoch();
    requests.push_back(p.request);
    pending.push_back(p.pending);
  }
  // A malformed masked query and an out-of-range prefix ride in the same
  // batch; they must fail alone without aborting their neighbors.
  cbl::oprf::QueryRequest malformed = requests[0];
  malformed.masked_query.fill(0xff);
  requests.push_back(malformed);
  cbl::oprf::QueryRequest bad_prefix = requests[1];
  bad_prefix.prefix = 1u << 10;  // lambda = 4
  requests.push_back(bad_prefix);

  const auto outcomes = server_.evaluate_batch(requests);
  ASSERT_EQ(outcomes.size(), requests.size());

  // A batch of n answers exactly like n one-element batches: same
  // status, same error, same response bytes.
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto single = server_.evaluate_batch(
        std::span<const cbl::oprf::QueryRequest>(&requests[i], 1));
    ASSERT_EQ(single.size(), 1u);
    EXPECT_EQ(outcomes[i].status, single[0].status) << "i=" << i;
    EXPECT_EQ(outcomes[i].error, single[0].error) << "i=" << i;
    EXPECT_EQ(cbl::oprf::serialize(outcomes[i].response),
              cbl::oprf::serialize(single[0].response))
        << "i=" << i;
    if (i < 40) {
      ASSERT_EQ(outcomes[i].status, Status::kOk) << "i=" << i;
    } else {
      EXPECT_EQ(outcomes[i].status, Status::kBadRequest) << "i=" << i;
      EXPECT_THROW(server_.handle(requests[i]), cbl::ProtocolError);
      EXPECT_FALSE(outcomes[i].error.empty());
    }
  }

  // The batched responses must finish() to the right verdicts. The
  // forced cache-hint requests (i % 3 == 0) have no matching client-side
  // cache entry, so only the full-bucket responses finish here; the
  // omission path is already covered by the byte comparison above.
  for (std::size_t i = 0; i < 40; ++i) {
    if (i % 3 == 0) continue;
    const auto result = client_.finish(pending[i], outcomes[i].response);
    EXPECT_EQ(result.listed, i % 2 == 0) << "i=" << i;
  }
}

TEST_F(EvaluateBatchTest, EmptyBatch) {
  EXPECT_TRUE(server_.evaluate_batch({}).empty());
}

TEST_F(EvaluateBatchTest, RateLimitedRequestsFailWithoutCryptoWork) {
  using Status = cbl::oprf::OprfServer::BatchOutcome::Status;
  server_.enable_rate_limiting(2);
  server_.authorize_key("alice");

  std::vector<cbl::oprf::QueryRequest> requests;
  for (int i = 0; i < 4; ++i) {
    auto p = client_.prepare("entry-" + std::to_string(i));
    p.request.api_key = i == 3 ? "mallory" : "alice";
    requests.push_back(p.request);
  }
  const auto outcomes = server_.evaluate_batch(requests);
  EXPECT_EQ(outcomes[0].status, Status::kOk);
  EXPECT_EQ(outcomes[1].status, Status::kOk);
  EXPECT_EQ(outcomes[2].status, Status::kRateLimited);  // over the window
  EXPECT_EQ(outcomes[3].status, Status::kRateLimited);  // unauthorized
}

TEST_F(EvaluateBatchTest, EvaluationProofsVerify) {
  client_.pin_key_commitment(server_.key_commitment());
  auto p = client_.prepare("entry-1");
  const auto outcomes =
      server_.evaluate_batch(std::vector<cbl::oprf::QueryRequest>{p.request});
  ASSERT_EQ(outcomes[0].status,
            cbl::oprf::OprfServer::BatchOutcome::Status::kOk);
  ASSERT_TRUE(outcomes[0].response.evaluation_proof.has_value());
  // finish() verifies the DLEQ against the pinned commitment and throws
  // on failure.
  const auto result = client_.finish(p.pending, outcomes[0].response);
  EXPECT_TRUE(result.listed);
}

TEST(BlindHelpers, UnblindUndoesBlindAndEvaluation) {
  // blind_half doubled is H(u)^r; unblind(psi, r) is psi^(1/r) encoded.
  auto rng = ChaChaRng::from_string_seed("blind-helpers");
  for (int i = 0; i < 8; ++i) {
    const RistrettoPoint hashed = random_point(rng);
    const cbl::Secret<Scalar> r(Scalar::random(rng));
    const Scalar mask = Scalar::random(rng);
    const RistrettoPoint half = cbl::oprf::blind_half(hashed, r);
    const RistrettoPoint masked = hashed * r.expose_secret();
    EXPECT_TRUE(half + half == masked);
    EXPECT_EQ(half.double_and_encode(), masked.encode());
    EXPECT_EQ(cbl::oprf::unblind(masked * mask, r), (hashed * mask).encode());
  }
}

TEST(BlindBatch, RoundTripsThroughEvaluateBatch) {
  auto rng = ChaChaRng::from_string_seed("blind-batch-roundtrip");
  cbl::oprf::OprfServer server(cbl::oprf::Oracle::fast(), 4, rng);
  cbl::oprf::OprfClient client(cbl::oprf::Oracle::fast(), 4, rng);
  std::vector<std::string> corpus;
  for (int i = 0; i < 64; ++i) corpus.push_back("c-" + std::to_string(i));
  server.setup(corpus);

  // Four prepare()d requests evaluated as one batch, each finished
  // against its own pending state.
  std::vector<std::string> queries = {"c-0", "nope", "c-63", "also-nope"};
  std::vector<cbl::oprf::OprfClient::Prepared> prepared;
  std::vector<cbl::oprf::QueryRequest> requests;
  for (const auto& q : queries) {
    prepared.push_back(client.prepare(q));
    requests.push_back(prepared.back().request);
  }
  const auto outcomes = server.evaluate_batch(requests);
  const bool expected[] = {true, false, true, false};
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(outcomes[i].status,
              cbl::oprf::OprfServer::BatchOutcome::Status::kOk);
    EXPECT_EQ(client.finish(prepared[i].pending, outcomes[i].response).listed,
              expected[i])
        << "i=" << i;
  }
}

// ---------------------------------------------------------------------------
// Rebuild determinism across thread counts
// ---------------------------------------------------------------------------

TEST(RebuildDeterminism, ThreadSweepYieldsIdenticalState) {
  // Identically seeded servers rebuilt with 1, 2, 7, and hardware threads
  // must agree on every observable: epoch, key commitment, prefix list,
  // bucket contents, and sealed metadata. The chunk boundaries depend
  // only on (n, threads) and every output is index-addressed, so thread
  // scheduling cannot reorder anything.
  std::vector<std::string> corpus;
  for (int i = 0; i < 301; ++i) corpus.push_back("det-" + std::to_string(i));

  const unsigned hw = cbl::exec::hardware_threads();
  const std::vector<unsigned> sweep = {1, 2, 7, hw};

  struct Snapshot {
    std::uint64_t epoch;
    RistrettoPoint::Encoding commitment;
    std::vector<std::uint32_t> prefixes;
    std::vector<Bytes> responses;  // serialized, one per prefix
  };
  std::vector<Snapshot> snaps;

  for (const unsigned threads : sweep) {
    auto rng = ChaChaRng::from_string_seed("rebuild-determinism");
    cbl::oprf::OprfServer server(cbl::oprf::Oracle::fast(), 5, rng);
    server.set_metadata_provider(
        [](const std::string& entry) { return cbl::to_bytes("m:" + entry); });
    server.setup(corpus, threads);

    auto client_rng = ChaChaRng::from_string_seed("rebuild-determinism-c");
    cbl::oprf::OprfClient client(cbl::oprf::Oracle::fast(), 5, client_rng);

    Snapshot s;
    s.epoch = server.epoch();
    s.commitment = server.key_commitment().encode();
    s.prefixes = server.prefix_list();
    // Pull every bucket (including sealed metadata) through the public
    // query surface so the comparison covers the full served bytes.
    for (std::size_t i = 0; i < corpus.size(); i += 17) {
      auto p = client.prepare(corpus[i]);
      s.responses.push_back(cbl::oprf::serialize(server.handle(p.request)));
    }
    snaps.push_back(std::move(s));
  }

  for (std::size_t i = 1; i < snaps.size(); ++i) {
    EXPECT_EQ(snaps[i].epoch, snaps[0].epoch) << "threads=" << sweep[i];
    EXPECT_EQ(snaps[i].commitment, snaps[0].commitment)
        << "threads=" << sweep[i];
    EXPECT_EQ(snaps[i].prefixes, snaps[0].prefixes) << "threads=" << sweep[i];
    ASSERT_EQ(snaps[i].responses.size(), snaps[0].responses.size());
    for (std::size_t j = 0; j < snaps[0].responses.size(); ++j) {
      EXPECT_EQ(snaps[i].responses[j], snaps[0].responses[j])
          << "threads=" << sweep[i] << " response=" << j;
    }
  }
}

// ---------------------------------------------------------------------------
// cbl::exec::parallel_for_chunks
// ---------------------------------------------------------------------------

TEST(ParallelForChunks, CoversRangeExactlyOnce) {
  constexpr std::size_t kN = 997;
  std::vector<std::atomic<int>> hits(kN);
  cbl::exec::parallel_for_chunks(
      kN, 7, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
      });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "i=" << i;
  }
}

}  // namespace
