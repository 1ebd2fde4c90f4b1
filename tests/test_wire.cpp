// Tests for the binary codec and every message wire format: canonical
// round-trips, untrusted-input robustness (truncation at every prefix
// length, trailing garbage, hostile length prefixes, invalid group
// encodings), and end-to-end protocol runs through serialized bytes.
#include <gtest/gtest.h>

#include "blocklist/generator.h"
#include "chain/shielded.h"
#include "commit/crs.h"
#include "common/rng.h"
#include "ec/codec.h"
#include "hash/sha256.h"
#include "oprf/client.h"
#include "oprf/server.h"
#include "oprf/wire.h"
#include "store/journal.h"
#include "store/snapshot.h"
#include "tlog/persist.h"
#include "tlog/tlog.h"
#include "voting/shareholder.h"
#include "voting/wire.h"

namespace cbl {
namespace {

using cbl::ChaChaRng;

class WireTest : public ::testing::Test {
 protected:
  ChaChaRng rng_ = ChaChaRng::from_string_seed("wire-tests");
};

// ------------------------------------------------------------------ codec

TEST_F(WireTest, WriterReaderRoundTrip) {
  const auto p = ec::RistrettoPoint::base() * ec::Scalar::random(rng_);
  const auto s = ec::Scalar::random(rng_);

  ec::WireWriter w;
  w.u8(7).u32(0xdeadbeef).u64(0x0102030405060708ULL);
  w.var_bytes(to_bytes("payload"));
  w.point(p).scalar(s);
  const Bytes data = w.take();

  ec::WireReader r(data);
  EXPECT_EQ(r.u8(), 7);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0102030405060708ULL);
  EXPECT_EQ(to_string(r.var_bytes(100)), "payload");
  EXPECT_TRUE(r.point() == p);
  EXPECT_EQ(r.scalar(), s);
  EXPECT_TRUE(r.finish());
}

TEST_F(WireTest, ReaderIsTotalOnTruncation) {
  ec::WireWriter w;
  w.u32(1234);
  const Bytes data = w.take();
  ec::WireReader r(ByteView(data.data(), 3));
  EXPECT_EQ(r.u32(), 0u);  // truncated read latches failure, returns zero
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.finish());
}

TEST_F(WireTest, FailureIsStickyAcrossSubsequentReads) {
  ec::WireWriter w;
  w.u8(5);
  const Bytes data = w.take();
  ec::WireReader r(data);
  EXPECT_EQ(r.u64(), 0u);  // out of bounds: fails
  EXPECT_EQ(r.u8(), 0u);   // in-bounds byte, but the reader stays failed
  EXPECT_FALSE(r.finish());
}

TEST_F(WireTest, ReaderRejectsHostileLengthPrefix) {
  ec::WireWriter w;
  w.u32(0xffffffffu);  // claims a 4 GiB payload
  const Bytes data = w.take();
  ec::WireReader r(data);
  EXPECT_TRUE(r.var_bytes(1024).empty());
  EXPECT_FALSE(r.finish());
}

TEST_F(WireTest, ReaderRejectsTrailingBytes) {
  ec::WireWriter w;
  w.u8(1).u8(2);
  const Bytes data = w.take();
  ec::WireReader r(data);
  (void)r.u8();
  EXPECT_TRUE(r.ok());       // every read was in bounds...
  EXPECT_FALSE(r.finish());  // ...but one byte was never consumed
}

TEST_F(WireTest, ReaderRejectsInvalidPoint) {
  Bytes data(32, 0xff);
  ec::WireReader r(data);
  EXPECT_TRUE(r.point() == ec::RistrettoPoint::identity());
  EXPECT_FALSE(r.finish());
}

TEST_F(WireTest, ReaderRejectsNonCanonicalScalar) {
  Bytes data(32, 0xff);  // way above l
  ec::WireReader r(data);
  EXPECT_EQ(r.scalar(), ec::Scalar::zero());
  EXPECT_FALSE(r.finish());
}

// ------------------------------------------------------------ OPRF wire

TEST_F(WireTest, QueryRequestRoundTrip) {
  oprf::QueryRequest req;
  req.prefix = 0x2a;
  req.masked_query =
      (ec::RistrettoPoint::base() * ec::Scalar::random(rng_)).encode();
  req.cached_epoch = 3;
  req.api_key = "alice-key";

  const auto parsed = oprf::parse_query_request(oprf::serialize(req));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->prefix, req.prefix);
  EXPECT_EQ(parsed->masked_query, req.masked_query);
  EXPECT_EQ(parsed->cached_epoch, req.cached_epoch);
  EXPECT_EQ(parsed->api_key, req.api_key);
}

TEST_F(WireTest, QueryResponseRoundTrip) {
  oprf::QueryResponse resp;
  resp.evaluated =
      (ec::RistrettoPoint::base() * ec::Scalar::random(rng_)).encode();
  resp.epoch = 9;
  resp.bucket_omitted = false;
  for (int i = 0; i < 5; ++i) {
    resp.bucket.push_back(
        (ec::RistrettoPoint::base() * ec::Scalar::random(rng_)).encode());
    resp.metadata.push_back(rng_.bytes(20));
  }
  const auto parsed = oprf::parse_query_response(oprf::serialize(resp));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->evaluated, resp.evaluated);
  EXPECT_EQ(parsed->epoch, resp.epoch);
  EXPECT_EQ(parsed->bucket, resp.bucket);
  EXPECT_EQ(parsed->metadata, resp.metadata);
}

TEST_F(WireTest, QueryMessagesRejectEveryTruncation) {
  oprf::QueryRequest req;
  req.masked_query =
      (ec::RistrettoPoint::base() * ec::Scalar::random(rng_)).encode();
  req.api_key = "k";
  const Bytes data = oprf::serialize(req);
  for (std::size_t len = 0; len < data.size(); ++len) {
    EXPECT_FALSE(
        oprf::parse_query_request(ByteView(data.data(), len)).has_value())
        << "len=" << len;
  }
  // Trailing garbage also rejected.
  Bytes extended = data;
  extended.push_back(0);
  EXPECT_FALSE(oprf::parse_query_request(extended).has_value());
}

TEST_F(WireTest, PrefixListRoundTripAndCanonicalOrder) {
  const std::vector<std::uint32_t> prefixes = {1, 5, 9, 200};
  const auto parsed =
      oprf::parse_prefix_list(oprf::serialize_prefix_list(prefixes));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, prefixes);

  // Unsorted lists are non-canonical.
  const auto bad = oprf::serialize_prefix_list({5, 1});
  EXPECT_FALSE(oprf::parse_prefix_list(bad).has_value());
}

TEST_F(WireTest, OprfProtocolOverSerializedBytes) {
  // Full protocol run where every message crosses a byte boundary.
  auto server_rng = ChaChaRng::from_string_seed("wire-server");
  auto client_rng = ChaChaRng::from_string_seed("wire-client");
  auto corpus_rng = ChaChaRng::from_string_seed("wire-corpus");
  const auto corpus =
      blocklist::generate_corpus(100, corpus_rng).addresses();

  oprf::OprfServer server(oprf::Oracle::fast(), 3, server_rng);
  server.setup(corpus);
  oprf::OprfClient client(oprf::Oracle::fast(), 3, client_rng);

  const auto prepared = client.prepare(corpus[11]);
  const Bytes req_bytes = oprf::serialize(prepared.request);
  const auto req = oprf::parse_query_request(req_bytes);
  ASSERT_TRUE(req.has_value());

  const Bytes resp_bytes = oprf::serialize(server.handle(*req));
  const auto resp = oprf::parse_query_response(resp_bytes);
  ASSERT_TRUE(resp.has_value());
  EXPECT_TRUE(client.finish(prepared.pending, *resp).listed);
}

// ----------------------------------------------------------- voting wire

class VotingWireTest : public WireTest {
 protected:
  const commit::Crs& crs_ = commit::Crs::default_crs();
  voting::Shareholder sh_{crs_, rng_, 1, 100};
};

TEST_F(VotingWireTest, Round1RoundTripPreservesVerifiability) {
  const auto sub = sh_.build_round1(rng_);
  const Bytes data = voting::serialize(sub);
  EXPECT_EQ(data.size(), voting::Round1Submission::wire_size());

  const auto parsed = voting::parse_round1(data);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->comm_secret == sub.comm_secret);
  EXPECT_TRUE(parsed->comm_vote == sub.comm_vote);
  // The parsed proofs still verify against the parsed statement.
  EXPECT_TRUE(parsed->proof_a.verify(
      crs_, {parsed->comm_secret, parsed->c1, parsed->c2}));
  EXPECT_TRUE(parsed->vote_proof.verify(crs_, parsed->comm_vote));
  EXPECT_EQ(voting::serialize(*parsed), data);  // canonical re-encode
}

TEST_F(VotingWireTest, Round1RejectsEveryTruncation) {
  const Bytes data = voting::serialize(sh_.build_round1(rng_));
  for (std::size_t len = 0; len < data.size(); len += 13) {
    EXPECT_FALSE(voting::parse_round1(ByteView(data.data(), len)).has_value());
  }
  Bytes extended = data;
  extended.push_back(0);
  EXPECT_FALSE(voting::parse_round1(extended).has_value());
}

TEST_F(VotingWireTest, Round1RejectsCorruptedPoints) {
  Bytes data = voting::serialize(sh_.build_round1(rng_));
  // Corrupt the first point encoding to a guaranteed-invalid value.
  std::fill(data.begin(), data.begin() + 32, 0xff);
  EXPECT_FALSE(voting::parse_round1(data).has_value());
}

TEST_F(VotingWireTest, VrfRevealRoundTrip) {
  const Bytes challenge = to_bytes("nu");
  const auto reveal = sh_.build_vrf_reveal(challenge, rng_);
  const auto parsed = voting::parse_vrf_reveal(voting::serialize(reveal));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(vrf::verify(sh_.vrf_pk(), challenge, parsed->proof));
  EXPECT_EQ(vrf::output(parsed->proof), vrf::output(reveal.proof));
}

TEST_F(VotingWireTest, Round2RoundTripPreservesVerifiability) {
  std::vector<ec::RistrettoPoint> committee = {
      crs_.g * sh_.secret(), crs_.g * ec::Scalar::random(rng_),
      crs_.g * ec::Scalar::random(rng_)};
  const auto sub = sh_.build_round2(committee, 0, rng_);
  const Bytes data = voting::serialize(sub);
  EXPECT_EQ(data.size(), voting::Round2Submission::wire_size());

  const auto parsed = voting::parse_round2(data);
  ASSERT_TRUE(parsed.has_value());
  const ec::RistrettoPoint y = voting::compute_y(committee, 0);
  nizk::StatementB st;
  st.c0 = committee[0];
  st.big_c = crs_.g * ec::Scalar::from_u64(sh_.vote()) + crs_.h * sh_.secret();
  st.psi = parsed->psi;
  st.y = y;
  EXPECT_TRUE(parsed->proof_b.verify(crs_, st));
}

// ------------------------------------------------------- format stability
//
// The refactor onto cbl::ByteReader/WireReader must not move a single
// wire byte: the Fig. 9 storage-gas numbers are metered off these exact
// encodings. The digests below were captured from the seed serializers
// (commit 66c1cf4) over deterministically built messages; if one of
// these fails, the wire format changed and Fig. 9 is invalid.

TEST(WireGoldenTest, SerializersAreByteIdenticalToSeedFormat) {
  auto rng = ChaChaRng::from_string_seed("wire-golden");
  const auto& crs = commit::Crs::default_crs();
  voting::Shareholder sh(crs, rng, 1, 100);
  const auto sha_hex = [](const Bytes& data) {
    const auto digest = hash::Sha256::digest(data);
    return to_hex(ByteView(digest.data(), digest.size()));
  };

  const auto r1 = voting::serialize(sh.build_round1(rng));
  EXPECT_EQ(r1.size(), 708u);
  EXPECT_EQ(sha_hex(r1),
            "11f485860eb4c7004025006e6fefe76aa1b59d5d106d27c47810dd4edbb8528e");

  const auto reveal =
      voting::serialize(sh.build_vrf_reveal(to_bytes("nu-golden"), rng));
  EXPECT_EQ(reveal.size(), 128u);
  EXPECT_EQ(sha_hex(reveal),
            "4ae180a3513be6b6c51dd12bb549d54e1a7b33fbd0a1c1454f08c1ec42d53822");

  std::vector<ec::RistrettoPoint> committee = {
      crs.g * sh.secret(), crs.g * ec::Scalar::random(rng),
      crs.g * ec::Scalar::random(rng)};
  const auto r2 = voting::serialize(sh.build_round2(committee, 0, rng));
  EXPECT_EQ(r2.size(), 320u);
  EXPECT_EQ(sha_hex(r2),
            "db75d485bf6907991e70c9830def1fb7f7409a52725569479d77f5af91da0d32");

  oprf::QueryRequest req;
  req.prefix = 0x2a;
  req.masked_query =
      (ec::RistrettoPoint::base() * ec::Scalar::random(rng)).encode();
  req.cached_epoch = 3;
  req.api_key = "golden-key";
  req.want_evaluation_proof = true;
  const auto req_bytes = oprf::serialize(req);
  EXPECT_EQ(req_bytes.size(), 59u);
  EXPECT_EQ(sha_hex(req_bytes),
            "2d102e6c423416a4251362054131e252aacdb3179dd149d201fb4dc304adfbbb");

  oprf::QueryResponse resp;
  resp.evaluated =
      (ec::RistrettoPoint::base() * ec::Scalar::random(rng)).encode();
  resp.epoch = 9;
  resp.bucket_omitted = false;
  for (int i = 0; i < 5; ++i) {
    resp.bucket.push_back(
        (ec::RistrettoPoint::base() * ec::Scalar::random(rng)).encode());
    resp.metadata.push_back(rng.bytes(20));
  }
  const auto resp_bytes = oprf::serialize(resp);
  EXPECT_EQ(resp_bytes.size(), 330u);
  EXPECT_EQ(sha_hex(resp_bytes),
            "cdc041059f89135373dffba34d5391da6e644bfc8fe7b25c75acabb9f8e888aa");

  const auto prefixes = oprf::serialize_prefix_list({1, 5, 9, 200, 70000});
  EXPECT_EQ(prefixes.size(), 24u);
  EXPECT_EQ(sha_hex(prefixes),
            "60623abfb91d0ea473a6450b291f0fea53eb7a94209ffd6638721f661dddec34");
}

// Same byte-stability contract for the transparency-log formats: a
// client folds deltas it fetched in one release with state cached by
// another, and the golden corpora under fuzz/corpora/fuzz_tlog_* are
// regenerated from these exact serializers — so no byte may move.
// Digests captured from the serializers that shipped the subsystem.
TEST(WireGoldenTest, TlogSerializersAreByteStable) {
  auto rng = ChaChaRng::from_string_seed("tlog-wire-golden");
  const auto key = nizk::SigningKey::generate(rng);
  const auto sha_hex = [](const Bytes& data) {
    const auto digest = hash::Sha256::digest(data);
    return to_hex(ByteView(digest.data(), digest.size()));
  };
  const auto rand_enc = [&rng] {
    return (ec::RistrettoPoint::base() * ec::Scalar::random(rng)).encode();
  };
  const auto sorted = [](std::vector<ec::RistrettoPoint::Encoding> v) {
    std::sort(v.begin(), v.end());
    return v;
  };

  tlog::BucketMap base;
  base[3] = sorted({rand_enc(), rand_enc()});
  base[9] = {rand_enc()};
  const auto base_bytes = tlog::encode_bucket_map(base);
  EXPECT_EQ(base_bytes.size(), 116u);
  EXPECT_EQ(sha_hex(base_bytes),
            "5b158f0986c0c1630606fe9ceb18e0bb5851b8c9fb28e15ec31aeabb4627c447");

  tlog::BucketMap post = base;
  post[3].push_back(rand_enc());
  post[3] = sorted(post[3]);
  post[17] = {rand_enc()};
  post.erase(9);
  auto delta = tlog::diff_buckets(base, post);
  delta.from_epoch = 4;
  delta.to_epoch = 5;
  delta.base_bucket_root = tlog::BucketTree(base).root();
  delta.post_bucket_root = tlog::BucketTree(post).root();
  delta = tlog::sign_delta(key, std::move(delta), rng);
  const auto delta_bytes = delta.to_bytes();
  EXPECT_EQ(delta_bytes.size(), 281u);
  EXPECT_EQ(sha_hex(delta_bytes),
            "b56dbe5d48cb95128f9a50467ae09dd12c9fb742556d33320b7a398e73c3a125");

  const auto checkpoint = tlog::sign_checkpoint(
      key, 2, chain::MerkleTree::hash_leaf(to_bytes("tlog-golden-root")), 5,
      rng);
  const auto cp_bytes = checkpoint.to_bytes();
  EXPECT_EQ(cp_bytes.size(), tlog::Checkpoint::kWireSize);
  EXPECT_EQ(sha_hex(cp_bytes),
            "58391b92c42e983dff95303532481c06a35acd5b4ca63d1557e9251f00f4c376");

  tlog::TransparencyLog log;
  for (std::uint64_t epoch = 1; epoch <= 5; ++epoch) {
    tlog::EpochRecord record;
    record.epoch = epoch;
    record.bucket_root =
        chain::MerkleTree::hash_leaf(to_bytes("bucket-" + std::to_string(epoch)));
    record.delta_digest =
        chain::MerkleTree::hash_leaf(to_bytes("delta-" + std::to_string(epoch)));
    log.append(record);
  }
  const auto inclusion = log.prove_record(4);
  const auto incl_bytes = tlog::encode_inclusion_proof(inclusion);
  EXPECT_EQ(incl_bytes.size(), 53u);
  EXPECT_EQ(sha_hex(incl_bytes),
            "8d12209163569cfc6e0457a047aa9ce81bdd9cecc6a7837f3404fa91e740a2fc");

  tlog::ConsistencyProofMsg consistency;
  consistency.old_size = 3;
  consistency.new_size = 5;
  consistency.nodes = log.prove_consistency(3);
  const auto cons_bytes = tlog::encode_consistency_proof(consistency);
  EXPECT_EQ(cons_bytes.size(), 148u);
  EXPECT_EQ(sha_hex(cons_bytes),
            "3239af06036dfb53d34ff3ce2d57701cc259a643b8332a10172ff32c9abbe93a");

  tlog::AuditPath path;
  path.epoch = 5;
  path.bucket_root = tlog::BucketTree(post).root();
  path.delta_digest = delta.digest();
  path.bucket_proof = tlog::BucketTree(post).prove(0);
  path.log_proof = inclusion;
  const auto path_bytes = tlog::encode_audit_path(path);
  EXPECT_EQ(path_bytes.size(), 178u);
  EXPECT_EQ(sha_hex(path_bytes),
            "9b519003a5e8ae21bb0d23c550eb1c48e0d176262c2c6affe99a55960d12b64d");

  // A steady-state sync bundle: checkpoint, consistency, one delta, path.
  const auto bundle_bytes = tlog::encode_sync_bundle(
      {cp_bytes, cons_bytes, {}, {delta_bytes}, path_bytes});
  EXPECT_EQ(bundle_bytes.size(), 744u);
  EXPECT_EQ(sha_hex(bundle_bytes),
            "e2e906d26c09c6c2a35dd602419faeb5c4fbf79a3fc738fe647e8ebb9f9b8971");

  // Each format parses back to the same canonical bytes.
  EXPECT_EQ(tlog::encode_bucket_map(*tlog::parse_bucket_map(base_bytes)),
            base_bytes);
  EXPECT_EQ(tlog::EpochDelta::from_bytes(delta_bytes)->to_bytes(),
            delta_bytes);
  EXPECT_EQ(tlog::Checkpoint::from_bytes(cp_bytes)->to_bytes(), cp_bytes);
  EXPECT_EQ(tlog::encode_inclusion_proof(
                *tlog::parse_inclusion_proof(incl_bytes)),
            incl_bytes);
  EXPECT_EQ(tlog::encode_consistency_proof(
                *tlog::parse_consistency_proof(cons_bytes)),
            cons_bytes);
  EXPECT_EQ(tlog::encode_audit_path(*tlog::parse_audit_path(path_bytes)),
            path_bytes);
  EXPECT_EQ(tlog::encode_sync_bundle(*tlog::parse_sync_bundle(bundle_bytes)),
            bundle_bytes);
}

// Same contract for the durable-state formats: a journal or snapshot
// written by one release must recover under the next, and the corpora
// under fuzz/corpora/fuzz_store_* and fuzz_tlog_persist are regenerated
// from these exact serializers — so no byte may move. Digests captured
// from the serializers that shipped the store subsystem.
TEST(WireGoldenTest, StoreAndPersistFormatsAreByteStable) {
  auto rng = ChaChaRng::from_string_seed("store-wire-golden");
  const auto sha_hex = [](const Bytes& data) {
    const auto digest = hash::Sha256::digest(data);
    return to_hex(ByteView(digest.data(), digest.size()));
  };

  const Bytes frame =
      store::encode_journal_record(to_bytes("golden-journal-record"));
  EXPECT_EQ(frame.size(), 4u + store::kJournalChecksumSize + 21u);
  EXPECT_EQ(sha_hex(frame), "2d82c792b0f0dada44749f7c0d918aa4d6477702eee931feaf3da6fbc4695c9f");
  EXPECT_EQ(store::encode_journal_record(*store::parse_journal_record(frame)),
            frame);

  Bytes journal = to_bytes(store::kJournalMagic);
  append(journal, frame);
  append(journal, store::encode_journal_record(rng.bytes(33)));
  EXPECT_EQ(journal.size(), 86u);
  EXPECT_EQ(sha_hex(journal), "bc1ff5106ca0b5d3b0e7ed43687efa68ade6bcda309b5e6fd17f0f4fa30064e1");
  const auto recovered = store::scan_journal(journal);
  EXPECT_EQ(recovered.status, store::RecoverStatus::kOk);
  EXPECT_EQ(recovered.records.size(), 2u);
  EXPECT_EQ(recovered.valid_bytes, journal.size());

  const Bytes snap = store::encode_snapshot(to_bytes("golden-snapshot"));
  EXPECT_EQ(snap.size(), store::kSnapshotMagic.size() + 1 + 4 +
                             store::kSnapshotChecksumSize + 15);
  EXPECT_EQ(sha_hex(snap), "3013b1bb862731119e70e52cf79e84a8f8c9cd66c149601271634141d7d2b994");
  EXPECT_EQ(store::encode_snapshot(*store::parse_snapshot(snap)), snap);

  const auto key = nizk::SigningKey::generate(rng);
  const auto cp1 = tlog::sign_checkpoint(
      key, 3, chain::MerkleTree::hash_leaf(to_bytes("persist-golden-1")), 1,
      rng);
  const auto cp2 = tlog::sign_checkpoint(
      key, 5, chain::MerkleTree::hash_leaf(to_bytes("persist-golden-2")), 2,
      rng);

  tlog::EquivocationEvidence evidence;
  evidence.first = cp1;
  evidence.second = cp2;
  const Bytes evidence_bytes = evidence.to_bytes();
  EXPECT_EQ(evidence_bytes.size(), tlog::EquivocationEvidence::kWireSize);
  EXPECT_EQ(sha_hex(evidence_bytes), "ac950ff74a45851b13b181135e4064f5898ea1d443956fb1d55ff7f653df63aa");

  tlog::AuditorSnapshot auditor;
  auditor.latest = cp2;
  auditor.seen = {cp1, cp2};
  auditor.has_mirror = true;
  auditor.mirror_epoch = 2;
  auditor.buckets[3] = {(ec::RistrettoPoint::base() * ec::Scalar::random(rng))
                            .encode()};
  auditor.evidence = evidence;
  const Bytes auditor_bytes = auditor.to_bytes();
  EXPECT_EQ(auditor_bytes.size(), 628u);
  EXPECT_EQ(sha_hex(auditor_bytes), "a1c5d87445b905db3bf35b1a783951352c014c85718085f5e6cb59ed3f3194e8");

  tlog::AuditorRecord record;
  record.kind = tlog::AuditorRecord::Kind::kDistrust;
  record.distrust_reason = 4;
  record.evidence = evidence;
  const Bytes record_bytes = record.to_bytes();
  EXPECT_EQ(record_bytes.size(),
            3 + tlog::EquivocationEvidence::kWireSize);
  EXPECT_EQ(sha_hex(record_bytes), "1634b7c568fb4dd79ad831d35b7a896bddb648cc59d19f5b3b9c2d71b27adfaf");

  // Each format parses back to the same canonical bytes.
  EXPECT_EQ(tlog::EquivocationEvidence::from_bytes(evidence_bytes)->to_bytes(),
            evidence_bytes);
  EXPECT_EQ(tlog::AuditorSnapshot::from_bytes(auditor_bytes)->to_bytes(),
            auditor_bytes);
  EXPECT_EQ(tlog::AuditorRecord::from_bytes(record_bytes)->to_bytes(),
            record_bytes);
}

TEST_F(VotingWireTest, RandomBytesNeverParse) {
  // Fuzz-lite: random blobs of the right length must not parse into valid
  // submissions (the first 32 bytes are a point encoding; a random string
  // decodes with probability ~2^-5 per component and the full message has
  // many, so valid parses are astronomically unlikely).
  auto fuzz_rng = ChaChaRng::from_string_seed("fuzz");
  int parsed_count = 0;
  for (int i = 0; i < 50; ++i) {
    const Bytes blob = fuzz_rng.bytes(voting::Round1Submission::wire_size());
    if (voting::parse_round1(blob).has_value()) ++parsed_count;
  }
  EXPECT_EQ(parsed_count, 0);
}

}  // namespace
}  // namespace cbl
