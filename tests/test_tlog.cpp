// Tests for the transparency-log subsystem (src/tlog) and its serving
// integration: signed checkpoints and deltas, delta folding vs full
// download equivalence (the acceptance criterion: a client syncing
// epoch e -> e+1 via signed deltas lands on a bit-identical bucket
// state), equivocation and tamper rejection with cbl_tlog_* metric
// accounting, and the resilient client's permanent-distrust latch.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <utility>

#include "blocklist/generator.h"
#include "common/rng.h"
#include "metric_delta.h"
#include "net/resilient_client.h"
#include "net/service_node.h"
#include "oprf/wire.h"
#include "store/fs.h"
#include "store/state_store.h"
#include "tlog/tlog.h"

namespace cbl::tlog {
namespace {

using cbl::ChaChaRng;
using net::BlocklistServiceNode;
using net::RemoteBlocklistClient;
using test::CounterDelta;
using test::FamilyDelta;

class TlogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    corpus_ = blocklist::generate_corpus(120, corpus_rng_).addresses();
    server_.emplace(oprf::Oracle::fast(), 6, server_rng_);
    server_->setup(std::span<const std::string>(corpus_).first(80));
    key_ = nizk::SigningKey::generate(key_rng_);
    publisher_.emplace(key_, publisher_rng_);
  }

  /// Fresh-entry batches for add_entries (addresses 80.. are unused).
  std::span<const std::string> fresh(std::size_t offset, std::size_t n) {
    return std::span<const std::string>(corpus_).subspan(80 + offset, n);
  }

  // The publisher's artifacts, read as a wallet reads them: as parts of
  // the bundle EpochPublisher::sync answers (publishing first).
  SyncBundle bundle(std::uint64_t known_size = 0,
                    std::uint64_t mirror_epoch = oprf::kNoEpoch) {
    return publisher_->sync(*server_, {known_size, mirror_epoch}).value();
  }
  /// The published bucket map (a first-contact wallet's download).
  BucketMap published_buckets() {
    return parse_bucket_map(bundle().snapshot).value();
  }
  /// The consistency proof from `old_size` to the log's size.
  ConsistencyProofMsg consistency_from(std::uint64_t old_size) {
    return parse_consistency_proof(bundle(old_size).consistency).value();
  }
  /// The signed delta leaving `from_epoch`, if the bundle carries one.
  std::optional<EpochDelta> delta_from(std::uint64_t from_epoch) {
    const auto answer = publisher_->sync(*server_, {0, from_epoch});
    if (!answer || answer->deltas.empty()) return std::nullopt;
    return EpochDelta::from_bytes(answer->deltas.front());
  }
  /// The audit path a sync carries: the lowest published prefix's, at
  /// the latest epoch record.
  std::optional<AuditPath> audit_path() {
    return parse_audit_path(bundle().audit_path);
  }

  ChaChaRng corpus_rng_ = ChaChaRng::from_string_seed("tlog-corpus");
  ChaChaRng server_rng_ = ChaChaRng::from_string_seed("tlog-server");
  ChaChaRng key_rng_ = ChaChaRng::from_string_seed("tlog-key");
  ChaChaRng publisher_rng_ = ChaChaRng::from_string_seed("tlog-pub");
  ChaChaRng client_rng_ = ChaChaRng::from_string_seed("tlog-client");
  std::vector<std::string> corpus_;
  std::optional<oprf::OprfServer> server_;
  nizk::SigningKey key_;
  std::optional<EpochPublisher> publisher_;
};

// --------------------------------------------------------- publisher core

TEST_F(TlogTest, PublishIsIdempotentPerEpoch) {
  const auto cp1 = publisher_->publish_epoch(*server_);
  EXPECT_EQ(cp1.tree_size, 1u);
  EXPECT_EQ(cp1.epoch, server_->epoch());
  EXPECT_TRUE(verify_checkpoint(key_.pk, cp1));
  // Same epoch again: no new log record, identical checkpoint bytes.
  const auto cp2 = publisher_->publish_epoch(*server_);
  EXPECT_EQ(cp2.to_bytes(), cp1.to_bytes());
  EXPECT_EQ(publisher_->latest_checkpoint().tree_size, 1u);

  server_->add_entries(fresh(0, 5));
  const auto cp3 = publisher_->publish_epoch(*server_);
  EXPECT_EQ(cp3.tree_size, 2u);
  EXPECT_GT(cp3.epoch, cp1.epoch);
  EXPECT_TRUE(verify_checkpoint(key_.pk, cp3));
}

TEST_F(TlogTest, PublishedSnapshotMatchesServer) {
  publisher_->publish_epoch(*server_);
  EXPECT_EQ(published_buckets(), server_->bucket_snapshot());
  // The first record's delta digest is the all-zero sentinel.
  EXPECT_EQ(audit_path()->delta_digest, Digest{});
  EXPECT_EQ(audit_path()->bucket_root,
            BucketTree(published_buckets()).root());
}

TEST_F(TlogTest, DeltaBridgesEpochsExactly) {
  publisher_->publish_epoch(*server_);
  const auto base = published_buckets();
  const std::uint64_t base_epoch = server_->epoch();

  server_->add_entries(fresh(0, 8));
  server_->remove_entries(std::span<const std::string>(corpus_).first(4));
  publisher_->publish_epoch(*server_);

  const auto delta = delta_from(base_epoch);
  ASSERT_TRUE(delta.has_value());
  EXPECT_EQ(delta->from_epoch, base_epoch);
  EXPECT_EQ(delta->to_epoch, server_->epoch());
  EXPECT_TRUE(verify_delta(key_.pk, *delta));
  EXPECT_EQ(delta->base_bucket_root, BucketTree(base).root());

  // Folding the signed delta into the base snapshot reproduces the new
  // snapshot bit for bit — the acceptance criterion at the data layer.
  BucketMap folded = base;
  ASSERT_TRUE(fold_delta(folded, *delta));
  EXPECT_EQ(folded, published_buckets());
  EXPECT_EQ(BucketTree(folded).root(), delta->post_bucket_root);
  // And the log's second record pins exactly this delta.
  EXPECT_EQ(audit_path()->delta_digest, delta->digest());

  // A mirror at the latest epoch gets no delta; one at an epoch no
  // published delta leaves is refused.
  EXPECT_FALSE(delta_from(server_->epoch()).has_value());
  ASSERT_GT(base_epoch, 0u);
  EXPECT_FALSE(publisher_->sync(*server_, {0, base_epoch - 1}).has_value());
}

TEST_F(TlogTest, DiffAndFoldAreInverse) {
  publisher_->publish_epoch(*server_);
  const auto base = published_buckets();
  server_->add_entries(fresh(0, 10));
  const auto post = server_->bucket_snapshot();

  auto delta = diff_buckets(base, post);
  BucketMap folded = base;
  ASSERT_TRUE(fold_delta(folded, delta));
  EXPECT_EQ(folded, post);

  // A no-op diff is empty and folds to the identity.
  EXPECT_TRUE(diff_buckets(post, post).prefixes.empty());
  // A removal that is not present refuses the whole fold, untouched.
  ASSERT_FALSE(delta.prefixes.empty());
  ASSERT_FALSE(delta.prefixes[0].added.empty());
  EpochDelta bogus = delta;
  bogus.prefixes[0].removed.push_back(bogus.prefixes[0].added[0]);
  bogus.prefixes[0].added.clear();
  BucketMap untouched = base;
  EXPECT_FALSE(fold_delta(untouched, bogus));
  EXPECT_EQ(untouched, base);
}

// ----------------------------------------------------------- auditor core

TEST_F(TlogTest, AuditorAcceptsHonestDeltaSync) {
  Auditor auditor(key_.pk, "unit");
  const CounterDelta applied("cbl_tlog_deltas_applied_total",
                             {{"endpoint", "unit"}});

  publisher_->publish_epoch(*server_);
  ASSERT_EQ(auditor.observe_checkpoint(publisher_->latest_checkpoint(),
                                       nullptr),
            Auditor::Status::kOk);
  ASSERT_EQ(auditor.adopt_snapshot(published_buckets()),
            Auditor::Status::kOk);
  const std::uint64_t base_epoch = auditor.mirror_epoch();

  server_->add_entries(fresh(0, 6));
  publisher_->publish_epoch(*server_);
  const auto consistency = consistency_from(1);
  ASSERT_EQ(auditor.observe_checkpoint(publisher_->latest_checkpoint(),
                                       &consistency),
            Auditor::Status::kOk);
  const auto delta = delta_from(base_epoch);
  ASSERT_TRUE(delta.has_value());
  ASSERT_EQ(auditor.apply_delta(*delta), Auditor::Status::kOk);

  // Bit-identical to the full download, root pinned, epoch advanced.
  EXPECT_EQ(auditor.buckets(), server_->bucket_snapshot());
  EXPECT_EQ(auditor.mirror_root(), BucketTree(auditor.buckets()).root());
  EXPECT_EQ(auditor.mirror_epoch(), server_->epoch());
  EXPECT_TRUE(auditor.trusted());
  EXPECT_EQ(applied.value(), 1u);

  // The lowest mirrored prefix's audit path binds mirror to checkpoint.
  const auto prefix = auditor.buckets().begin()->first;
  const auto path = audit_path();
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(auditor.verify_audit_path(prefix, *path), Auditor::Status::kOk);
}

TEST_F(TlogTest, TamperedDeltaIsRejectedAndCounted) {
  Auditor auditor(key_.pk, "tamper");
  publisher_->publish_epoch(*server_);
  (void)auditor.observe_checkpoint(publisher_->latest_checkpoint(), nullptr);
  (void)auditor.adopt_snapshot(published_buckets());
  const std::uint64_t base_epoch = auditor.mirror_epoch();
  const auto base = auditor.buckets();

  server_->add_entries(fresh(0, 6));
  publisher_->publish_epoch(*server_);
  const auto consistency = consistency_from(1);
  (void)auditor.observe_checkpoint(publisher_->latest_checkpoint(),
                                   &consistency);
  auto delta = *delta_from(base_epoch);

  const CounterDelta rejected("cbl_tlog_deltas_rejected_total",
                              {{"endpoint", "tamper"}});
  // Dropping one addition breaks the signature; nothing is applied.
  auto tampered = delta;
  ASSERT_FALSE(tampered.prefixes.empty());
  tampered.prefixes.pop_back();
  EXPECT_EQ(auditor.apply_delta(tampered), Auditor::Status::kBadSignature);
  EXPECT_EQ(auditor.buckets(), base);
  EXPECT_FALSE(auditor.trusted());
  EXPECT_EQ(rejected.value(), 1u);
}

TEST_F(TlogTest, ValidlySignedDeltaWithWrongPostRootIsRejected) {
  // A malicious provider CAN sign whatever it wants — the fold-and-check
  // makes the signed post root the binding commitment. Sign a delta that
  // claims the wrong post state and watch it bounce.
  Auditor auditor(key_.pk, "wrongroot");
  publisher_->publish_epoch(*server_);
  (void)auditor.observe_checkpoint(publisher_->latest_checkpoint(), nullptr);
  (void)auditor.adopt_snapshot(published_buckets());
  const auto base = auditor.buckets();
  const std::uint64_t base_epoch = auditor.mirror_epoch();

  server_->add_entries(fresh(0, 6));
  publisher_->publish_epoch(*server_);
  const auto consistency = consistency_from(1);
  (void)auditor.observe_checkpoint(publisher_->latest_checkpoint(),
                                   &consistency);

  auto forged = *delta_from(base_epoch);
  forged.post_bucket_root[0] ^= 1;
  forged = sign_delta(key_, std::move(forged), publisher_rng_);
  EXPECT_EQ(auditor.apply_delta(forged), Auditor::Status::kRootMismatch);
  EXPECT_EQ(auditor.buckets(), base);
  EXPECT_FALSE(auditor.trusted());

  // Sticky: even the honest delta is refused after distrust latched.
  EXPECT_EQ(auditor.apply_delta(*delta_from(base_epoch)),
            Auditor::Status::kDistrusted);
}

TEST_F(TlogTest, EquivocationIsProofNotSuspicion) {
  Auditor auditor(key_.pk, "equiv");
  const CounterDelta equivocations("cbl_tlog_equivocations_total",
                                   {{"endpoint", "equiv"}});
  publisher_->publish_epoch(*server_);
  const auto honest = publisher_->latest_checkpoint();
  ASSERT_EQ(auditor.observe_checkpoint(honest, nullptr),
            Auditor::Status::kOk);

  // Same size, different root, VALID signature: a split view.
  auto other_root = honest.root;
  other_root[7] ^= 0x40;
  const auto forged = sign_checkpoint(key_, honest.tree_size, other_root,
                                      honest.epoch, publisher_rng_);
  ASSERT_TRUE(verify_checkpoint(key_.pk, forged));
  EXPECT_EQ(auditor.observe_checkpoint(forged, nullptr),
            Auditor::Status::kEquivocation);
  EXPECT_FALSE(auditor.trusted());
  EXPECT_EQ(equivocations.value(), 1u);

  // A bad signature, by contrast, never reaches the equivocation check.
  Auditor fresh_auditor(key_.pk, "equiv2");
  auto unsigned_forgery = honest;
  unsigned_forgery.root[3] ^= 2;
  EXPECT_EQ(fresh_auditor.observe_checkpoint(unsigned_forgery, nullptr),
            Auditor::Status::kBadSignature);
}

TEST_F(TlogTest, ShrinkingOrForkedLogIsInconsistent) {
  Auditor auditor(key_.pk, "consist");
  publisher_->publish_epoch(*server_);
  server_->add_entries(fresh(0, 4));
  publisher_->publish_epoch(*server_);
  const auto cp2 = publisher_->latest_checkpoint();
  const auto consistency = consistency_from(1);
  server_->add_entries(fresh(4, 4));
  publisher_->publish_epoch(*server_);
  const auto cp3 = publisher_->latest_checkpoint();

  ASSERT_EQ(auditor.observe_checkpoint(cp2, nullptr), Auditor::Status::kOk);
  // A checkpoint whose tree SHRANK is rejected outright.
  const auto shrunk = sign_checkpoint(key_, 1, cp3.root, cp2.epoch,
                                      publisher_rng_);
  EXPECT_EQ(auditor.observe_checkpoint(shrunk, nullptr),
            Auditor::Status::kInconsistent);
  EXPECT_FALSE(auditor.trusted());

  // Growth without a consistency proof (or with a wrong one) fails too.
  Auditor strict(key_.pk, "consist2");
  ASSERT_EQ(strict.observe_checkpoint(cp2, nullptr), Auditor::Status::kOk);
  EXPECT_EQ(strict.observe_checkpoint(cp3, nullptr),
            Auditor::Status::kInconsistent);
  Auditor strict2(key_.pk, "consist3");
  ASSERT_EQ(strict2.observe_checkpoint(cp2, nullptr), Auditor::Status::kOk);
  auto wrong = consistency_from(2);
  ASSERT_FALSE(wrong.nodes.empty());
  wrong.nodes[0][0] ^= 1;
  EXPECT_EQ(strict2.observe_checkpoint(cp3, &wrong),
            Auditor::Status::kInconsistent);
  // The honest proof, for contrast, passes a fresh auditor.
  Auditor honest(key_.pk, "consist4");
  ASSERT_EQ(honest.observe_checkpoint(cp2, nullptr), Auditor::Status::kOk);
  const auto good = consistency_from(2);
  EXPECT_EQ(honest.observe_checkpoint(cp3, &good), Auditor::Status::kOk);
}

TEST_F(TlogTest, AuditPathCatchesForeignSnapshot) {
  // adopt_snapshot takes any bucket map; the audit path is what binds it
  // to the signed checkpoint. A snapshot with one extra entry smuggled
  // in yields a different bucket root and must fail the path check.
  Auditor auditor(key_.pk, "snapshot");
  publisher_->publish_epoch(*server_);
  (void)auditor.observe_checkpoint(publisher_->latest_checkpoint(), nullptr);
  auto doctored = published_buckets();
  ASSERT_FALSE(doctored.empty());
  auto smuggled = doctored.begin()->second.front();
  smuggled[0] ^= 0x11;
  doctored.begin()->second.push_back(smuggled);
  ASSERT_EQ(auditor.adopt_snapshot(doctored), Auditor::Status::kOk);

  const auto prefix = doctored.begin()->first;
  const auto path = audit_path();
  ASSERT_TRUE(path.has_value());
  EXPECT_NE(auditor.verify_audit_path(prefix, *path), Auditor::Status::kOk);
  EXPECT_FALSE(auditor.trusted());
}

// ---------------------------------------------- kept trees under churn

bool same_steps(const chain::MerkleTree::Proof& a,
                const chain::MerkleTree::Proof& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].sibling != b[i].sibling ||
        a[i].sibling_on_right != b[i].sibling_on_right) {
      return false;
    }
  }
  return true;
}

TEST(BucketTreeUpdate, InPlaceAndRebuildMatchAFreshTree) {
  // A seeded walk of bucket edits — entries added and removed, buckets
  // that appear and buckets that empty — with the kept tree updated
  // after each step and compared with a tree built from scratch.
  ChaChaRng rng = ChaChaRng::from_string_seed("bucket-tree-update");
  const auto draw = [&rng](std::size_t bound) {
    return static_cast<std::size_t>(rng.next_u64() % bound);
  };
  const auto random_entry = [&rng] {
    ec::RistrettoPoint::Encoding e{};
    rng.fill(e.data(), e.size());
    return e;
  };
  constexpr std::uint32_t kPrefixes = 48;
  BucketMap buckets;
  for (std::uint32_t prefix = 0; prefix < kPrefixes; prefix += 1 + prefix % 2) {
    auto& entries = buckets[prefix];
    for (std::size_t i = 0; i <= draw(3); ++i) entries.push_back(random_entry());
    std::sort(entries.begin(), entries.end());
  }
  BucketTree kept(buckets);
  int same_shape = 0;
  int appeared = 0;
  int emptied = 0;
  for (int step = 0; step < 150; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    std::vector<std::uint32_t> changed;
    for (std::size_t n = 0; n <= draw(4); ++n) {
      changed.push_back(static_cast<std::uint32_t>(draw(kPrefixes)));
    }
    std::sort(changed.begin(), changed.end());
    changed.erase(std::unique(changed.begin(), changed.end()), changed.end());
    bool shape_changed = false;
    for (const std::uint32_t prefix : changed) {
      const bool existed = buckets.contains(prefix);
      auto& entries = buckets[prefix];
      if (!entries.empty() && draw(6) == 0) {
        entries.clear();
      } else if (!entries.empty() && draw(2) == 0) {
        entries.erase(entries.begin() +
                      static_cast<std::ptrdiff_t>(draw(entries.size())));
      } else {
        const auto e = random_entry();
        entries.insert(std::lower_bound(entries.begin(), entries.end(), e), e);
      }
      if (entries.empty()) {
        buckets.erase(prefix);
        if (existed) ++emptied;
      } else if (!existed) {
        ++appeared;
      }
      shape_changed = shape_changed || existed != buckets.contains(prefix);
    }
    if (!shape_changed) ++same_shape;
    kept.update(buckets, changed);
    const BucketTree fresh(buckets);
    ASSERT_EQ(kept.root(), fresh.root());
    ASSERT_EQ(kept.leaf_count(), buckets.size());
    for (std::uint32_t prefix = 0; prefix < kPrefixes; ++prefix) {
      ASSERT_EQ(kept.index_of(prefix), fresh.index_of(prefix)) << prefix;
    }
    for (std::size_t i = 0; i < kept.leaf_count(); ++i) {
      const auto proof = kept.prove(i);
      ASSERT_EQ(proof.leaf_count, buckets.size());
      ASSERT_TRUE(same_steps(proof.steps, fresh.prove(i).steps)) << i;
    }
  }
  // Both paths ran: in-place steps and steps that changed the prefix set.
  EXPECT_GT(same_shape, 20);
  EXPECT_GT(appeared, 5);
  EXPECT_GT(emptied, 5);
}

/// One seeded walk over one-entry buckets (the shape of a large prefix
/// space): every step makes buckets appear and empty, mixed with
/// in-place entry swaps, and hands `changed` over unsorted. The kept
/// tree must match a fresh BucketTree in root, leaf count, every slot
/// and every proof; a failure names the seed and the step.
void reshape_walk(std::uint64_t seed) {
  SCOPED_TRACE("reshape walk seed " + std::to_string(seed));
  ChaChaRng rng = ChaChaRng::from_string_seed("bucket-tree-reshape/" +
                                              std::to_string(seed));
  const auto draw = [&rng](std::size_t bound) {
    return static_cast<std::size_t>(rng.next_u64() % bound);
  };
  const auto one_entry = [&rng] {
    std::vector<ec::RistrettoPoint::Encoding> entries(1);
    rng.fill(entries[0].data(), entries[0].size());
    return entries;
  };
  constexpr std::uint32_t kPrefixes = 200;
  BucketMap buckets;
  for (std::uint32_t prefix = 0; prefix < kPrefixes; ++prefix) {
    if (draw(3) == 0) buckets[prefix] = one_entry();
  }
  BucketTree kept(buckets);
  for (int step = 0; step < 60; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    std::vector<std::uint32_t> changed;
    for (std::size_t n = 0; n <= draw(10); ++n) {
      const auto prefix = static_cast<std::uint32_t>(draw(kPrefixes));
      if (std::find(changed.begin(), changed.end(), prefix) != changed.end()) {
        continue;
      }
      changed.push_back(prefix);
      const auto it = buckets.find(prefix);
      if (it == buckets.end()) {
        buckets[prefix] = one_entry();  // appears
      } else if (step % 4 == 0 || draw(2) == 0) {
        it->second = one_entry();  // changes in place
      } else {
        buckets.erase(it);  // empties
      }
    }
    kept.update(buckets, changed);
    const BucketTree fresh(buckets);
    ASSERT_EQ(kept.root(), fresh.root());
    ASSERT_EQ(kept.leaf_count(), buckets.size());
    for (std::uint32_t prefix = 0; prefix < kPrefixes; ++prefix) {
      ASSERT_EQ(kept.index_of(prefix), fresh.index_of(prefix)) << prefix;
    }
    for (std::size_t i = 0; i < kept.leaf_count(); ++i) {
      const auto proof = kept.prove(i);
      ASSERT_EQ(proof.leaf_count, buckets.size());
      ASSERT_TRUE(same_steps(proof.steps, fresh.prove(i).steps)) << i;
    }
  }
}

TEST(BucketTreeUpdate, OneEntryBucketsReshapeLikeAFreshTree) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    reshape_walk(seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(BucketTreeUpdate, LeafHashIsHashLeafOfTheLittleEndianPayload) {
  std::vector<ec::RistrettoPoint::Encoding> entries(2);
  for (std::size_t i = 0; i < entries[0].size(); ++i) {
    entries[0][i] = static_cast<std::uint8_t>(i);
    entries[1][i] = static_cast<std::uint8_t>(0xff - i);
  }
  // le32 prefix 0x00a1b2c3, le32 count 2, then the entries.
  Bytes payload = {0xc3, 0xb2, 0xa1, 0x00, 0x02, 0x00, 0x00, 0x00};
  for (const auto& e : entries) payload.insert(payload.end(), e.begin(), e.end());
  EXPECT_EQ(bucket_leaf_hash(0x00a1b2c3, entries),
            chain::MerkleTree::hash_leaf(payload));
  EXPECT_EQ(bucket_leaf_hash(7, {}),
            chain::MerkleTree::hash_leaf(
                Bytes{0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00}));
}

TEST_F(TlogTest, IncrementalPublishMatchesFullSnapshotDiff) {
  // The publisher reads only changed buckets; every delta, bucket root
  // and mirror it produces must still equal what diffing whole
  // snapshots gives — across in-place edits, buckets that appear or
  // empty (lambda 6 leaves many one-entry buckets), two changes between
  // publications, and a key rotation.
  publisher_->publish_epoch(*server_);
  BucketMap before = server_->bucket_snapshot();
  std::uint64_t before_epoch = server_->epoch();
  const auto listed = std::span<const std::string>(corpus_).first(80);
  for (int step = 0; step < 10; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    server_->add_entries(fresh(static_cast<std::size_t>(step) * 4, 4));
    server_->remove_entries(listed.subspan(static_cast<std::size_t>(step) * 5, 3));
    if (step == 3) server_->remove_entries(listed.subspan(70, 2));
    if (step == 6) server_->rotate_key();
    publisher_->publish_epoch(*server_);

    const BucketMap after = server_->bucket_snapshot();
    EpochDelta want = diff_buckets(before, after);
    want.from_epoch = before_epoch;
    want.to_epoch = server_->epoch();
    want.base_bucket_root = BucketTree(before).root();
    want.post_bucket_root = BucketTree(after).root();
    const auto got = delta_from(before_epoch);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->signing_payload(), want.signing_payload());
    EXPECT_EQ(published_buckets(), after);
    EXPECT_EQ(audit_path()->bucket_root, BucketTree(after).root());
    before = after;
    before_epoch = server_->epoch();
  }
}

TEST_F(TlogTest, RejectedDeltaLeavesMirrorRootAndTreeUnchanged) {
  // Two forged deltas, one per tree path: an addition into an existing
  // bucket (in-place update) and a removal that empties a bucket
  // (rebuild). Each carries a validly signed but wrong post root.
  const BucketMap initial = server_->bucket_snapshot();
  const auto prefix_of = [](const std::string& entry) {
    return oprf::Oracle::prefix(to_bytes(entry), 6);
  };
  std::vector<std::string> in_place;  // a fresh entry for a live bucket
  for (std::size_t i = 0; i < 40 && in_place.empty(); ++i) {
    if (initial.contains(prefix_of(fresh(i, 1)[0]))) {
      in_place.push_back(fresh(i, 1)[0]);
    }
  }
  std::vector<std::string> emptying;  // the only entry of its bucket
  for (std::size_t i = 0; i < 80 && emptying.empty(); ++i) {
    if (initial.at(prefix_of(corpus_[i])).size() == 1) {
      emptying.push_back(corpus_[i]);
    }
  }
  ASSERT_EQ(in_place.size(), 1u);
  ASSERT_EQ(emptying.size(), 1u);

  publisher_->publish_epoch(*server_);
  for (const bool empties : {false, true}) {
    SCOPED_TRACE(empties ? "rebuild path" : "in-place path");
    Auditor auditor(key_.pk, empties ? "rollback-rebuild" : "rollback-inplace");
    (void)auditor.observe_checkpoint(publisher_->latest_checkpoint(),
                                     nullptr);
    ASSERT_EQ(auditor.adopt_snapshot(published_buckets()),
              Auditor::Status::kOk);
    const BucketMap base = auditor.buckets();
    const Digest base_root = auditor.mirror_root();
    const std::uint64_t base_epoch = auditor.mirror_epoch();

    if (empties) {
      server_->remove_entries(emptying);
    } else {
      server_->add_entries(in_place);
    }
    publisher_->publish_epoch(*server_);
    auto forged = *delta_from(base_epoch);
    forged.post_bucket_root[0] ^= 1;
    forged = sign_delta(key_, std::move(forged), publisher_rng_);
    EXPECT_EQ(auditor.apply_delta(forged), Auditor::Status::kRootMismatch);
    EXPECT_EQ(auditor.buckets(), base);
    EXPECT_EQ(auditor.mirror_root(), base_root);
    EXPECT_EQ(auditor.mirror_root(), BucketTree(base).root());
    EXPECT_EQ(auditor.mirror_epoch(), base_epoch);
  }
}

TEST_F(TlogTest, BucketChangesSinceReportsTouchedBucketsOnly) {
  const std::uint64_t e0 = server_->epoch();
  const auto full = server_->bucket_changes_since(oprf::kNoEpoch);
  EXPECT_TRUE(full.complete);
  EXPECT_EQ(full.epoch, e0);
  EXPECT_EQ(full.buckets, server_->bucket_snapshot());
  EXPECT_TRUE(server_->bucket_changes_since(e0 - 1).complete);  // pre-key

  const auto none = server_->bucket_changes_since(e0);
  EXPECT_FALSE(none.complete);
  EXPECT_TRUE(none.buckets.empty());

  // Remove every entry of one bucket and add one fresh entry.
  const auto prefix_of = [](const std::string& entry) {
    return oprf::Oracle::prefix(to_bytes(entry), 6);
  };
  const std::uint32_t gone = prefix_of(corpus_[0]);
  std::vector<std::string> bucket_entries;
  for (std::size_t i = 0; i < 80; ++i) {
    if (prefix_of(corpus_[i]) == gone) bucket_entries.push_back(corpus_[i]);
  }
  server_->remove_entries(bucket_entries);
  const std::uint64_t e1 = server_->epoch();
  server_->add_entries(fresh(0, 1));
  const std::uint32_t added = prefix_of(fresh(0, 1)[0]);

  const auto since0 = server_->bucket_changes_since(e0);
  EXPECT_FALSE(since0.complete);
  EXPECT_EQ(since0.epoch, server_->epoch());
  ASSERT_TRUE(since0.buckets.contains(gone));
  ASSERT_TRUE(since0.buckets.contains(added));
  EXPECT_EQ(since0.buckets.size(), gone == added ? 1u : 2u);
  if (gone != added) {
    EXPECT_TRUE(since0.buckets.at(gone).empty());
  }
  EXPECT_EQ(since0.buckets.at(added), server_->bucket_snapshot().at(added));

  const auto since1 = server_->bucket_changes_since(e1);
  EXPECT_EQ(since1.buckets.size(), 1u);
  EXPECT_TRUE(since1.buckets.contains(added));

  server_->rotate_key();
  EXPECT_TRUE(server_->bucket_changes_since(e1).complete);
}

// ------------------------------------------------- wire-level verified sync

/// Forwards every call to `inner`, counting the kTlogSync calls, and runs
/// `after_next_tlog` (once) right after the next of them returns.
class TlogTap final : public net::Channel {
 public:
  explicit TlogTap(net::Channel& inner) : inner_(inner) {}

  net::CallResult call(const std::string& endpoint,
                       ByteView request) override {
    auto result = inner_.call(endpoint, request);
    if (!request.empty() &&
        request[0] == static_cast<std::uint8_t>(net::Method::kTlogSync)) {
      ++tlog_calls;
      if (after_next_tlog) std::exchange(after_next_tlog, nullptr)();
    }
    return result;
  }

  std::size_t tlog_calls = 0;
  std::function<void()> after_next_tlog;

 private:
  net::Channel& inner_;
};

class TlogWireTest : public TlogTest {
 protected:
  net::Transport make_transport() {
    net::TransportConfig cfg;
    cfg.latency_ms_min = 1;
    cfg.latency_ms_max = 5;
    return net::Transport(cfg, transport_rng_);
  }

  /// An endpoint that answers kInfo honestly and every other method with
  /// properly sealed garbage: it passes the checksum gate and dies in the
  /// body decoder, which is provider dishonesty, not channel noise.
  void register_garbage_endpoint(net::Transport& transport,
                                 const std::string& name) {
    transport.register_endpoint(
        name, [this](ByteView frame) -> std::optional<Bytes> {
          const auto request = net::parse_request_frame(frame);
          if (request && request->method == net::Method::kInfo) {
            net::ServiceInfo info;
            info.lambda = server_->lambda();
            info.entry_count = server_->entry_count();
            return net::encode_response_frame(net::Status::kOk,
                                              net::encode_info(info));
          }
          return net::encode_response_frame(net::Status::kOk,
                                            Bytes{0xde, 0xad, 0xbe, 0xef});
        });
  }

  /// Serves `name` as an equivocator: kInfo honestly, kTlogSync as a
  /// bundle whose checkpoint is a second signed root at the publisher's
  /// latest tree size, and kBadRequest to everything else.
  void register_equivocator(net::Transport& transport,
                            const std::string& name) {
    const auto honest = publisher_->latest_checkpoint();
    auto other_root = honest.root;
    other_root[11] ^= 0x80;
    const auto forged = sign_checkpoint(key_, honest.tree_size, other_root,
                                        honest.epoch, publisher_rng_);
    transport.register_endpoint(
        name, [this, forged](ByteView frame) -> std::optional<Bytes> {
          const auto request = net::parse_request_frame(frame);
          if (!request) {
            return net::encode_response_frame(net::Status::kBadRequest);
          }
          if (request->method == net::Method::kInfo) {
            net::ServiceInfo info;
            info.lambda = server_->lambda();
            info.entry_count = server_->entry_count();
            return net::encode_response_frame(net::Status::kOk,
                                              net::encode_info(info));
          }
          if (request->method == net::Method::kTlogSync) {
            return net::encode_response_frame(
                net::Status::kOk, encode_sync_bundle({forged.to_bytes()}));
          }
          return net::encode_response_frame(net::Status::kBadRequest);
        });
  }

  ChaChaRng transport_rng_ = ChaChaRng::from_string_seed("tlog-transport");
};

TEST_F(TlogWireTest, VerifiedSyncDeltaStateIsBitIdenticalToFullDownload) {
  auto transport = make_transport();
  BlocklistServiceNode node(transport, "scamdb", *server_,
                            oprf::Oracle::fast(), net::NodeLimits(), nullptr,
                            &*publisher_);
  RemoteBlocklistClient client(transport, "scamdb", client_rng_);
  Auditor auditor(key_.pk, "scamdb");
  const CounterDelta ok_syncs("cbl_tlog_sync_total",
                              {{"endpoint", "scamdb"}, {"result", "ok"}});

  // First contact: full verified download.
  auto report = client.verified_sync(auditor);
  ASSERT_TRUE(report.ok);
  EXPECT_EQ(report.deltas_applied, 0u);
  EXPECT_GT(report.full_bytes, 0u);
  EXPECT_EQ(auditor.buckets(), server_->bucket_snapshot());

  // Epoch e -> e+1: the sync rides one signed delta, no full download,
  // and the mirror is bit-identical to what a full download would give.
  server_->add_entries(fresh(0, 6));
  server_->remove_entries(std::span<const std::string>(corpus_).first(3));
  report = client.verified_sync(auditor);
  ASSERT_TRUE(report.ok);
  EXPECT_EQ(report.deltas_applied, 1u);
  EXPECT_GT(report.delta_bytes, 0u);
  EXPECT_EQ(report.full_bytes, 0u);
  EXPECT_EQ(report.epoch, server_->epoch());
  EXPECT_EQ(auditor.buckets(), server_->bucket_snapshot());
  EXPECT_TRUE(auditor.trusted());

  // Multi-epoch gap: one hop per missed epoch.
  server_->add_entries(fresh(6, 5));
  publisher_->publish_epoch(*server_);
  server_->add_entries(fresh(11, 5));
  report = client.verified_sync(auditor);
  ASSERT_TRUE(report.ok);
  EXPECT_EQ(report.deltas_applied, 2u);
  EXPECT_EQ(auditor.buckets(), server_->bucket_snapshot());

  // An unchanged epoch syncs trivially (no deltas, no downloads).
  report = client.verified_sync(auditor);
  ASSERT_TRUE(report.ok);
  EXPECT_EQ(report.deltas_applied, 0u);
  EXPECT_EQ(report.delta_bytes + report.full_bytes, 0u);
  EXPECT_EQ(ok_syncs.value(), 4u);
}

// The whole verified sync is one request: first contact, a steady-state
// delta sync and a two-hop catch-up each make exactly one tlog call.
TEST_F(TlogWireTest, EveryVerifiedSyncIsOneTlogCall) {
  auto transport = make_transport();
  BlocklistServiceNode node(transport, "scamdb", *server_,
                            oprf::Oracle::fast(), net::NodeLimits(), nullptr,
                            &*publisher_);
  TlogTap tap(transport);
  RemoteBlocklistClient client(tap, "scamdb", client_rng_);
  Auditor auditor(key_.pk, "scamdb");

  auto report = client.verified_sync(auditor);
  ASSERT_TRUE(report.ok);
  EXPECT_GT(report.full_bytes, 0u);
  EXPECT_EQ(tap.tlog_calls, 1u);

  server_->add_entries(fresh(0, 6));
  report = client.verified_sync(auditor);
  ASSERT_TRUE(report.ok);
  EXPECT_EQ(report.deltas_applied, 1u);
  EXPECT_EQ(tap.tlog_calls, 2u);

  server_->add_entries(fresh(6, 3));
  publisher_->publish_epoch(*server_);
  server_->add_entries(fresh(9, 3));
  report = client.verified_sync(auditor);
  ASSERT_TRUE(report.ok);
  EXPECT_EQ(report.deltas_applied, 2u);
  EXPECT_EQ(tap.tlog_calls, 3u);
  EXPECT_EQ(auditor.buckets(), server_->bucket_snapshot());
}

// A publish that lands while one wallet syncs cannot split that wallet's
// evidence. Wallet B's sync, which publishes a newer epoch on demand,
// runs inside wallet A's channel right after A's tlog call returns. A's
// sync stands on the publication it was answered from, A stays trusted,
// and its next sync reaches the server's epoch.
TEST_F(TlogWireTest, PublishDuringAnotherWalletsSyncKeepsItTrusted) {
  auto transport = make_transport();
  BlocklistServiceNode node(transport, "scamdb", *server_,
                            oprf::Oracle::fast(), net::NodeLimits(), nullptr,
                            &*publisher_);
  TlogTap tap(transport);
  RemoteBlocklistClient a(tap, "scamdb", client_rng_);
  RemoteBlocklistClient b(transport, "scamdb", client_rng_);
  Auditor auditor_a(key_.pk, "wallet-a");
  Auditor auditor_b(key_.pk, "wallet-b");
  ASSERT_TRUE(a.verified_sync(auditor_a).ok);
  ASSERT_TRUE(b.verified_sync(auditor_b).ok);
  std::set<std::uint64_t> published = {server_->epoch()};

  server_->add_entries(fresh(0, 4));
  published.insert(server_->epoch());
  tap.after_next_tlog = [&] {
    server_->add_entries(fresh(4, 4));
    published.insert(server_->epoch());
    EXPECT_TRUE(b.verified_sync(auditor_b).ok);
  };
  const auto report = a.verified_sync(auditor_a);
  EXPECT_TRUE(report.ok);
  EXPECT_TRUE(auditor_a.trusted());
  EXPECT_TRUE(published.contains(auditor_a.mirror_epoch()));

  ASSERT_TRUE(a.verified_sync(auditor_a).ok);
  EXPECT_EQ(auditor_a.mirror_epoch(), server_->epoch());
  EXPECT_EQ(auditor_a.buckets(), server_->bucket_snapshot());
}

TEST_F(TlogWireTest, UnreachableTlogEndpointsAreTransportNotAudit) {
  auto transport = make_transport();
  // A node WITHOUT a publisher answers kTlogSync with kBadRequest: the
  // service is not publishing, which is a liveness problem, not
  // dishonesty — the auditor must stay trusted.
  BlocklistServiceNode node(transport, "scamdb", *server_,
                            oprf::Oracle::fast());
  RemoteBlocklistClient client(transport, "scamdb", client_rng_);
  Auditor auditor(key_.pk, "scamdb");
  const CounterDelta transport_syncs(
      "cbl_tlog_sync_total", {{"endpoint", "scamdb"}, {"result", "transport"}});
  const auto report = client.verified_sync(auditor);
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.failure,
            RemoteBlocklistClient::SyncReport::Failure::kTransport);
  EXPECT_TRUE(auditor.trusted());
  EXPECT_EQ(transport_syncs.value(), 1u);
}

TEST_F(TlogWireTest, EquivocatingEndpointIsAuditFailureOverTheWire) {
  auto transport = make_transport();
  auto node = std::make_optional<BlocklistServiceNode>(
      transport, "scamdb", *server_, oprf::Oracle::fast(),
      net::NodeLimits(), nullptr, &*publisher_);
  RemoteBlocklistClient client(transport, "scamdb", client_rng_);
  Auditor auditor(key_.pk, "scamdb");
  ASSERT_TRUE(client.verified_sync(auditor).ok);

  // Swap the honest node for one that serves a second signed checkpoint
  // at the same tree size with a different root.
  node.reset();
  const auto honest = publisher_->latest_checkpoint();
  auto other_root = honest.root;
  other_root[0] ^= 0x04;
  const auto forged = sign_checkpoint(key_, honest.tree_size, other_root,
                                      honest.epoch, publisher_rng_);
  transport.register_endpoint(
      "scamdb", [&forged](ByteView frame) -> std::optional<Bytes> {
        const auto request = net::parse_request_frame(frame);
        if (request && request->method == net::Method::kTlogSync) {
          return net::encode_response_frame(
              net::Status::kOk, encode_sync_bundle({forged.to_bytes()}));
        }
        return net::encode_response_frame(net::Status::kBadRequest);
      });

  const CounterDelta audit_syncs(
      "cbl_tlog_sync_total", {{"endpoint", "scamdb"}, {"result", "audit"}});
  const auto report = client.verified_sync(auditor);
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.failure,
            RemoteBlocklistClient::SyncReport::Failure::kAudit);
  EXPECT_FALSE(auditor.trusted());
  EXPECT_EQ(audit_syncs.value(), 1u);
  // Distrust is sticky: later syncs fail without touching the wire.
  const FamilyDelta calls("cbl_net_calls_total");
  EXPECT_FALSE(client.verified_sync(auditor).ok);
  EXPECT_EQ(calls.value(), 0u);
}

TEST_F(TlogWireTest, ChecksumValidGarbageBodyIsAudit) {
  auto transport = make_transport();
  register_garbage_endpoint(transport, "evil");
  RemoteBlocklistClient client(transport, "evil", client_rng_);
  Auditor auditor(key_.pk, "evil");
  const auto report = client.verified_sync(auditor);
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.failure,
            RemoteBlocklistClient::SyncReport::Failure::kAudit);
  // The auditor itself holds the latch, not only the sync's caller.
  EXPECT_FALSE(auditor.trusted());
}

// Audit evidence must outlive the client process: a provider condemned
// for an undecodable checkpoint is still condemned when a restarted
// client recovers its auditor from the same store, and the recovery is
// not counted as a second condemnation.
TEST_F(TlogWireTest, GarbageCheckpointDistrustSurvivesRestart) {
  auto transport = make_transport();
  register_garbage_endpoint(transport, "evil");
  net::ResilienceConfig config;
  config.hedge_after_ms = 0.0;
  obs::ManualClock clock;
  store::MemFs fs;
  {
    store::StateStore store(fs, "evil-aud");
    net::ResilientClient client(transport, {"evil"}, client_rng_, config,
                                &clock);
    client.pin_tlog_key("evil", key_.pk, &store);
    const CounterDelta distrusted("cbl_tlog_providers_distrusted_total");
    EXPECT_EQ(client.sync(), 1u);
    EXPECT_TRUE(client.distrusted("evil"));
    EXPECT_EQ(distrusted.value(), 1u);
  }
  fs.crash();

  store::StateStore store(fs, "evil-aud");  // outlives the client below
  net::ResilientClient client(transport, {"evil"}, client_rng_, config,
                              &clock);
  const CounterDelta distrusted("cbl_tlog_providers_distrusted_total");
  const FamilyDelta calls("cbl_net_calls_total");
  client.pin_tlog_key("evil", key_.pk, &store);
  EXPECT_TRUE(client.distrusted("evil"));
  EXPECT_EQ(client.sync(), 0u);
  EXPECT_EQ(calls.value(), 0u);
  EXPECT_EQ(distrusted.value(), 0u);
}

TEST_F(TlogWireTest, ResilientClientDistrustsEquivocatorPermanently) {
  auto transport = make_transport();
  auto node = std::make_optional<BlocklistServiceNode>(
      transport, "scamdb", *server_, oprf::Oracle::fast(),
      net::NodeLimits(), nullptr, &*publisher_);

  net::ResilienceConfig config;
  config.hedge_after_ms = 0.0;
  obs::ManualClock clock;
  net::ResilientClient client(transport, {"scamdb"}, client_rng_, config,
                              &clock);
  client.pin_tlog_key("scamdb", key_.pk);
  ASSERT_EQ(client.sync(), 1u);
  ASSERT_NE(client.tlog_auditor("scamdb"), nullptr);
  EXPECT_TRUE(client.tlog_auditor("scamdb")->trusted());
  EXPECT_FALSE(client.distrusted("scamdb"));
  const auto fresh_answer = client.query(corpus_[0]);
  EXPECT_EQ(fresh_answer.freshness, net::Freshness::kFresh);
  EXPECT_EQ(fresh_answer.verdict,
            net::ResilientClient::Outcome::Verdict::kListed);

  // The provider turns equivocator.
  node.reset();
  register_equivocator(transport, "scamdb");

  const CounterDelta distrusted("cbl_tlog_providers_distrusted_total");
  (void)client.sync();
  EXPECT_TRUE(client.distrusted("scamdb"));
  EXPECT_EQ(distrusted.value(), 1u);

  // A condemned provider gets no query traffic: the answer degrades and
  // is never kFresh again, even though the endpoint is up and would
  // answer. Its memoised verdict is no evidence either, and the entry's
  // prefix is listed, so the ladder ends at unavailable.
  const auto degraded = client.query(corpus_[0]);
  EXPECT_EQ(degraded.freshness, net::Freshness::kUnavailable);
  EXPECT_EQ(degraded.verdict,
            net::ResilientClient::Outcome::Verdict::kUnknown);
  // And sync() refuses to talk to it at all.
  const FamilyDelta calls("cbl_net_calls_total");
  EXPECT_EQ(client.sync(), 0u);
  EXPECT_EQ(calls.value(), 0u);
}

// The stale rung replays only a trusted provider's verdicts: one that
// answered fresh and was then condemned for equivocation is never
// replayed, and a provider that holds no verdict for the entry has
// nothing to replay for it.
TEST_F(TlogWireTest, CondemnedProvidersVerdictIsNeverReplayed) {
  auto transport = make_transport();
  auto a = std::make_optional<BlocklistServiceNode>(
      transport, "a", *server_, oprf::Oracle::fast(), net::NodeLimits(),
      nullptr, &*publisher_);
  auto b = std::make_optional<BlocklistServiceNode>(
      transport, "b", *server_, oprf::Oracle::fast());

  net::ResilienceConfig config;
  config.max_attempts = 2;
  config.hedge_after_ms = 0.0;
  obs::ManualClock clock;
  net::ResilientClient client(transport, {"a", "b"}, client_rng_, config,
                              &clock);
  client.pin_tlog_key("a", key_.pk);
  ASSERT_EQ(client.sync(), 2u);
  const CounterDelta b_calls("cbl_net_calls_total", {{"endpoint", "b"}});
  const auto fresh_answer = client.query(corpus_[0]);
  ASSERT_EQ(fresh_answer.freshness, net::Freshness::kFresh);
  ASSERT_TRUE(fresh_answer.listed());
  ASSERT_EQ(b_calls.value(), 0u);  // a answered; b holds no verdict

  // b goes down and a turns equivocator.
  b.reset();
  a.reset();
  register_equivocator(transport, "a");
  (void)client.sync();
  ASSERT_TRUE(client.distrusted("a"));

  const auto degraded = client.query(corpus_[0]);
  EXPECT_EQ(degraded.freshness, net::Freshness::kUnavailable);
  EXPECT_EQ(degraded.verdict,
            net::ResilientClient::Outcome::Verdict::kUnknown);
}

// ------------------------------------------- the query cache fed by the mirror

/// Clients talk to "mirror", which forwards to an honest node except
/// where a test makes it put a forged checkpoint into the sync bundle.
/// listed_ tracks the list the server holds.
class MirrorFeedTest : public TlogWireTest {
 protected:
  void SetUp() override {
    TlogWireTest::SetUp();
    listed_.insert(corpus_.begin(), corpus_.begin() + 80);
    node_.emplace(transport_, "honest", *server_, oprf::Oracle::fast(),
                  net::NodeLimits(), nullptr, &*publisher_);
    transport_.register_endpoint(
        "mirror", [this](ByteView frame) -> std::optional<Bytes> {
          const auto request = net::parse_request_frame(frame);
          auto response = node_->handle_frame(frame);
          if (request && request->method == net::Method::kTlogSync &&
              forged_) {
            const auto honest = net::parse_response_frame(*response);
            auto bundle = parse_sync_bundle(honest->body).value();
            bundle.checkpoint = forged_->to_bytes();
            response = net::encode_response_frame(net::Status::kOk,
                                                  encode_sync_bundle(bundle));
          }
          return response;
        });
  }

  void add(std::span<const std::string> batch) {
    server_->add_entries(batch);
    listed_.insert(batch.begin(), batch.end());
  }
  void remove(std::span<const std::string> batch) {
    server_->remove_entries(batch);
    for (const auto& entry : batch) listed_.erase(entry);
  }
  std::uint32_t prefix(const std::string& entry) const {
    return oprf::Oracle::prefix(to_bytes(entry), server_->lambda());
  }
  /// How many of `entries` are in a bucket named in `prefixes`.
  std::size_t in_prefixes(std::span<const std::string> entries,
                          const std::set<std::uint32_t>& prefixes) const {
    return static_cast<std::size_t>(std::ranges::count_if(
        entries, [&](const auto& e) { return prefixes.contains(prefix(e)); }));
  }

  struct Tally {
    std::size_t wrong = 0;   // answered, but not what the list says
    std::size_t failed = 0;  // no answer
  };
  Tally query_all(RemoteBlocklistClient& client,
                  std::span<const std::string> entries) {
    Tally tally;
    for (const auto& entry : entries) {
      const auto out = client.query(entry);
      if (out.kind != RemoteBlocklistClient::QueryOutcome::Kind::kOk) {
        ++tally.failed;
      } else if (out.listed != listed_.contains(entry)) {
        ++tally.wrong;
      }
    }
    return tally;
  }

  net::Transport transport_ = make_transport();
  std::optional<BlocklistServiceNode> node_;
  std::optional<Checkpoint> forged_;
  std::set<std::string> listed_;
};

CounterDelta mirror_reads() {
  return CounterDelta("cbl_oprf_client_mirror_reads_total",
                      {{"result", "read"}});
}
CounterDelta memo(const char* result) {
  return CounterDelta("cbl_oprf_client_verdict_memo_total",
                      {{"result", result}});
}
CounterDelta buckets_served() {
  return CounterDelta("cbl_oprf_buckets_served_total");
}

TEST_F(MirrorFeedTest, FirstQueryOfAnUnqueriedPrefixGetsNoBucket) {
  RemoteBlocklistClient client(transport_, "mirror", client_rng_);
  Auditor auditor(key_.pk, "mirror");
  ASSERT_TRUE(client.verified_sync(auditor).ok);

  // One address per bucket, so every query is its prefix's first.
  std::vector<std::string> firsts;
  std::set<std::uint32_t> seen;
  for (const auto& entry : corpus_) {
    if (seen.insert(prefix(entry)).second) firsts.push_back(entry);
  }
  ASSERT_TRUE(std::ranges::any_of(
      firsts, [&](const auto& e) { return listed_.contains(e); }));
  ASSERT_FALSE(std::ranges::all_of(
      firsts, [&](const auto& e) { return listed_.contains(e); }));

  const CounterDelta served = buckets_served();
  const CounterDelta reads = mirror_reads();
  const Tally tally = query_all(client, firsts);
  EXPECT_EQ(tally.wrong, 0u);
  EXPECT_EQ(tally.failed, 0u);
  EXPECT_EQ(served.value(), 0u);
  EXPECT_EQ(reads.value(), firsts.size());
}

TEST_F(MirrorFeedTest, ChurnDropsOnlyTheChangedBucketsMemo) {
  RemoteBlocklistClient client(transport_, "mirror", client_rng_);
  Auditor auditor(key_.pk, "mirror");
  ASSERT_TRUE(client.verified_sync(auditor).ok);
  const Tally warm = query_all(client, corpus_);  // caches and memoises all
  ASSERT_EQ(warm.wrong + warm.failed, 0u);

  const auto added = fresh(0, 6);
  const auto gone = std::span<const std::string>(corpus_).first(3);
  add(added);
  remove(gone);
  std::set<std::uint32_t> changed;
  for (const auto& entry : added) changed.insert(prefix(entry));
  for (const auto& entry : gone) changed.insert(prefix(entry));
  ASSERT_TRUE(client.verified_sync(auditor).ok);

  const CounterDelta misses = memo("miss");
  const CounterDelta hits = memo("hit");
  const CounterDelta served = buckets_served();
  const CounterDelta reads = mirror_reads();
  const Tally tally = query_all(client, corpus_);
  EXPECT_EQ(tally.wrong, 0u);
  EXPECT_EQ(tally.failed, 0u);
  EXPECT_EQ(misses.value(), in_prefixes(corpus_, changed));
  EXPECT_EQ(hits.value(), corpus_.size() - in_prefixes(corpus_, changed));
  // The changed buckets come from the mirror, not the wire.
  EXPECT_EQ(served.value(), 0u);
  EXPECT_EQ(reads.value(), changed.size());
}

// A bucket cached from a response between two publications is the
// server's bucket at that epoch, not necessarily the published one: an
// entry added and removed again between them leaves no trace in the
// delta, so the feed must not vouch for that bucket at the new epoch.
TEST_F(MirrorFeedTest, BucketCachedBetweenPublicationsIsCheckedOnTheMirror) {
  RemoteBlocklistClient client(transport_, "mirror", client_rng_);
  Auditor auditor(key_.pk, "mirror");
  ASSERT_TRUE(client.verified_sync(auditor).ok);
  // A fresh address sharing a bucket with a listed one.
  std::optional<std::size_t> fresh_index;
  std::optional<std::size_t> listed_index;
  for (std::size_t f = 80; f < corpus_.size() && !fresh_index; ++f) {
    for (std::size_t l = 0; l < 80; ++l) {
      if (prefix(corpus_[f]) == prefix(corpus_[l])) {
        fresh_index = f;
        listed_index = l;
        break;
      }
    }
  }
  ASSERT_TRUE(fresh_index.has_value());
  const std::span<const std::string> x(&corpus_[*fresh_index], 1);

  ASSERT_EQ(query_all(client, {&corpus_[*listed_index], 1}).wrong, 0u);
  add(x);
  ASSERT_EQ(query_all(client, x).wrong, 0u);  // caches the bucket with x
  remove(x);
  ASSERT_TRUE(client.verified_sync(auditor).ok);  // the delta skips x

  const Tally tally = query_all(client, x);
  EXPECT_EQ(tally.wrong, 0u);
  EXPECT_EQ(tally.failed, 0u);
}

TEST_F(MirrorFeedTest, KeyRotationRereadsEveryBucket) {
  RemoteBlocklistClient client(transport_, "mirror", client_rng_);
  Auditor auditor(key_.pk, "mirror");
  ASSERT_TRUE(client.verified_sync(auditor).ok);
  ASSERT_EQ(query_all(client, corpus_).wrong, 0u);

  server_->rotate_key();
  ASSERT_TRUE(client.verified_sync(auditor).ok);
  // Every entry is re-blinded, so every non-empty bucket changed.
  std::set<std::uint32_t> nonempty;
  for (const auto& [p, bucket] : server_->bucket_snapshot()) {
    nonempty.insert(p);
  }
  std::set<std::uint32_t> queried;
  for (const auto& entry : corpus_) {
    if (nonempty.contains(prefix(entry))) queried.insert(prefix(entry));
  }

  const CounterDelta misses = memo("miss");
  const CounterDelta served = buckets_served();
  const CounterDelta reads = mirror_reads();
  const Tally tally = query_all(client, corpus_);
  EXPECT_EQ(tally.wrong, 0u);
  EXPECT_EQ(tally.failed, 0u);
  EXPECT_EQ(reads.value(), queried.size());
  EXPECT_EQ(misses.value(), in_prefixes(corpus_, nonempty));
  EXPECT_EQ(served.value(), 0u);
}

// Two clients feeding from one auditor: the second's sync moves the
// mirror past the epoch the first was fed at. The first client's next
// read finds the mirror moved: that query fails once and the mirror is
// dropped, so its next uncached prefix is asked without advertising the
// old epoch and answered fresh.
TEST_F(MirrorFeedTest, MirrorMovedByAnotherClientIsDroppedAfterOneRefusal) {
  RemoteBlocklistClient a(transport_, "mirror", client_rng_);
  RemoteBlocklistClient b(transport_, "mirror", client_rng_);
  Auditor auditor(key_.pk, "mirror");
  ASSERT_TRUE(a.verified_sync(auditor).ok);
  const std::uint64_t fed = auditor.mirror_epoch();

  const auto added = fresh(0, 6);
  add(added);
  ASSERT_TRUE(b.verified_sync(auditor).ok);
  ASSERT_GT(auditor.mirror_epoch(), fed);

  // Two listed entries in distinct buckets the additions left alone, so
  // the server omits each bucket for a request advertising `fed`.
  std::set<std::uint32_t> skip;
  for (const auto& entry : added) skip.insert(prefix(entry));
  std::vector<std::string> picks;
  for (std::size_t i = 0; i < 80 && picks.size() < 2; ++i) {
    if (skip.insert(prefix(corpus_[i])).second) picks.push_back(corpus_[i]);
  }
  ASSERT_EQ(picks.size(), 2u);

  std::vector<std::uint64_t> advertised;  // cached_epoch of each query
  transport_.register_endpoint(
      "mirror", [this, &advertised](ByteView frame) -> std::optional<Bytes> {
        const auto request = net::parse_request_frame(frame);
        if (request && request->method == net::Method::kQuery) {
          const auto query = oprf::parse_query_request(request->body);
          if (query) advertised.push_back(query->cached_epoch);
        }
        return node_->handle_frame(frame);
      });

  const CounterDelta reads = mirror_reads();
  const CounterDelta refused("cbl_oprf_client_mirror_reads_total",
                             {{"result", "refused"}});
  const Tally first = query_all(a, {&picks[0], 1});
  EXPECT_EQ(first.failed, 1u);
  EXPECT_EQ(refused.value(), 1u);

  const Tally second = query_all(a, {&picks[1], 1});
  EXPECT_EQ(second.failed, 0u);
  EXPECT_EQ(second.wrong, 0u);
  EXPECT_EQ(refused.value(), 1u);
  EXPECT_EQ(reads.value(), 0u);
  ASSERT_EQ(advertised.size(), 2u);
  EXPECT_EQ(advertised[0], fed);
  EXPECT_NE(advertised[1], fed);
}

TEST_F(MirrorFeedTest, DistrustedProvidersMirrorIsNeverRead) {
  RemoteBlocklistClient client(transport_, "mirror", client_rng_);
  Auditor auditor(key_.pk, "mirror");
  ASSERT_TRUE(client.verified_sync(auditor).ok);
  const auto half = std::span<const std::string>(corpus_).first(60);
  ASSERT_EQ(query_all(client, half).wrong, 0u);

  // The provider equivocates: a second signed root for the same size.
  const auto honest = publisher_->latest_checkpoint();
  auto other_root = honest.root;
  other_root[3] ^= 0x10;
  forged_ = sign_checkpoint(key_, honest.tree_size, other_root, honest.epoch,
                            publisher_rng_);
  ASSERT_EQ(client.verified_sync(auditor).failure,
            RemoteBlocklistClient::SyncReport::Failure::kAudit);
  ASSERT_FALSE(auditor.trusted());
  EXPECT_FALSE(auditor.bucket_at(prefix(corpus_[0]), auditor.mirror_epoch())
                   .has_value());

  const CounterDelta reads = mirror_reads();
  const CounterDelta refused("cbl_oprf_client_mirror_reads_total",
                             {{"result", "refused"}});
  const Tally tally = query_all(client, corpus_);
  EXPECT_EQ(tally.wrong, 0u);
  EXPECT_EQ(tally.failed, 0u);
  EXPECT_EQ(reads.value(), 0u);
  EXPECT_EQ(refused.value(), 0u);
}

// Re-pinning a provider replaces its auditor; queries must stop reading
// the old one's mirror (the sanitizer stages would flag a read of it).
TEST_F(MirrorFeedTest, RepinnedProviderReadsOnlyTheNewMirror) {
  net::ResilienceConfig config;
  config.hedge_after_ms = 0.0;
  obs::ManualClock clock;
  net::ResilientClient client(transport_, {"mirror"}, client_rng_, config,
                              &clock);
  client.pin_tlog_key("mirror", key_.pk);
  ASSERT_EQ(client.sync(), 1u);
  client.pin_tlog_key("mirror", key_.pk);

  const CounterDelta reads = mirror_reads();
  for (const auto& entry : corpus_) {
    const auto out = client.query(entry);
    EXPECT_EQ(out.freshness, net::Freshness::kFresh);
    EXPECT_EQ(out.listed(), listed_.contains(entry));
  }
  EXPECT_EQ(reads.value(), 0u);  // nothing fed from the new auditor yet

  ASSERT_EQ(client.sync(), 1u);  // feeds from the new auditor
  for (const auto& entry : corpus_) {
    EXPECT_EQ(client.query(entry).listed(), listed_.contains(entry));
  }
  EXPECT_GT(reads.value(), 0u);
}

// A wallet restarted from its durable audit state knows nothing of what
// its new query cache holds, so its first feed vouches for no cached
// bucket — not only the ones the deltas name: each is checked against
// the mirror before it answers at the mirror's epoch.
TEST_F(MirrorFeedTest, RecoveredAuditorTreatsItsFirstFeedAsAll) {
  net::ResilienceConfig config;
  config.hedge_after_ms = 0.0;
  obs::ManualClock clock;
  store::MemFs fs;
  const auto right = [&](net::ResilientClient& client,
                         std::span<const std::string> entries) {
    std::size_t bad = 0;
    for (const auto& entry : entries) {
      const auto out = client.query(entry);
      bad += out.freshness != net::Freshness::kFresh ||
             out.listed() != listed_.contains(entry);
    }
    return bad;
  };
  {
    store::StateStore store(fs, "wallet");
    net::ResilientClient client(transport_, {"mirror"}, client_rng_, config,
                                &clock);
    client.pin_tlog_key("mirror", key_.pk, &store);
    ASSERT_EQ(client.sync(), 1u);
    ASSERT_EQ(right(client, corpus_), 0u);
  }
  // The list changes while the wallet is down.
  add(fresh(0, 6));
  remove(std::span<const std::string>(corpus_).first(3));

  store::StateStore store(fs, "wallet");
  net::ResilientClient client(transport_, {"mirror"}, client_rng_, config,
                              &clock);
  client.pin_tlog_key("mirror", key_.pk, &store);
  const Auditor* auditor = client.tlog_auditor("mirror");
  ASSERT_TRUE(auditor->has_state());
  ASSERT_LT(auditor->mirror_epoch(), server_->epoch());
  // Queries before the first sync cache buckets the server sends.
  const auto early = std::span<const std::string>(corpus_).subspan(10, 20);
  const CounterDelta served = buckets_served();
  ASSERT_EQ(right(client, early), 0u);
  ASSERT_GT(served.value(), 0u);

  ASSERT_EQ(client.sync(), 1u);  // folds the deltas, then feeds "all"
  // The prefix list answers the empty buckets locally.
  const auto nonempty = server_->prefix_list();
  std::set<std::uint32_t> prefixes;
  for (const auto& entry : corpus_) {
    if (std::ranges::find(nonempty, prefix(entry)) != nonempty.end()) {
      prefixes.insert(prefix(entry));
    }
  }
  const CounterDelta hits = memo("hit");
  const CounterDelta reads = mirror_reads();
  const CounterDelta served_after = buckets_served();
  EXPECT_EQ(right(client, corpus_), 0u);
  EXPECT_EQ(reads.value(), prefixes.size());
  EXPECT_EQ(served_after.value(), 0u);
  // The early buckets equal the mirror's, so their memos survive the
  // check: each early address is a memo hit, every other one a miss.
  EXPECT_EQ(hits.value(),
            static_cast<std::size_t>(std::ranges::count_if(
                early, [&](const auto& e) {
                  return std::ranges::find(nonempty, prefix(e)) !=
                         nonempty.end();
                })));
}

}  // namespace
}  // namespace cbl::tlog
