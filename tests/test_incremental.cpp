// Tests for incremental blocklist maintenance: add/remove entries under
// the current OPRF mask, cache-epoch semantics, metadata alignment, and
// equivalence with a full rebuild.
#include <gtest/gtest.h>

#include "blocklist/generator.h"
#include "common/rng.h"
#include "oprf/client.h"
#include "oprf/server.h"

namespace cbl::oprf {
namespace {

using cbl::ChaChaRng;

class IncrementalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto corpus_rng = ChaChaRng::from_string_seed("inc-corpus");
    corpus_ = blocklist::generate_corpus(120, corpus_rng).addresses();
    initial_.assign(corpus_.begin(), corpus_.begin() + 80);
    extra_.assign(corpus_.begin() + 80, corpus_.end());
    server_.emplace(Oracle::fast(), 4, server_rng_);
    server_->setup(initial_);
    client_.emplace(Oracle::fast(), 4, client_rng_);
  }

  bool query(const std::string& entry) {
    const auto prepared = client_->prepare(entry);
    const auto response = server_->handle(prepared.request);
    return client_->finish(prepared.pending, response).listed;
  }

  ChaChaRng server_rng_ = ChaChaRng::from_string_seed("inc-server");
  ChaChaRng client_rng_ = ChaChaRng::from_string_seed("inc-client");
  std::vector<std::string> corpus_, initial_, extra_;
  std::optional<OprfServer> server_;
  std::optional<OprfClient> client_;
};

TEST_F(IncrementalTest, AddedEntriesBecomeQueryable) {
  EXPECT_FALSE(query(extra_[0]));
  EXPECT_EQ(server_->add_entries(extra_), extra_.size());
  for (const auto& e : extra_) EXPECT_TRUE(query(e)) << e;
  EXPECT_EQ(server_->entry_count(), corpus_.size());
}

TEST_F(IncrementalTest, RemovedEntriesStopMatching) {
  const std::vector<std::string> victims(initial_.begin(),
                                         initial_.begin() + 10);
  EXPECT_EQ(server_->remove_entries(victims), victims.size());
  for (const auto& e : victims) EXPECT_FALSE(query(e)) << e;
  // Untouched entries still match.
  EXPECT_TRUE(query(initial_[50]));
  EXPECT_EQ(server_->entry_count(), initial_.size() - victims.size());
}

TEST_F(IncrementalTest, DuplicatesAndAbsenteesAreSkipped) {
  EXPECT_EQ(server_->add_entries(initial_), 0u);       // all already present
  EXPECT_EQ(server_->remove_entries(extra_), 0u);      // none present
  const auto epoch = server_->epoch();
  EXPECT_EQ(server_->add_entries(initial_), 0u);
  EXPECT_EQ(server_->epoch(), epoch);  // no-op calls do not churn caches
}

TEST_F(IncrementalTest, UpdateBumpsEpochAndInvalidatesCache) {
  // Warm the cache for some prefix.
  (void)query(initial_[0]);
  const auto epoch_before = server_->epoch();

  const std::vector<std::string> one = {extra_[0]};
  ASSERT_EQ(server_->add_entries(one), 1u);
  EXPECT_EQ(server_->epoch(), epoch_before + 1);

  // The client's cached epoch no longer matches, so the server resends
  // the (updated) bucket and the new entry is visible even when it landed
  // in a previously cached bucket.
  EXPECT_TRUE(query(extra_[0]));
  EXPECT_TRUE(query(initial_[0]));
}

TEST_F(IncrementalTest, MatchesFullRebuild) {
  // Same RNG stream -> same mask R in both servers; incremental adds must
  // produce byte-identical buckets to a from-scratch setup.
  auto rng_a = ChaChaRng::from_string_seed("same-mask");
  auto rng_b = ChaChaRng::from_string_seed("same-mask");
  OprfServer incremental(Oracle::fast(), 4, rng_a);
  incremental.setup(initial_);
  incremental.add_entries(extra_);

  OprfServer fresh(Oracle::fast(), 4, rng_b);
  fresh.setup(corpus_);

  EXPECT_EQ(incremental.prefix_list(), fresh.prefix_list());
  auto probe_rng = ChaChaRng::from_string_seed("probe");
  OprfClient probe(Oracle::fast(), 4, probe_rng);
  for (int i = 0; i < 5; ++i) {
    const auto prepared = probe.prepare(corpus_[static_cast<std::size_t>(i) * 20]);
    EXPECT_EQ(incremental.handle(prepared.request).bucket,
              fresh.handle(prepared.request).bucket);
  }
}

TEST_F(IncrementalTest, AddedEntriesEncodeExactlyAsSetupDoes) {
  // Every bucket, not a sample: add_entries and setup blind through the
  // same batch routine, so under one mask the encodings are identical.
  // The added batch repeats entries, which are filed once.
  auto rng_a = ChaChaRng::from_string_seed("same-mask");
  auto rng_b = ChaChaRng::from_string_seed("same-mask");
  OprfServer incremental(Oracle::fast(), 4, rng_a);
  incremental.setup(initial_);
  std::vector<std::string> batch = extra_;
  batch.push_back(extra_[0]);
  batch.push_back(initial_[5]);
  EXPECT_EQ(incremental.add_entries(batch), extra_.size());

  OprfServer fresh(Oracle::fast(), 4, rng_b);
  fresh.setup(corpus_);
  EXPECT_EQ(incremental.entry_count(), fresh.entry_count());
  EXPECT_EQ(incremental.bucket_snapshot(), fresh.bucket_snapshot());
}

TEST_F(IncrementalTest, MetadataStaysAligned) {
  auto rng = ChaChaRng::from_string_seed("md-inc");
  OprfServer server(Oracle::fast(), 3, rng);
  server.set_metadata_provider([](const std::string& entry) {
    return to_bytes("meta:" + entry);
  });
  server.setup(initial_);
  server.add_entries(extra_);
  const std::vector<std::string> victims = {initial_[3], initial_[7]};
  server.remove_entries(victims);

  auto crng = ChaChaRng::from_string_seed("md-inc-client");
  OprfClient client(Oracle::fast(), 3, crng);
  for (const auto& e : {extra_[2], initial_[20]}) {
    const auto prepared = client.prepare(e);
    const auto result =
        client.finish(prepared.pending, server.handle(prepared.request));
    ASSERT_TRUE(result.listed) << e;
    ASSERT_TRUE(result.metadata.has_value()) << e;
    EXPECT_EQ(to_string(*result.metadata), "meta:" + e);
  }
}

TEST_F(IncrementalTest, ServesReflectsMembership) {
  EXPECT_TRUE(server_->serves(initial_[0]));
  EXPECT_FALSE(server_->serves(extra_[0]));
  const std::vector<std::string> one = {extra_[0]};
  server_->add_entries(one);
  EXPECT_TRUE(server_->serves(extra_[0]));
  server_->remove_entries(one);
  EXPECT_FALSE(server_->serves(extra_[0]));
}

}  // namespace
}  // namespace cbl::oprf
