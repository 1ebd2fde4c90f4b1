// Integration tests through the top-level facade: provider lifecycle
// (ingest / expire / rotate), user queries with the fast path, the
// evaluation coordinator's registry, periodic re-evaluation, and the
// challenge flow.
#include <gtest/gtest.h>

#include "blocklist/generator.h"
#include "core/service.h"
#include "metric_delta.h"
#include "obs/metrics.h"

namespace cbl::core {
namespace {

using cbl::ChaChaRng;

class CoreTest : public ::testing::Test {
 protected:
  ChaChaRng rng_ = ChaChaRng::from_string_seed("core-tests");

  ProviderConfig quick_config() {
    ProviderConfig cfg;
    cfg.lambda = 6;
    return cfg;
  }

  std::vector<blocklist::Entry> feed(std::size_t n, std::string_view seed) {
    auto rng = ChaChaRng::from_string_seed(std::string(seed));
    blocklist::FeedConfig cfg;
    cfg.count = n;
    cfg.duplicate_rate = 0;
    return blocklist::generate_feed(cfg, rng);
  }
};

TEST_F(CoreTest, ProviderIngestAndUserQuery) {
  BlocklistProvider provider("acme", quick_config(), rng_);
  const auto entries = feed(120, "f1");
  EXPECT_EQ(provider.ingest(entries), 120u);

  BlocklistUser user(provider, rng_);
  const auto hit = user.query(entries[7].address);
  EXPECT_TRUE(hit.listed);
  ASSERT_TRUE(hit.metadata.has_value());
  EXPECT_NE(to_string(*hit.metadata).find("category="), std::string::npos);

  auto clean_rng = ChaChaRng::from_string_seed("clean");
  const auto miss = user.query(
      blocklist::random_address(blocklist::Chain::kBitcoin, clean_rng));
  EXPECT_FALSE(miss.listed);
}

TEST_F(CoreTest, PrefixListFastPathSkipsInteraction) {
  ProviderConfig cfg;
  cfg.lambda = 16;  // sparse prefixes: negatives resolve locally
  BlocklistProvider provider("acme", cfg, rng_);
  provider.ingest(feed(50, "f2"));

  BlocklistUser user(provider, rng_);
  auto clean_rng = ChaChaRng::from_string_seed("clean2");
  int interactions = 0;
  for (int i = 0; i < 50; ++i) {
    const auto r = user.query(
        blocklist::random_address(blocklist::Chain::kEthereum, clean_rng));
    EXPECT_FALSE(r.listed);
    if (r.required_interaction) ++interactions;
  }
  EXPECT_LE(interactions, 2);
}

TEST_F(CoreTest, BatchQueriesAmortizeBucketTransfers) {
  ProviderConfig cfg;
  cfg.lambda = 2;  // 4 buckets: heavy prefix sharing
  BlocklistProvider provider("acme", cfg, rng_);
  const auto f = feed(80, "batch");
  provider.ingest(f);
  BlocklistUser user(provider, rng_);

  std::vector<std::string> targets;
  for (std::size_t i = 0; i < 40; ++i) targets.push_back(f[i].address);
  const auto batch = user.query_many(targets);
  ASSERT_EQ(batch.results.size(), 40u);
  for (const auto& r : batch.results) EXPECT_TRUE(r.listed);
  // 40 online queries but at most 4 bucket transfers (one per prefix).
  EXPECT_EQ(batch.online_round_trips, 40u);
  EXPECT_LE(batch.buckets_transferred, 4u);
  EXPECT_GE(batch.buckets_transferred, 1u);
}

TEST_F(CoreTest, BatchMixesLocalAndOnlineResolution) {
  ProviderConfig cfg;
  cfg.lambda = 16;  // sparse: most negatives resolve locally
  BlocklistProvider provider("acme", cfg, rng_);
  const auto f = feed(30, "batch2");
  provider.ingest(f);
  BlocklistUser user(provider, rng_);

  auto clean_rng = ChaChaRng::from_string_seed("batch-clean");
  std::vector<std::string> targets = {f[0].address, f[1].address};
  for (int i = 0; i < 20; ++i) {
    targets.push_back(
        blocklist::random_address(blocklist::Chain::kBitcoinSegwit, clean_rng));
  }
  const auto batch = user.query_many(targets);
  EXPECT_TRUE(batch.results[0].listed);
  EXPECT_TRUE(batch.results[1].listed);
  EXPECT_GE(batch.resolved_locally, 18u);
  EXPECT_LE(batch.online_round_trips, 4u);
}

TEST_F(CoreTest, IngestDedupsAcrossFeeds) {
  BlocklistProvider provider("acme", quick_config(), rng_);
  const auto f = feed(80, "f3");
  EXPECT_EQ(provider.ingest(f), 80u);
  EXPECT_EQ(provider.ingest(f), 0u);  // all duplicates
  EXPECT_EQ(provider.store().size(), 80u);
}

TEST_F(CoreTest, ExpireRemovesStaleEntries) {
  BlocklistProvider provider("acme", quick_config(), rng_);
  auto f = feed(40, "f4");
  for (std::size_t i = 0; i < f.size(); ++i) {
    f[i].first_reported = i < 10 ? 100 : 10'000;
  }
  provider.ingest(f);
  EXPECT_EQ(provider.expire_entries(5'000), 10u);
  EXPECT_EQ(provider.store().size(), 30u);

  // Expired entries are no longer served.
  BlocklistUser user(provider, rng_);
  EXPECT_FALSE(user.query(f[0].address).listed);
  EXPECT_TRUE(user.query(f[20].address).listed);
}

TEST_F(CoreTest, KeyRotationKeepsServiceCorrect) {
  BlocklistProvider provider("acme", quick_config(), rng_);
  const auto f = feed(60, "f5");
  provider.ingest(f);
  BlocklistUser user(provider, rng_);
  EXPECT_TRUE(user.query(f[3].address).listed);
  provider.rotate_key();
  user.sync_prefix_list();
  EXPECT_TRUE(user.query(f[3].address).listed);
}

TEST_F(CoreTest, CoordinatorApprovesHonestProvider) {
  chain::Blockchain chain;
  voting::EvaluationConfig vcfg;
  vcfg.thresh = 4;
  vcfg.committee_size = 3;
  vcfg.deposit = 50;
  vcfg.provider_deposit = 10;
  EvaluationCoordinator coordinator(chain, vcfg, 100, rng_);

  BlocklistProvider provider("honest", quick_config(), rng_);
  provider.ingest(feed(100, "f6"));

  const auto entry = coordinator.evaluate(provider, 10);
  EXPECT_TRUE(entry.approved);
  EXPECT_EQ(entry.last_outcome.tally, 3u);
  ASSERT_TRUE(coordinator.registry_lookup("honest").has_value());
  EXPECT_FALSE(coordinator.due_for_reevaluation("honest"));
}

TEST_F(CoreTest, CoordinatorRejectsDishonestProvider) {
  chain::Blockchain chain;
  voting::EvaluationConfig vcfg;
  vcfg.thresh = 4;
  vcfg.committee_size = 3;
  vcfg.deposit = 50;
  vcfg.provider_deposit = 10;
  EvaluationCoordinator coordinator(chain, vcfg, 100, rng_);

  // The provider publishes 100 entries but silently serves only half —
  // exactly the "fails to sort out valid blocklist entries" failure the
  // evaluation is designed to catch.
  BlocklistProvider provider("shady", quick_config(), rng_);
  const auto f = feed(100, "f7");
  provider.ingest(f);
  auto published = provider.published_entries();
  std::vector<std::string> served(published.begin(),
                                  published.begin() + 50);
  provider.server().setup(served);

  // Audit against the full published list.
  std::vector<unsigned> votes;
  for (std::size_t i = 0; i < vcfg.thresh; ++i) {
    oprf::OprfClient auditor(provider.oracle(), provider.lambda(), rng_);
    votes.push_back(voting::audit_provider(provider.server(), auditor,
                                           published, 20, rng_)
                            .passed()
                        ? 1u
                        : 0u);
  }
  voting::Ceremony ceremony(chain, vcfg, votes, rng_);
  const auto result = ceremony.run();
  EXPECT_FALSE(result.outcome.approved);
  EXPECT_EQ(result.outcome.tally, 0u);
}

TEST_F(CoreTest, ReevaluationBecomesDueAfterPeriod) {
  chain::Blockchain chain;
  voting::EvaluationConfig vcfg;
  vcfg.thresh = 3;
  vcfg.committee_size = 3;
  vcfg.deposit = 50;
  vcfg.provider_deposit = 10;
  EvaluationCoordinator coordinator(chain, vcfg, 5, rng_);

  BlocklistProvider provider("acme", quick_config(), rng_);
  provider.ingest(feed(60, "f8"));
  EXPECT_TRUE(coordinator.due_for_reevaluation("acme"));  // never evaluated
  coordinator.evaluate(provider, 8);
  EXPECT_FALSE(coordinator.due_for_reevaluation("acme"));
  for (int i = 0; i < 5; ++i) chain.seal_block();
  EXPECT_TRUE(coordinator.due_for_reevaluation("acme"));
}

TEST_F(CoreTest, ChallengeRequiresMatchingDeposit) {
  chain::Blockchain chain;
  voting::EvaluationConfig vcfg;
  vcfg.thresh = 3;
  vcfg.committee_size = 3;
  vcfg.deposit = 50;
  vcfg.provider_deposit = 40;
  EvaluationCoordinator coordinator(chain, vcfg, 100, rng_);

  BlocklistProvider provider("acme", quick_config(), rng_);
  provider.ingest(feed(60, "f9"));

  const auto challenger = chain.ledger().create_account("challenger");
  chain.ledger().mint(challenger, 100);
  EXPECT_THROW(coordinator.challenge(provider, challenger, 39, 8), ChainError);

  const auto balance_before = chain.ledger().balance(challenger);
  const auto entry = coordinator.challenge(provider, challenger, 40, 8);
  EXPECT_TRUE(entry.approved);
  // Stake returned after the forced re-evaluation.
  EXPECT_EQ(chain.ledger().balance(challenger), balance_before);
}

TEST_F(CoreTest, QueryManyMetricsMatchBatchAccounting) {
  // Sparse prefix space (2^12 buckets, 400 entries) so random negatives
  // mostly resolve via the local prefix list.
  ProviderConfig cfg;
  cfg.lambda = 12;
  BlocklistProvider provider("acme", cfg, rng_);
  const auto entries = feed(400, "f-obs");
  provider.ingest(entries);
  BlocklistUser user(provider, rng_);

  // A wallet batch mixing listed addresses (always online), repeated
  // prefixes (cache hits) and random negatives (mostly local).
  std::vector<std::string> batch;
  for (int i = 0; i < 25; ++i) {
    batch.push_back(entries[static_cast<std::size_t>(i) * 7].address);
  }
  const std::vector<std::string> repeats(batch.begin(), batch.begin() + 10);
  batch.insert(batch.end(), repeats.begin(), repeats.end());
  auto neg_rng = ChaChaRng::from_string_seed("obs-negatives");
  for (int i = 0; i < 40; ++i) {
    batch.push_back(
        blocklist::random_address(blocklist::Chain::kEthereum, neg_rng));
  }

  const test::CounterDelta user_local("cbl_core_user_queries_total",
                                      {{"path", "local"}});
  const test::CounterDelta user_online("cbl_core_user_queries_total",
                                       {{"path", "online"}});
  const test::CounterDelta fastpath_local("cbl_oprf_client_fastpath_total",
                                          {{"result", "local"}});
  const test::CounterDelta fastpath_online("cbl_oprf_client_fastpath_total",
                                           {{"result", "online"}});
  const test::CounterDelta cache_miss("cbl_oprf_client_cache_total",
                                      {{"result", "miss"}});
  const test::CounterDelta cache_hit("cbl_oprf_client_cache_total",
                                     {{"result", "hit"}});
  const test::CounterDelta server_ok("cbl_oprf_queries_total",
                                     {{"result", "ok"}});
  const auto result = user.query_many(batch);

  ASSERT_EQ(result.results.size(), batch.size());
  EXPECT_EQ(result.resolved_locally + result.online_round_trips, batch.size());
  EXPECT_LE(result.buckets_transferred, result.online_round_trips);

  // The facade's path counters must agree with the batch accounting...
  EXPECT_EQ(user_local.value(), result.resolved_locally);
  EXPECT_EQ(user_online.value(), result.online_round_trips);
  // ...and so must the OPRF client's own fast-path counters.
  EXPECT_EQ(fastpath_local.value(), result.resolved_locally);
  EXPECT_EQ(fastpath_online.value(), result.online_round_trips);
  // Every transferred bucket is a client cache miss; omitted ones are hits.
  EXPECT_EQ(cache_miss.value(), result.buckets_transferred);
  EXPECT_EQ(cache_hit.value(),
            result.online_round_trips - result.buckets_transferred);
  // The server saw exactly the online round trips, all successful.
  EXPECT_EQ(server_ok.value(), result.online_round_trips);

  // The batch exercised every path at least once.
  EXPECT_GT(result.resolved_locally, 0u);
  EXPECT_GT(result.online_round_trips, 0u);
  EXPECT_GT(result.buckets_transferred, 0u);
  EXPECT_GT(result.online_round_trips, result.buckets_transferred);
}

}  // namespace
}  // namespace cbl::core
