// The seeded chaos harness: randomized fault schedules swept over
// thousands of membership queries, asserting the system-level
// invariants the resilience stack exists for:
//
//   * no crash, no exception escaping the client;
//   * NO WRONG MEMBERSHIP ANSWER, EVER — corruption surfaces as
//     kMalformed or an honestly-tagged degraded answer, never a false
//     verdict;
//   * every injected fault is accounted for in cbl::obs;
//   * the circuit breaker sheds during a blackout and walks
//     open -> half-open -> closed afterwards;
//   * a crashed-and-restarted node recovers deterministically, with an
//     epoch floor that keeps stale client caches from going wrong.
//
// Each plan runs against a load::World (src/load/world.h), the serving
// stack the macro-load harness runs on too: durable epoch floors, fault
// injector and virtual-time queues are always there, idle when the plan
// leaves them so. The transparency-sync plans and the store sweeps
// build their own smaller worlds.
//
// Every run is deterministic: plan seed -> injector ChaCha stream, and
// all time is a shared ManualClock that the resilient client drives.
// Each plan prints its outcome as one `[chaos] summary` line (answers
// by freshness, queue sheds, server 0's epoch, every fault kind), so
// two runs' logs can be diffed; failures print the plan description.
// Replay any plan with e.g.
//   CBL_CHAOS_SEED=<seed> ./tests/test_chaos
// CBL_CHAOS_QUERIES=<n> scales the per-plan query count (default 400).
#include <gtest/gtest.h>

#include <cstdlib>
#include <iostream>
#include <map>
#include <span>
#include <unordered_set>

#include "blocklist/generator.h"
#include "chaos/chaos.h"
#include "chaos/fault_fs.h"
#include "common/rng.h"
#include "load/world.h"
#include "metric_delta.h"
#include "net/resilient_client.h"
#include "net/service_node.h"
#include "obs/clock.h"
#include "store/state_store.h"
#include "tlog/tlog.h"

namespace cbl::chaos {
namespace {

using net::CircuitBreaker;
using net::Freshness;
using net::ResilientClient;
using test::CounterDelta;
using test::FamilyDelta;

/// cbl_chaos_faults_total{kind}, read as a delta.
CounterDelta fault_delta(const char* kind) {
  return CounterDelta("cbl_chaos_faults_total", {{"kind", kind}});
}

/// cbl_chaos_fs_faults_total{kind}, read as a delta.
CounterDelta fs_fault_delta(const char* kind) {
  return CounterDelta("cbl_chaos_fs_faults_total", {{"kind", kind}});
}

std::uint64_t chaos_seed(std::uint64_t fallback) {
  if (const char* env = std::getenv("CBL_CHAOS_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return fallback;
}

std::uint64_t chaos_queries(std::uint64_t fallback = 400) {
  if (const char* env = std::getenv("CBL_CHAOS_QUERIES")) {
    const std::uint64_t n = std::strtoull(env, nullptr, 10);
    if (n > 0) return n;
  }
  return fallback;
}

/// The corpus every plan's world serves: 150 listed addresses and 200
/// clean ones.
struct Corpus {
  std::vector<std::string> listed;
  std::vector<std::string> clean;
};

Corpus make_corpus() {
  ChaChaRng rng = ChaChaRng::from_string_seed("chaos-corpus");
  Corpus corpus;
  corpus.listed = blocklist::generate_corpus(150, rng).addresses();
  const std::unordered_set<std::string> listed(corpus.listed.begin(),
                                               corpus.listed.end());
  while (corpus.clean.size() < 200) {
    auto address = blocklist::random_address(blocklist::Chain::kBitcoin, rng);
    if (!listed.contains(address)) corpus.clean.push_back(std::move(address));
  }
  return corpus;
}

/// One plan against a load::World serving the corpus, with the counters
/// the reconciliation reads and the invariant loop. `service_ms` and
/// `slots` size the virtual-time queue in front of every node; (0, 0)
/// admits everything.
class PlanRun {
 public:
  PlanRun(FaultPlan plan, std::vector<std::string> endpoints,
          double service_ms = 0.0, unsigned slots = 0)
      : plan_(plan),
        endpoint_count_(endpoints.size()),
        query_rng_(ChaChaRng::from_string_seed(
            plan_.name + "/traffic/" + std::to_string(plan_.seed))),
        world_(corpus_.listed, std::move(endpoints), 1.0, 10.0, service_ms,
               slots, std::move(plan),
               {ChaChaRng::from_string_seed("chaos-server"),
                ChaChaRng::from_string_seed("chaos-client"),
                ChaChaRng::from_string_seed("chaos-transport")}) {
    std::cout << "[chaos] " << plan_.describe() << "\n";
  }

  /// The invariant loop. Each iteration asks about a random address
  /// (half listed, half clean) and checks any non-Unknown verdict
  /// against ground truth; `inter_arrival_ms` of virtual time passes
  /// between queries on top of whatever the client itself consumed.
  /// Prints the plan's `[chaos] summary` line at the end.
  load::Tally drive(std::uint64_t queries, double inter_arrival_ms = 2.0) {
    SCOPED_TRACE(plan_.describe() + "  (replay: CBL_CHAOS_SEED=" +
                 std::to_string(plan_.seed) + ")");
    load::Tally tally;
    for (std::uint64_t i = 0; i < queries; ++i) {
      const bool expect_listed = query_rng_.uniform(2) == 0;
      const auto& pool = expect_listed ? corpus_.listed : corpus_.clean;
      const std::string& address = pool[query_rng_.uniform(pool.size())];

      const auto out = world_.client().query(address);
      if (out.verdict == ResilientClient::Outcome::Verdict::kUnknown) {
        // Unknown is only legal as an explicit, honestly-tagged failure.
        EXPECT_EQ(out.freshness, Freshness::kUnavailable);
      }
      if (!tally.count(out, expect_listed)) {
        ADD_FAILURE() << "WRONG MEMBERSHIP ANSWER at query #" << i
                      << " address=" << address
                      << " truth=" << (expect_listed ? "listed" : "clean")
                      << " answered=" << (out.listed() ? "listed" : "clean")
                      << " freshness=" << net::to_string(out.freshness);
      }
      world_.clock().advance_ms(static_cast<std::uint64_t>(inter_arrival_ms));
    }
    std::cout << "[chaos] summary plan=" << plan_.name
              << " queries=" << queries << " fresh=" << tally.fresh
              << " stale=" << tally.stale_cache
              << " prefix_only=" << tally.prefix_only
              << " unavailable=" << tally.unavailable
              << " wrong=" << tally.wrong << " shed=" << queue_shed()
              << " epoch0=" << world_.server(0).epoch();
    for (const auto& [kind, delta] : faults_) {
      std::cout << " " << kind << "=" << delta.value();
    }
    std::cout << " (replay: CBL_CHAOS_SEED=" << plan_.seed << ")\n";
    return tally;
  }

  /// Every transport round trip is accounted for: calls the injector
  /// swallowed (blackouts, request drops) never reached the inner
  /// transport, and duplicates reached it twice.
  void expect_calls_accounted() const {
    EXPECT_EQ(transport_calls_.value(),
              injector_calls_.value() - faults("blackout") -
                  faults("drop_request") + faults("duplicate"))
        << plan_.describe();
  }

  /// cbl_chaos_faults_total{kind} injected since this run was built.
  std::uint64_t faults(const char* kind) const {
    return faults_.at(kind).value();
  }

  /// Queries shed by the virtual-time queues, summed over endpoints.
  std::uint64_t queue_shed() const {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < endpoint_count_; ++i) {
      total += world_.queue(i).shed();
    }
    return total;
  }

  load::World& world() { return world_; }

 private:
  static std::map<std::string, CounterDelta> fault_deltas() {
    std::map<std::string, CounterDelta> out;
    for (const char* kind :
         {"blackout", "drop_request", "drop_response", "corrupt", "truncate",
          "duplicate", "delay", "crash", "restart"}) {
      out.emplace(kind, fault_delta(kind));
    }
    return out;
  }

  const FaultPlan plan_;
  const std::size_t endpoint_count_;
  const Corpus corpus_ = make_corpus();
  ChaChaRng query_rng_;
  // What the reconciliation reads, counted from before the world's
  // client connects.
  const CounterDelta injector_calls_{"cbl_chaos_calls_total"};
  const FamilyDelta transport_calls_{"cbl_net_calls_total"};
  const std::map<std::string, CounterDelta> faults_ = fault_deltas();
  load::World world_;
};

// ---------------------------------------------------------------- plans

TEST(ChaosTest, FlakyLinksNeverProduceWrongAnswers) {
  FaultPlan plan;
  plan.name = "flaky-links";
  plan.seed = chaos_seed(101);
  plan.all.drop_request = 0.15;
  plan.all.drop_response = 0.15;
  PlanRun run(plan, {"alpha", "beta"});

  const std::uint64_t n = chaos_queries();
  const auto s = run.drive(n);
  EXPECT_EQ(s.wrong, 0u);
  // Retries + two providers ride out 30% call loss almost completely.
  EXPECT_GE(s.fresh, (n * 9) / 10);
  EXPECT_GT(run.faults("drop_request"), 0u);
  EXPECT_GT(run.faults("drop_response"), 0u);
  run.expect_calls_accounted();
}

TEST(ChaosTest, HeavyTailsAndDuplicatesHedgeAndStayCorrect) {
  auto& hedges =
      obs::MetricsRegistry::global().counter("cbl_net_resilient_hedges_total");
  const auto hedges_before = hedges.value();

  FaultPlan plan;
  plan.name = "heavy-tail-duplicates";
  plan.seed = chaos_seed(202);
  plan.all.latency.spike_prob = 0.15;
  plan.all.latency.spike_ms = 300.0;  // > hedge_after_ms: triggers hedging
  plan.all.latency.tail_prob = 0.05;
  plan.all.latency.tail_scale_ms = 200.0;
  plan.all.latency.tail_alpha = 1.3;
  plan.all.duplicate_prob = 0.10;
  PlanRun run(plan, {"alpha", "beta"});

  const std::uint64_t n = chaos_queries();
  const auto s = run.drive(n);
  EXPECT_EQ(s.wrong, 0u);
  EXPECT_GE(s.fresh, (n * 9) / 10);
  // Slow primaries were hedged; duplicates hit the server but never the
  // verdict.
  EXPECT_GT(hedges.value(), hedges_before);
  EXPECT_GT(run.faults("duplicate"), 0u);
  EXPECT_GT(run.faults("delay"), 0u);
  run.expect_calls_accounted();
}

TEST(ChaosTest, CorruptionStormIsMalformedNeverAFalseVerdict) {
  FaultPlan plan;
  plan.name = "corruption-storm";
  plan.seed = chaos_seed(303);
  plan.all.corrupt_prob = 0.35;
  plan.all.truncate_prob = 0.15;
  PlanRun run(plan, {"alpha", "beta"});

  const std::uint64_t n = chaos_queries();
  const auto s = run.drive(n);
  // The load-bearing invariant of the frame checksum: roughly half of
  // all responses were damaged in flight and not one produced a wrong
  // membership answer.
  EXPECT_EQ(s.wrong, 0u);
  EXPECT_GT(run.faults("corrupt"), 100u);
  EXPECT_GT(run.faults("truncate"), 0u);
  // Retries still get most queries through; the rest degrade honestly.
  EXPECT_GE(s.fresh + s.stale_cache + s.prefix_only, n / 2);
  run.expect_calls_accounted();
}

TEST(ChaosTest, BlackoutTripsBreakerThenWalksHalfOpenToClosed) {
  const auto transition = [](const char* to) {
    return obs::MetricsRegistry::global()
        .counter("cbl_net_breaker_transitions_total",
                 {{"endpoint", "alpha"}, {"to", to}})
        .value();
  };
  const auto open_before = transition("open");
  const auto half_before = transition("half_open");
  const auto closed_before = transition("closed");

  FaultPlan plan;
  plan.name = "blackout";
  plan.seed = chaos_seed(404);
  plan.per_endpoint["alpha"].blackouts = {{1000.0, 4000.0}};
  PlanRun run(plan, {"alpha"});  // single provider: nowhere to hedge

  const std::uint64_t n = chaos_queries();
  const auto s = run.drive(n, /*inter_arrival_ms=*/25.0);
  EXPECT_EQ(s.wrong, 0u);
  EXPECT_GT(run.faults("blackout"), 0u);
  // The full breaker cycle: tripped open during the blackout (probably
  // several times — each cooled-off probe fails while the window
  // lasts), half-opened on probes, and closed again after it.
  EXPECT_GT(transition("open"), open_before);
  EXPECT_GT(transition("half_open"), half_before);
  EXPECT_GT(transition("closed"), closed_before);
  EXPECT_EQ(run.world().client().breaker_state("alpha"),
            CircuitBreaker::State::kClosed);
  // The degradation ladder was exercised while the provider was dark:
  // cached repeats and prefix-list negatives, all honestly tagged.
  EXPECT_GT(s.stale_cache, 0u);
  EXPECT_GT(s.prefix_only, 0u);
  EXPECT_GT(s.fresh, 0u);
  run.expect_calls_accounted();
}

TEST(ChaosTest, CrashRestartRecoversWithAFreshEpoch) {
  FaultPlan plan;
  plan.name = "crash-restart";
  plan.seed = chaos_seed(505);
  plan.all.drop_request = 0.05;
  plan.all.drop_response = 0.05;
  plan.per_endpoint["alpha"].crash_at_ms = 800.0;
  plan.per_endpoint["alpha"].restart_at_ms = 2000.0;
  PlanRun run(plan, {"alpha", "beta"});
  const std::uint64_t epoch_before = run.world().server(0).epoch();

  const std::uint64_t n = chaos_queries();
  const auto s = run.drive(n, /*inter_arrival_ms=*/10.0);
  EXPECT_EQ(s.wrong, 0u);
  EXPECT_EQ(run.faults("crash"), 1u);
  EXPECT_EQ(run.faults("restart"), 1u);
  // The rebuilt server came back ABOVE the epoch it crashed at — the
  // floor that keeps pre-crash client caches from matching a new mask.
  EXPECT_GT(run.world().server(0).epoch(), epoch_before);
  // The second provider (plus hedging) carried the outage; the
  // restarted one was probed back into service.
  EXPECT_GE(s.fresh, (n * 8) / 10);
  EXPECT_EQ(run.world().client().breaker_state("alpha"),
            CircuitBreaker::State::kClosed);
  run.expect_calls_accounted();
}

TEST(ChaosTest, KitchenSinkWithOverloadSheddingStaysAccountable) {
  FaultPlan plan;
  plan.name = "kitchen-sink";
  plan.seed = chaos_seed(606);
  plan.all.drop_request = 0.05;
  plan.all.drop_response = 0.05;
  plan.all.corrupt_prob = 0.05;
  plan.all.truncate_prob = 0.03;
  plan.all.duplicate_prob = 0.08;
  plan.all.latency.spike_prob = 0.05;
  plan.all.latency.spike_ms = 200.0;
  // Slow nodes with a bounded queue: ~30ms of work per query arriving
  // every ~12ms of virtual time means the backlog fills and sheds.
  PlanRun run(plan, {"alpha", "beta"}, /*service_ms=*/30.0, /*slots=*/2);

  const std::uint64_t n = chaos_queries();
  const auto s = run.drive(n, /*inter_arrival_ms=*/1.0);
  EXPECT_EQ(s.wrong, 0u);
  // Overload shedding fired (kRateLimited + retry-after, not a hung
  // queue) and the client still converted most queries into answers.
  EXPECT_GT(run.queue_shed(), 0u);
  EXPECT_GE(s.fresh, n / 2);
  EXPECT_GT(run.faults("duplicate"), 0u);
  run.expect_calls_accounted();
}

TEST(ChaosTest, BatchedPipelineShedsBeforeBatchingAndStaysCorrect) {
  auto& reg = obs::MetricsRegistry::global();
  auto& enqueued = reg.counter("cbl_net_pipeline_enqueued_total");
  auto& pipeline_shed = reg.counter("cbl_net_pipeline_shed_total");
  auto& batch_size = reg.histogram("cbl_net_pipeline_batch_size",
                                   obs::Histogram::log_buckets(1.0, 4096.0, 4));
  auto& query_requests =
      reg.counter("cbl_net_requests_total", {{"method", "query"}});
  const auto enqueued_before = enqueued.value();
  const auto pipeline_shed_before = pipeline_shed.value();
  const auto batches_before = batch_size.count();
  const auto batch_sum_before = batch_size.sum();
  const auto queries_before = query_requests.value();

  FaultPlan plan;
  plan.name = "pipeline-drops-blackout";
  plan.seed = chaos_seed(707);
  plan.all.drop_request = 0.08;
  plan.all.drop_response = 0.08;
  plan.per_endpoint["alpha"].blackouts = {{1500.0, 3000.0}};
  // An overloaded queue in front of the batched path sheds BEFORE the
  // node, so refused queries must never occupy a batch slot.
  PlanRun run(plan, {"alpha", "beta"}, /*service_ms=*/30.0, /*slots=*/2);

  const std::uint64_t n = chaos_queries();
  const auto s = run.drive(n, /*inter_arrival_ms=*/1.0);
  // The batched serving path changes throughput, never answers: no
  // wrong verdict under drops + a blackout + overload shedding.
  EXPECT_EQ(s.wrong, 0u);
  EXPECT_GE(s.fresh, n / 2);
  EXPECT_GT(run.faults("drop_request"), 0u);
  EXPECT_GT(run.faults("blackout"), 0u);

  EXPECT_GT(run.queue_shed(), 0u);
  // Shed accounting: shed frames never reach a node, and every query
  // frame a node saw was enqueued into a pipeline batch, exactly.
  EXPECT_EQ(enqueued.value() - enqueued_before,
            query_requests.value() - queries_before);
  // The single-threaded harness never fills the pipeline queue, so the
  // pipeline's own shedding stayed quiet...
  EXPECT_EQ(pipeline_shed.value(), pipeline_shed_before);
  // ...and every enqueued query is accounted for by exactly one batch
  // slot (histogram sum = total coalesced queries).
  EXPECT_EQ(static_cast<std::uint64_t>(batch_size.sum() - batch_sum_before),
            enqueued.value() - enqueued_before);
  EXPECT_GT(batch_size.count(), batches_before);
  run.expect_calls_accounted();
}

// ------------------------------------------- transparency sync under chaos

/// Points the metrics registry at a ManualClock for the test's lifetime
/// (the self-contained tlog worlds below build no load::World).
struct ClockGuard {
  explicit ClockGuard(obs::ManualClock& clock) {
    obs::MetricsRegistry::global().set_clock(&clock);
  }
  ~ClockGuard() {
    obs::MetricsRegistry::global().set_clock(&obs::SteadyClock::instance());
  }
};

TEST(ChaosTest, TlogSyncUnderCorruptionNeverAppliesUnverifiedState) {
  FaultPlan plan;
  plan.name = "tlog-corruption";
  plan.seed = chaos_seed(808);
  plan.all.corrupt_prob = 0.20;
  plan.all.truncate_prob = 0.08;

  obs::ManualClock clock;
  ClockGuard clock_guard(clock);
  ChaChaRng transport_rng = ChaChaRng::from_string_seed("tlog-chaos-trans");
  net::Transport transport(net::TransportConfig{.latency_ms_min = 1.0,
                                                .latency_ms_max = 5.0,
                                                .drop_rate = 0.0},
                           transport_rng);
  FaultInjector injector(transport, plan, &clock);
  std::cout << "[chaos] " << plan.describe() << "\n";
  SCOPED_TRACE(plan.describe() + "  (replay: CBL_CHAOS_SEED=" +
               std::to_string(plan.seed) + ")");

  ChaChaRng corpus_rng = ChaChaRng::from_string_seed("tlog-chaos-corpus");
  ChaChaRng server_rng = ChaChaRng::from_string_seed("tlog-chaos-server");
  ChaChaRng key_rng = ChaChaRng::from_string_seed("tlog-chaos-key");
  ChaChaRng pub_rng = ChaChaRng::from_string_seed("tlog-chaos-pub");
  ChaChaRng client_rng = ChaChaRng::from_string_seed("tlog-chaos-client");
  const auto corpus = blocklist::generate_corpus(120, corpus_rng).addresses();
  oprf::OprfServer server(oprf::Oracle::fast(), 6, server_rng);
  server.setup(std::span<const std::string>(corpus).first(60));
  const auto key = nizk::SigningKey::generate(key_rng);
  tlog::EpochPublisher publisher(key, pub_rng);
  net::BlocklistServiceNode node(transport, "tlog-chaos", server,
                                 oprf::Oracle::fast(), net::NodeLimits(),
                                 nullptr, &publisher);

  // The client's info handshake rides the same damaged channel; a
  // corrupted handshake throws ProtocolError, which is an honest
  // failure — construction just retries like any transport loss.
  std::optional<net::RemoteBlocklistClient> client;
  for (int attempt = 0; !client && attempt < 20; ++attempt) {
    try {
      client.emplace(injector, "tlog-chaos", client_rng);
    } catch (const ProtocolError&) {
    }
  }
  ASSERT_TRUE(client.has_value());
  tlog::Auditor auditor(key.pk, "tlog-chaos");

  const auto sync_count = [](const char* result) {
    return CounterDelta("cbl_tlog_sync_total",
                        {{"endpoint", "tlog-chaos"}, {"result", result}});
  };
  const CounterDelta ok_count = sync_count("ok");
  const CounterDelta transport_count = sync_count("transport");
  const CounterDelta audit_count = sync_count("audit");
  const CounterDelta applied("cbl_tlog_deltas_applied_total",
                             {{"endpoint", "tlog-chaos"}});
  const CounterDelta equivocations("cbl_tlog_equivocations_total",
                                   {{"endpoint", "tlog-chaos"}});
  const CounterDelta corrupted = fault_delta("corrupt");
  const CounterDelta truncated = fault_delta("truncate");

  // Every bucket state the provider has ever committed to, keyed by
  // epoch. The auditor's mirror must ALWAYS be one of these — a sync
  // interrupted by corruption at any wire step must leave the mirror on
  // a published state, never a half-applied one.
  std::map<std::uint64_t, tlog::BucketMap> published;
  published[server.epoch()] = server.bucket_snapshot();

  int ok_syncs = 0;
  int transport_syncs = 0;
  unsigned deltas_applied = 0;
  std::size_t next_fresh = 60;
  for (int i = 0; i < 48; ++i) {
    if (i % 4 == 3 && next_fresh + 2 <= corpus.size()) {
      server.add_entries(
          std::span<const std::string>(corpus).subspan(next_fresh, 2));
      next_fresh += 2;
      published[server.epoch()] = server.bucket_snapshot();
    }
    const auto report = client->verified_sync(auditor);
    // Channel damage against an honest provider must NEVER read as
    // dishonesty: no audit classification, no distrust latch.
    ASSERT_NE(report.failure,
              net::RemoteBlocklistClient::SyncReport::Failure::kAudit)
        << "corruption misclassified as audit evidence at sync #" << i;
    ASSERT_TRUE(auditor.trusted());
    // A sync can verify-and-fold deltas and THEN lose a later wire step:
    // those deltas were individually verified before folding, so they
    // stand (the mirror just stops short of the checkpointed epoch).
    deltas_applied += report.deltas_applied;
    if (report.ok) {
      ++ok_syncs;
      EXPECT_EQ(auditor.mirror_epoch(), server.epoch());
    } else {
      ++transport_syncs;
    }
    if (auditor.has_state()) {
      const auto it = published.find(auditor.mirror_epoch());
      ASSERT_NE(it, published.end());
      ASSERT_EQ(auditor.buckets(), it->second)
          << "mirror left on an unpublished state at sync #" << i;
    }
    clock.advance_ms(5);
  }

  // Both outcomes actually happened under this plan, and the damage was
  // heavy enough to mean something.
  EXPECT_GT(ok_syncs, 0);
  EXPECT_GT(transport_syncs, 0);
  EXPECT_GT(corrupted.value(), 0u);
  EXPECT_GT(truncated.value(), 0u);

  // Counter reconciliation, exact: every sync outcome is accounted for
  // in cbl::obs.
  EXPECT_EQ(ok_count.value(), static_cast<std::uint64_t>(ok_syncs));
  EXPECT_EQ(transport_count.value(),
            static_cast<std::uint64_t>(transport_syncs));
  EXPECT_EQ(audit_count.value(), 0u);
  EXPECT_EQ(applied.value(), deltas_applied);
  EXPECT_EQ(equivocations.value(), 0u);

  // The channel heals nothing by itself, but retried syncs converge: run
  // until one lands and check the mirror is the server's current state.
  bool converged = false;
  for (int i = 0; i < 200 && !converged; ++i) {
    converged = client->verified_sync(auditor).ok;
    clock.advance_ms(5);
  }
  ASSERT_TRUE(converged);
  EXPECT_EQ(auditor.buckets(), server.bucket_snapshot());
  EXPECT_TRUE(auditor.trusted());
}

TEST(ChaosTest, CorruptedTlogSyncDegradesHonestlyThenEquivocatorIsCondemned) {
  FaultPlan plan;
  plan.name = "tlog-corruption-ladder";
  plan.seed = chaos_seed(909);
  plan.all.corrupt_prob = 0.25;
  plan.all.truncate_prob = 0.10;

  obs::ManualClock clock;
  ClockGuard clock_guard(clock);
  ChaChaRng transport_rng = ChaChaRng::from_string_seed("tlog-ladder-trans");
  net::Transport transport(net::TransportConfig{.latency_ms_min = 1.0,
                                                .latency_ms_max = 5.0,
                                                .drop_rate = 0.0},
                           transport_rng);
  FaultInjector injector(transport, plan, &clock);
  const CounterDelta corrupted = fault_delta("corrupt");
  std::cout << "[chaos] " << plan.describe() << "\n";
  SCOPED_TRACE(plan.describe() + "  (replay: CBL_CHAOS_SEED=" +
               std::to_string(plan.seed) + ")");

  ChaChaRng corpus_rng = ChaChaRng::from_string_seed("tlog-ladder-corpus");
  ChaChaRng server_rng = ChaChaRng::from_string_seed("tlog-ladder-server");
  ChaChaRng key_rng = ChaChaRng::from_string_seed("tlog-ladder-key");
  ChaChaRng pub_rng = ChaChaRng::from_string_seed("tlog-ladder-pub");
  ChaChaRng client_rng = ChaChaRng::from_string_seed("tlog-ladder-client");
  const auto corpus = blocklist::generate_corpus(80, corpus_rng).addresses();
  oprf::OprfServer server(oprf::Oracle::fast(), 6, server_rng);
  server.setup(std::span<const std::string>(corpus).first(60));
  const auto key = nizk::SigningKey::generate(key_rng);
  tlog::EpochPublisher publisher(key, pub_rng);
  auto node = std::make_optional<net::BlocklistServiceNode>(
      transport, "tlog-ladder", server, oprf::Oracle::fast(),
      net::NodeLimits(), nullptr, &publisher);

  net::ResilienceConfig config;
  config.hedge_after_ms = 0.0;  // single provider: nothing to hedge to
  ResilientClient client(injector, {"tlog-ladder"}, client_rng, config,
                         &clock);
  client.pin_tlog_key("tlog-ladder", key.pk);
  const CounterDelta distrusted("cbl_tlog_providers_distrusted_total");

  // Phase 1: heavy corruption against an HONEST provider. Syncs fail
  // transport-style and queries degrade down the ladder, but the
  // distrust latch never fires, no answer is ever wrong, and a failed
  // sync leaves the mirror exactly as it was.
  const tlog::Auditor* mirror = client.tlog_auditor("tlog-ladder");
  ASSERT_NE(mirror, nullptr);
  std::size_t next_fresh = 60;
  int answered = 0;
  for (int round = 0; round < 30; ++round) {
    if (round % 5 == 4 && next_fresh + 2 <= corpus.size()) {
      server.add_entries(
          std::span<const std::string>(corpus).subspan(next_fresh, 2));
      next_fresh += 2;
    }
    const bool had_mirror = mirror->has_state();
    const std::uint64_t epoch_before = mirror->mirror_epoch();
    const tlog::BucketMap buckets_before = mirror->buckets();
    const CounterDelta failed_syncs(
        "cbl_tlog_sync_total",
        {{"endpoint", "tlog-ladder"}, {"result", "transport"}});
    (void)client.sync();
    ASSERT_FALSE(client.distrusted("tlog-ladder"));
    ASSERT_TRUE(mirror->trusted());
    if (failed_syncs.value() > 0) {
      EXPECT_EQ(mirror->has_state(), had_mirror) << "round #" << round;
      EXPECT_EQ(mirror->mirror_epoch(), epoch_before) << "round #" << round;
      EXPECT_EQ(mirror->buckets(), buckets_before) << "round #" << round;
    }

    const auto out = client.query(corpus[round % 60]);
    if (out.verdict != ResilientClient::Outcome::Verdict::kUnknown) {
      ++answered;
      // Every address queried is on the list; any definite answer must
      // say so regardless of which ladder rung produced it.
      EXPECT_EQ(out.verdict, ResilientClient::Outcome::Verdict::kListed)
          << "wrong verdict under corruption at round #" << round;
    } else {
      EXPECT_EQ(out.freshness, Freshness::kUnavailable);
    }
    clock.advance_ms(10);
  }
  EXPECT_GT(answered, 0);
  EXPECT_GT(corrupted.value(), 0u);
  EXPECT_EQ(distrusted.value(), 0u);

  // Phase 2: the provider turns equivocator — same tree size, different
  // signed root. Corruption may delay the evidence (damaged copies are
  // transport noise), but the first clean delivery condemns it.
  const tlog::Auditor* auditor = client.tlog_auditor("tlog-ladder");
  ASSERT_NE(auditor, nullptr);
  ASSERT_TRUE(auditor->latest_checkpoint().has_value());
  const auto honest = *auditor->latest_checkpoint();
  auto other_root = honest.root;
  other_root[7] ^= 0x20;
  const auto forged = tlog::sign_checkpoint(key, honest.tree_size, other_root,
                                            honest.epoch, pub_rng);
  node.reset();
  transport.register_endpoint(
      "tlog-ladder", [&forged](ByteView frame) -> std::optional<Bytes> {
        const auto request = net::parse_request_frame(frame);
        if (request && request->method == net::Method::kTlogSync) {
          return net::encode_response_frame(
              net::Status::kOk, tlog::encode_sync_bundle({forged.to_bytes()}));
        }
        return net::encode_response_frame(net::Status::kBadRequest);
      });

  for (int round = 0; round < 50 && !client.distrusted("tlog-ladder");
       ++round) {
    (void)client.sync();
    clock.advance_ms(10);
  }
  EXPECT_TRUE(client.distrusted("tlog-ladder"));
  EXPECT_EQ(distrusted.value(), 1u);

  // Condemned means condemned: answers come from the ladder, never
  // fresh, and sync() refuses to put the endpoint on the wire at all.
  const auto degraded = client.query(corpus[0]);
  EXPECT_NE(degraded.freshness, Freshness::kFresh);
  if (degraded.verdict != ResilientClient::Outcome::Verdict::kUnknown) {
    EXPECT_EQ(degraded.verdict, ResilientClient::Outcome::Verdict::kListed);
  }
  const CounterDelta injector_calls("cbl_chaos_calls_total");
  EXPECT_EQ(client.sync(), 0u);
  EXPECT_EQ(injector_calls.value(), 0u);
}

// ----------------------------------------- durable state crash sweeps

/// One step of a provider's published history: the signed checkpoint,
/// the consistency proof from the previous step, the signed delta out
/// of the previous epoch, and the full bucket state it commits to.
struct TimelineStep {
  tlog::Checkpoint checkpoint;
  tlog::ConsistencyProofMsg consistency;   // meaningful when delta is set
  std::optional<tlog::EpochDelta> delta;   // bridges from the previous step
  tlog::BucketMap buckets;
  std::uint64_t epoch = 0;
};

/// Ground truth for the store sweeps, precomputed once: everything an
/// honest provider signed over a short run of epochs, plus one forged
/// equivocating checkpoint for the final tree size.
struct TlogTimeline {
  ec::RistrettoPoint pk;
  std::vector<TimelineStep> steps;
  tlog::Checkpoint forged;
  std::map<std::uint64_t, tlog::BucketMap> published;
};

TlogTimeline build_timeline() {
  ChaChaRng corpus_rng = ChaChaRng::from_string_seed("store-sweep-corpus");
  ChaChaRng server_rng = ChaChaRng::from_string_seed("store-sweep-server");
  ChaChaRng key_rng = ChaChaRng::from_string_seed("store-sweep-key");
  ChaChaRng pub_rng = ChaChaRng::from_string_seed("store-sweep-pub");
  const auto corpus = blocklist::generate_corpus(40, corpus_rng).addresses();
  oprf::OprfServer server(oprf::Oracle::fast(), 6, server_rng);
  server.setup(std::span<const std::string>(corpus).first(28));
  const auto key = nizk::SigningKey::generate(key_rng);
  tlog::EpochPublisher publisher(key, pub_rng);

  TlogTimeline t;
  t.pk = key.pk;
  std::uint64_t prev_epoch = 0;
  std::uint64_t prev_size = 0;
  std::size_t next_fresh = 28;
  for (int i = 0; i < 5; ++i) {
    if (i > 0) {
      server.add_entries(
          std::span<const std::string>(corpus).subspan(next_fresh, 2));
      next_fresh += 2;
    }
    TimelineStep step;
    step.checkpoint = publisher.publish_epoch(server);
    step.epoch = server.epoch();
    step.buckets = server.bucket_snapshot();
    if (i > 0) {
      // What a wallet one step behind receives.
      const auto bundle = publisher.sync(server, {prev_size, prev_epoch});
      EXPECT_TRUE(bundle.has_value() && bundle->deltas.size() == 1);
      step.consistency =
          tlog::parse_consistency_proof(bundle->consistency).value();
      step.delta = tlog::EpochDelta::from_bytes(bundle->deltas[0]);
      EXPECT_TRUE(step.delta.has_value());
    }
    prev_epoch = step.epoch;
    prev_size = step.checkpoint.tree_size;
    t.published[step.epoch] = step.buckets;
    t.steps.push_back(std::move(step));
  }
  auto other_root = t.steps.back().checkpoint.root;
  other_root[5] ^= 0x40;
  t.forged = tlog::sign_checkpoint(key, t.steps.back().checkpoint.tree_size,
                                   other_root, t.steps.back().epoch, pub_rng);
  return t;
}

/// What the pre-crash run established as durable ground truth.
struct SweepOutcome {
  std::uint64_t last_durable_epoch = 0;  // last note() that reported true
  bool distrust_durable = false;
  bool crashed = false;
};

/// Drives one provider-audit scenario against the (possibly faulty) fs:
/// a durable Auditor and an EpochLog consume the published timeline,
/// then the provider equivocates. The in-memory objects keep going when
/// the disk dies mid-run — only durable claims made BEFORE the crash
/// point are recorded in the outcome.
SweepOutcome drive_scenario(const TlogTimeline& t, FaultFs& ffs) {
  SweepOutcome out;
  store::StateStore store(ffs, "aud");
  tlog::Auditor auditor(t.pk, "crash-sweep", &store);
  store::EpochLog elog(ffs, "srv-epoch.jrnl");
  (void)elog.recover();
  for (const auto& step : t.steps) {
    if (elog.note(step.epoch) && !ffs.crashed()) {
      out.last_durable_epoch = step.epoch;
    }
    (void)auditor.observe_checkpoint(step.checkpoint,
                                     step.delta ? &step.consistency : nullptr);
    if (step.delta) {
      (void)auditor.apply_delta(*step.delta);
    } else {
      (void)auditor.adopt_snapshot(step.buckets);
    }
  }
  EXPECT_EQ(auditor.observe_checkpoint(t.forged, nullptr),
            tlog::Auditor::Status::kEquivocation);
  EXPECT_FALSE(auditor.trusted());
  out.crashed = ffs.crashed();
  out.distrust_durable =
      !auditor.trusted() && auditor.persist_failures() == 0 && !out.crashed;
  return out;
}

/// Rebuilds every durable owner from the post-crash disk and checks the
/// recovery invariant: recovered state is always prefix-consistent with
/// the published history — no unpublished mirror, no rolled-back epoch
/// floor, no lost distrust. With `strict_durability` false (fsync-lie /
/// torn-write plans, where success reports may have been lies) only the
/// fail-safe half is asserted.
void assert_recovered(const TlogTimeline& t, store::MemFs& mem,
                      const SweepOutcome& out, bool strict_durability,
                      const std::string& trace) {
  SCOPED_TRACE(trace);
  store::StateStore store(mem, "aud");
  tlog::Auditor rec(t.pk, "crash-sweep-rec", &store);
  store::EpochLog elog(mem, "srv-epoch.jrnl");
  const std::uint64_t floor = elog.recover();
  EXPECT_LE(floor, t.steps.back().epoch);
  if (strict_durability) {
    EXPECT_GE(floor, out.last_durable_epoch) << "epoch floor rolled back";
  }
  if (rec.has_state()) {
    const auto it = t.published.find(rec.mirror_epoch());
    ASSERT_NE(it, t.published.end()) << "mirror at an unpublished epoch";
    EXPECT_EQ(rec.buckets(), it->second) << "mirror not a published state";
  }
  if (const auto latest = rec.latest_checkpoint()) {
    bool known = false;
    for (const auto& step : t.steps) {
      known |= step.checkpoint.tree_size == latest->tree_size &&
               step.checkpoint.root == latest->root;
    }
    EXPECT_TRUE(known) << "recovered checkpoint the provider never signed";
  }
  if (strict_durability && out.distrust_durable) {
    EXPECT_FALSE(rec.trusted()) << "durable distrust was lost";
    ASSERT_TRUE(rec.equivocation_evidence().has_value());
    EXPECT_TRUE(rec.equivocation_evidence()->proves_equivocation(t.pk));
  }
  // A recovered trusted mirror resumes DELTA sync from where it stands:
  // the published artifacts bridging out of its epoch fold cleanly.
  if (rec.trusted() && rec.has_state()) {
    for (const auto& step : t.steps) {
      if (!step.delta || step.delta->from_epoch != rec.mirror_epoch()) {
        continue;
      }
      const auto* consistency =
          rec.latest_checkpoint()->tree_size < step.checkpoint.tree_size
              ? &step.consistency
              : nullptr;
      EXPECT_EQ(rec.observe_checkpoint(step.checkpoint, consistency),
                tlog::Auditor::Status::kOk);
      EXPECT_EQ(rec.apply_delta(*step.delta), tlog::Auditor::Status::kOk);
      EXPECT_EQ(rec.buckets(), step.buckets);
    }
  }
}

// The tentpole acceptance sweep: a fault-free probe run counts every
// mutating fs operation the scenario performs, then the scenario is
// re-run with a crash injected at EVERY operation boundary; after each
// power cut the durable owners are rebuilt from disk and the recovery
// invariant is asserted. Replayable from the printed seed.
TEST(ChaosTest, CrashSweepAtEveryFsOpBoundaryRecoversConsistently) {
  const TlogTimeline t = build_timeline();

  FsFaultPlan probe;
  probe.name = "store-crash-probe";
  probe.seed = chaos_seed(1010);
  std::uint64_t total_ops = 0;
  {
    store::MemFs mem;
    FaultFs ffs(mem, probe);
    const auto out = drive_scenario(t, ffs);
    EXPECT_FALSE(out.crashed);
    EXPECT_TRUE(out.distrust_durable);
    total_ops = ffs.ops();
    mem.crash();  // even the clean run must survive a power cut
    assert_recovered(t, mem, out, /*strict_durability=*/true,
                     "fault-free baseline");
  }
  ASSERT_GT(total_ops, 20u);
  std::cout << "[chaos] store crash sweep: " << total_ops
            << " op boundaries (replay: CBL_CHAOS_SEED=" << probe.seed
            << ")\n";

  for (std::uint64_t k = 0; k < total_ops; ++k) {
    FsFaultPlan plan;
    plan.name = "store-crash-sweep";
    plan.seed = chaos_seed(1010);
    plan.crash_at_op = static_cast<std::int64_t>(k);
    store::MemFs mem;
    FaultFs ffs(mem, plan);
    const CounterDelta crashes = fs_fault_delta("crash");
    const auto out = drive_scenario(t, ffs);
    EXPECT_TRUE(ffs.crashed());
    EXPECT_EQ(crashes.value(), 1u);
    mem.crash();
    assert_recovered(t, mem, out, /*strict_durability=*/true,
                     plan.describe() + "  (replay: CBL_CHAOS_SEED=" +
                         std::to_string(plan.seed) + ")");
  }
}

// Probabilistic fs gremlins — short writes, torn writes, bit flips,
// fsync lies, rename failures — over many seeded rounds. Durability
// REPORTS can be lies here, so only the fail-safe half of the invariant
// is asserted: whatever recovery yields is prefix-consistent with
// published history, and damaged state is dropped, never served.
TEST(ChaosTest, StoreGremlinsNeverYieldUnpublishedRecoveredState) {
  const TlogTimeline t = build_timeline();
  const std::uint64_t base_seed = chaos_seed(1111);
  const CounterDelta short_writes = fs_fault_delta("short_write");
  const CounterDelta torn_writes = fs_fault_delta("torn_write");
  const CounterDelta bit_flips = fs_fault_delta("bit_flip");
  const CounterDelta fsync_lies = fs_fault_delta("fsync_lie");
  const CounterDelta rename_fails = fs_fault_delta("rename_fail");

  for (std::uint64_t round = 0; round < 24; ++round) {
    FsFaultPlan plan;
    plan.name = "store-gremlins";
    plan.seed = base_seed + round;
    plan.short_write_prob = 0.06;
    plan.torn_write_prob = 0.06;
    plan.bit_flip_prob = 0.04;
    plan.fsync_lie_prob = 0.06;
    plan.rename_fail_prob = 0.06;
    store::MemFs mem;
    FaultFs ffs(mem, plan);
    const auto out = drive_scenario(t, ffs);
    mem.crash();
    assert_recovered(t, mem, out, /*strict_durability=*/false,
                     plan.describe() + "  (replay: CBL_CHAOS_SEED=" +
                         std::to_string(plan.seed) + ")");
  }
  // Every fault class actually fired across the rounds.
  EXPECT_GT(short_writes.value(), 0u);
  EXPECT_GT(torn_writes.value(), 0u);
  EXPECT_GT(bit_flips.value(), 0u);
  EXPECT_GT(fsync_lies.value(), 0u);
  EXPECT_GT(rename_fails.value(), 0u);
}

}  // namespace
}  // namespace cbl::chaos
