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
// Every run is deterministic: plan seed -> injector ChaCha stream, and
// all time is a shared ManualClock that the resilient client drives.
// Failures print the plan description; replay any plan with e.g.
//   CBL_CHAOS_SEED=<seed> ./tests/test_chaos
// CBL_CHAOS_QUERIES=<n> scales the per-plan query count (default 400).
#include <gtest/gtest.h>

#include <cstdlib>
#include <deque>
#include <iostream>
#include <map>
#include <span>
#include <unordered_set>

#include "blocklist/generator.h"
#include "chaos/chaos.h"
#include "chaos/fault_fs.h"
#include "common/rng.h"
#include "load/virtual_queue.h"
#include "net/resilient_client.h"
#include "net/service_node.h"
#include "obs/clock.h"
#include "store/state_store.h"
#include "tlog/tlog.h"

namespace cbl::chaos {
namespace {

using net::CircuitBreaker;
using net::Freshness;
using net::ResilienceConfig;
using net::ResilientClient;

std::uint64_t chaos_seed(std::uint64_t fallback) {
  if (const char* env = std::getenv("CBL_CHAOS_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return fallback;
}

int chaos_queries(int fallback = 400) {
  if (const char* env = std::getenv("CBL_CHAOS_QUERIES")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return fallback;
}

/// Parameters of a load::VirtualQueue put in front of every node.
struct QueueModel {
  double service_ms = 0.0;
  unsigned slots = 0;
};

/// One self-contained universe per plan: a seeded transport, an OPRF
/// server + service node per endpoint, the fault injector in front of
/// it all, and a resilient client driving the shared virtual clock.
/// With `queue` set, every node sits behind its own virtual-time queue,
/// re-installed after each crash-restart.
class ChaosWorld {
 public:
  ChaosWorld(FaultPlan plan, std::vector<std::string> endpoints,
             ResilienceConfig config = ResilienceConfig(),
             std::optional<QueueModel> queue = std::nullopt)
      : plan_(std::move(plan)),
        endpoints_(std::move(endpoints)),
        query_rng_(ChaChaRng::from_string_seed(
            plan_.name + "/traffic/" + std::to_string(plan_.seed))),
        transport_(net::TransportConfig{.latency_ms_min = 1.0,
                                        .latency_ms_max = 10.0,
                                        .drop_rate = 0.0},
                   transport_rng_),
        injector_(transport_, plan_, &clock_) {
    obs::MetricsRegistry::global().set_clock(&clock_);
    std::cout << "[chaos] " << plan_.describe() << "\n";

    listed_ = blocklist::generate_corpus(150, corpus_rng_).addresses();
    listed_set_.insert(listed_.begin(), listed_.end());
    while (clean_.size() < 200) {
      auto address =
          blocklist::random_address(blocklist::Chain::kBitcoin, corpus_rng_);
      if (!listed_set_.contains(address)) clean_.push_back(std::move(address));
    }

    for (std::size_t i = 0; queue && i < endpoints_.size(); ++i) {
      queues_.emplace_back(queue->service_ms, queue->slots);
    }
    fs_.resize(endpoints_.size());
    epoch_logs_.resize(endpoints_.size());
    servers_.resize(endpoints_.size());
    nodes_.resize(endpoints_.size());
    for (std::size_t i = 0; i < endpoints_.size(); ++i) {
      start_node(i);
      injector_.set_restart_hook(endpoints_[i], [this, i] {
        // Power loss, not graceful shutdown: the node's MemFs reverts
        // to its durable view and the rebuilt process recovers from
        // that — no in-memory state crosses the crash.
        fs_[i].crash();
        start_node(i);
      });
    }
    snapshot_fault_counters();
    client_.emplace(injector_, endpoints_, client_rng_, config, &clock_);
  }

  ~ChaosWorld() {
    obs::MetricsRegistry::global().set_clock(&obs::SteadyClock::instance());
  }

  struct RunSummary {
    int queries = 0;
    int wrong = 0;
    int fresh = 0;
    int stale = 0;
    int prefix_only = 0;
    int unavailable = 0;
  };

  /// The invariant loop. Each iteration asks about a random address
  /// (half listed, half clean) and checks any non-Unknown verdict
  /// against ground truth; `inter_arrival_ms` of virtual time passes
  /// between queries on top of whatever the client itself consumed.
  RunSummary run(int queries, double inter_arrival_ms = 2.0) {
    SCOPED_TRACE(plan_.describe() + "  (replay: CBL_CHAOS_SEED=" +
                 std::to_string(plan_.seed) + ")");
    RunSummary s;
    for (int i = 0; i < queries; ++i) {
      const bool expect_listed = query_rng_.uniform(2) == 0;
      const std::string& address =
          expect_listed
              ? listed_[query_rng_.uniform(listed_.size())]
              : clean_[query_rng_.uniform(clean_.size())];

      const auto out = client_->query(address);
      ++s.queries;
      switch (out.freshness) {
        case Freshness::kFresh: ++s.fresh; break;
        case Freshness::kStaleCache: ++s.stale; break;
        case Freshness::kPrefixOnly: ++s.prefix_only; break;
        case Freshness::kUnavailable: ++s.unavailable; break;
      }
      if (out.verdict == ResilientClient::Outcome::Verdict::kUnknown) {
        // Unknown is only legal as an explicit, honestly-tagged failure.
        EXPECT_EQ(out.freshness, Freshness::kUnavailable);
      } else {
        const bool answered_listed =
            out.verdict == ResilientClient::Outcome::Verdict::kListed;
        if (answered_listed != expect_listed) {
          ++s.wrong;
          ADD_FAILURE() << "WRONG MEMBERSHIP ANSWER at query #" << i
                        << " address=" << address
                        << " truth=" << (expect_listed ? "listed" : "clean")
                        << " answered="
                        << (answered_listed ? "listed" : "clean")
                        << " freshness=" << net::to_string(out.freshness);
        }
      }
      clock_.advance_ms(static_cast<std::uint64_t>(inter_arrival_ms));
    }
    return s;
  }

  /// Every transport round trip is accounted for: calls the injector
  /// swallowed (blackouts, request drops) never reached the inner
  /// transport, and duplicates reached it twice.
  void expect_calls_accounted() const {
    const ChaosStats& cs = injector_.stats();
    EXPECT_EQ(transport_.stats().calls,
              cs.calls - cs.blackout_drops - cs.dropped_requests +
                  cs.duplicated)
        << plan_.describe();
  }

  /// The cbl_chaos_faults_total{kind} counters mirror the local stats
  /// exactly (deltas since this world was built).
  void expect_faults_mirrored() const {
    const ChaosStats& cs = injector_.stats();
    EXPECT_EQ(fault_delta("blackout"), cs.blackout_drops);
    EXPECT_EQ(fault_delta("drop_request"), cs.dropped_requests);
    EXPECT_EQ(fault_delta("drop_response"), cs.dropped_responses);
    EXPECT_EQ(fault_delta("corrupt"), cs.corrupted);
    EXPECT_EQ(fault_delta("truncate"), cs.truncated);
    EXPECT_EQ(fault_delta("duplicate"), cs.duplicated);
    EXPECT_EQ(fault_delta("delay"), cs.delayed);
    EXPECT_EQ(fault_delta("crash"), cs.crashes);
    EXPECT_EQ(fault_delta("restart"), cs.restarts);
  }

  ResilientClient& client() { return *client_; }
  FaultInjector& injector() { return injector_; }
  net::Transport& transport() { return transport_; }
  obs::ManualClock& clock() { return clock_; }
  /// Queries shed by the virtual-time queues, summed over endpoints.
  std::uint64_t queue_shed() const {
    std::uint64_t total = 0;
    for (const auto& queue : queues_) total += queue.shed();
    return total;
  }
  std::uint64_t server_epoch(std::size_t i) const {
    return servers_[i]->epoch();
  }

 private:
  void start_node(std::size_t i) {
    nodes_[i].reset();  // tear the old handler down first
    // lambda=16: sparse buckets, so the prefix list actually decides
    // most clean addresses (with lambda=5 every bucket is occupied and
    // the prefix-only degradation rung could never fire).
    // The old server (whose epoch listener points at the old EpochLog)
    // is destroyed before the log is re-created over the same file.
    servers_[i].emplace(oprf::Oracle::fast(), 16u, server_rng_);
    epoch_logs_[i].emplace(fs_[i], "epoch.jrnl");
    // Crash recovery: brand-new process state, except the epoch floor
    // recovered from the durable store. Without it the rebuilt server
    // would re-number epochs from scratch and could re-serve an epoch
    // number clients already cached buckets for — under a different
    // mask, turning their caches into silently wrong answers.
    const std::uint64_t floor = epoch_logs_[i]->recover();
    if (floor > 0) servers_[i]->restore_epoch(floor);
    servers_[i]->set_epoch_listener(
        [log = &*epoch_logs_[i]](std::uint64_t epoch) { log->note(epoch); });
    servers_[i]->setup(listed_);
    nodes_[i].emplace(transport_, endpoints_[i], *servers_[i],
                      oprf::Oracle::fast());
    if (!queues_.empty()) queues_[i].install(transport_, *nodes_[i]);
  }

  static std::uint64_t fault_counter(const char* kind) {
    return obs::MetricsRegistry::global()
        .counter("cbl_chaos_faults_total", {{"kind", kind}})
        .value();
  }
  void snapshot_fault_counters() {
    for (const char* kind :
         {"blackout", "drop_request", "drop_response", "corrupt", "truncate",
          "duplicate", "delay", "crash", "restart"}) {
      fault_before_[kind] = fault_counter(kind);
    }
  }
  std::uint64_t fault_delta(const char* kind) const {
    return fault_counter(kind) - fault_before_.at(kind);
  }

  FaultPlan plan_;
  std::vector<std::string> endpoints_;
  obs::ManualClock clock_;
  ChaChaRng corpus_rng_ = ChaChaRng::from_string_seed("chaos-corpus");
  ChaChaRng server_rng_ = ChaChaRng::from_string_seed("chaos-server");
  ChaChaRng client_rng_ = ChaChaRng::from_string_seed("chaos-client");
  ChaChaRng transport_rng_ = ChaChaRng::from_string_seed("chaos-transport");
  ChaChaRng query_rng_;
  std::vector<std::string> listed_;
  std::unordered_set<std::string> listed_set_;
  std::vector<std::string> clean_;
  net::Transport transport_;
  // Per-endpoint durable "disk" plus the epoch floor log on it. Declared
  // before servers_ so each server (whose epoch listener points into its
  // log) is destroyed first.
  std::deque<store::MemFs> fs_;
  std::deque<std::optional<store::EpochLog>> epoch_logs_;
  std::deque<std::optional<oprf::OprfServer>> servers_;
  // Declared before nodes_: a node's destructor unregisters the wrapped
  // handler, which points into its queue.
  std::deque<load::VirtualQueue> queues_;
  std::deque<std::optional<net::BlocklistServiceNode>> nodes_;
  FaultInjector injector_;
  std::optional<ResilientClient> client_;
  std::map<std::string, std::uint64_t> fault_before_;
};

// ---------------------------------------------------------------- plans

TEST(ChaosTest, FlakyLinksNeverProduceWrongAnswers) {
  FaultPlan plan;
  plan.name = "flaky-links";
  plan.seed = chaos_seed(101);
  plan.all.drop_request = 0.15;
  plan.all.drop_response = 0.15;
  ChaosWorld world(plan, {"alpha", "beta"});

  const auto s = world.run(chaos_queries());
  EXPECT_EQ(s.wrong, 0);
  // Retries + two providers ride out 30% call loss almost completely.
  EXPECT_GE(s.fresh, (s.queries * 9) / 10);
  EXPECT_GT(world.injector().stats().dropped_requests, 0u);
  EXPECT_GT(world.injector().stats().dropped_responses, 0u);
  world.expect_calls_accounted();
  world.expect_faults_mirrored();
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
  ChaosWorld world(plan, {"alpha", "beta"});

  const auto s = world.run(chaos_queries());
  EXPECT_EQ(s.wrong, 0);
  EXPECT_GE(s.fresh, (s.queries * 9) / 10);
  // Slow primaries were hedged; duplicates hit the server but never the
  // verdict.
  EXPECT_GT(hedges.value(), hedges_before);
  EXPECT_GT(world.injector().stats().duplicated, 0u);
  EXPECT_GT(world.injector().stats().delayed, 0u);
  world.expect_calls_accounted();
  world.expect_faults_mirrored();
}

TEST(ChaosTest, CorruptionStormIsMalformedNeverAFalseVerdict) {
  FaultPlan plan;
  plan.name = "corruption-storm";
  plan.seed = chaos_seed(303);
  plan.all.corrupt_prob = 0.35;
  plan.all.truncate_prob = 0.15;
  ChaosWorld world(plan, {"alpha", "beta"});

  const auto s = world.run(chaos_queries());
  // The load-bearing invariant of the frame checksum: roughly half of
  // all responses were damaged in flight and not one produced a wrong
  // membership answer.
  EXPECT_EQ(s.wrong, 0);
  EXPECT_GT(world.injector().stats().corrupted, 100u);
  EXPECT_GT(world.injector().stats().truncated, 0u);
  // Retries still get most queries through; the rest degrade honestly.
  EXPECT_GE(s.fresh + s.stale + s.prefix_only, s.queries / 2);
  world.expect_calls_accounted();
  world.expect_faults_mirrored();
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
  ChaosWorld world(plan, {"alpha"});  // single provider: nowhere to hedge

  const auto s = world.run(chaos_queries(), /*inter_arrival_ms=*/25.0);
  EXPECT_EQ(s.wrong, 0);
  EXPECT_GT(world.injector().stats().blackout_drops, 0u);
  // The full breaker cycle: tripped open during the blackout (probably
  // several times — each cooled-off probe fails while the window
  // lasts), half-opened on probes, and closed again after it.
  EXPECT_GT(transition("open"), open_before);
  EXPECT_GT(transition("half_open"), half_before);
  EXPECT_GT(transition("closed"), closed_before);
  EXPECT_EQ(world.client().breaker_state("alpha"),
            CircuitBreaker::State::kClosed);
  // The degradation ladder was exercised while the provider was dark:
  // cached repeats and prefix-list negatives, all honestly tagged.
  EXPECT_GT(s.stale, 0);
  EXPECT_GT(s.prefix_only, 0);
  EXPECT_GT(s.fresh, 0);
  world.expect_calls_accounted();
  world.expect_faults_mirrored();
}

TEST(ChaosTest, CrashRestartRecoversWithAFreshEpoch) {
  FaultPlan plan;
  plan.name = "crash-restart";
  plan.seed = chaos_seed(505);
  plan.all.drop_request = 0.05;
  plan.all.drop_response = 0.05;
  plan.per_endpoint["alpha"].crash_at_ms = 800.0;
  plan.per_endpoint["alpha"].restart_at_ms = 2000.0;
  ChaosWorld world(plan, {"alpha", "beta"});
  const std::uint64_t epoch_before = world.server_epoch(0);

  const auto s = world.run(chaos_queries(), /*inter_arrival_ms=*/10.0);
  EXPECT_EQ(s.wrong, 0);
  EXPECT_EQ(world.injector().stats().crashes, 1u);
  EXPECT_EQ(world.injector().stats().restarts, 1u);
  // The rebuilt server came back ABOVE the epoch it crashed at — the
  // floor that keeps pre-crash client caches from matching a new mask.
  EXPECT_GT(world.server_epoch(0), epoch_before);
  // The second provider (plus hedging) carried the outage; the
  // restarted one was probed back into service.
  EXPECT_GE(s.fresh, (s.queries * 8) / 10);
  EXPECT_EQ(world.client().breaker_state("alpha"),
            CircuitBreaker::State::kClosed);
  world.expect_calls_accounted();
  world.expect_faults_mirrored();
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
  ChaosWorld world(plan, {"alpha", "beta"}, ResilienceConfig(),
                   QueueModel{.service_ms = 30.0, .slots = 2});

  const auto s = world.run(chaos_queries(), /*inter_arrival_ms=*/1.0);
  EXPECT_EQ(s.wrong, 0);
  // Overload shedding fired (kRateLimited + retry-after, not a hung
  // queue) and the client still converted most queries into answers.
  EXPECT_GT(world.queue_shed(), 0u);
  EXPECT_GE(s.fresh, s.queries / 2);
  world.expect_calls_accounted();
  world.expect_faults_mirrored();
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
  ChaosWorld world(plan, {"alpha", "beta"}, ResilienceConfig(),
                   QueueModel{.service_ms = 30.0, .slots = 2});

  const auto s = world.run(chaos_queries(), /*inter_arrival_ms=*/1.0);
  // The batched serving path changes throughput, never answers: no
  // wrong verdict under drops + a blackout + overload shedding.
  EXPECT_EQ(s.wrong, 0);
  EXPECT_GE(s.fresh, s.queries / 2);
  EXPECT_GT(world.injector().stats().dropped_requests, 0u);
  EXPECT_GT(world.injector().stats().blackout_drops, 0u);

  EXPECT_GT(world.queue_shed(), 0u);
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
  world.expect_calls_accounted();
  world.expect_faults_mirrored();
}

// ------------------------------------------- transparency sync under chaos

/// Points the metrics registry at a ManualClock for the test's lifetime
/// (the self-contained tlog worlds below don't go through ChaosWorld).
struct ClockGuard {
  explicit ClockGuard(obs::ManualClock& clock) {
    obs::MetricsRegistry::global().set_clock(&clock);
  }
  ~ClockGuard() {
    obs::MetricsRegistry::global().set_clock(&obs::SteadyClock::instance());
  }
};

double counter_value(const char* name, obs::Labels labels) {
  return obs::MetricsRegistry::global()
      .counter(name, std::move(labels))
      .value();
}

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
    return counter_value("cbl_tlog_sync_total", {{"endpoint", "tlog-chaos"},
                                                 {"result", result}});
  };
  const auto ok_before = sync_count("ok");
  const auto transport_before = sync_count("transport");
  const auto audit_before = sync_count("audit");
  const auto applied_before = counter_value("cbl_tlog_deltas_applied_total",
                                            {{"endpoint", "tlog-chaos"}});
  const auto equiv_before = counter_value("cbl_tlog_equivocations_total",
                                          {{"endpoint", "tlog-chaos"}});
  const auto corrupt_before =
      counter_value("cbl_chaos_faults_total", {{"kind", "corrupt"}});
  const auto truncate_before =
      counter_value("cbl_chaos_faults_total", {{"kind", "truncate"}});

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
  const ChaosStats& cs = injector.stats();
  EXPECT_GT(cs.corrupted, 0u);
  EXPECT_GT(cs.truncated, 0u);

  // Counter reconciliation, exact: every sync outcome and every injected
  // fault is accounted for in cbl::obs.
  EXPECT_EQ(sync_count("ok") - ok_before, ok_syncs);
  EXPECT_EQ(sync_count("transport") - transport_before, transport_syncs);
  EXPECT_EQ(sync_count("audit") - audit_before, 0.0);
  EXPECT_EQ(counter_value("cbl_tlog_deltas_applied_total",
                          {{"endpoint", "tlog-chaos"}}) -
                applied_before,
            deltas_applied);
  EXPECT_EQ(counter_value("cbl_tlog_equivocations_total",
                          {{"endpoint", "tlog-chaos"}}) -
                equiv_before,
            0.0);
  EXPECT_EQ(counter_value("cbl_chaos_faults_total", {{"kind", "corrupt"}}) -
                corrupt_before,
            cs.corrupted);
  EXPECT_EQ(counter_value("cbl_chaos_faults_total", {{"kind", "truncate"}}) -
                truncate_before,
            cs.truncated);

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
  const auto distrusted_before =
      counter_value("cbl_tlog_providers_distrusted_total", {});

  // Phase 1: heavy corruption against an HONEST provider. Syncs fail
  // transport-style and queries degrade down the ladder, but the
  // distrust latch never fires and no answer is ever wrong.
  std::size_t next_fresh = 60;
  int answered = 0;
  for (int round = 0; round < 30; ++round) {
    if (round % 5 == 4 && next_fresh + 2 <= corpus.size()) {
      server.add_entries(
          std::span<const std::string>(corpus).subspan(next_fresh, 2));
      next_fresh += 2;
    }
    (void)client.sync();
    ASSERT_FALSE(client.distrusted("tlog-ladder"));
    const tlog::Auditor* auditor = client.tlog_auditor("tlog-ladder");
    if (auditor != nullptr) {
      ASSERT_TRUE(auditor->trusted());
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
  EXPECT_GT(injector.stats().corrupted, 0u);
  EXPECT_EQ(counter_value("cbl_tlog_providers_distrusted_total", {}),
            distrusted_before);

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
        if (request && request->method == net::Method::kTlogCheckpoint) {
          return net::encode_response_frame(net::Status::kOk,
                                            forged.to_bytes());
        }
        return net::encode_response_frame(net::Status::kBadRequest);
      });

  for (int round = 0; round < 50 && !client.distrusted("tlog-ladder");
       ++round) {
    (void)client.sync();
    clock.advance_ms(10);
  }
  EXPECT_TRUE(client.distrusted("tlog-ladder"));
  EXPECT_EQ(counter_value("cbl_tlog_providers_distrusted_total", {}),
            distrusted_before + 1);

  // Condemned means condemned: answers come from the ladder, never
  // fresh, and sync() refuses to put the endpoint on the wire at all.
  const auto degraded = client.query(corpus[0]);
  EXPECT_NE(degraded.freshness, Freshness::kFresh);
  if (degraded.verdict != ResilientClient::Outcome::Verdict::kUnknown) {
    EXPECT_EQ(degraded.verdict, ResilientClient::Outcome::Verdict::kListed);
  }
  const auto calls_before = injector.stats().calls;
  EXPECT_EQ(client.sync(), 0u);
  EXPECT_EQ(injector.stats().calls, calls_before);
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
      step.consistency = publisher.consistency(prev_size);
      step.delta = publisher.delta_from(prev_epoch);
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
    total_ops = ffs.stats().ops;
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
    const auto out = drive_scenario(t, ffs);
    EXPECT_TRUE(ffs.crashed());
    EXPECT_EQ(ffs.stats().crashes, 1u);
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
  FsFaultStats totals;
  const auto fs_fault_before = [](const char* kind) {
    return counter_value("cbl_chaos_fs_faults_total", {{"kind", kind}});
  };
  const double short_before = fs_fault_before("short_write");
  const double torn_before = fs_fault_before("torn_write");
  const double flip_before = fs_fault_before("bit_flip");
  const double lie_before = fs_fault_before("fsync_lie");
  const double rename_before = fs_fault_before("rename_fail");

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
    const auto st = ffs.stats();
    totals.ops += st.ops;
    totals.short_writes += st.short_writes;
    totals.torn_writes += st.torn_writes;
    totals.bit_flips += st.bit_flips;
    totals.fsync_lies += st.fsync_lies;
    totals.rename_fails += st.rename_fails;
  }
  // Every fault class actually fired across the rounds, and the obs
  // counters mirror the local stats exactly.
  EXPECT_GT(totals.short_writes, 0u);
  EXPECT_GT(totals.torn_writes, 0u);
  EXPECT_GT(totals.bit_flips, 0u);
  EXPECT_GT(totals.fsync_lies, 0u);
  EXPECT_GT(totals.rename_fails, 0u);
  EXPECT_EQ(fs_fault_before("short_write") - short_before,
            totals.short_writes);
  EXPECT_EQ(fs_fault_before("torn_write") - torn_before, totals.torn_writes);
  EXPECT_EQ(fs_fault_before("bit_flip") - flip_before, totals.bit_flips);
  EXPECT_EQ(fs_fault_before("fsync_lie") - lie_before, totals.fsync_lies);
  EXPECT_EQ(fs_fault_before("rename_fail") - rename_before,
            totals.rename_fails);
}

}  // namespace
}  // namespace cbl::chaos
