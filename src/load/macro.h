// The macro-load harness: open-loop Zipf traffic at stepped offered
// rates driven through the real serving stack, one endpoint of a
// load::World (world.h: Transport -> VirtualQueue ->
// BlocklistServiceNode -> QueryPipeline -> OprfServer with its durable
// epoch floor, the ResilientClient policy stack on the client side and
// a FaultInjector in between, whose plan is empty unless `chaos` is
// set), reporting sustained QPS at SLO, tail latencies, shed rate, and
// freshness mix.
//
// Determinism contract: the whole report — latencies, quantiles, QPS,
// shed rates, verdict counts — is computed in virtual time from seeded
// ChaCha streams and is bit-reproducible for a fixed (seed, config), so
// a committed BENCH_macro.json is a golden a fresh run must equal.
// Machine throughput is measured elsewhere: bench_throughput's
// thread-swept pipeline/qps and bench/e2e's server_qps.
//
// Per-query timeline (the "dilated timeline" trick): the virtual clock
// is set to each arrival instant before the query is issued; the
// client then advances the clock by every RTT and backoff sleep it
// consumes, and the VirtualQueue in front of the node reports the
// virtual wait + service time its final admission charged. End-to-end
// latency is the sum of the two. The next arrival rewinds the clock to
// its own instant (see virtual_queue.h for why the queue tolerates
// that; the breaker tolerates non-monotonic reads).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "load/workload.h"
#include "load/world.h"

namespace cbl::load {

/// The service-level objective a load level must meet to count as
/// sustained.
struct SloConfig {
  double p99_ms = 250.0;             // tail latency bound
  double max_shed_rate = 0.02;       // shed events / wire attempts
  double max_unavailable_rate = 0.005;  // kUnavailable / offered queries
};

struct MacroConfig {
  /// Master seed; every ChaCha stream is labeled off it, so one number
  /// replays the whole run.
  std::uint64_t seed = 20260808;
  WorkloadConfig workload;
  /// Offered-load steps, each run for queries_per_level arrivals. Must
  /// be ascending for sustained-QPS search to make sense.
  std::vector<double> offered_qps = {100.0, 200.0, 400.0, 800.0, 1600.0};
  std::size_t queries_per_level = 2000;
  SloConfig slo;
  /// Virtual service model in front of the node (VirtualQueue):
  /// service_ms per query, max_inflight queue slots. The client's
  /// prefix list legitimately short-circuits most clean-address
  /// traffic, so only may-be-listed queries (roughly the listed share
  /// plus prefix collisions) reach the server; 20ms/8 = a 50 QPS
  /// scalar server with a 160ms queue, which the top offered levels
  /// genuinely overload — that is the point of the trajectory.
  double service_ms = 20.0;
  unsigned max_inflight = 8;
  /// Base transport RTT range (uniform, seeded).
  double transport_latency_min_ms = 5.0;
  double transport_latency_max_ms = 25.0;
  /// Layer a mild chaos::FaultInjector over the transport (request
  /// drops + latency spikes). Off for the canonical trajectory run.
  bool chaos = false;
};

/// Outcome of one offered-load level. The Tally counts the wire
/// queries' answers.
struct LevelResult : Tally {
  double offered_qps = 0.0;
  double achieved_qps = 0.0;  // usable answers / level virtual duration
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  double shed_rate = 0.0;  // shed events / wire attempts
  std::uint64_t queries = 0;
  std::uint64_t wire_queries = 0;  // reached the ResilientClient stack
  std::uint64_t wire_attempts = 0;  // transport attempts incl. retries
  std::uint64_t cache_hits = 0;     // modeled client-cache answers
  std::uint64_t prefix_local = 0;   // modeled prefix-list answers
  std::uint64_t shed = 0;           // node + pipeline shed events
  bool slo_ok = false;
};

struct MacroReport {
  MacroConfig config;
  std::vector<LevelResult> levels;
  /// Highest offered level that passed the SLO with every lower level
  /// passing too; 0 when even the first level failed.
  double sustained_qps_at_slo = 0.0;
  /// Tail stats at the sustained level (level 0 when none passed).
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  double shed_rate = 0.0;
  std::uint64_t wrong_verdicts = 0;  // total across levels
  // Freshness mix, totals across all levels.
  std::uint64_t cache_hits = 0;
  std::uint64_t prefix_local = 0;
  std::uint64_t fresh = 0;
  std::uint64_t stale_cache = 0;
  std::uint64_t prefix_only = 0;
  std::uint64_t unavailable = 0;

  /// Canonical BENCH_macro.json rendering (deterministic field order;
  /// bit-stable for a fixed seed+config).
  std::string to_json() const;
};

/// Runs the whole trajectory, one open-loop phase per offered level.
/// The World's ManualClock is the global registry's clock for the
/// duration; the steady clock is restored on exit.
MacroReport run_macro(const MacroConfig& config);

}  // namespace cbl::load
