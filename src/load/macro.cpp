#include "load/macro.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

#include "chaos/chaos.h"
#include "load/arrivals.h"
#include "load/virtual_queue.h"
#include "net/query_pipeline.h"
#include "net/resilient_client.h"
#include "net/service_node.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "oprf/server.h"

namespace cbl::load {

namespace {

/// Restores the global registry's steady clock on scope exit, so a
/// throwing run cannot leave later code on a frozen manual clock.
struct ClockGuard {
  ~ClockGuard() { obs::MetricsRegistry::global().set_clock(nullptr); }
};

ChaChaRng seeded(const MacroConfig& config, const char* stream) {
  return ChaChaRng::from_string_seed("macro/" + std::string(stream) + "/" +
                                     std::to_string(config.seed));
}

std::string json_bool(bool v) { return v ? "true" : "false"; }

std::string level_json(const LevelResult& level) {
  using obs::format_double;
  std::string out = "{";
  out += "\"offered_qps\":" + format_double(level.offered_qps);
  out += ",\"achieved_qps\":" + format_double(level.achieved_qps);
  out += ",\"p50_ms\":" + format_double(level.p50_ms);
  out += ",\"p99_ms\":" + format_double(level.p99_ms);
  out += ",\"p999_ms\":" + format_double(level.p999_ms);
  out += ",\"shed_rate\":" + format_double(level.shed_rate);
  out += ",\"queries\":" + std::to_string(level.queries);
  out += ",\"wire_queries\":" + std::to_string(level.wire_queries);
  out += ",\"wire_attempts\":" + std::to_string(level.wire_attempts);
  out += ",\"cache_hits\":" + std::to_string(level.cache_hits);
  out += ",\"prefix_local\":" + std::to_string(level.prefix_local);
  out += ",\"shed\":" + std::to_string(level.shed);
  out += ",\"fresh\":" + std::to_string(level.fresh);
  out += ",\"stale_cache\":" + std::to_string(level.stale_cache);
  out += ",\"prefix_only\":" + std::to_string(level.prefix_only);
  out += ",\"unavailable\":" + std::to_string(level.unavailable);
  out += ",\"wrong\":" + std::to_string(level.wrong);
  out += ",\"slo_ok\":" + json_bool(level.slo_ok);
  out += "}";
  return out;
}

}  // namespace

std::string MacroReport::to_json() const {
  using obs::format_double;
  std::string out = "{\"bench\":\"macro\",\"schema\":1";
  out += ",\"seed\":" + std::to_string(config.seed);

  out += ",\"config\":{";
  out += "\"simulated_clients\":" +
         std::to_string(config.workload.simulated_clients);
  out += ",\"unique_addresses\":" +
         std::to_string(config.workload.unique_addresses);
  out += ",\"listed_addresses\":" +
         std::to_string(config.workload.listed_addresses);
  out += ",\"zipf_s\":" + format_double(config.workload.zipf_s);
  out += ",\"cache_hit_ratio\":" +
         format_double(config.workload.cache_hit_ratio);
  out += ",\"prefix_local_ratio\":" +
         format_double(config.workload.prefix_local_ratio);
  out += ",\"offered_qps\":[";
  for (std::size_t i = 0; i < config.offered_qps.size(); ++i) {
    if (i) out += ",";
    out += format_double(config.offered_qps[i]);
  }
  out += "],\"queries_per_level\":" + std::to_string(config.queries_per_level);
  out += ",\"service_ms\":" + format_double(config.service_ms);
  out += ",\"max_inflight\":" + std::to_string(config.max_inflight);
  out += ",\"transport_latency_ms\":[" +
         format_double(config.transport_latency_min_ms) + "," +
         format_double(config.transport_latency_max_ms) + "]";
  out += ",\"lambda\":" + std::to_string(config.lambda);
  out += ",\"chaos\":" + json_bool(config.chaos);
  out += ",\"slo\":{\"p99_ms\":" + format_double(config.slo.p99_ms);
  out += ",\"max_shed_rate\":" + format_double(config.slo.max_shed_rate);
  out += ",\"max_unavailable_rate\":" +
         format_double(config.slo.max_unavailable_rate);
  out += "}}";

  out += ",\"model\":{";
  out += "\"sustained_qps_at_slo\":" + format_double(sustained_qps_at_slo);
  out += ",\"p50_ms\":" + format_double(p50_ms);
  out += ",\"p99_ms\":" + format_double(p99_ms);
  out += ",\"p999_ms\":" + format_double(p999_ms);
  out += ",\"shed_rate\":" + format_double(shed_rate);
  out += ",\"wrong_verdicts\":" + std::to_string(wrong_verdicts);
  out += ",\"freshness\":{";
  out += "\"cache_hit\":" + std::to_string(cache_hits);
  out += ",\"prefix_local\":" + std::to_string(prefix_local);
  out += ",\"fresh\":" + std::to_string(fresh);
  out += ",\"stale_cache\":" + std::to_string(stale_cache);
  out += ",\"prefix_only\":" + std::to_string(prefix_only);
  out += ",\"unavailable\":" + std::to_string(unavailable);
  out += "},\"levels\":[";
  for (std::size_t i = 0; i < levels.size(); ++i) {
    if (i) out += ",";
    out += level_json(levels[i]);
  }
  out += "]}}";
  return out;
}

MacroReport run_macro(const MacroConfig& config) {
  if (config.offered_qps.empty()) {
    throw std::invalid_argument("run_macro: no offered_qps levels");
  }
  MacroReport report;
  report.config = config;

  auto& global = obs::MetricsRegistry::global();
  obs::ManualClock clock;
  clock.set_ns(std::uint64_t{1'000'000'000});  // t = 1s, away from zero
  ClockGuard guard;
  global.set_clock(&clock);

  auto corpus_rng = seeded(config, "corpus");
  auto transport_rng = seeded(config, "transport");
  auto server_rng = seeded(config, "server");
  auto client_rng = seeded(config, "client");
  auto traffic_rng = seeded(config, "traffic");

  Workload workload(config.workload, corpus_rng);

  net::Transport transport(
      net::TransportConfig{.latency_ms_min = config.transport_latency_min_ms,
                           .latency_ms_max = config.transport_latency_max_ms,
                           .drop_rate = 0.0},
      transport_rng);

  oprf::OprfServer server(oprf::Oracle::fast(), config.lambda, server_rng);
  server.setup(workload.listed());

  net::QueryPipeline pipeline(server, net::PipelineOptions());
  // Declared before the node, whose destructor unregisters the handler
  // that points at the queue.
  VirtualQueue queue(config.service_ms, config.max_inflight);
  const std::string endpoint = "macro-node";
  net::BlocklistServiceNode node(transport, endpoint, server,
                                 oprf::Oracle::fast(), net::NodeLimits(),
                                 &pipeline);
  queue.install(transport, node);

  std::optional<chaos::FaultInjector> injector;
  net::Channel* channel = &transport;
  if (config.chaos) {
    chaos::FaultPlan plan;
    plan.name = "macro-chaos";
    plan.seed = config.seed;
    plan.all.drop_request = 0.01;
    plan.all.latency.spike_prob = 0.01;
    plan.all.latency.spike_ms = 100.0;
    injector.emplace(transport, plan, &clock);
    channel = &*injector;
  }

  net::ResilientClient client(*channel, {endpoint}, client_rng,
                              net::ResilienceConfig(), &clock);
  client.sync();  // connect + prefix list, outside any measured level

  // The shared global counter is read as a delta, so a dirty registry
  // (earlier tests in the same process) cannot skew the report.
  auto& pipeline_shed_counter =
      global.counter("cbl_net_pipeline_shed_total");

  obs::MetricsRegistry local;  // harness-side latency histograms

  bool prefix_ok = true;  // every level so far passed the SLO
  for (std::size_t li = 0; li < config.offered_qps.size(); ++li) {
    // Idle drain between levels: the virtual queue empties and breaker
    // cool-offs elapse, so levels measure steady state, not hangover.
    clock.advance_ms(static_cast<std::uint64_t>(
        config.service_ms * static_cast<double>(config.max_inflight) +
        5000.0));
    auto& latency = local.histogram(
        "cbl_load_latency_ms", obs::Histogram::default_latency_ms_buckets(),
        {{"level", std::to_string(li)}},
        "End-to-end virtual latency per offered-load level");

    LevelResult level;
    level.offered_qps = config.offered_qps[li];
    const std::uint64_t level_start_ns = clock.now_ns();
    PoissonArrivals arrivals(level.offered_qps, level_start_ns);
    const std::uint64_t shed0 =
        queue.shed() + pipeline_shed_counter.value();
    std::uint64_t usable = 0;
    std::uint64_t max_completion_ns = level_start_ns;

    for (std::size_t q = 0; q < config.queries_per_level; ++q) {
      const std::uint64_t t_arrival = arrivals.next_ns(traffic_rng);
      clock.set_ns(t_arrival);
      const Workload::Query query = workload.sample(traffic_rng);
      ++level.queries;

      if (query.cache_hit || query.prefix_local) {
        // Modeled client-local resolution: answered from ground truth
        // at zero virtual cost (sub-bucket latency).
        if (query.cache_hit) {
          ++level.cache_hits;
        } else {
          ++level.prefix_local;
        }
        ++usable;
        latency.observe(0.0);
        max_completion_ns = std::max(max_completion_ns, t_arrival);
        continue;
      }

      // The queue's charge for the query's final admission (shed
      // attempts charge nothing, retries overwrite) is the server-side
      // share of end-to-end latency.
      ++level.wire_queries;
      const std::uint64_t admitted0 = queue.admitted();
      const auto out = client.query(*query.address);
      level.wire_attempts += out.attempts;
      double latency_ms =
          static_cast<double>(clock.now_ns() - t_arrival) / 1e6;
      if (queue.admitted() != admitted0) latency_ms += queue.last_charge_ms();
      latency.observe(latency_ms);
      max_completion_ns =
          std::max(max_completion_ns,
                   t_arrival + static_cast<std::uint64_t>(latency_ms * 1e6));

      switch (out.freshness) {
        case net::Freshness::kFresh: ++level.fresh; break;
        case net::Freshness::kStaleCache: ++level.stale_cache; break;
        case net::Freshness::kPrefixOnly: ++level.prefix_only; break;
        case net::Freshness::kUnavailable: ++level.unavailable; break;
      }
      if (out.verdict != net::ResilientClient::Outcome::Verdict::kUnknown) {
        ++usable;
        if (out.listed() != query.listed) ++level.wrong;
      }
    }

    level.shed = queue.shed() + pipeline_shed_counter.value() - shed0;
    level.p50_ms = latency.p50();
    level.p99_ms = latency.p99();
    level.p999_ms = latency.p999();
    level.shed_rate =
        level.wire_attempts > 0
            ? std::min(1.0, static_cast<double>(level.shed) /
                                static_cast<double>(level.wire_attempts))
            : 0.0;
    const double duration_s =
        static_cast<double>(max_completion_ns - level_start_ns) / 1e9;
    level.achieved_qps =
        duration_s > 0.0 ? static_cast<double>(usable) / duration_s : 0.0;
    const double unavailable_rate =
        static_cast<double>(level.unavailable) /
        static_cast<double>(level.queries);
    level.slo_ok = level.p99_ms <= config.slo.p99_ms &&
                   level.shed_rate <= config.slo.max_shed_rate &&
                   unavailable_rate <= config.slo.max_unavailable_rate &&
                   level.wrong == 0;

    prefix_ok = prefix_ok && level.slo_ok;
    if (prefix_ok) {
      report.sustained_qps_at_slo = level.offered_qps;
      report.p50_ms = level.p50_ms;
      report.p99_ms = level.p99_ms;
      report.p999_ms = level.p999_ms;
      report.shed_rate = level.shed_rate;
    }
    report.wrong_verdicts += level.wrong;
    report.cache_hits += level.cache_hits;
    report.prefix_local += level.prefix_local;
    report.fresh += level.fresh;
    report.stale_cache += level.stale_cache;
    report.prefix_only += level.prefix_only;
    report.unavailable += level.unavailable;
    report.levels.push_back(level);
  }
  if (report.sustained_qps_at_slo == 0.0 && !report.levels.empty()) {
    // Even the first level failed: report its tails so the file still
    // describes what the system did.
    const LevelResult& first = report.levels.front();
    report.p50_ms = first.p50_ms;
    report.p99_ms = first.p99_ms;
    report.p999_ms = first.p999_ms;
    report.shed_rate = first.shed_rate;
  }
  return report;
}

}  // namespace cbl::load
