// End-to-end observability walkthrough: runs a provider behind the
// simulated wide-area transport, drives user traffic (prefix fast path,
// bucket cache, retries), runs one full evaluation ceremony, then
// "scrapes" the process — first a human-readable digest (counters, RTT
// percentiles, ceremony phase timings), then the raw Prometheus text
// exposition a monitoring stack would ingest, and the JSON snapshot.
//
//   ./examples/observability_demo [--json]
#include <cstdio>
#include <cstring>
#include <string>

#include "blocklist/generator.h"
#include "common/rng.h"
#include "net/resilient_client.h"
#include "net/service_node.h"
#include "obs/obs.h"
#include "voting/ceremony.h"

namespace {

double histogram_quantile(const std::vector<cbl::obs::MetricSnapshot>& samples,
                          const std::string& name, double q,
                          const cbl::obs::Labels& labels = {}) {
  for (const auto& s : samples) {
    if (s.name == name && s.labels == labels) {
      return cbl::obs::quantile_from_buckets(s.bounds, s.bucket_counts, q);
    }
  }
  return 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cbl;
  const bool want_json = argc > 1 && std::strcmp(argv[1], "--json") == 0;

  auto& registry = obs::MetricsRegistry::global();
  obs::TraceLog trace(256);
  obs::set_trace_log(&trace);

  auto rng = ChaChaRng::from_string_seed("obs-demo");

  // --- provider + service node over a lossy WAN ---------------------------
  auto corpus_rng = ChaChaRng::from_string_seed("obs-demo-corpus");
  const auto corpus =
      blocklist::generate_corpus(4'000, corpus_rng).addresses();
  oprf::OprfServer server(oprf::Oracle::fast(), 10, rng);
  server.setup(corpus);

  net::TransportConfig net_cfg;
  net_cfg.latency_ms_min = 15;
  net_cfg.latency_ms_max = 90;
  net_cfg.drop_rate = 0.03;
  net::Transport transport(net_cfg, rng);
  net::BlocklistServiceNode node(transport, "blocklist.example:443", server,
                                 oprf::Oracle::fast());

  net::ResilientClient client(transport, {"blocklist.example:443"}, rng);

  auto wallet_rng = ChaChaRng::from_string_seed("obs-demo-wallet");
  int blocked = 0;
  for (int i = 0; i < 120; ++i) {
    const std::string address =
        i % 12 == 0 ? corpus[static_cast<std::size_t>(i) * 5]
                    : blocklist::random_address(blocklist::Chain::kBitcoin,
                                                wallet_rng);
    if (client.query(address).listed()) ++blocked;
  }

  // --- one decentralized evaluation ceremony -------------------------------
  chain::Blockchain chain;
  voting::EvaluationConfig cfg;
  cfg.thresh = 12;
  cfg.committee_size = 7;
  std::vector<unsigned> votes(cfg.thresh, 1);
  votes[3] = 0;
  voting::Ceremony ceremony(chain, cfg, votes, rng);
  const auto result = ceremony.run();

  // --- scrape ---------------------------------------------------------------
  const auto samples = registry.snapshot();

  std::printf("=== digest ===\n");
  std::printf("wallet run: %d payments blocked; ceremony %s "
              "(%zu committee members, %zu proof bytes on chain)\n\n",
              blocked, result.outcome.approved ? "APPROVED" : "REJECTED",
              result.committee_indices.size(), result.stored_proof_bytes);
  for (const auto& s : samples) {
    if (s.kind != obs::MetricSnapshot::Kind::kCounter || s.value == 0) {
      continue;
    }
    std::string labels;
    for (const auto& [k, v] : s.labels) labels += " " + k + "=" + v;
    std::printf("  %-36s%-24s %.0f\n", s.name.c_str(), labels.c_str(),
                s.value);
  }
  std::printf("\nRTT percentiles (ms): p50=%.1f p90=%.1f p99=%.1f\n",
              histogram_quantile(samples, "cbl_net_rtt_ms", 0.50),
              histogram_quantile(samples, "cbl_net_rtt_ms", 0.90),
              histogram_quantile(samples, "cbl_net_rtt_ms", 0.99));
  std::printf("OPRF eval (ms):       p50=%.3f p99=%.3f\n",
              histogram_quantile(samples, "cbl_oprf_eval_ms", 0.50),
              histogram_quantile(samples, "cbl_oprf_eval_ms", 0.99));

  std::printf("\nceremony phase timings (p50 ms):\n");
  for (const char* phase :
       {"ceremony.fund_and_shield", "ceremony.commit", "ceremony.vrf_reveal",
        "ceremony.sortition", "ceremony.vote", "ceremony.tally_and_payoff",
        "voting.nizk_verify"}) {
    const double p50 = histogram_quantile(
        samples, obs::kSpanHistogramName, 0.50, {{"span", phase}});
    std::printf("  %-28s %8.3f\n", phase, p50);
  }

  std::printf("\n=== Prometheus exposition ===\n%s",
              obs::to_prometheus(samples).c_str());

  if (want_json) {
    std::printf("\n=== JSON snapshot ===\n%s\n",
                obs::to_json(samples).c_str());
    std::printf("\n=== trace ring buffer (last %zu spans) ===\n%s\n",
                trace.snapshot().size(),
                obs::trace_to_json(trace.snapshot()).c_str());
  }

  obs::set_trace_log(nullptr);
  return 0;
}
