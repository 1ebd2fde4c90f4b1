// A "deployment-shaped" walkthrough: a blocklist provider runs as a
// service node behind a lossy wide-area transport, users discover its
// parameters over the wire, sync the prefix list, and issue private
// queries through the resilient client's retries — every message
// crossing the boundary in the canonical binary wire format.
//
//   ./examples/networked_service
#include <cstdio>

#include "blocklist/generator.h"
#include "common/rng.h"
#include "net/resilient_client.h"
#include "net/service_node.h"
#include "obs/clock.h"
#include "obs/metrics.h"

int main() {
  using namespace cbl;

  auto rng = ChaChaRng::from_string_seed("networked");

  // --- provider process ---------------------------------------------------
  auto corpus_rng = ChaChaRng::from_string_seed("networked-corpus");
  const auto corpus =
      blocklist::generate_corpus(5'000, corpus_rng).addresses();
  oprf::OprfServer server(oprf::Oracle::fast(), 12, rng);
  server.setup(corpus);

  // --- wide-area network ----------------------------------------------------
  net::TransportConfig net_cfg;
  net_cfg.latency_ms_min = 20;
  net_cfg.latency_ms_max = 80;
  net_cfg.drop_rate = 0.05;  // 5% loss
  net::Transport transport(net_cfg, rng);
  net::BlocklistServiceNode node(transport, "blocklist.example:443", server,
                                 oprf::Oracle::fast());

  // --- user process -----------------------------------------------------------
  // The wallet embeds a ResilientClient: it discovers the service
  // parameters, syncs the prefix list, and retries with backoff. Its
  // virtual clock advances by each round trip and each backoff sleep.
  obs::ManualClock clock;
  net::ResilientClient client(transport, {"blocklist.example:443"}, rng,
                              net::ResilienceConfig(), &clock);
  std::printf("connected to %zu provider(s): parameters discovered and "
              "prefix list synced over the lossy link\n",
              client.sync());

  // A wallet checking outgoing payments: mostly clean addresses, a few
  // known scams.
  auto wallet_rng = ChaChaRng::from_string_seed("wallet");
  int local = 0, online = 0, listed = 0;
  unsigned attempts = 0;
  double total_latency = 0;
  for (int i = 0; i < 60; ++i) {
    const bool check_scam = i % 10 == 0;
    const std::string address =
        check_scam ? corpus[static_cast<std::size_t>(i) * 7]
                   : blocklist::random_address(blocklist::Chain::kBitcoin,
                                               wallet_rng);
    const auto outcome = client.query(address);
    attempts += outcome.attempts;
    if (outcome.freshness != net::Freshness::kFresh) {
      std::printf("query answered %s after %u attempts — network trouble\n",
                  net::to_string(outcome.freshness), outcome.attempts);
      if (outcome.verdict == net::ResilientClient::Outcome::Verdict::kUnknown) {
        continue;
      }
    }
    if (outcome.latency_ms == 0) {
      ++local;  // decided by the prefix list: no wire time at all
    } else {
      ++online;
      total_latency += outcome.latency_ms;
    }
    if (outcome.listed()) {
      ++listed;
      std::printf("BLOCKED payment to %s (known scam)\n", address.c_str());
    }
  }

  std::printf("\n60 payment checks in %u attempts: %d resolved locally, "
              "%d online (avg latency %.0f ms, retries included), "
              "%d blocked\n",
              attempts, local, online, online ? total_latency / online : 0.0,
              listed);
  // The transport's accounting is the process-wide registry, one series
  // per endpoint; this process has just the one transport and endpoint.
  const auto net_total = [](const char* name) {
    return static_cast<unsigned long long>(
        obs::MetricsRegistry::global()
            .counter(name, {{"endpoint", "blocklist.example:443"}})
            .value());
  };
  std::printf("network: %llu calls, %llu drops ridden out by retries, "
              "%llu B up / %llu B down\n",
              net_total("cbl_net_calls_total"),
              net_total("cbl_net_drops_total"),
              net_total("cbl_net_bytes_sent_total"),
              net_total("cbl_net_bytes_received_total"));
  std::printf("\nThe provider never saw a plaintext address: only %u-bit "
              "prefixes and blinded points crossed the wire.\n",
              server.lambda());
  return 0;
}
