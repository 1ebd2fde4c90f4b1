// One seeded, virtual-time serving stack, shared by the macro-load
// harness and the chaos harness: a transport, N provider endpoints
// behind a fault injector, and a resilient client driving one
// ManualClock.
//
// Each endpoint is a provider process with a durable disk: a MemFs
// carrying an EpochLog (the epoch floor), an OprfServer at kLambda, a
// BlocklistServiceNode that owns its default QueryPipeline, and a
// VirtualQueue in front of the node. A crash-restart in the fault plan
// power-cuts that MemFs and rebuilds the endpoint from what survived.
//
// Nothing here is optional. A default FaultPlan injects nothing and
// draws no randomness; a (0, 0) queue admits everything at no charge.
// Every random draw comes from the streams the caller seeds, so a
// caller that names its streams replays its runs bit-exactly.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "chaos/chaos.h"
#include "common/rng.h"
#include "load/virtual_queue.h"
#include "net/resilient_client.h"
#include "net/service_node.h"
#include "obs/clock.h"
#include "oprf/server.h"
#include "store/state_store.h"

namespace cbl::load {

/// How a run's client answers came out: one count per freshness rung,
/// plus the definite verdicts that contradicted ground truth.
struct Tally {
  std::uint64_t fresh = 0;
  std::uint64_t stale_cache = 0;
  std::uint64_t prefix_only = 0;
  std::uint64_t unavailable = 0;
  std::uint64_t wrong = 0;  // verdicts contradicting ground truth

  /// Counts one answer for an entry whose truth is `listed`. Returns
  /// false when its verdict is definite and wrong.
  bool count(const net::ResilientClient::Outcome& out, bool listed);
};

class World {
 public:
  /// Prefix length of every endpoint's server: sparse buckets, so the
  /// prefix list decides most clean addresses locally and the
  /// prefix-only degradation rung can fire (at a small λ every bucket
  /// is occupied).
  static constexpr unsigned kLambda = 16;

  /// The seeded streams the world draws from: server keys and masks
  /// (shared by every endpoint and restart), client backoff jitter, and
  /// transport RTTs.
  struct Streams {
    ChaChaRng server;
    ChaChaRng client;
    ChaChaRng transport;
  };

  /// Serves `listed` from one endpoint per name, RTTs uniform in
  /// [latency_min_ms, latency_max_ms], each node behind a
  /// VirtualQueue(service_ms, slots), all calls through `plan`.
  World(std::span<const std::string> listed,
        std::vector<std::string> endpoints, double latency_min_ms,
        double latency_max_ms, double service_ms, unsigned slots,
        chaos::FaultPlan plan, Streams streams);
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Virtual time: the global registry's clock while the world lives,
  /// and the client's and injector's throughout. Starts at zero.
  obs::ManualClock& clock() { return clock_; }
  net::ResilientClient& client() { return *client_; }
  const VirtualQueue& queue(std::size_t i) const {
    return endpoints_[i].queue;
  }
  const oprf::OprfServer& server(std::size_t i) const {
    return *endpoints_[i].server;
  }

 private:
  /// Points the global registry at the world's clock, and back at the
  /// steady clock on destruction (a throwing constructor included).
  struct ClockInstall {
    explicit ClockInstall(const obs::Clock& clock);
    ~ClockInstall();
  };

  /// Members are destroyed bottom-up: the node (whose destructor
  /// unregisters the handler that points into the queue), the queue,
  /// the server (whose epoch listener points into the log), the log,
  /// then the disk.
  struct Endpoint {
    Endpoint(std::string name, double service_ms, unsigned slots);
    std::string name;
    store::MemFs fs;
    std::optional<store::EpochLog> epoch_log;
    std::optional<oprf::OprfServer> server;
    VirtualQueue queue;
    std::optional<net::BlocklistServiceNode> node;
  };

  /// (Re)builds endpoint i from its disk's durable view.
  void start(std::size_t i);

  obs::ManualClock clock_;
  ClockInstall clock_install_{clock_};
  Streams streams_;
  std::vector<std::string> listed_;
  net::Transport transport_;
  std::deque<Endpoint> endpoints_;
  chaos::FaultInjector injector_;
  /// Built last; the world's constructor ends by connecting it to every
  /// endpoint.
  std::optional<net::ResilientClient> client_;
};

}  // namespace cbl::load
