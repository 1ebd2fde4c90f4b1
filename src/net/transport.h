// Simulated request/response transport: in-process endpoints with
// configurable latency and loss, deterministic under a seeded Rng.
// Stands in for the HTTPS round-trips of a deployed blocklist service so
// the full client/server stack — including the binary wire formats —
// can be exercised end to end, with the byte/latency accounting the
// capacity model (Fig. 6) is calibrated against.
//
// Loss is modelled per leg: a call is lost either on the request leg
// (the server never sees it) or on the response leg (the server did the
// work, the client never hears back). The two legs are sampled
// independently, each with probability 1 - sqrt(1 - drop_rate), so the
// configured drop_rate remains the overall probability that the call as
// a whole is lost — but byte accounting and server-side effects now
// differ between the two cases, which is what retry-safety and the
// chaos harness exercise.
//
// Accounting lives in the global cbl::obs registry only, one series per
// endpoint label: cbl_net_calls_total, cbl_net_drops_total (leg losses
// plus calls to an unknown endpoint) with its leg split
// cbl_net_drops_{request,response}_total, cbl_net_rejected_total
// (handler refusals: delivered, not dropped) and
// cbl_net_bytes_{sent,received}_total, plus the cbl_net_rtt_ms
// histogram. Every Transport adds into the same series, so two
// transports serving one endpoint name sum into one count; readers take
// deltas around what they measure.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>

#include "common/bytes.h"
#include "common/rng.h"
#include "obs/metrics.h"

namespace cbl::net {

struct TransportConfig {
  double latency_ms_min = 5.0;
  double latency_ms_max = 50.0;
  /// Probability a call is lost (request or response leg, sampled
  /// independently per leg — see the file comment).
  double drop_rate = 0.0;
};

struct CallResult {
  bool delivered = false;
  /// The endpoint saw the frame and rejected it (handler returned
  /// nullopt): client-visible, distinguishable from an empty success.
  bool rejected = false;
  Bytes response;
  double rtt_ms = 0.0;
};

/// The call surface of the transport, as seen by clients. Wrappers that
/// inject policy (cbl::chaos::FaultInjector) or resilience implement
/// this same interface, so the client stack composes over any of them.
class Channel {
 public:
  virtual ~Channel() = default;
  /// Simulates one round trip. Undelivered calls (drops, unknown
  /// endpoint) return delivered = false; handler rejections return
  /// delivered = true with rejected = true and an empty response.
  virtual CallResult call(const std::string& endpoint, ByteView request) = 0;
};

class Transport final : public Channel {
 public:
  /// A handler consumes a request frame and produces a response frame;
  /// nullopt means the endpoint rejects the frame (delivered error).
  using Handler = std::function<std::optional<Bytes>(ByteView)>;

  explicit Transport(TransportConfig config, Rng& rng)
      : config_(config), rng_(rng) {}

  void register_endpoint(const std::string& name, Handler handler);
  /// Tears an endpoint down (crash simulation / node shutdown): later
  /// calls are unknown-endpoint drops until a handler is re-registered.
  void unregister_endpoint(const std::string& name);
  bool has_endpoint(const std::string& name) const {
    return endpoints_.contains(name);
  }

  CallResult call(const std::string& endpoint, ByteView request) override;

  /// One two-leg latency sample from this transport's distribution,
  /// without placing a call — fault injectors use it to price the
  /// timeouts of calls they swallow themselves.
  double sample_rtt() { return sample_latency() + sample_latency(); }

 private:
  /// cbl_net_*{endpoint} handles, resolved on first use of the name.
  /// Calls to unregistered endpoints are counted under the name given.
  struct EndpointMetrics {
    obs::Counter* calls = nullptr;
    obs::Counter* drops = nullptr;
    obs::Counter* drops_request = nullptr;
    obs::Counter* drops_response = nullptr;
    obs::Counter* rejected = nullptr;
    obs::Counter* bytes_sent = nullptr;
    obs::Counter* bytes_received = nullptr;
  };

  double sample_latency();
  /// True when this leg of the call is lost. Per-leg probability is
  /// derived so that P(either leg lost) == config_.drop_rate.
  bool leg_dropped();
  EndpointMetrics& metrics_for(const std::string& endpoint);

  TransportConfig config_;
  Rng& rng_;
  std::unordered_map<std::string, Handler> endpoints_;
  std::map<std::string, EndpointMetrics> per_endpoint_;
  obs::Histogram* rtt_ms_ = nullptr;  // lazily resolved
};

}  // namespace cbl::net
