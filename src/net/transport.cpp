#include "net/transport.h"

#include <cmath>
#include <utility>

namespace cbl::net {

namespace {

obs::Counter* net_counter(const char* name, const std::string& endpoint,
                          const char* help) {
  return &obs::MetricsRegistry::global().counter(
      name, {{"endpoint", endpoint}}, help);
}

}  // namespace

Transport::EndpointMetrics& Transport::metrics_for(
    const std::string& endpoint) {
  auto it = per_endpoint_.find(endpoint);
  if (it == per_endpoint_.end()) {
    EndpointMetrics m;
    m.calls = net_counter("cbl_net_calls_total", endpoint,
                          "Round trips attempted per endpoint");
    m.drops = net_counter("cbl_net_drops_total", endpoint,
                          "Calls lost to simulated loss or unknown endpoint");
    m.drops_request = net_counter(
        "cbl_net_drops_request_total", endpoint,
        "Calls lost on the request leg (server never saw the frame)");
    m.drops_response = net_counter(
        "cbl_net_drops_response_total", endpoint,
        "Calls lost on the response leg (server worked, reply lost)");
    m.rejected = net_counter("cbl_net_rejected_total", endpoint,
                             "Frames the endpoint handler rejected");
    m.bytes_sent = net_counter("cbl_net_bytes_sent_total", endpoint,
                               "Request bytes on the wire");
    m.bytes_received = net_counter("cbl_net_bytes_received_total", endpoint,
                                   "Response bytes on the wire");
    it = per_endpoint_.emplace(endpoint, std::move(m)).first;
  }
  return it->second;
}

void Transport::register_endpoint(const std::string& name, Handler handler) {
  endpoints_[name] = std::move(handler);
  metrics_for(name);  // pre-resolve the handles off the hot path
}

void Transport::unregister_endpoint(const std::string& name) {
  endpoints_.erase(name);
}

double Transport::sample_latency() {
  const double span = config_.latency_ms_max - config_.latency_ms_min;
  const double u = static_cast<double>(rng_.uniform(1'000'000)) / 1e6;
  return config_.latency_ms_min + span * u;
}

bool Transport::leg_dropped() {
  if (config_.drop_rate <= 0.0) return false;
  // Two independent legs, overall loss == drop_rate:
  //   p_leg = 1 - sqrt(1 - drop_rate).
  const double p_leg = 1.0 - std::sqrt(1.0 - config_.drop_rate);
  const double roll = static_cast<double>(rng_.uniform(1'000'000)) / 1e6;
  return roll < p_leg;
}

CallResult Transport::call(const std::string& endpoint, ByteView request) {
  if (rtt_ms_ == nullptr) {
    rtt_ms_ = &obs::MetricsRegistry::global().histogram(
        "cbl_net_rtt_ms", obs::Histogram::default_latency_ms_buckets(), {},
        "Simulated round-trip time of delivered calls");
  }
  EndpointMetrics& ep = metrics_for(endpoint);
  ep.calls->inc();

  CallResult result;
  result.rtt_ms = sample_latency() + sample_latency();  // both legs

  const auto it = endpoints_.find(endpoint);
  if (it == endpoints_.end()) {
    ep.drops->inc();
    return result;
  }
  if (leg_dropped()) {  // request leg: the server never sees the frame
    ep.drops->inc();
    ep.drops_request->inc();
    return result;
  }

  // The request made it onto the wire and into the handler; its bytes
  // count as sent even if the response leg is lost below.
  ep.bytes_sent->inc(request.size());
  auto response = it->second(request);
  if (!response) {
    // Handler rejection: the endpoint saw the frame and refused it. A
    // distinct outcome — not an empty success, not a drop.
    ep.rejected->inc();
    result.delivered = true;
    result.rejected = true;
    rtt_ms_->observe(result.rtt_ms);
    return result;
  }
  if (leg_dropped()) {  // response leg: the server worked for nothing
    ep.drops->inc();
    ep.drops_response->inc();
    return result;
  }
  result.delivered = true;
  rtt_ms_->observe(result.rtt_ms);
  result.response = std::move(*response);
  ep.bytes_received->inc(result.response.size());
  return result;
}

}  // namespace cbl::net
