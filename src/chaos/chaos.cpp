#include "chaos/chaos.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace cbl::chaos {

namespace {

std::array<std::uint8_t, 32> seed_key(std::uint64_t seed) {
  std::array<std::uint8_t, 32> key{};
  for (std::size_t i = 0; i < 8; ++i) {
    key[i] = static_cast<std::uint8_t>(seed >> (8 * i));
  }
  return key;
}

void describe_faults(std::ostringstream& out, const EndpointFaults& f) {
  if (f.drop_request > 0) out << " drop_req=" << f.drop_request;
  if (f.drop_response > 0) out << " drop_resp=" << f.drop_response;
  if (f.latency.spike_prob > 0) {
    out << " spike=" << f.latency.spike_prob << "@" << f.latency.spike_ms
        << "ms";
  }
  if (f.latency.tail_prob > 0) out << " tail=" << f.latency.tail_prob;
  if (f.corrupt_prob > 0) out << " corrupt=" << f.corrupt_prob;
  if (f.truncate_prob > 0) out << " truncate=" << f.truncate_prob;
  if (f.duplicate_prob > 0) out << " dup=" << f.duplicate_prob;
  for (const auto& w : f.blackouts) {
    out << " blackout=[" << w.start_ms << "," << w.end_ms << ")";
  }
  if (f.crash_at_ms >= 0) {
    out << " crash@" << f.crash_at_ms;
    if (f.restart_at_ms >= 0) out << " restart@" << f.restart_at_ms;
  }
}

}  // namespace

std::string FaultPlan::describe() const {
  std::ostringstream out;
  out << "plan=" << name << " seed=" << seed;
  describe_faults(out, all);
  for (const auto& [endpoint, faults] : per_endpoint) {
    out << " [" << endpoint << ":";
    std::ostringstream ep;
    describe_faults(ep, faults);
    out << (ep.str().empty() ? " none" : ep.str()) << "]";
  }
  return out.str();
}

FaultInjector::FaultInjector(net::Transport& inner, FaultPlan plan,
                             const obs::Clock* clock)
    : inner_(inner),
      plan_(std::move(plan)),
      clock_(clock),
      rng_(seed_key(plan_.seed)) {
  auto& registry = obs::MetricsRegistry::global();
  calls_ = &registry.counter("cbl_chaos_calls_total", {},
                             "Calls through the fault injector");
  const auto fault_counter = [&](const char* kind) {
    return &registry.counter("cbl_chaos_faults_total", {{"kind", kind}},
                             "Faults injected into the transport, by kind");
  };
  fault_blackout_ = fault_counter("blackout");
  fault_drop_request_ = fault_counter("drop_request");
  fault_drop_response_ = fault_counter("drop_response");
  fault_corrupt_ = fault_counter("corrupt");
  fault_truncate_ = fault_counter("truncate");
  fault_duplicate_ = fault_counter("duplicate");
  fault_delay_ = fault_counter("delay");
  fault_crash_ = fault_counter("crash");
  fault_restart_ = fault_counter("restart");
}

double FaultInjector::now_ms() const {
  const obs::Clock& clock =
      clock_ ? *clock_ : obs::MetricsRegistry::global().clock();
  return static_cast<double>(clock.now_ns()) / 1e6;
}

void FaultInjector::set_restart_hook(const std::string& endpoint,
                                     std::function<void()> hook) {
  restart_hooks_[endpoint] = std::move(hook);
}

const EndpointFaults& FaultInjector::faults_for(
    const std::string& endpoint) const {
  const auto it = plan_.per_endpoint.find(endpoint);
  return it == plan_.per_endpoint.end() ? plan_.all : it->second;
}

bool FaultInjector::roll(double probability) {
  if (probability <= 0.0) return false;
  if (probability >= 1.0) return true;
  return static_cast<double>(rng_.uniform(1'000'000)) / 1e6 < probability;
}

double FaultInjector::tail_delay_ms(const LatencyFault& latency) {
  // Pareto draw: scale * (u^(-1/alpha) - 1), u in (0, 1].
  const double u =
      (static_cast<double>(rng_.uniform(1'000'000)) + 1.0) / 1e6;
  const double draw =
      latency.tail_scale_ms * (std::pow(u, -1.0 / latency.tail_alpha) - 1.0);
  return std::min(draw, latency.tail_cap_ms);
}

void FaultInjector::maybe_crash_restart(const std::string& endpoint,
                                        const EndpointFaults& faults) {
  if (faults.crash_at_ms < 0) return;
  EndpointState& state = endpoint_state_[endpoint];
  const double now = now_ms();
  if (!state.crashed && now >= faults.crash_at_ms) {
    // The process is gone: its handler (and any in-memory server state)
    // with it. Later calls are unknown-endpoint drops.
    inner_.unregister_endpoint(endpoint);
    state.crashed = true;
    fault_crash_->inc();
  }
  if (state.crashed && !state.restarted && faults.restart_at_ms >= 0 &&
      now >= faults.restart_at_ms) {
    const auto hook = restart_hooks_.find(endpoint);
    if (hook != restart_hooks_.end()) {
      hook->second();  // rebuild fresh state + restore_epoch + re-register
      state.restarted = true;
      fault_restart_->inc();
    }
  }
}

net::CallResult FaultInjector::call(const std::string& endpoint,
                                    ByteView request) {
  calls_->inc();
  const EndpointFaults& faults = faults_for(endpoint);
  maybe_crash_restart(endpoint, faults);

  const double now = now_ms();
  for (const auto& window : faults.blackouts) {
    if (window.contains(now)) {
      // Black hole: the caller still waits out a full (priced) RTT.
      net::CallResult result;
      result.rtt_ms = inner_.sample_rtt();
      fault_blackout_->inc();
      return result;
    }
  }

  if (roll(faults.drop_request)) {
    net::CallResult result;
    result.rtt_ms = inner_.sample_rtt();
    fault_drop_request_->inc();
    return result;
  }

  net::CallResult result = inner_.call(endpoint, request);

  if (roll(faults.duplicate_prob)) {
    // The network delivered the same frame twice; the second response is
    // discarded on the client side but the server did the work (and its
    // admission budget was charged) twice.
    inner_.call(endpoint, request);
    fault_duplicate_->inc();
  }

  double extra_ms = 0.0;
  if (roll(faults.latency.spike_prob)) extra_ms += faults.latency.spike_ms;
  if (roll(faults.latency.tail_prob)) extra_ms += tail_delay_ms(faults.latency);
  if (extra_ms > 0.0) {
    result.rtt_ms += extra_ms;
    fault_delay_->inc();
  }

  if (result.delivered && roll(faults.drop_response)) {
    result.delivered = false;
    result.rejected = false;
    result.response.clear();
    fault_drop_response_->inc();
    return result;
  }

  if (result.delivered && !result.response.empty() &&
      roll(faults.corrupt_prob)) {
    const std::size_t byte = rng_.uniform(result.response.size());
    const auto bit = static_cast<std::uint8_t>(1u << rng_.uniform(8));
    result.response[byte] ^= bit;
    fault_corrupt_->inc();
  }

  if (result.delivered && !result.response.empty() &&
      roll(faults.truncate_prob)) {
    result.response.resize(rng_.uniform(result.response.size()));
    fault_truncate_->inc();
  }

  return result;
}

}  // namespace cbl::chaos
