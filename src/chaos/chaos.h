// cbl::chaos — scripted fault injection for the simulated network.
//
// A FaultInjector wraps a net::Transport behind the same net::Channel
// call surface the clients use, and perturbs traffic according to a
// seeded FaultPlan: per-leg drops, latency spikes and heavy tails,
// response corruption and truncation, duplicate delivery, per-endpoint
// blackout windows, and endpoint crash-restart. Everything is driven by
// one ChaCha stream seeded from the plan, and all scheduling reads the
// injected (virtual) clock — so a failing chaos run replays bit-exactly
// from its printed seed.
//
// What the injector did is recorded in the global cbl::obs registry
// only: cbl_chaos_calls_total counts calls through it and
// cbl_chaos_faults_total{kind} each injected fault.
//
// The injector is a *channel* fault model, not an adversary: it damages
// frames in flight the way a lossy WAN would, which the response-frame
// checksum must turn into kMalformed (never into a wrong membership
// verdict). Lying servers are out of scope here — that is the
// verifiable-OPRF layer's problem.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "net/transport.h"
#include "obs/clock.h"

namespace cbl::chaos {

/// Half-open interval of virtual time during which an endpoint is
/// unreachable (both legs black-holed).
struct Window {
  double start_ms = 0.0;
  double end_ms = 0.0;
  bool contains(double t_ms) const { return t_ms >= start_ms && t_ms < end_ms; }
};

/// Extra latency on top of the transport's base distribution.
struct LatencyFault {
  double spike_prob = 0.0;  // chance of a fixed spike per call
  double spike_ms = 0.0;
  double tail_prob = 0.0;       // chance of a Pareto heavy-tail draw
  double tail_scale_ms = 0.0;   // Pareto scale
  double tail_alpha = 1.5;      // Pareto shape (smaller = heavier tail)
  double tail_cap_ms = 5000.0;  // sanity cap on a single tail draw
};

/// Fault mix for one endpoint (or the default for all of them).
/// Probabilities are per call and independent.
struct EndpointFaults {
  double drop_request = 0.0;   // lost before the server sees it
  double drop_response = 0.0;  // lost after the server answered
  LatencyFault latency;
  double corrupt_prob = 0.0;    // flip one random response bit
  double truncate_prob = 0.0;   // cut the response short
  double duplicate_prob = 0.0;  // deliver the request twice
  std::vector<Window> blackouts;
  /// Virtual time at which the endpoint crashes (handler torn down);
  /// negative = never.
  double crash_at_ms = -1.0;
  /// Virtual time at which the endpoint may come back; the registered
  /// restart hook runs lazily on the first call after this instant.
  /// Negative = stays down.
  double restart_at_ms = -1.0;
};

/// A complete, replayable chaos schedule.
struct FaultPlan {
  std::string name;
  std::uint64_t seed = 0;
  EndpointFaults all;  // default faults for every endpoint
  std::map<std::string, EndpointFaults> per_endpoint;  // overrides
  /// One-line human summary (name, seed, active fault classes) for
  /// failure reports: paste the seed back to replay the run.
  std::string describe() const;
};

/// The chaos channel. Wraps a concrete Transport (it needs sample_rtt()
/// and endpoint teardown, not just the call surface) and applies the
/// plan to every call flowing through.
class FaultInjector final : public net::Channel {
 public:
  /// `clock` is the virtual time source for blackout/crash scheduling;
  /// nullptr falls back to the global obs registry clock.
  FaultInjector(net::Transport& inner, FaultPlan plan,
                const obs::Clock* clock = nullptr);

  /// Installs the crash-recovery procedure for an endpoint: tear-down is
  /// the injector's job (unregister at crash_at_ms); the hook's job is to
  /// bring a FRESH service back — rebuild state, restore_epoch past every
  /// epoch already served, re-register the handler.
  void set_restart_hook(const std::string& endpoint,
                        std::function<void()> hook);

  net::CallResult call(const std::string& endpoint,
                       ByteView request) override;

  const FaultPlan& plan() const { return plan_; }
  double now_ms() const;

 private:
  struct EndpointState {
    bool crashed = false;
    bool restarted = false;
  };

  const EndpointFaults& faults_for(const std::string& endpoint) const;
  void maybe_crash_restart(const std::string& endpoint,
                           const EndpointFaults& faults);
  bool roll(double probability);
  double tail_delay_ms(const LatencyFault& latency);

  net::Transport& inner_;
  FaultPlan plan_;
  const obs::Clock* clock_;
  ChaChaRng rng_;
  std::map<std::string, EndpointState> endpoint_state_;
  std::map<std::string, std::function<void()>> restart_hooks_;

  // cbl_chaos_calls_total and cbl_chaos_faults_total{kind}, resolved once.
  obs::Counter* calls_;
  obs::Counter* fault_blackout_;
  obs::Counter* fault_drop_request_;
  obs::Counter* fault_drop_response_;
  obs::Counter* fault_corrupt_;
  obs::Counter* fault_truncate_;
  obs::Counter* fault_duplicate_;
  obs::Counter* fault_delay_;
  obs::Counter* fault_crash_;
  obs::Counter* fault_restart_;
};

}  // namespace cbl::chaos
