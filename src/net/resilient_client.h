// The resilience policy layer over RemoteBlocklistClient: what a wallet
// actually embeds. The paper's query service is hit on every outgoing
// transaction, so the client must survive the full WAN failure menu —
// flaky links, slow providers, crashed nodes, rate-limit storms —
// without ever inventing a membership verdict. It is the only layer
// that retries: RemoteBlocklistClient makes one channel call per request.
//
// Policy stack, outermost first:
//   deadline    — every logical query has a virtual-time budget; an
//                 attempt whose RTT exceeds the per-attempt timeout is a
//                 failure even if a response eventually "arrived".
//   breaker     — per-endpoint circuit breaker (closed/open/half-open).
//                 A tripped endpoint is skipped entirely: no traffic,
//                 no blocked wallet, until a half-open probe heals it.
//   hedging     — when the primary answers slowly (or not at all) and
//                 another provider is registered, the query is hedged
//                 to the next endpoint and the faster answer wins.
//   backoff     — exponential with decorrelated jitter between retries;
//                 kRateLimited honours the server's retry-after hint
//                 instead of hammering.
//   degradation — when every provider is down or tripped, the client
//                 answers from what it still has, tagged honestly:
//                 stale response cache, then prefix-list-only, then an
//                 explicit kUnavailable. Never a silent failure, never
//                 a fabricated verdict.
//
// Time is virtual: with a ManualClock the client *drives* it (advancing
// by each attempt's RTT and by backoff sleeps), which is what makes
// chaos runs deterministic and replayable from a seed. Without one it
// reads the obs registry clock and backoff becomes accounting-only.
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/thread_safety.h"
#include "net/service_node.h"
#include "obs/clock.h"
#include "tlog/auditor.h"

namespace cbl::net {

/// How trustworthy an answer is — the degradation ladder, top to bottom.
enum class Freshness : std::uint8_t {
  kFresh = 0,       // a provider answered the private query just now
  kStaleCache = 1,  // replayed from the local response cache
  kPrefixOnly = 2,  // decided by the (public) prefix list alone
  kUnavailable = 3, // nothing to answer from — explicit failure
};
const char* to_string(Freshness freshness);

struct BreakerConfig {
  /// Consecutive failures that trip the breaker open.
  unsigned failure_threshold = 5;
  /// How long an open breaker blocks traffic before probing.
  double open_ms = 1000.0;
  /// Successful half-open probes required to close again.
  unsigned half_open_successes = 1;
};

/// Per-endpoint circuit breaker. State is exported as the gauge
/// cbl_net_breaker_state{endpoint} (0 closed / 1 open / 2 half-open)
/// and every transition as cbl_net_breaker_transitions_total{endpoint,to}.
///
/// Not internally synchronized: every instance lives inside a
/// ResilientClient::Provider, and all access runs under the owning
/// client's mutex_.
class CircuitBreaker {
 public:
  enum class State : std::uint8_t { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

  CircuitBreaker(const std::string& endpoint, BreakerConfig config);

  /// May traffic flow right now? An open breaker whose cool-off has
  /// elapsed transitions to half-open here and admits one probe.
  bool allow(double now_ms);
  void on_success(double now_ms);
  void on_failure(double now_ms);
  State state() const { return state_; }

 private:
  void transition(State to, double now_ms);

  BreakerConfig config_;
  State state_ = State::kClosed;
  unsigned consecutive_failures_ = 0;
  unsigned half_open_successes_ = 0;
  double opened_at_ms_ = 0.0;
  obs::Gauge* state_gauge_;
  obs::Counter* to_closed_;
  obs::Counter* to_open_;
  obs::Counter* to_half_open_;
};

struct ResilienceConfig {
  /// Transport attempts (across all providers) per logical query.
  unsigned max_attempts = 6;
  /// Per-attempt RTT budget: slower responses count as timeouts.
  double attempt_timeout_ms = 400.0;
  /// Whole-query virtual-time budget, retries and backoff included.
  double call_deadline_ms = 3000.0;
  /// Decorrelated-jitter backoff: sleep ~ U(base, 3 * previous), capped.
  double backoff_base_ms = 25.0;
  double backoff_cap_ms = 1000.0;
  /// Minimum backoff after kRateLimited when the server sent no hint.
  double rate_limit_floor_ms = 250.0;
  /// Hedge to the next provider when the primary's RTT exceeds this
  /// (0 disables hedging).
  double hedge_after_ms = 150.0;
  BreakerConfig breaker;
  /// Response cache entries kept for degraded answers (FIFO eviction).
  std::size_t response_cache_max = 4096;
};

/// A membership client that composes every policy above over one or
/// more provider endpoints reachable through a Channel (a bare
/// Transport, or a chaos::FaultInjector wrapping one).
class ResilientClient {
 public:
  ResilientClient(Channel& channel, std::vector<std::string> endpoints,
                  Rng& rng, ResilienceConfig config = ResilienceConfig(),
                  obs::ManualClock* clock = nullptr);

  struct Outcome {
    enum class Verdict : std::uint8_t { kNotListed, kListed, kUnknown };
    Verdict verdict = Verdict::kUnknown;
    Freshness freshness = Freshness::kUnavailable;
    bool listed() const { return verdict == Verdict::kListed; }
    /// Endpoint that produced a fresh answer; empty otherwise.
    std::string provider;
    unsigned attempts = 0;  // transport attempts, hedges included
    unsigned hedges = 0;    // hedged duplicate requests issued
    double latency_ms = 0;  // virtual time consumed, backoff included
    /// Kind of the last attempt failure (meaningful when degraded).
    RemoteBlocklistClient::QueryOutcome::Kind last_error =
        RemoteBlocklistClient::QueryOutcome::Kind::kUnreachable;
  };

  /// One membership query under the full policy stack. Never throws on
  /// network trouble; the outcome says how good the answer is.
  /// Thread-safe; concurrent queries serialize on the client's one lock
  /// (this is a wallet-side component — the latch and cache must be
  /// correct, parallel wire throughput is not a goal here).
  Outcome query(std::string_view address) CBL_EXCLUDES(mutex_);

  /// Connects any still-unconnected providers and syncs their prefix
  /// lists. Safe to call repeatedly (and concurrently); returns how many
  /// providers are currently connected.
  std::size_t sync() CBL_EXCLUDES(mutex_);

  /// API key forwarded to every provider client (current and future).
  void set_api_key(std::string key) CBL_EXCLUDES(mutex_);

  /// Pins `provider_pk` as `endpoint`'s transparency signing key. From
  /// then on every sync() runs a verified delta sync (checkpoint,
  /// consistency, signed deltas, audit path) against that key, and any
  /// AUDIT failure — bad signature, log inconsistency, equivocation,
  /// root mismatch — permanently distrusts the endpoint: it is skipped
  /// for queries and prefix-only answers, and the degradation ladder
  /// serves what remains. Transport damage never distrusts.
  ///
  /// With a non-null `store` the auditor becomes durable: it recovers
  /// its mirror, seen roots, equivocation evidence and distrust latch
  /// from disk (so a provider condemned before a crash stays condemned,
  /// and the next verified sync folds deltas onto the persisted cache
  /// instead of re-downloading), and persists every later state change.
  /// The store must outlive this client.
  void pin_tlog_key(const std::string& endpoint,
                    const ec::RistrettoPoint& provider_pk,
                    store::StateStore* store = nullptr)
      CBL_EXCLUDES(mutex_);

  /// The pinned endpoint's auditor (mirror state, trust flag), or
  /// nullptr when no key is pinned. The escaped pointer stays valid and
  /// safe to use off-lock: providers_ never resizes after construction
  /// and the Auditor is internally synchronized.
  const tlog::Auditor* tlog_auditor(const std::string& endpoint) const
      CBL_EXCLUDES(mutex_);
  /// True once an audit failure has condemned the endpoint: read from
  /// its auditor, so a latch recovered from the store counts too.
  bool distrusted(const std::string& endpoint) const CBL_EXCLUDES(mutex_);

  CircuitBreaker::State breaker_state(const std::string& endpoint) const
      CBL_EXCLUDES(mutex_);
  std::size_t connected_providers() const CBL_EXCLUDES(mutex_);
  double now_ms() const;

 private:
  struct Provider {
    std::string endpoint;
    std::optional<RemoteBlocklistClient> client;
    CircuitBreaker breaker;
    bool prefix_synced = false;
    /// Present once a key is pinned. Heap-held (the Auditor owns a
    /// Mutex, so it is immovable) — which also keeps the pointer
    /// escaped via tlog_auditor() stable for the client's lifetime.
    std::unique_ptr<tlog::Auditor> auditor;

    /// The auditor's latch is the one record of distrust.
    bool distrusted() const { return auditor && !auditor->trusted(); }
  };
  struct AttemptResult {
    RemoteBlocklistClient::QueryOutcome outcome;
    bool timed_out = false;
  };

  bool ensure_connected(Provider& provider) CBL_REQUIRES(mutex_);
  /// Runs the verified transparency sync for a pinned provider; counts
  /// the provider as distrusted when this sync flips its auditor from
  /// trusted to distrusted.
  void tlog_sync(Provider& provider) CBL_REQUIRES(mutex_);
  AttemptResult attempt(Provider& provider, std::string_view address)
      CBL_REQUIRES(mutex_);
  void sleep_ms(double ms);
  void remember(std::string_view address, bool listed) CBL_REQUIRES(mutex_);
  Outcome degrade(std::string_view address, Outcome partial)
      CBL_REQUIRES(mutex_);
  double backoff_ms(double previous_ms) const CBL_REQUIRES(mutex_);

  /// lock:unguarded(reference bound in the ctor and never reseated; the
  /// channel itself is only driven from attempt()/ensure_connected(),
  /// which require mutex_)
  Channel& channel_;
  /// Drawn for backoff jitter; serialized under mutex_ with the rest of
  /// the query path.
  Rng& rng_ CBL_GUARDED_BY(mutex_);
  const ResilienceConfig config_;
  obs::ManualClock* const clock_;

  /// One coarse lock over all mutable client state. Held across wire
  /// attempts, so concurrent queries serialize — see query()'s contract.
  mutable cbl::Mutex mutex_;  // lock: providers, cache, rotation cursor
  /// Sized once in the constructor and never resized, so Provider
  /// addresses (including Auditor pointers escaped via tlog_auditor)
  /// stay stable for the client's lifetime.
  std::vector<Provider> providers_ CBL_GUARDED_BY(mutex_);
  std::string api_key_ CBL_GUARDED_BY(mutex_);
  /// Last fresh verdict per address (true = listed).
  std::unordered_map<std::string, bool> cache_ CBL_GUARDED_BY(mutex_);
  std::deque<std::string> cache_order_
      CBL_GUARDED_BY(mutex_);  // FIFO eviction
  /// Round-robin start among providers.
  std::size_t next_primary_ CBL_GUARDED_BY(mutex_) = 0;

  struct Metrics {
    obs::Counter* fresh;
    obs::Counter* stale_cache;
    obs::Counter* prefix_only;
    obs::Counter* unavailable;
    obs::Counter* retries;
    obs::Counter* hedges;
    obs::Counter* hedge_wins;
    obs::Counter* timeouts;
    obs::Counter* rate_limited;
    obs::Counter* backoff_ms_total;
    obs::Counter* distrusted;
  };
  // lock:unguarded(handles resolved once in the constructor; Counter
  // increments are lock-free atomics)
  Metrics metrics_;
};

}  // namespace cbl::net
