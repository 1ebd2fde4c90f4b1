#include "net/resilient_client.h"

#include <algorithm>

namespace cbl::net {

const char* to_string(Freshness freshness) {
  switch (freshness) {
    case Freshness::kFresh:
      return "fresh";
    case Freshness::kStaleCache:
      return "stale_cache";
    case Freshness::kPrefixOnly:
      return "prefix_only";
    case Freshness::kUnavailable:
      return "unavailable";
  }
  return "unavailable";
}

CircuitBreaker::CircuitBreaker(const std::string& endpoint,
                               BreakerConfig config)
    : config_(config) {
  auto& registry = obs::MetricsRegistry::global();
  state_gauge_ = &registry.gauge(
      "cbl_net_breaker_state", {{"endpoint", endpoint}},
      "Circuit breaker state (0 closed, 1 open, 2 half-open)");
  const auto transition_counter = [&](const char* to) {
    return &registry.counter("cbl_net_breaker_transitions_total",
                             {{"endpoint", endpoint}, {"to", to}},
                             "Circuit breaker transitions by target state");
  };
  to_closed_ = transition_counter("closed");
  to_open_ = transition_counter("open");
  to_half_open_ = transition_counter("half_open");
  state_gauge_->set(0.0);
}

bool CircuitBreaker::allow(double now_ms) {
  switch (state_) {
    case State::kClosed:
      return true;
    case State::kOpen:
      if (now_ms - opened_at_ms_ >= config_.open_ms) {
        transition(State::kHalfOpen, now_ms);
        return true;
      }
      return false;
    case State::kHalfOpen:
      // Callers are sequential in this simulation, so every admitted
      // call while half-open is a probe.
      return true;
  }
  return true;
}

void CircuitBreaker::on_success(double now_ms) {
  if (state_ == State::kHalfOpen) transition(State::kClosed, now_ms);
  consecutive_failures_ = 0;
}

void CircuitBreaker::on_failure(double now_ms) {
  if (state_ == State::kHalfOpen) {
    transition(State::kOpen, now_ms);  // failed probe: cool off again
    return;
  }
  if (state_ == State::kClosed &&
      ++consecutive_failures_ >= config_.failure_threshold) {
    transition(State::kOpen, now_ms);
  }
}

void CircuitBreaker::transition(State to, double now_ms) {
  state_ = to;
  state_gauge_->set(static_cast<double>(to));
  switch (to) {
    case State::kOpen:
      opened_at_ms_ = now_ms;
      consecutive_failures_ = 0;
      to_open_->inc();
      break;
    case State::kHalfOpen:
      to_half_open_->inc();
      break;
    case State::kClosed:
      consecutive_failures_ = 0;
      to_closed_->inc();
      break;
  }
}

ResilientClient::ResilientClient(Channel& channel,
                                 std::vector<std::string> endpoints, Rng& rng,
                                 ResilienceConfig config,
                                 obs::ManualClock* clock)
    : channel_(channel), rng_(rng), config_(config), clock_(clock) {
  providers_.reserve(endpoints.size());
  for (auto& endpoint : endpoints) {
    providers_.push_back(Provider{
        endpoint, std::nullopt, CircuitBreaker(endpoint, config_.breaker),
        false, nullptr});
  }
  auto& registry = obs::MetricsRegistry::global();
  const auto answer_counter = [&](const char* freshness) {
    return &registry.counter("cbl_net_resilient_answers_total",
                             {{"freshness", freshness}},
                             "Resilient-client answers by freshness");
  };
  metrics_.fresh = answer_counter(to_string(Freshness::kFresh));
  metrics_.stale_cache = answer_counter(to_string(Freshness::kStaleCache));
  metrics_.prefix_only = answer_counter(to_string(Freshness::kPrefixOnly));
  metrics_.unavailable = answer_counter(to_string(Freshness::kUnavailable));
  metrics_.retries = &registry.counter(
      "cbl_net_resilient_retries_total", {},
      "Backoff-then-retry cycles across all queries");
  metrics_.hedges = &registry.counter(
      "cbl_net_resilient_hedges_total", {},
      "Hedged duplicate requests issued to a secondary provider");
  metrics_.hedge_wins = &registry.counter(
      "cbl_net_resilient_hedge_wins_total", {},
      "Hedged requests that beat or replaced the primary's answer");
  metrics_.timeouts = &registry.counter(
      "cbl_net_resilient_timeouts_total", {},
      "Attempts discarded for exceeding the per-attempt deadline");
  metrics_.rate_limited = &registry.counter(
      "cbl_net_resilient_rate_limited_total", {},
      "Attempts answered kRateLimited (triggers honored backoff)");
  metrics_.backoff_ms_total = &registry.counter(
      "cbl_net_resilient_backoff_ms_total", {},
      "Virtual milliseconds spent sleeping in backoff");
  metrics_.distrusted = &registry.counter(
      "cbl_tlog_providers_distrusted_total", {},
      "Providers permanently distrusted after a transparency audit "
      "failure");
}

double ResilientClient::now_ms() const {
  const obs::Clock& clock =
      clock_ ? static_cast<const obs::Clock&>(*clock_)
             : obs::MetricsRegistry::global().clock();
  return static_cast<double>(clock.now_ns()) / 1e6;
}

void ResilientClient::sleep_ms(double ms) {
  if (ms <= 0) return;
  if (clock_) clock_->advance_ns(static_cast<std::uint64_t>(ms * 1e6));
  metrics_.backoff_ms_total->inc(static_cast<std::uint64_t>(ms));
}

void ResilientClient::set_api_key(std::string key) {
  MutexLock lock(mutex_);
  api_key_ = std::move(key);
  for (auto& provider : providers_) {
    if (provider.client) provider.client->set_api_key(api_key_);
  }
}

std::size_t ResilientClient::sync() {
  MutexLock lock(mutex_);
  std::size_t connected = 0;
  for (auto& provider : providers_) {
    if (provider.distrusted()) continue;  // never talk to a condemned peer
    // The list may have changed since the last fetch.
    provider.prefix_synced = false;
    if (!ensure_connected(provider)) continue;
    ++connected;
    if (!provider.auditor) continue;
    // An audit failure latches distrust in the auditor for good (and in
    // its store, so a restart recovers it); a transport failure leaves
    // the mirror as it was until a later sync() succeeds. A provider
    // distrusted before was skipped above, so only this flip counts.
    provider.client->verified_sync(*provider.auditor);
    if (provider.distrusted()) metrics_.distrusted->inc();
  }
  return connected;
}

void ResilientClient::pin_tlog_key(const std::string& endpoint,
                                   const ec::RistrettoPoint& provider_pk,
                                   store::StateStore* store) {
  MutexLock lock(mutex_);
  for (auto& provider : providers_) {
    if (provider.endpoint == endpoint) {
      // The client's queries may read the auditor being replaced.
      if (provider.client) provider.client->forget_mirror();
      provider.auditor =
          std::make_unique<tlog::Auditor>(provider_pk, endpoint, store);
      return;
    }
  }
}

const tlog::Auditor* ResilientClient::tlog_auditor(
    const std::string& endpoint) const {
  MutexLock lock(mutex_);
  for (const auto& provider : providers_) {
    if (provider.endpoint == endpoint && provider.auditor) {
      return &*provider.auditor;
    }
  }
  return nullptr;
}

bool ResilientClient::distrusted(const std::string& endpoint) const {
  MutexLock lock(mutex_);
  for (const auto& provider : providers_) {
    if (provider.endpoint == endpoint) return provider.distrusted();
  }
  return false;
}

std::size_t ResilientClient::connected_providers() const {
  MutexLock lock(mutex_);
  std::size_t connected = 0;
  for (const auto& provider : providers_) {
    if (provider.client) ++connected;
  }
  return connected;
}

CircuitBreaker::State ResilientClient::breaker_state(
    const std::string& endpoint) const {
  MutexLock lock(mutex_);
  for (const auto& provider : providers_) {
    if (provider.endpoint == endpoint) return provider.breaker.state();
  }
  return CircuitBreaker::State::kClosed;
}

bool ResilientClient::ensure_connected(Provider& provider) {
  if (!provider.client) {
    try {
      provider.client.emplace(channel_, provider.endpoint, rng_);
    } catch (const ProtocolError&) {
      return false;
    }
    if (!api_key_.empty()) provider.client->set_api_key(api_key_);
  }
  if (!provider.prefix_synced) {
    provider.prefix_synced = provider.client->sync_prefix_list();
  }
  return true;
}

ResilientClient::AttemptResult ResilientClient::attempt(
    Provider& provider, std::string_view address) {
  AttemptResult result;
  if (!ensure_connected(provider)) {
    result.outcome.kind = RemoteBlocklistClient::QueryOutcome::Kind::kUnreachable;
    provider.breaker.on_failure(now_ms());
    return result;
  }
  result.outcome = provider.client->query(address);
  if (clock_ && result.outcome.rtt_ms > 0) {
    clock_->advance_ns(static_cast<std::uint64_t>(result.outcome.rtt_ms * 1e6));
  }
  using Kind = RemoteBlocklistClient::QueryOutcome::Kind;
  if (result.outcome.kind == Kind::kOk &&
      result.outcome.rtt_ms > config_.attempt_timeout_ms &&
      !result.outcome.resolved_locally) {
    // The answer took longer than the attempt budget: in a deployment
    // the caller has already hung up, so the response is discarded.
    result.timed_out = true;
    metrics_.timeouts->inc();
  }
  switch (result.outcome.kind) {
    case Kind::kOk:
      if (result.outcome.resolved_locally) {
        // Prefix-list fast path: no wire traffic happened, so this says
        // nothing about endpoint health — leave the breaker alone.
        break;
      }
      if (result.timed_out) {
        provider.breaker.on_failure(now_ms());
      } else {
        provider.breaker.on_success(now_ms());
      }
      break;
    case Kind::kRateLimited:
      // The server is alive and talking — back off, but don't trip the
      // breaker over it.
      metrics_.rate_limited->inc();
      break;
    case Kind::kUnreachable:
    case Kind::kMalformed:
      provider.breaker.on_failure(now_ms());
      break;
  }
  return result;
}

double ResilientClient::backoff_ms(double previous_ms) const {
  // Decorrelated jitter: sleep ~ U(base, 3 * previous), capped.
  const double base = config_.backoff_base_ms;
  const double hi = std::max(base, previous_ms * 3.0);
  const double u = static_cast<double>(rng_.uniform(1'000'000)) / 1e6;
  return std::min(config_.backoff_cap_ms, base + u * (hi - base));
}

ResilientClient::Outcome ResilientClient::query(std::string_view address) {
  using Kind = RemoteBlocklistClient::QueryOutcome::Kind;
  MutexLock lock(mutex_);
  const double start = now_ms();
  Outcome out;
  double previous_backoff = config_.backoff_base_ms;

  while (out.attempts < config_.max_attempts &&
         now_ms() - start < config_.call_deadline_ms &&
         !providers_.empty()) {
    // Primary: the first breaker-admitted provider, sticky across
    // queries, rotated when a whole round fails.
    Provider* primary = nullptr;
    std::size_t primary_index = 0;
    for (std::size_t i = 0; i < providers_.size(); ++i) {
      const std::size_t index = (next_primary_ + i) % providers_.size();
      if (providers_[index].distrusted()) continue;  // failed its audit
      if (providers_[index].breaker.allow(now_ms())) {
        primary = &providers_[index];
        primary_index = index;
        break;
      }
    }
    if (primary == nullptr) break;  // every breaker open: degrade

    AttemptResult first = attempt(*primary, address);
    ++out.attempts;
    const bool first_good =
        first.outcome.kind == Kind::kOk && !first.timed_out;

    // Hedge: when the primary is slow or failed and another provider is
    // admitted, race a duplicate and keep the faster answer.
    AttemptResult second;
    Provider* secondary = nullptr;
    const bool should_hedge =
        config_.hedge_after_ms > 0 && providers_.size() > 1 &&
        out.attempts < config_.max_attempts &&
        (!first_good || first.outcome.rtt_ms > config_.hedge_after_ms);
    if (should_hedge) {
      for (std::size_t i = 1; i < providers_.size(); ++i) {
        const std::size_t index = (primary_index + i) % providers_.size();
        if (providers_[index].distrusted()) continue;
        if (providers_[index].breaker.allow(now_ms())) {
          secondary = &providers_[index];
          break;
        }
      }
    }
    if (secondary != nullptr) {
      metrics_.hedges->inc();
      second = attempt(*secondary, address);
      ++out.attempts;
    }
    const bool second_good =
        secondary != nullptr && second.outcome.kind == Kind::kOk &&
        !second.timed_out;

    if (first_good || second_good) {
      const bool second_wins =
          second_good &&
          (!first_good || second.outcome.rtt_ms < first.outcome.rtt_ms);
      if (second_wins) metrics_.hedge_wins->inc();
      const AttemptResult& winner = second_wins ? second : first;
      out.verdict = winner.outcome.listed ? Outcome::Verdict::kListed
                                          : Outcome::Verdict::kNotListed;
      out.freshness = Freshness::kFresh;
      out.latency_ms = now_ms() - start;
      metrics_.fresh->inc();
      next_primary_ = primary_index;  // stick with a working primary
      return out;
    }

    // Round failed: record the most informative error, rotate the
    // primary, and back off before the next round — honoring any
    // retry-after hint the server sent.
    const RemoteBlocklistClient::QueryOutcome& last =
        secondary != nullptr ? second.outcome : first.outcome;
    out.last_error = last.kind;
    next_primary_ = (primary_index + 1) % providers_.size();

    double sleep = backoff_ms(previous_backoff);
    previous_backoff = sleep;
    if (first.outcome.kind == Kind::kRateLimited ||
        (secondary != nullptr &&
         second.outcome.kind == Kind::kRateLimited)) {
      double hint = config_.rate_limit_floor_ms;
      if (first.outcome.kind == Kind::kRateLimited) {
        hint = std::max(hint, static_cast<double>(first.outcome.retry_after_ms));
      }
      if (secondary != nullptr &&
          second.outcome.kind == Kind::kRateLimited) {
        hint = std::max(hint, static_cast<double>(second.outcome.retry_after_ms));
      }
      sleep = std::max(sleep, hint);
    }
    metrics_.retries->inc();
    sleep_ms(sleep);
  }

  return degrade(address, std::move(out));
}

ResilientClient::Outcome ResilientClient::degrade(std::string_view address,
                                                  Outcome partial) {
  Outcome out = std::move(partial);
  const auto digest = hash::Sha256::digest(to_bytes(address));
  // Stale: the verdict a provider's query client judged against the
  // entry's bucket as that provider last vouched for it. A condemned
  // provider's verdicts, like its prefix list, may be lies.
  for (const auto& provider : providers_) {
    if (provider.distrusted() || !provider.client) continue;
    if (const auto listed = provider.client->memoised_verdict(digest)) {
      out.verdict =
          *listed ? Outcome::Verdict::kListed : Outcome::Verdict::kNotListed;
      out.freshness = Freshness::kStaleCache;
      metrics_.stale_cache->inc();
      return out;
    }
  }
  // Prefix-list-only: a prefix miss is a definite negative even offline
  // (and leaks nothing new — the prefix list is public anyway). A prefix
  // hit decides nothing, so it cannot be answered here.
  for (const auto& provider : providers_) {
    if (provider.distrusted()) continue;  // its prefix list may be a lie
    if (provider.client && !provider.client->may_be_listed(digest)) {
      out.verdict = Outcome::Verdict::kNotListed;
      out.freshness = Freshness::kPrefixOnly;
      metrics_.prefix_only->inc();
      return out;
    }
  }
  out.verdict = Outcome::Verdict::kUnknown;
  out.freshness = Freshness::kUnavailable;
  metrics_.unavailable->inc();
  return out;
}

}  // namespace cbl::net
