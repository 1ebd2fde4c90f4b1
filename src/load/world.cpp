#include "load/world.h"

#include <utility>

namespace cbl::load {

bool Tally::count(const net::ResilientClient::Outcome& out, bool listed) {
  switch (out.freshness) {
    case net::Freshness::kFresh: ++fresh; break;
    case net::Freshness::kStaleCache: ++stale_cache; break;
    case net::Freshness::kPrefixOnly: ++prefix_only; break;
    case net::Freshness::kUnavailable: ++unavailable; break;
  }
  if (out.verdict == net::ResilientClient::Outcome::Verdict::kUnknown ||
      out.listed() == listed) {
    return true;
  }
  ++wrong;
  return false;
}

World::ClockInstall::ClockInstall(const obs::Clock& clock) {
  obs::MetricsRegistry::global().set_clock(&clock);
}

World::ClockInstall::~ClockInstall() {
  obs::MetricsRegistry::global().set_clock(nullptr);
}

World::Endpoint::Endpoint(std::string name, double service_ms, unsigned slots)
    : name(std::move(name)), queue(service_ms, slots) {}

World::World(std::span<const std::string> listed,
             std::vector<std::string> endpoints, double latency_min_ms,
             double latency_max_ms, double service_ms, unsigned slots,
             chaos::FaultPlan plan, Streams streams)
    : streams_(std::move(streams)),
      listed_(listed.begin(), listed.end()),
      transport_(net::TransportConfig{.latency_ms_min = latency_min_ms,
                                      .latency_ms_max = latency_max_ms,
                                      .drop_rate = 0.0},
                 streams_.transport),
      injector_(transport_, std::move(plan), &clock_) {
  for (std::size_t i = 0; i < endpoints.size(); ++i) {
    endpoints_.emplace_back(endpoints[i], service_ms, slots);
    start(i);
    injector_.set_restart_hook(endpoints[i], [this, i] {
      // Power loss, not graceful shutdown: the MemFs reverts to its
      // durable view and the rebuilt process recovers from that — no
      // in-memory state crosses the crash.
      endpoints_[i].fs.crash();
      start(i);
    });
  }
  client_.emplace(injector_, std::move(endpoints), streams_.client,
                  net::ResilienceConfig(), &clock_);
  client_->sync();
}

void World::start(std::size_t i) {
  Endpoint& e = endpoints_[i];
  e.node.reset();  // tear the old handler down first
  // The old server, whose epoch listener points at the old log, is
  // destroyed before the log is re-created over the same file.
  e.server.emplace(oprf::Oracle::fast(), kLambda, streams_.server);
  e.epoch_log.emplace(e.fs, "epoch.jrnl");
  // Brand-new process state, except the epoch floor recovered from the
  // disk. Without it a rebuilt server would re-number epochs from
  // scratch and could re-serve an epoch number clients already cached
  // buckets for — under a different mask, turning their caches into
  // silently wrong answers.
  const std::uint64_t floor = e.epoch_log->recover();
  if (floor > 0) e.server->restore_epoch(floor);
  e.server->set_epoch_listener(
      [log = &*e.epoch_log](std::uint64_t epoch) { log->note(epoch); });
  e.server->setup(listed_);
  e.node.emplace(transport_, e.name, *e.server, oprf::Oracle::fast());
  e.queue.install(transport_, *e.node);
}

}  // namespace cbl::load
