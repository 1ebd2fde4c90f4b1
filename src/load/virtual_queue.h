// A bounded service queue modelled in virtual time, which the load and
// chaos harnesses put in front of a service node's frame handler. Each
// admitted query occupies the modelled server for service_ms; a query
// that would find `slots` queries' worth of backlog ahead of it is shed
// with kRateLimited and a retry-after hint, before the node sees it.
//
// Time is the obs registry clock, driven by hand in the harnesses. They
// rewind it to each arrival instant; that is safe because the queue only
// ratchets the end of its backlog forward, so a rewind reads as backlog,
// never as capacity gained. Not synchronised: install it only where one
// thread drives the transport.
#pragma once

#include <cstdint>
#include <utility>

#include "net/service_node.h"
#include "obs/obs.h"

namespace cbl::load {

class VirtualQueue {
 public:
  /// service_ms <= 0 or slots == 0 admits everything (no shedding).
  VirtualQueue(double service_ms, unsigned slots)
      : service_ms_(service_ms), slots_(slots) {}
  // wrap() hands out handlers that point at this object.
  VirtualQueue(const VirtualQueue&) = delete;
  VirtualQueue& operator=(const VirtualQueue&) = delete;

  /// A handler that runs admission on kQuery frames and passes admitted
  /// ones to `next`; every other frame, malformed ones included, goes to
  /// `next` uncharged. The queue must outlive the handler.
  net::Transport::Handler wrap(net::Transport::Handler next) {
    return [this, next = std::move(next)](ByteView frame) {
      return admit(frame, next);
    };
  }

  /// Re-registers the node's endpoint with its frame handler wrapped.
  /// Call again whenever the node is rebuilt.
  void install(net::Transport& transport, net::BlocklistServiceNode& node) {
    transport.register_endpoint(
        node.endpoint(),
        wrap([&node](ByteView frame) { return node.handle_frame(frame); }));
  }

  std::uint64_t admitted() const { return admitted_; }
  std::uint64_t shed() const { return shed_; }
  /// Virtual wait + service charged to the last admitted query, in ms.
  double last_charge_ms() const { return last_charge_ms_; }

 private:
  std::optional<Bytes> admit(ByteView frame,
                             const net::Transport::Handler& next) {
    const auto parsed = net::parse_request_frame(frame);
    if (!parsed || parsed->method != net::Method::kQuery) return next(frame);
    double wait_ms = 0.0;
    if (slots_ > 0 && service_ms_ > 0.0) {
      const double now = static_cast<double>(
                             obs::MetricsRegistry::global().clock().now_ns()) /
                         1e6;
      if (backlog_end_ms_ < now) backlog_end_ms_ = now;  // queue drained
      const double backlog_ms = backlog_end_ms_ - now;
      const double capacity_ms = service_ms_ * static_cast<double>(slots_);
      if (backlog_ms + service_ms_ > capacity_ms) {
        // Queue full: shed. The hint is how long until a slot frees up.
        ++shed_;
        const double hint_ms = backlog_ms + service_ms_ - capacity_ms;
        return net::encode_response_frame(
            net::Status::kRateLimited,
            net::encode_retry_after(static_cast<std::uint32_t>(hint_ms) + 1));
      }
      // Admitted: wait out the backlog, then take one service slot.
      wait_ms = backlog_ms;
      backlog_end_ms_ += service_ms_;
    }
    ++admitted_;
    last_charge_ms_ = wait_ms + service_ms_;
    return next(frame);
  }

  double service_ms_;
  unsigned slots_;
  double backlog_end_ms_ = 0.0;  // virtual-time end of the backlog
  std::uint64_t admitted_ = 0;
  std::uint64_t shed_ = 0;
  double last_charge_ms_ = 0.0;
};

}  // namespace cbl::load
