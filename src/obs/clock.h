// Injectable time source for the observability layer. Latency histograms
// and spans read whatever Clock the registry carries, so production code
// gets std::chrono::steady_clock while tests (and netsim-style simulated
// runs) swap in a ManualClock and get bit-exact deterministic timings.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

namespace cbl::obs {

class Clock {
 public:
  virtual ~Clock() = default;
  /// Monotonic nanoseconds since an arbitrary epoch.
  virtual std::uint64_t now_ns() const = 0;
};

/// Wall-time monotonic clock (the default).
class SteadyClock final : public Clock {
 public:
  std::uint64_t now_ns() const override {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  static const SteadyClock& instance() {
    static const SteadyClock clock;
    return clock;
  }
};

/// Test clock: time moves only when told to. Thread-safe (atomic), so
/// concurrent spans observe a consistent, monotone view.
class ManualClock final : public Clock {
 public:
  explicit ManualClock(std::uint64_t start_ns = 0) : now_ns_(start_ns) {}

  std::uint64_t now_ns() const override {
    return now_ns_.load(std::memory_order_relaxed);
  }

  void advance_ns(std::uint64_t delta) {
    now_ns_.fetch_add(delta, std::memory_order_relaxed);
  }
  void advance_ms(std::uint64_t delta) { advance_ns(delta * 1'000'000); }
  void set_ns(std::uint64_t t) { now_ns_.store(t, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> now_ns_;
};

}  // namespace cbl::obs
