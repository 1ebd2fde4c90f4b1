// Process-wide metrics for the blocklist service: named, labelled
// counters, gauges, and fixed-bucket latency histograms behind a
// registry that snapshots for exposition (Prometheus text / JSON).
// Metric naming convention: cbl_<module>_<name> with unit suffixes
// (_total, _ms, _bytes).
//
// A registry counter is the only record of the event it counts: no
// instrumented class keeps a private copy. Counters are monotone for the
// life of the process, so readers (tests included) take deltas around
// the code they measure.
//
// Hot-path cost model: instrumented classes resolve their handles once
// (registry lookup takes a mutex) and then increment lock-free atomics.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_safety.h"
#include "obs/clock.h"

namespace cbl::obs {

/// Sorted key/value label set, e.g. {{"method", "query"}}.
using Labels = std::vector<std::pair<std::string, std::string>>;

class MetricsRegistry;

/// Quantile estimate over fixed buckets: `counts` holds per-bucket
/// (non-cumulative) counts aligned with ascending upper `bounds`, plus a
/// final +Inf overflow slot. Linear interpolation inside the bucket that
/// crosses the target rank; 0 for empty data; the overflow bucket clamps
/// to the largest finite bound. Shared by Histogram::quantile and the
/// exporters so snapshots reproduce live quantiles exactly.
double quantile_from_buckets(const std::vector<double>& bounds,
                             const std::vector<std::uint64_t>& counts,
                             double q);

class Counter {
 public:
  void inc(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  Counter() = default;
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  Gauge() = default;
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram with cumulative-"le" semantics (Prometheus
/// style): counts_[i] counts observations <= bounds_[i]... actually
/// counts_[i] holds the non-cumulative count of the i-th bucket and the
/// final slot is the +Inf overflow bucket; exposition accumulates.
class Histogram {
 public:
  /// Log-spaced upper bounds covering [min, max] with `per_decade`
  /// buckets per factor of 10 — the right shape for latencies spanning
  /// microseconds to seconds.
  static std::vector<double> log_buckets(double min, double max,
                                         unsigned per_decade = 5);

  /// Default latency scale: 1 us .. 100 s, in milliseconds.
  static const std::vector<double>& default_latency_ms_buckets();

  void observe(double v);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }

  /// Quantile estimate in [0,1] by linear interpolation inside the
  /// bucket that crosses the target rank (the textbook fixed-bucket
  /// estimator; exact when observations sit on bucket bounds). Returns
  /// 0 for an empty histogram; the overflow bucket reports its lower
  /// bound (the largest finite bound).
  double quantile(double q) const;
  double p50() const { return quantile(0.50); }
  double p90() const { return quantile(0.90); }
  double p99() const { return quantile(0.99); }
  double p999() const { return quantile(0.999); }

  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket (non-cumulative) counts; last element is +Inf overflow.
  std::vector<std::uint64_t> bucket_counts() const;

 private:
  friend class MetricsRegistry;
  explicit Histogram(std::vector<double> bounds);

  std::vector<double> bounds_;  // ascending upper bounds
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;  // bounds_.size()+1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// One exported sample family, ready for exposition.
struct MetricSnapshot {
  enum class Kind { kCounter, kGauge, kHistogram };
  Kind kind = Kind::kCounter;
  std::string name;
  Labels labels;
  std::string help;
  // Counter / gauge:
  double value = 0.0;
  // Histogram:
  std::vector<double> bounds;
  std::vector<std::uint64_t> bucket_counts;  // aligned with bounds, +Inf last
  std::uint64_t count = 0;
  double sum = 0.0;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry all built-in instrumentation records to.
  static MetricsRegistry& global();

  /// Returns the counter for (name, labels), creating it on first use.
  /// The reference stays valid for the registry's lifetime — cache it.
  Counter& counter(const std::string& name, const Labels& labels = {},
                   const std::string& help = {});
  Gauge& gauge(const std::string& name, const Labels& labels = {},
               const std::string& help = {});
  /// `bounds` must be non-empty ascending upper bounds; only the first
  /// call for a (name, labels) pair sets them.
  Histogram& histogram(const std::string& name, std::vector<double> bounds,
                       const Labels& labels = {},
                       const std::string& help = {});

  /// The clock spans and timers read. Never null; defaults to steady.
  void set_clock(const Clock* clock) {
    clock_.store(clock ? clock : &SteadyClock::instance(),
                 std::memory_order_release);
  }
  const Clock& clock() const {
    return *clock_.load(std::memory_order_acquire);
  }

  /// Consistent-enough point-in-time copy of every metric, sorted by
  /// (name, labels) for stable exposition.
  std::vector<MetricSnapshot> snapshot() const;

 private:
  struct Key {
    std::string name;
    Labels labels;
    bool operator<(const Key& o) const {
      if (name != o.name) return name < o.name;
      return labels < o.labels;
    }
  };
  template <typename T>
  struct Entry {
    std::unique_ptr<T> metric;
    std::string help;
  };

  // lock:unguarded(atomic pointer swap with acquire/release ordering)
  std::atomic<const Clock*> clock_{&SteadyClock::instance()};
  mutable cbl::Mutex mutex_;  // lock: the metric family maps below
  std::map<Key, Entry<Counter>> counters_ CBL_GUARDED_BY(mutex_);
  std::map<Key, Entry<Gauge>> gauges_ CBL_GUARDED_BY(mutex_);
  std::map<Key, Entry<Histogram>> histograms_ CBL_GUARDED_BY(mutex_);
};

}  // namespace cbl::obs
