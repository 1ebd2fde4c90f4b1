// Scoped tracing: CBL_SPAN("oprf.evaluate") times the enclosing scope
// against the registry clock, records the duration into the
// cbl_span_duration_ms{span="..."} histogram, and (when a TraceLog is
// attached) appends a begin/duration event to a bounded ring buffer for
// post-mortem inspection.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_safety.h"
#include "obs/metrics.h"

namespace cbl::obs {

struct TraceEvent {
  std::string span;
  std::uint64_t start_ns = 0;
  std::uint64_t duration_ns = 0;
};

/// Fixed-capacity ring buffer of completed spans. Thread-safe; the
/// oldest events are overwritten once full.
class TraceLog {
 public:
  explicit TraceLog(std::size_t capacity = 1024);

  void record(TraceEvent event);
  /// Events in arrival order (oldest first).
  std::vector<TraceEvent> snapshot() const;
  std::size_t capacity() const { return capacity_; }
  /// Total events ever recorded (>= snapshot().size()).
  std::uint64_t recorded() const;
  void clear();

 private:
  const std::size_t capacity_;
  mutable cbl::Mutex mutex_;  // lock: the ring and its write cursor
  std::vector<TraceEvent> ring_ CBL_GUARDED_BY(mutex_);
  std::size_t next_ CBL_GUARDED_BY(mutex_) = 0;
  std::uint64_t recorded_ CBL_GUARDED_BY(mutex_) = 0;
};

/// Attaches/detaches the ring buffer spans feed (null detaches). The log
/// must outlive every span that might observe it.
void set_trace_log(TraceLog* log);
TraceLog* trace_log();

inline constexpr const char* kSpanHistogramName = "cbl_span_duration_ms";

/// The cbl_span_duration_ms{span=name} histogram of `registry`.
Histogram& span_histogram(const char* name,
                          MetricsRegistry& registry = MetricsRegistry::global());

/// RAII span. Prefer the CBL_SPAN macro; construct directly to target a
/// non-global registry.
class ScopedSpan {
 public:
  /// Looks the histogram up in `registry` on every construction (a map
  /// search under the registry mutex).
  explicit ScopedSpan(const char* name,
                      MetricsRegistry& registry = MetricsRegistry::global())
      : ScopedSpan(name, span_histogram(name, registry), registry) {}
  /// Times into a histogram already resolved by span_histogram() on the
  /// same registry.
  ScopedSpan(const char* name, Histogram& histogram,
             MetricsRegistry& registry = MetricsRegistry::global());
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Finishes the span early (records once; the destructor then no-ops).
  void finish();

 private:
  const char* name_;
  MetricsRegistry* registry_;
  Histogram* histogram_ = nullptr;  // null once finished
  std::uint64_t start_ns_ = 0;
};

#define CBL_OBS_CONCAT_INNER(a, b) a##b
#define CBL_OBS_CONCAT(a, b) CBL_OBS_CONCAT_INNER(a, b)
/// Times the current scope against the global registry:
/// CBL_SPAN("ceremony.vote"). The histogram is resolved once per call
/// site, on its first pass, so `name` must be fixed per site (a literal).
#define CBL_SPAN(name)                                                  \
  static ::cbl::obs::Histogram& CBL_OBS_CONCAT(cbl_span_histogram_,    \
                                               __LINE__) =             \
      ::cbl::obs::span_histogram(name);                                \
  ::cbl::obs::ScopedSpan CBL_OBS_CONCAT(cbl_span_, __LINE__)(          \
      name, CBL_OBS_CONCAT(cbl_span_histogram_, __LINE__))

}  // namespace cbl::obs
