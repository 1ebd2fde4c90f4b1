#include "obs/trace.h"

#include <atomic>

namespace cbl::obs {

TraceLog::TraceLog(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.reserve(capacity_);
}

void TraceLog::record(TraceEvent event) {
  MutexLock lock(mutex_);
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(event));
  } else {
    ring_[next_] = std::move(event);
  }
  next_ = (next_ + 1) % capacity_;
  ++recorded_;
}

std::vector<TraceEvent> TraceLog::snapshot() const {
  MutexLock lock(mutex_);
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_) {
    out = ring_;
  } else {
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      out.push_back(ring_[(next_ + i) % capacity_]);
    }
  }
  return out;
}

std::uint64_t TraceLog::recorded() const {
  MutexLock lock(mutex_);
  return recorded_;
}

void TraceLog::clear() {
  MutexLock lock(mutex_);
  ring_.clear();
  next_ = 0;
  recorded_ = 0;
}

namespace {
std::atomic<TraceLog*> g_trace_log{nullptr};
}  // namespace

void set_trace_log(TraceLog* log) {
  g_trace_log.store(log, std::memory_order_release);
}

TraceLog* trace_log() { return g_trace_log.load(std::memory_order_acquire); }

ScopedSpan::ScopedSpan(const char* name, MetricsRegistry& registry)
    : name_(name), registry_(&registry) {
  histogram_ = &registry_->histogram(
      kSpanHistogramName, Histogram::default_latency_ms_buckets(),
      {{"span", name_}}, "Scoped span durations in milliseconds");
  start_ns_ = registry_->clock().now_ns();
}

void ScopedSpan::finish() {
  if (!histogram_) return;
  const std::uint64_t end_ns = registry_->clock().now_ns();
  const std::uint64_t elapsed = end_ns >= start_ns_ ? end_ns - start_ns_ : 0;
  histogram_->observe(static_cast<double>(elapsed) / 1e6);
  if (TraceLog* log = trace_log()) {
    log->record(TraceEvent{name_, start_ns_, elapsed});
  }
  histogram_ = nullptr;
}

ScopedSpan::~ScopedSpan() { finish(); }

}  // namespace cbl::obs
