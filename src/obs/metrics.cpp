#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace cbl::obs {

std::vector<double> Histogram::log_buckets(double min, double max,
                                           unsigned per_decade) {
  if (!(min > 0.0) || !(max > min) || per_decade == 0) {
    throw std::invalid_argument("Histogram::log_buckets: bad range");
  }
  // Each bound is computed independently as min * 10^(i/per_decade)
  // (one rounding per bound) instead of by repeated multiplication,
  // which accumulated ~1 ulp of drift per step: the bound meant to be
  // exactly 10.0 came out as 10.00000000000002, so "le" semantics at
  // decade boundaries — and every quantile interpolated against them —
  // were off by the drift. With the default scales the decade bounds
  // are now exactly representable and exactly placed.
  std::vector<double> bounds;
  for (unsigned i = 0;; ++i) {
    const double b =
        min * std::pow(10.0, static_cast<double>(i) / per_decade);
    if (!(b < max * (1.0 + 1e-12))) break;
    bounds.push_back(b);
  }
  return bounds;
}

const std::vector<double>& Histogram::default_latency_ms_buckets() {
  static const std::vector<double> bounds = log_buckets(1e-3, 1e5, 5);
  return bounds;
}

const std::vector<double>& Histogram::default_bytes_buckets() {
  static const std::vector<double> bounds = log_buckets(1.0, 1e8, 3);
  return bounds;
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)) {
  if (bounds_.empty() || !std::is_sorted(bounds_.begin(), bounds_.end())) {
    throw std::invalid_argument("Histogram: bounds must be ascending");
  }
  counts_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) counts_[i] = 0;
}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto idx = static_cast<std::size_t>(it - bounds_.begin());
  counts_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v,
                                     std::memory_order_relaxed)) {
  }
}

double quantile_from_buckets(const std::vector<double>& bounds,
                             const std::vector<std::uint64_t>& counts,
                             double q) {
  q = std::clamp(q, 0.0, 1.0);
  std::uint64_t total = 0;
  for (const auto c : counts) total += c;
  if (total == 0 || bounds.empty()) return 0.0;
  // Target rank, 1-based; quantile(1.0) maps to the last observation.
  const double rank = q * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const std::uint64_t in_bucket = counts[i];
    if (in_bucket == 0) continue;
    const std::uint64_t next = cumulative + in_bucket;
    if (static_cast<double>(next) >= rank) {
      if (i >= bounds.size()) return bounds.back();  // overflow bucket
      const double lower = i == 0 ? 0.0 : bounds[i - 1];
      const double upper = bounds[i];
      const double position =
          (rank - static_cast<double>(cumulative)) /
          static_cast<double>(in_bucket);
      return lower + (upper - lower) * std::clamp(position, 0.0, 1.0);
    }
    cumulative = next;
  }
  return bounds.back();
}

double Histogram::quantile(double q) const {
  return quantile_from_buckets(bounds_, bucket_counts(), q);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    out[i] = counts_[i].load(std::memory_order_relaxed);
  }
  return out;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const Labels& labels,
                                  const std::string& help) {
  MutexLock lock(mutex_);
  auto& entry = counters_[Key{name, labels}];
  if (!entry.metric) {
    entry.metric.reset(new Counter());
    entry.help = help;
  }
  return *entry.metric;
}

Gauge& MetricsRegistry::gauge(const std::string& name, const Labels& labels,
                              const std::string& help) {
  MutexLock lock(mutex_);
  auto& entry = gauges_[Key{name, labels}];
  if (!entry.metric) {
    entry.metric.reset(new Gauge());
    entry.help = help;
  }
  return *entry.metric;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds,
                                      const Labels& labels,
                                      const std::string& help) {
  MutexLock lock(mutex_);
  auto& entry = histograms_[Key{name, labels}];
  if (!entry.metric) {
    entry.metric.reset(new Histogram(std::move(bounds)));
    entry.help = help;
  }
  return *entry.metric;
}

std::vector<MetricSnapshot> MetricsRegistry::snapshot() const {
  MutexLock lock(mutex_);
  std::vector<MetricSnapshot> out;
  out.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [key, entry] : counters_) {
    MetricSnapshot s;
    s.kind = MetricSnapshot::Kind::kCounter;
    s.name = key.name;
    s.labels = key.labels;
    s.help = entry.help;
    s.value = static_cast<double>(entry.metric->value());
    out.push_back(std::move(s));
  }
  for (const auto& [key, entry] : gauges_) {
    MetricSnapshot s;
    s.kind = MetricSnapshot::Kind::kGauge;
    s.name = key.name;
    s.labels = key.labels;
    s.help = entry.help;
    s.value = entry.metric->value();
    out.push_back(std::move(s));
  }
  for (const auto& [key, entry] : histograms_) {
    MetricSnapshot s;
    s.kind = MetricSnapshot::Kind::kHistogram;
    s.name = key.name;
    s.labels = key.labels;
    s.help = entry.help;
    s.bounds = entry.metric->bounds();
    s.bucket_counts = entry.metric->bucket_counts();
    s.count = entry.metric->count();
    s.sum = entry.metric->sum();
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) {
              if (a.name != b.name) return a.name < b.name;
              return a.labels < b.labels;
            });
  return out;
}

}  // namespace cbl::obs
