// Unit tests for the observability subsystem: bucket boundaries and
// percentile math against a reference computation, manual-clock span
// timing, and exposition-format goldens.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

#include "obs/obs.h"

namespace obs = cbl::obs;

namespace {

// Reference quantile: the same fixed-bucket estimator, computed the slow
// way from raw observations bucketed independently of the Histogram.
double reference_quantile(const std::vector<double>& bounds,
                          const std::vector<double>& observations, double q) {
  std::vector<std::uint64_t> counts(bounds.size() + 1, 0);
  for (const double v : observations) {
    const auto it = std::lower_bound(bounds.begin(), bounds.end(), v);
    ++counts[static_cast<std::size_t>(it - bounds.begin())];
  }
  return obs::quantile_from_buckets(bounds, counts, q);
}

}  // namespace

TEST(ObsHistogram, LogBucketsAreGeometric) {
  const auto bounds = obs::Histogram::log_buckets(1.0, 1000.0, 1);
  ASSERT_EQ(bounds.size(), 4u);  // 1, 10, 100, 1000
  // Decade bounds are bit-exact, not merely close: the generator computes
  // each bound independently instead of by repeated multiplication.
  EXPECT_DOUBLE_EQ(bounds[0], 1.0);
  EXPECT_DOUBLE_EQ(bounds[1], 10.0);
  EXPECT_DOUBLE_EQ(bounds[2], 100.0);
  EXPECT_DOUBLE_EQ(bounds[3], 1000.0);
  EXPECT_THROW(obs::Histogram::log_buckets(0.0, 10.0, 5),
               std::invalid_argument);
  EXPECT_THROW(obs::Histogram::log_buckets(10.0, 1.0, 5),
               std::invalid_argument);
}

TEST(ObsHistogram, DefaultLatencyDecadeBoundsAreExact) {
  // Regression pin for the log-bucket drift bug: the old generator
  // multiplied the running bound by 10^(1/per_decade) each step, and by
  // the top of the 1us..100s grid the accumulated ulp error had pushed
  // every decade bound high (10.0 printed as 10.00000000000002). An
  // observation of exactly 10.0 still bucketed correctly under "le"
  // semantics, but one at the true boundary successor flipped buckets,
  // and quantiles interpolated against the drifted edges. Pin the grid.
  const auto& bounds = obs::Histogram::default_latency_ms_buckets();
  ASSERT_EQ(bounds.size(), 41u);  // 1e-3 .. 1e5, 5 per decade
  for (std::size_t i = 0; i < bounds.size(); i += 5) {
    const double decade = std::pow(10.0, static_cast<double>(i / 5) - 3.0);
    EXPECT_DOUBLE_EQ(bounds[i], decade) << "i=" << i;
  }
  EXPECT_DOUBLE_EQ(bounds[3 * 5], 1.0);     // 1 ms
  EXPECT_DOUBLE_EQ(bounds[6 * 5], 1000.0);  // 1 s
  EXPECT_DOUBLE_EQ(bounds.back(), 1e5);     // 100 s
}

TEST(ObsHistogram, SparseTailP999Golden) {
  // p999 on a sparse tail: 997 fast observations, 2 in a mid bucket, 1
  // in the last finite bucket. The estimator must land the 999th rank
  // inside the tail bucket, not interpolate below it, and must clamp
  // overflow-rank quantiles to the largest finite bound.
  obs::MetricsRegistry registry;
  auto& h = registry.histogram("h", {1.0, 2.0, 4.0, 8.0});
  for (int i = 0; i < 997; ++i) h.observe(0.5);
  h.observe(6.0);
  h.observe(6.0);
  h.observe(9.0);  // overflow bucket

  // rank(0.5) = 500 of 997 in [0,1): exact linear interpolation.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 500.0 / 997.0);
  // rank(0.999) = 999 = the second 6.0: tops out the (4, 8] bucket.
  EXPECT_DOUBLE_EQ(h.p999(), 8.0);
  // rank(0.9995) = 999.5 crosses into overflow: clamps to 8.0.
  EXPECT_DOUBLE_EQ(h.quantile(0.9995), 8.0);
  // rank(0.998) = 998 crosses in the (4, 8] bucket holding both 6.0s.
  EXPECT_DOUBLE_EQ(h.quantile(0.998), 4.0 + 4.0 * (998.0 - 997.0) / 2.0);
  EXPECT_LE(h.p99(), h.p999());
}

TEST(ObsHistogram, P999AgreesWithBruteForceSort) {
  const auto bounds = obs::Histogram::log_buckets(0.01, 1e3, 5);
  obs::MetricsRegistry registry;
  auto& h = registry.histogram("h", bounds);
  std::vector<double> observations;
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;  // deterministic LCG-ish mix
  for (int i = 0; i < 2000; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const double u =
        static_cast<double>(state >> 11) / 9007199254740992.0;  // [0,1)
    const double v = 0.05 * std::exp(6.0 * u);  // log-uniform 0.05..~20
    observations.push_back(v);
    h.observe(v);
  }
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    // Bucket estimator vs the same estimator fed independently bucketed
    // raw data (exact agreement) ...
    EXPECT_DOUBLE_EQ(h.quantile(q),
                     reference_quantile(bounds, observations, q))
        << "q=" << q;
    // ... and vs a brute-force sort, within one bucket's width. The
    // estimator targets 1-based rank ceil(q*n); that order statistic
    // lies inside the interpolated bucket, so the estimate is within a
    // factor of the bucket ratio of the exact value.
    std::vector<double> sorted = observations;
    std::sort(sorted.begin(), sorted.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(sorted.size())));
    const double exact = sorted[std::min(rank, sorted.size()) - 1];
    const double step = std::pow(10.0, 1.0 / 5.0);
    EXPECT_GE(h.quantile(q), exact / step) << "q=" << q;
    EXPECT_LE(h.quantile(q), exact * step) << "q=" << q;
  }
}

TEST(ObsHistogram, BucketBoundariesUseLessOrEqualSemantics) {
  obs::MetricsRegistry registry;
  auto& h = registry.histogram("h", {1.0, 10.0, 100.0});
  h.observe(0.5);    // first bucket
  h.observe(1.0);    // exactly on a bound -> that bucket (le semantics)
  h.observe(1.0001); // second bucket
  h.observe(10.0);   // second bucket
  h.observe(100.0);  // third bucket
  h.observe(250.0);  // overflow
  const auto counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_NEAR(h.sum(), 0.5 + 1.0 + 1.0001 + 10.0 + 100.0 + 250.0, 1e-9);
}

TEST(ObsHistogram, QuantilesMatchReferenceComputation) {
  const auto bounds = obs::Histogram::log_buckets(0.1, 1e4, 5);
  obs::MetricsRegistry registry;
  auto& h = registry.histogram("h", bounds);

  std::vector<double> observations;
  // A bimodal latency distribution: a fast mode around 1 and a slow tail.
  for (int i = 1; i <= 900; ++i) {
    observations.push_back(0.5 + 0.001 * i);
  }
  for (int i = 1; i <= 100; ++i) {
    observations.push_back(50.0 + i);
  }
  for (const double v : observations) h.observe(v);

  for (const double q : {0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(h.quantile(q),
                     reference_quantile(bounds, observations, q))
        << "q=" << q;
  }
  // Sanity: the p50 sits in the fast mode, the p99 in the slow tail.
  EXPECT_LT(h.p50(), 2.0);
  EXPECT_GT(h.p99(), 50.0);
  // Monotone in q.
  EXPECT_LE(h.p50(), h.p90());
  EXPECT_LE(h.p90(), h.p99());
}

TEST(ObsHistogram, QuantileEdgeCases) {
  obs::MetricsRegistry registry;
  auto& h = registry.histogram("h", {1.0, 2.0});
  EXPECT_EQ(h.quantile(0.5), 0.0);  // empty histogram
  h.observe(1e9);                   // overflow bucket only
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 2.0);  // clamps to the largest bound
}

TEST(ObsRegistry, CountersAndGaugesRoundTrip) {
  obs::MetricsRegistry registry;
  auto& c = registry.counter("cbl_test_total", {{"k", "v"}});
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  // Same (name, labels) -> same handle; different labels -> different.
  EXPECT_EQ(&registry.counter("cbl_test_total", {{"k", "v"}}), &c);
  EXPECT_NE(&registry.counter("cbl_test_total", {{"k", "w"}}), &c);

  auto& g = registry.gauge("cbl_test_gauge");
  g.set(2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
}

TEST(ObsTrace, ManualClockSpansAreDeterministic) {
  obs::MetricsRegistry registry;
  obs::ManualClock clock;
  registry.set_clock(&clock);

  {
    obs::ScopedSpan span("unit.work", registry);
    clock.advance_ms(25);
  }
  {
    obs::ScopedSpan span("unit.work", registry);
    clock.advance_ms(75);
  }

  auto& h = registry.histogram(obs::kSpanHistogramName,
                               obs::Histogram::default_latency_ms_buckets(),
                               {{"span", "unit.work"}});
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.sum(), 100.0);
  registry.set_clock(nullptr);  // restore default steady clock
}

TEST(ObsTrace, RingBufferKeepsNewestEvents) {
  obs::MetricsRegistry registry;
  obs::ManualClock clock;
  registry.set_clock(&clock);
  obs::TraceLog log(3);
  obs::set_trace_log(&log);
  for (int i = 0; i < 5; ++i) {
    obs::ScopedSpan span("ring.work", registry);
    clock.advance_ns(static_cast<std::uint64_t>(i + 1));
  }
  obs::set_trace_log(nullptr);
  EXPECT_EQ(log.recorded(), 5u);
  const auto events = log.snapshot();
  ASSERT_EQ(events.size(), 3u);
  // Oldest-first order, holding the last three spans (durations 3, 4, 5).
  EXPECT_EQ(events[0].duration_ns, 3u);
  EXPECT_EQ(events[1].duration_ns, 4u);
  EXPECT_EQ(events[2].duration_ns, 5u);
}

TEST(ObsExport, PrometheusGolden) {
  obs::MetricsRegistry registry;
  registry.counter("cbl_demo_total", {{"result", "ok"}}, "Demo counter")
      .inc(3);
  registry.gauge("cbl_demo_gauge", {}, "Demo gauge").set(1.5);
  auto& h = registry.histogram("cbl_demo_ms", {1.0, 10.0}, {}, "Demo hist");
  h.observe(0.5);
  h.observe(0.7);
  h.observe(5.0);
  h.observe(50.0);

  const std::string expected =
      "# HELP cbl_demo_gauge Demo gauge\n"
      "# TYPE cbl_demo_gauge gauge\n"
      "cbl_demo_gauge 1.5\n"
      "# HELP cbl_demo_ms Demo hist\n"
      "# TYPE cbl_demo_ms histogram\n"
      "cbl_demo_ms_bucket{le=\"1\"} 2\n"
      "cbl_demo_ms_bucket{le=\"10\"} 3\n"
      "cbl_demo_ms_bucket{le=\"+Inf\"} 4\n"
      "cbl_demo_ms_sum 56.2\n"
      "cbl_demo_ms_count 4\n"
      "# HELP cbl_demo_total Demo counter\n"
      "# TYPE cbl_demo_total counter\n"
      "cbl_demo_total{result=\"ok\"} 3\n";
  EXPECT_EQ(obs::to_prometheus(registry), expected);
}

TEST(ObsExport, JsonGolden) {
  obs::MetricsRegistry registry;
  registry.counter("cbl_demo_total", {{"result", "ok"}}).inc(3);
  auto& h = registry.histogram("cbl_demo_ms", {1.0, 10.0});
  h.observe(0.5);
  h.observe(5.0);

  const std::string expected =
      "{\"counters\":[{\"name\":\"cbl_demo_total\",\"labels\":"
      "{\"result\":\"ok\"},\"value\":3}],\"gauges\":[],\"histograms\":["
      "{\"name\":\"cbl_demo_ms\",\"labels\":{},\"count\":2,\"sum\":5.5,"
      "\"p50\":1,\"p90\":8.2,\"p99\":9.82,\"buckets\":["
      "{\"le\":1,\"count\":1},{\"le\":10,\"count\":1}]}]}";
  EXPECT_EQ(obs::to_json(registry), expected);
}

TEST(ObsExport, EscapesLabelValues) {
  obs::MetricsRegistry registry;
  registry.counter("cbl_esc_total", {{"path", "a\"b\\c"}}).inc();
  const std::string text = obs::to_prometheus(registry);
  EXPECT_NE(text.find("path=\"a\\\"b\\\\c\""), std::string::npos);
}

TEST(ObsExport, FindMetricAndSnapshotQuantile) {
  obs::MetricsRegistry registry;
  registry.counter("cbl_x_total", {{"k", "v"}}).inc(7);
  auto& h = registry.histogram("cbl_x_ms", {1.0, 10.0});
  h.observe(0.5);
  h.observe(5.0);
  const auto samples = registry.snapshot();

  const auto* c = obs::find_metric(samples, "cbl_x_total", {{"k", "v"}});
  ASSERT_NE(c, nullptr);
  EXPECT_DOUBLE_EQ(c->value, 7.0);
  EXPECT_EQ(obs::find_metric(samples, "cbl_x_total"), nullptr);  // labels
  EXPECT_EQ(obs::find_metric(samples, "cbl_missing"), nullptr);

  const auto* hist = obs::find_metric(samples, "cbl_x_ms");
  ASSERT_NE(hist, nullptr);
  // Snapshot quantiles reproduce the live histogram's exactly.
  EXPECT_DOUBLE_EQ(obs::snapshot_quantile(*hist, 0.5), h.quantile(0.5));
  EXPECT_DOUBLE_EQ(obs::snapshot_quantile(*hist, 0.999), h.p999());
  EXPECT_DOUBLE_EQ(obs::snapshot_quantile(*c, 0.5), 0.0);  // non-histogram
}

TEST(ObsExport, TraceJson) {
  std::vector<obs::TraceEvent> events = {{"x", 10, 5}};
  EXPECT_EQ(obs::trace_to_json(events),
            "[{\"span\":\"x\",\"start_ns\":10,\"duration_ns\":5}]");
}

TEST(ObsRegistry, ConcurrentIncrementsDoNotRace) {
  obs::MetricsRegistry registry;
  auto& c = registry.counter("cbl_mt_total");
  auto& h = registry.histogram("cbl_mt_ms", obs::Histogram::log_buckets(
                                                0.1, 100.0, 3));
  std::vector<std::thread> threads;
  constexpr int kThreads = 8, kIters = 5'000;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        c.inc();
        h.observe(0.1 * ((t + i) % 100 + 1));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kIters);
}
