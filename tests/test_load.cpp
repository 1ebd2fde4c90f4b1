// Deterministic unit tests for the macro-load building blocks: the
// Zipf sampler (shape vs the closed-form pmf, seed replay), the
// open-loop Poisson arrival schedule (mean/variance of gaps,
// monotonicity), SLO accounting (histogram quantiles vs brute-force
// sort), the workload model (universe layout, ground truth,
// resolution-flag ratios), and the virtual-time service queue the
// harnesses put in front of a service node.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "blocklist/generator.h"
#include "common/codec.h"
#include "common/rng.h"
#include "load/arrivals.h"
#include "load/virtual_queue.h"
#include "load/workload.h"
#include "load/zipf.h"
#include "net/service_node.h"
#include "obs/clock.h"
#include "obs/metrics.h"

namespace {

using cbl::ChaChaRng;
using cbl::load::PoissonArrivals;
using cbl::load::poisson_schedule_ns;
using cbl::load::uniform_unit;
using cbl::load::Workload;
using cbl::load::WorkloadConfig;
using cbl::load::ZipfSampler;
using cbl::obs::Histogram;

TEST(Zipf, RejectsDegenerateParameters) {
  EXPECT_THROW(ZipfSampler(0, 1.0), std::invalid_argument);
  EXPECT_THROW(ZipfSampler(10, -0.5), std::invalid_argument);
}

TEST(Zipf, PmfMatchesClosedForm) {
  const std::size_t n = 64;
  const double s = 1.1;
  ZipfSampler zipf(n, s);
  // pmf(k) = (k+1)^-s / H_{n,s} by definition; check normalization and
  // the closed-form ratio between ranks.
  double sum = 0.0;
  for (std::size_t k = 0; k < n; ++k) sum += zipf.pmf(k);
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_NEAR(zipf.pmf(0) / zipf.pmf(1), std::pow(2.0, s), 1e-12);
  EXPECT_NEAR(zipf.pmf(3) / zipf.pmf(7), std::pow(2.0, s), 1e-12);
}

TEST(Zipf, EmpiricalShapeMatchesPmf) {
  const std::size_t n = 16;
  ZipfSampler zipf(n, 1.0);
  auto rng = ChaChaRng::from_string_seed("test/zipf/shape");
  const std::size_t draws = 100'000;
  std::vector<std::uint64_t> counts(n, 0);
  for (std::size_t i = 0; i < draws; ++i) ++counts[zipf.sample(rng)];
  for (std::size_t k = 0; k < n; ++k) {
    const double freq =
        static_cast<double>(counts[k]) / static_cast<double>(draws);
    EXPECT_NEAR(freq, zipf.pmf(k), 0.01) << "rank " << k;
  }
  // Skewed: the head rank dominates the tail rank decisively.
  EXPECT_GT(counts[0], 10 * counts[n - 1]);
}

TEST(Zipf, SeedReplayIsExact) {
  ZipfSampler zipf(1024, 1.1);
  auto a = ChaChaRng::from_string_seed("test/zipf/replay");
  auto b = ChaChaRng::from_string_seed("test/zipf/replay");
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(zipf.sample(a), zipf.sample(b)) << "draw " << i;
  }
}

TEST(Zipf, ZeroSkewIsUniform) {
  const std::size_t n = 8;
  ZipfSampler zipf(n, 0.0);
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_DOUBLE_EQ(zipf.pmf(k), 1.0 / static_cast<double>(n));
  }
}

TEST(Arrivals, RejectsNonPositiveRate) {
  EXPECT_THROW(PoissonArrivals(0.0), std::invalid_argument);
  EXPECT_THROW(PoissonArrivals(-10.0), std::invalid_argument);
}

TEST(Arrivals, ScheduleIsMonotoneFromStart) {
  auto rng = ChaChaRng::from_string_seed("test/arrivals/monotone");
  const std::uint64_t start_ns = 5'000'000'000;
  PoissonArrivals arrivals(250.0, start_ns);
  std::uint64_t prev = start_ns;
  for (int i = 0; i < 10'000; ++i) {
    const std::uint64_t t = arrivals.next_ns(rng);
    ASSERT_GE(t, prev);
    prev = t;
  }
}

TEST(Arrivals, GapsAreExponentialAtTheConfiguredRate) {
  auto rng = ChaChaRng::from_string_seed("test/arrivals/exponential");
  const double rate_qps = 1000.0;  // mean gap 1 ms
  const std::size_t draws = 50'000;
  const auto schedule = poisson_schedule_ns(rate_qps, draws, rng);
  ASSERT_EQ(schedule.size(), draws);
  std::vector<double> gaps_ms;
  gaps_ms.reserve(draws);
  std::uint64_t prev = 0;
  for (const std::uint64_t t : schedule) {
    gaps_ms.push_back(static_cast<double>(t - prev) / 1e6);
    prev = t;
  }
  double mean = 0.0;
  for (const double g : gaps_ms) mean += g;
  mean /= static_cast<double>(draws);
  EXPECT_NEAR(mean, 1.0, 0.03);
  // Exponential gaps have CV = 1: the variance equals the squared mean.
  double var = 0.0;
  for (const double g : gaps_ms) var += (g - mean) * (g - mean);
  var /= static_cast<double>(draws);
  EXPECT_NEAR(var / (mean * mean), 1.0, 0.1);
}

TEST(Arrivals, SeedReplayIsExact) {
  auto a = ChaChaRng::from_string_seed("test/arrivals/replay");
  auto b = ChaChaRng::from_string_seed("test/arrivals/replay");
  EXPECT_EQ(poisson_schedule_ns(777.0, 2000, a),
            poisson_schedule_ns(777.0, 2000, b));
}

TEST(Arrivals, UniformUnitIsInHalfOpenUnitInterval) {
  auto rng = ChaChaRng::from_string_seed("test/arrivals/unit");
  for (int i = 0; i < 10'000; ++i) {
    const double u = uniform_unit(rng);
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

// SLO accounting: the log-bucket histogram the harness reports from
// must agree with a brute-force sort at p50/p99/p999 to within one
// bucket's resolution (the estimator interpolates inside the bucket
// that crosses the rank, so the exact order statistic lies within a
// step factor of the estimate).
TEST(SloAccounting, QuantilesAgreeWithBruteForceSort) {
  Histogram* hist = nullptr;
  cbl::obs::MetricsRegistry local;
  hist = &local.histogram("test_slo_latency_ms",
                          Histogram::default_latency_ms_buckets());
  std::vector<double> values;
  std::uint64_t state = 99;
  const std::size_t n = 5000;
  values.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const double u =
        static_cast<double>(state >> 11) * 0x1.0p-53;  // [0, 1)
    const double v = 0.1 * std::exp(5.0 * u);  // log-uniform 0.1..~15 ms
    values.push_back(v);
    hist->observe(v);
  }
  std::sort(values.begin(), values.end());
  const double step = std::pow(10.0, 1.0 / 5.0);  // per-decade = 5
  for (const double q : {0.50, 0.99, 0.999}) {
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n)));
    const double exact = values[std::min(rank, n) - 1];
    const double est = hist->quantile(q);
    EXPECT_GE(est, exact / step) << "q=" << q;
    EXPECT_LE(est, exact * step) << "q=" << q;
  }
  EXPECT_LE(hist->p50(), hist->p99());
  EXPECT_LE(hist->p99(), hist->p999());
}

TEST(Workload, RejectsBadUniverses) {
  auto rng = ChaChaRng::from_string_seed("test/workload/bad");
  WorkloadConfig config;
  config.unique_addresses = 1000;  // not a power of two
  config.listed_addresses = 100;
  EXPECT_THROW(Workload(config, rng), std::invalid_argument);
  config.unique_addresses = 1024;
  config.listed_addresses = 0;
  EXPECT_THROW(Workload(config, rng), std::invalid_argument);
  config.listed_addresses = 1024;  // must be strictly below the universe
  EXPECT_THROW(Workload(config, rng), std::invalid_argument);
}

TEST(Workload, UniverseLayoutAndGroundTruth) {
  auto rng = ChaChaRng::from_string_seed("test/workload/layout");
  WorkloadConfig config;
  config.unique_addresses = 256;
  config.listed_addresses = 64;
  Workload workload(config, rng);
  ASSERT_EQ(workload.addresses().size(), 256u);
  ASSERT_EQ(workload.listed().size(), 64u);
  const std::set<std::string> unique(workload.addresses().begin(),
                                     workload.addresses().end());
  EXPECT_EQ(unique.size(), 256u) << "addresses must be distinct";

  auto traffic = ChaChaRng::from_string_seed("test/workload/traffic");
  std::set<const std::string*> seen;
  std::uint64_t cache_hits = 0;
  const std::size_t draws = 50'000;
  for (std::size_t i = 0; i < draws; ++i) {
    const Workload::Query query = workload.sample(traffic);
    ASSERT_NE(query.address, nullptr);
    const auto idx = static_cast<std::size_t>(
        query.address - workload.addresses().data());
    ASSERT_LT(idx, workload.addresses().size());
    // Ground truth is positional: the listed subset is the universe
    // prefix handed to OprfServer::setup.
    EXPECT_EQ(query.listed, idx < workload.listed_count());
    // Modeled resolutions are exclusive, and prefix-local answers are
    // only modeled for clean addresses (a listed address always has its
    // prefix in the list, so it can never resolve as definitely-clean).
    if (query.cache_hit) {
      EXPECT_FALSE(query.prefix_local);
    }
    if (query.prefix_local) {
      EXPECT_FALSE(query.listed);
    }
    if (query.cache_hit) ++cache_hits;
    seen.insert(query.address);
  }
  // The multiplicative-hash rank permutation is a bijection, so heavy
  // sampling reaches the whole universe.
  EXPECT_EQ(seen.size(), workload.addresses().size());
  const double hit_rate =
      static_cast<double>(cache_hits) / static_cast<double>(draws);
  EXPECT_NEAR(hit_rate, config.cache_hit_ratio, 0.02);
}

TEST(Workload, SampleStreamReplaysExactly) {
  auto corpus = ChaChaRng::from_string_seed("test/workload/replay-corpus");
  WorkloadConfig config;
  config.unique_addresses = 128;
  config.listed_addresses = 32;
  Workload workload(config, corpus);
  auto a = ChaChaRng::from_string_seed("test/workload/replay");
  auto b = ChaChaRng::from_string_seed("test/workload/replay");
  for (int i = 0; i < 2000; ++i) {
    const auto qa = workload.sample(a);
    const auto qb = workload.sample(b);
    ASSERT_EQ(qa.address, qb.address);
    ASSERT_EQ(qa.listed, qb.listed);
    ASSERT_EQ(qa.cache_hit, qb.cache_hit);
    ASSERT_EQ(qa.prefix_local, qb.prefix_local);
  }
}

using Queue = cbl::load::VirtualQueue;

/// Points the global registry at a ManualClock for the test's lifetime;
/// the queue reads virtual time from there.
class VirtualQueue : public ::testing::Test {
 protected:
  void SetUp() override {
    cbl::obs::MetricsRegistry::global().set_clock(&clock_);
  }
  void TearDown() override {
    cbl::obs::MetricsRegistry::global().set_clock(nullptr);
  }
  cbl::obs::ManualClock clock_;
};

// The bounded queue sheds excess queries with kRateLimited instead of
// queuing unboundedly, before the node sees them, and admits again once
// the virtual-time backlog drains.
TEST_F(VirtualQueue, OverloadSheddingBoundsTheQueueThenRecovers) {
  using Kind = cbl::net::RemoteBlocklistClient::QueryOutcome::Kind;
  auto corpus_rng = ChaChaRng::from_string_seed("net-corpus");
  auto server_rng = ChaChaRng::from_string_seed("net-server");
  auto client_rng = ChaChaRng::from_string_seed("net-client");
  auto transport_rng = ChaChaRng::from_string_seed("net-transport");
  const auto corpus =
      cbl::blocklist::generate_corpus(150, corpus_rng).addresses();
  cbl::oprf::OprfServer server(cbl::oprf::Oracle::fast(), 5, server_rng);
  server.setup(corpus);
  cbl::net::Transport transport(
      cbl::net::TransportConfig{
          .latency_ms_min = 1, .latency_ms_max = 10, .drop_rate = 0.0},
      transport_rng);
  Queue queue(/*service_ms=*/10.0, /*slots=*/2);  // outlives the node
  cbl::net::BlocklistServiceNode node(transport, "scamdb", server,
                                      cbl::oprf::Oracle::fast());
  queue.install(transport, node);
  cbl::net::RemoteBlocklistClient client(transport, "scamdb", client_rng);
  const auto shed_before = queue.shed();

  // No virtual time passes between arrivals, so the 10ms-per-query
  // budget admits exactly two queries before the queue is full.
  const auto q1 = client.query(corpus[0]);
  const auto q2 = client.query(corpus[1]);
  const auto q3 = client.query(corpus[2]);
  EXPECT_EQ(q1.kind, Kind::kOk);
  EXPECT_EQ(q2.kind, Kind::kOk);
  EXPECT_EQ(q3.kind, Kind::kRateLimited);
  EXPECT_GT(q3.retry_after_ms, 0u);   // how long until a slot frees
  EXPECT_LE(q3.retry_after_ms, 11u);  // one service slot, rounded up
  EXPECT_EQ(queue.shed(), shed_before + 1);

  // Shedding spent no crypto: the backlog is unchanged, and once it
  // drains the queue admits again.
  clock_.advance_ms(50);
  const auto q4 = client.query(corpus[3]);
  EXPECT_EQ(q4.kind, Kind::kOk);
}

// Admission charges the backlog ahead of a query plus its own service
// slot, and a shed reply is the sealed kRateLimited frame carrying the
// hint a client reads.
TEST_F(VirtualQueue, ChargesBacklogAndShedsWithAHint) {
  int forwarded = 0;
  Queue queue(/*service_ms=*/10.0, /*slots=*/2);
  const auto handler = queue.wrap([&forwarded](cbl::ByteView) {
    ++forwarded;
    return std::optional<cbl::Bytes>(cbl::Bytes{0x42});
  });
  const cbl::Bytes query = {
      static_cast<std::uint8_t>(cbl::net::Method::kQuery), 1, 2, 3};

  EXPECT_EQ(handler(query), cbl::Bytes{0x42});
  EXPECT_DOUBLE_EQ(queue.last_charge_ms(), 10.0);  // idle: service only
  EXPECT_EQ(handler(query), cbl::Bytes{0x42});
  EXPECT_DOUBLE_EQ(queue.last_charge_ms(), 20.0);  // 10ms backlog ahead
  const auto shed = handler(query);
  EXPECT_EQ(forwarded, 2);
  EXPECT_EQ(queue.admitted(), 2u);
  EXPECT_EQ(queue.shed(), 1u);

  ASSERT_TRUE(shed.has_value());
  const auto frame = cbl::net::parse_response_frame(*shed);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->status, cbl::net::Status::kRateLimited);
  cbl::ByteReader r(frame->body);
  EXPECT_EQ(r.u32(), 11u);  // 20 backlog + 10 service - 20 capacity, +1
  EXPECT_TRUE(r.finish());
}

// Only well-formed kQuery frames are admitted and charged; everything
// else reaches the node as sent and leaves the backlog alone.
TEST_F(VirtualQueue, NonQueryAndMalformedFramesPassThroughUncharged) {
  std::vector<cbl::Bytes> forwarded;
  Queue queue(/*service_ms=*/10.0, /*slots=*/1);
  const auto handler = queue.wrap([&forwarded](cbl::ByteView frame) {
    forwarded.emplace_back(frame.begin(), frame.end());
    return std::optional<cbl::Bytes>();
  });
  const auto tag = [](cbl::net::Method m) {
    return static_cast<std::uint8_t>(m);
  };
  const std::vector<cbl::Bytes> frames = {
      {tag(cbl::net::Method::kInfo)},
      {tag(cbl::net::Method::kPrefixList)},
      {tag(cbl::net::Method::kTlogCheckpoint)},
      {tag(cbl::net::Method::kInfo), 0x00},  // trailing byte: malformed
      {0xff, 1, 2},                          // unknown method
      {},                                    // empty
  };
  for (int round = 0; round < 3; ++round) {
    for (const cbl::Bytes& frame : frames) handler(frame);
  }
  ASSERT_EQ(forwarded.size(), 3 * frames.size());
  for (std::size_t i = 0; i < forwarded.size(); ++i) {
    EXPECT_EQ(forwarded[i], frames[i % frames.size()]);
  }
  EXPECT_EQ(queue.admitted(), 0u);
  EXPECT_EQ(queue.shed(), 0u);

  // One slot, no backlog charged by the frames above: the next query is
  // admitted at an idle queue.
  handler(cbl::Bytes{tag(cbl::net::Method::kQuery), 7});
  EXPECT_EQ(queue.admitted(), 1u);
  EXPECT_EQ(queue.shed(), 0u);
  EXPECT_DOUBLE_EQ(queue.last_charge_ms(), 10.0);
}

}  // namespace
