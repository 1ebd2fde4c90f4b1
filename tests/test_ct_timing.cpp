// dudect-style statistical timing test for ct_equal (Reparaz/Balasch/
// Verbauwhede "dude, is my code constant time?"): measure the runtime of
// the primitive on two input classes — equal buffers vs buffers that
// differ in the first byte — and apply Welch's t-test. A short-circuiting
// comparison exits after one byte for class B and lights the statistic up;
// a constant-time one keeps |t| small.
//
// The same test runs on scalar multiplication with dudect's fixed-vs-
// random classes: a fixed scalar (zero, whose recoded digits all select
// the identity) against a fresh random scalar per sample, once per
// kernel this CPU can run.
//
// Timing measurements are inherently noisy under CI load, so this test is
// SLOW-gated: it runs only when CBL_RUN_SLOW is set in the environment and
// skips (not passes) otherwise, keeping it out of the tier-1 signal.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/ct.h"
#include "common/rng.h"
#include "ec/ristretto.h"
#include "ec/ristretto_kernels.h"
#include "ec/scalar.h"

namespace cbl {
namespace {

constexpr std::size_t kBufLen = 256;
constexpr std::size_t kSamplesPerClass = 20000;
constexpr int kInnerReps = 32;  // amortize clock granularity

volatile std::uint8_t g_sink;

double now_ns() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Measures one sample: kInnerReps back-to-back calls, wall time in ns.
template <typename F>
double sample(F&& op) {
  const double t0 = now_ns();
  for (int r = 0; r < kInnerReps; ++r) op();
  return now_ns() - t0;
}

struct Welch {
  double t = 0.0;
  std::size_t n = 0;
};

// Welch's t statistic over the two sample sets, after discarding the
// slowest decile of each class (interrupt/migration outliers — the
// standard dudect pre-processing).
Welch welch_t(std::vector<double> a, std::vector<double> b) {
  auto trim = [](std::vector<double>& v) {
    std::sort(v.begin(), v.end());
    v.resize(v.size() - v.size() / 10);
  };
  trim(a);
  trim(b);

  auto mean_var = [](const std::vector<double>& v, double& mean, double& var) {
    mean = 0.0;
    for (double x : v) mean += x;
    mean /= static_cast<double>(v.size());
    var = 0.0;
    for (double x : v) var += (x - mean) * (x - mean);
    var /= static_cast<double>(v.size() - 1);
  };

  double ma, va, mb, vb;
  mean_var(a, ma, va);
  mean_var(b, mb, vb);
  const double denom = std::sqrt(va / static_cast<double>(a.size()) +
                                 vb / static_cast<double>(b.size()));
  Welch w;
  w.n = a.size() + b.size();
  w.t = denom > 0.0 ? (ma - mb) / denom : 0.0;
  return w;
}

// Runs the two-class experiment for an arbitrary comparison function.
// Classes are interleaved in random order so slow drift (thermal, freq
// scaling) hits both equally.
template <typename Cmp>
Welch measure(Cmp&& cmp) {
  auto rng = ChaChaRng::from_string_seed("test_ct_timing");
  std::uint8_t base[kBufLen];
  rng.fill(base, sizeof base);

  std::uint8_t equal_buf[kBufLen];
  std::uint8_t diff_buf[kBufLen];
  std::memcpy(equal_buf, base, kBufLen);
  std::memcpy(diff_buf, base, kBufLen);
  diff_buf[0] ^= 1;  // worst case for an early-exit compare

  std::vector<double> class_a, class_b;
  class_a.reserve(kSamplesPerClass);
  class_b.reserve(kSamplesPerClass);

  // Warmup.
  for (int i = 0; i < 1000; ++i) {
    g_sink = g_sink ^ static_cast<std::uint8_t>(cmp(base, equal_buf, kBufLen));
  }

  while (class_a.size() < kSamplesPerClass ||
         class_b.size() < kSamplesPerClass) {
    const bool pick_a = (rng.next_u64() & 1) != 0;
    const std::uint8_t* other = pick_a ? equal_buf : diff_buf;
    const double ns = sample([&] {
      g_sink = g_sink ^ static_cast<std::uint8_t>(cmp(base, other, kBufLen));
    });
    auto& bucket = pick_a ? class_a : class_b;
    if (bucket.size() < kSamplesPerClass) bucket.push_back(ns);
  }
  return welch_t(std::move(class_a), std::move(class_b));
}

TEST(CtTiming, CtEqualShowsNoClassDistinction) {
  if (std::getenv("CBL_RUN_SLOW") == nullptr) {
    GTEST_SKIP() << "timing test is slow/noisy; set CBL_RUN_SLOW=1 to run";
  }

  const Welch ct = measure([](const std::uint8_t* a, const std::uint8_t* b,
                              std::size_t n) { return ct_equal(a, b, n); });
  // Positive control, reported but not asserted (its magnitude depends on
  // how aggressively libc vectorizes): memcmp exits on the first byte for
  // class B, so |t| should dwarf the ct_equal statistic.
  const Welch leaky = measure([](const std::uint8_t* a, const std::uint8_t* b,
                                 std::size_t n) {
    return std::memcmp(a, b, n) == 0;  // ct:ok — deliberate leak (control)
  });
  std::printf("ct_equal |t| = %.2f over %zu samples; memcmp control |t| = %.2f\n",
              std::fabs(ct.t), ct.n, std::fabs(leaky.t));

  // dudect's decision threshold is |t| > 4.5; allow generous headroom for
  // shared-runner noise while still catching an early-exit implementation,
  // which lands in the hundreds for 256-byte buffers.
  EXPECT_LT(std::fabs(ct.t), 20.0);
}

// Fixed-vs-random scalars for one scalar-multiplication body. Every
// scalar is drawn before timing starts, so a sample times the
// multiplication alone.
Welch measure_scalar_mult(ec::RistrettoKernels::MulFn mul) {
  constexpr std::size_t kScalarSamples = 4000;
  auto rng = ChaChaRng::from_string_seed("test_ct_timing/scalar_mult");
  const ec::RistrettoPoint p =
      ec::RistrettoPoint::hash_to_group(to_bytes("dudect"), "test_ct_timing");
  const ec::Scalar fixed = ec::Scalar::zero();
  std::vector<ec::Scalar> random_scalars;
  for (std::size_t i = 0; i < kScalarSamples; ++i) {
    random_scalars.push_back(ec::Scalar::random(rng));
  }
  for (int i = 0; i < 50; ++i) {  // warmup
    g_sink = g_sink ^ mul(p, random_scalars[i]).encode()[0];
  }

  std::vector<double> class_a, class_b;
  std::size_t next_random = 0;
  while (class_a.size() < kScalarSamples || class_b.size() < kScalarSamples) {
    const bool pick_a = (rng.next_u64() & 1) != 0;
    auto& bucket = pick_a ? class_a : class_b;
    if (bucket.size() == kScalarSamples) continue;
    const ec::Scalar& s = pick_a ? fixed : random_scalars[next_random++];
    ec::RistrettoPoint out;
    const double t0 = now_ns();
    out = mul(p, s);
    bucket.push_back(now_ns() - t0);
    g_sink = g_sink ^ out.encode()[0];
  }
  return welch_t(std::move(class_a), std::move(class_b));
}

TEST(CtTiming, ScalarMultShowsNoFixedVsRandomDistinction) {
  if (std::getenv("CBL_RUN_SLOW") == nullptr) {
    GTEST_SKIP() << "timing test is slow/noisy; set CBL_RUN_SLOW=1 to run";
  }
  std::vector<std::pair<const char*, ec::RistrettoKernels::MulFn>> kernels = {
      {"serial", ec::RistrettoKernels::mul_serial}};
#if CBL_RISTRETTO_IFMA
  if (ec::RistrettoKernels::ifma_supported()) {
    kernels.push_back({"ifma", ec::RistrettoKernels::mul_ifma});
    // The two-point body with the sample's scalar in both halves.
    kernels.push_back(
        {"ifma-pair",
         [](const ec::RistrettoPoint& p, const ec::Scalar& s) noexcept {
           return ec::RistrettoKernels::mul_pair_ifma(p, s, p, s)[0];
         }});
  }
#endif
  for (const auto& [name, mul] : kernels) {
    const Welch w = measure_scalar_mult(mul);
    std::printf("scalar_mult[%s] fixed-vs-random |t| = %.2f over %zu samples\n",
                name, std::fabs(w.t), w.n);
    // The same headroom as ct_equal's bound: a ladder that skipped work
    // for zero digits would be hundreds of sigma apart.
    EXPECT_LT(std::fabs(w.t), 20.0) << name;
  }
}

}  // namespace
}  // namespace cbl
