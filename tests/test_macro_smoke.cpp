// End-to-end macro-harness smoke test (<= 5k queries): runs the full
// open-loop trajectory through the real serving stack and checks the
// report's hard guarantees — zero wrong verdicts, a genuinely
// exercised shed path when offered load exceeds NodeLimits, a complete
// and self-consistent BENCH_macro.json, and bit-exact model replay.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "load/macro.h"

namespace {

using cbl::load::LevelResult;
using cbl::load::MacroConfig;
using cbl::load::MacroReport;
using cbl::load::run_macro;

MacroConfig smoke_config() {
  MacroConfig config;
  config.seed = 4242;
  config.workload.unique_addresses = std::size_t{1} << 10;
  config.workload.listed_addresses = std::size_t{1} << 7;
  // One level comfortably under the 50 QPS effective server capacity,
  // one far over it: the knee must appear between them.
  config.offered_qps = {100.0, 1600.0};
  config.queries_per_level = 500;  // 1000 queries total, well under 5k
  config.burst_threads = 2;
  config.burst_queries = 64;
  return config;
}

/// The model section of the JSON (everything before "cpu"), which is
/// the bit-reproducible part a regression gate may compare.
std::string model_slice(const std::string& json) {
  const auto pos = json.find("\"cpu\"");
  return json.substr(0, pos == std::string::npos ? json.size() : pos);
}

TEST(MacroSmoke, TrajectoryIsCorrectShedsUnderOverloadAndReplays) {
  const MacroConfig config = smoke_config();
  const MacroReport report = run_macro(config);

  // Hard correctness: the degradation ladder never invents a verdict,
  // so ground truth is matched on every usable answer at every level.
  EXPECT_EQ(report.wrong_verdicts, 0u);

  ASSERT_EQ(report.levels.size(), 2u);
  const LevelResult& calm = report.levels[0];
  const LevelResult& storm = report.levels[1];

  // Under-capacity level: the SLO holds and nothing is shed.
  EXPECT_TRUE(calm.slo_ok);
  EXPECT_EQ(calm.shed, 0u);

  // Overload level: offered load exceeds NodeLimits capacity, so the
  // admission model genuinely sheds and the SLO breaks.
  EXPECT_GT(storm.shed, 0u);
  EXPECT_GT(storm.shed_rate, 0.0);
  EXPECT_FALSE(storm.slo_ok);
  EXPECT_GT(storm.p99_ms, calm.p99_ms);

  EXPECT_DOUBLE_EQ(report.sustained_qps_at_slo, 100.0);
  EXPECT_DOUBLE_EQ(report.p99_ms, calm.p99_ms);

  // Per-level self-consistency.
  for (const LevelResult& level : report.levels) {
    EXPECT_EQ(level.queries, config.queries_per_level);
    EXPECT_EQ(level.cache_hits + level.prefix_local + level.wire_queries,
              level.queries);
    // Every wire query lands in exactly one freshness class.
    EXPECT_EQ(level.fresh + level.stale_cache + level.prefix_only +
                  level.unavailable,
              level.wire_queries);
    EXPECT_GE(level.wire_attempts, level.wire_queries);
    EXPECT_GE(level.shed_rate, 0.0);
    EXPECT_LE(level.shed_rate, 1.0);
    EXPECT_LE(level.p50_ms, level.p99_ms);
    EXPECT_LE(level.p99_ms, level.p999_ms);
    EXPECT_GT(level.achieved_qps, 0.0);
  }

  // Report totals are the column sums of the levels.
  std::uint64_t cache_hits = 0, prefix_local = 0, fresh = 0, stale = 0,
                prefix_only = 0, unavailable = 0;
  for (const LevelResult& level : report.levels) {
    cache_hits += level.cache_hits;
    prefix_local += level.prefix_local;
    fresh += level.fresh;
    stale += level.stale_cache;
    prefix_only += level.prefix_only;
    unavailable += level.unavailable;
  }
  EXPECT_EQ(report.cache_hits, cache_hits);
  EXPECT_EQ(report.prefix_local, prefix_local);
  EXPECT_EQ(report.fresh, fresh);
  EXPECT_EQ(report.stale_cache, stale);
  EXPECT_EQ(report.prefix_only, prefix_only);
  EXPECT_EQ(report.unavailable, unavailable);

  // The burst phase ran (2 threads x 64 queries) and measured something.
  EXPECT_GT(report.burst_qps, 0.0);

  // Every canonical JSON field is present.
  const std::string json = report.to_json();
  for (const char* key :
       {"\"bench\":\"macro\"", "\"schema\":1", "\"seed\":4242", "\"config\":",
        "\"simulated_clients\":", "\"unique_addresses\":",
        "\"listed_addresses\":", "\"zipf_s\":", "\"cache_hit_ratio\":",
        "\"prefix_local_ratio\":", "\"offered_qps\":",
        "\"queries_per_level\":", "\"service_ms\":", "\"max_inflight\":",
        "\"transport_latency_ms\":", "\"lambda\":", "\"chaos\":",
        "\"slo\":", "\"p99_ms\":", "\"max_shed_rate\":",
        "\"max_unavailable_rate\":", "\"model\":",
        "\"sustained_qps_at_slo\":", "\"p50_ms\":", "\"p999_ms\":",
        "\"shed_rate\":", "\"wrong_verdicts\":", "\"freshness\":",
        "\"cache_hit\":", "\"prefix_local\":", "\"fresh\":",
        "\"stale_cache\":", "\"prefix_only\":", "\"unavailable\":",
        "\"levels\":", "\"offered_qps\":", "\"achieved_qps\":",
        "\"queries\":", "\"wire_queries\":", "\"wire_attempts\":",
        "\"shed\":", "\"wrong\":", "\"slo_ok\":", "\"cpu\":",
        "\"per_stage_ns\":", "\"parse\":", "\"crypto\":", "\"seal\":",
        "\"pipeline_crypto\":", "\"burst_qps\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }

  // Real CPU was measured for the serving stages during the run.
  EXPECT_GT(report.parse_ns + report.crypto_ns + report.seal_ns, 0u);

  // Bit-exact replay: a second run from the same (seed, config) must
  // reproduce the model section of the JSON verbatim. (The cpu section
  // measures the machine and may differ.)
  const MacroReport replay = run_macro(config);
  EXPECT_EQ(model_slice(json), model_slice(replay.to_json()));
}

TEST(MacroSmoke, RejectsEmptyLevelList) {
  MacroConfig config = smoke_config();
  config.offered_qps.clear();
  EXPECT_THROW(run_macro(config), std::invalid_argument);
}

}  // namespace
