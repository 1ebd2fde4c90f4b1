// End-to-end macro-harness smoke test (<= 5k queries): runs the full
// open-loop trajectory through the real serving stack and checks the
// report's hard guarantees — zero wrong verdicts, a genuinely
// exercised shed path when offered load exceeds the virtual queue's
// capacity, a complete and self-consistent BENCH_macro.json, and
// bit-exact replay.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "hash/sha256.h"
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
  return config;
}

/// The `"model":{...}` member of the JSON, key included: the trajectory
/// itself, without the config that produced it.
std::string model_slice(const std::string& json) {
  const auto start = json.find("\"model\":");
  if (start == std::string::npos) return "";
  int depth = 0;
  for (std::size_t i = json.find('{', start); i < json.size(); ++i) {
    if (json[i] == '{') ++depth;
    if (json[i] == '}' && --depth == 0) {
      return json.substr(start, i + 1 - start);
    }
  }
  return "";
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

  // Overload level: offered load exceeds the virtual queue's capacity,
  // so the admission model genuinely sheds and the SLO breaks.
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
        "\"shed\":", "\"wrong\":", "\"slo_ok\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
  // The model is the last section: nothing measured in machine time
  // follows it.
  EXPECT_EQ(json.size(), json.find("\"model\":") +
                             model_slice(json).size() + 1);

  // Bit-exact replay: a second run from the same (seed, config) must
  // reproduce the whole JSON verbatim.
  const MacroReport replay = run_macro(config);
  EXPECT_EQ(json, replay.to_json());
}

// The model section for smoke_config(), pinned as a SHA-256 of its bytes,
// with and without the chaos injector. Any change to how the harness
// admits, sheds, charges or orders queries (including the injector's
// draws) moves these digests; a change to the config section alone
// does not.
TEST(MacroSmoke, ModelSliceMatchesPinnedDigest) {
  const auto model_digest = [](bool chaos) {
    MacroConfig config = smoke_config();
    config.chaos = chaos;
    const std::string model = model_slice(run_macro(config).to_json());
    return cbl::to_hex(cbl::hash::Sha256::digest(model));
  };
  EXPECT_EQ(model_digest(false),
            "bdca63ff9f6b68eff077f938c3556e9f7e245aae7f6831f6062868343f256240");
  EXPECT_EQ(model_digest(true),
            "1e94535a5837dd74480787bfa713624e8096e2d173a7efc1bfcb8c468cbd27f2");
}

TEST(MacroSmoke, RejectsEmptyLevelList) {
  MacroConfig config = smoke_config();
  config.offered_qps.clear();
  EXPECT_THROW(run_macro(config), std::invalid_argument);
}

}  // namespace
