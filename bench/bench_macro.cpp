// Macro-load benchmark: open-loop Zipf traffic through the full serving
// stack (Transport -> BlocklistServiceNode -> QueryPipeline ->
// OprfServer, ResilientClient on the client side), stepping offered
// load until the SLO breaks. Emits the canonical BENCH_macro.json via
// --json <path>. The whole file runs in virtual time and is
// bit-reproducible for a fixed (--seed, mode), so
// scripts/check_bench_regression.py requires a fresh --quick run to
// equal the committed root BENCH_macro.json exactly.
//
// Flags:
//   --quick        small universe + short levels (CI macro-smoke, <2min)
//   --seed N       master seed (default 20260808)
//   --chaos        layer mild fault injection over the transport
//   --json PATH    also write the JSON report to PATH
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "load/macro.h"

namespace {

bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

const char* flag_value(int argc, char** argv, const char* flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  cbl::load::MacroConfig config;
  const bool quick = has_flag(argc, argv, "--quick");
  if (quick) {
    config.workload.unique_addresses = std::size_t{1} << 12;
    config.workload.listed_addresses = std::size_t{1} << 9;
    config.queries_per_level = 600;
  }
  if (const char* seed = flag_value(argc, argv, "--seed")) {
    config.seed = std::strtoull(seed, nullptr, 10);
  }
  config.chaos = has_flag(argc, argv, "--chaos");

  std::fprintf(stderr, "bench_macro: seed=%llu mode=%s chaos=%d\n",
               static_cast<unsigned long long>(config.seed),
               quick ? "quick" : "full", config.chaos ? 1 : 0);
  std::fprintf(stderr, "replay: bench/bench_macro%s --seed %llu%s\n",
               quick ? " --quick" : "",
               static_cast<unsigned long long>(config.seed),
               config.chaos ? " --chaos" : "");

  const cbl::load::MacroReport report = cbl::load::run_macro(config);

  for (const auto& level : report.levels) {
    std::fprintf(stderr,
                 "  offered %7.0f qps -> achieved %7.1f  p50 %7.2f ms  "
                 "p99 %8.2f ms  p999 %8.2f ms  shed %5.3f  %s\n",
                 level.offered_qps, level.achieved_qps, level.p50_ms,
                 level.p99_ms, level.p999_ms, level.shed_rate,
                 level.slo_ok ? "SLO-OK" : "SLO-FAIL");
  }
  std::fprintf(stderr,
               "sustained %f qps at SLO; p99 %.2f ms; wrong verdicts %llu\n",
               report.sustained_qps_at_slo, report.p99_ms,
               static_cast<unsigned long long>(report.wrong_verdicts));

  const std::string json = report.to_json();
  if (const char* path = flag_value(argc, argv, "--json")) {
    std::FILE* f = std::fopen(path, "w");
    if (!f) {
      std::fprintf(stderr, "bench_macro: cannot open %s\n", path);
      return 1;
    }
    std::fputs(json.c_str(), f);
    std::fputc('\n', f);
    std::fclose(f);
  }
  std::printf("%s\n", json.c_str());
  return 0;
}
