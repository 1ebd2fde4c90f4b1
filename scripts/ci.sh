#!/usr/bin/env bash
# CI entry point — the full analysis matrix:
#
#   1. lint        scripts/ct_lint.py (constant-time discipline, annotation
#                  driven — see DESIGN.md "Constant-time policy"),
#                  scripts/parser_lint.py, scripts/lock_lint.py (locking
#                  discipline — see DESIGN.md "Concurrency & locking
#                  policy"), and scripts/secret_flow_lint.py (secret-flow
#                  policy), self-tested where applicable and run
#                  concurrently; then prints the size of src/ and of
#                  tests/ (lines and files of .cpp/.h, not gated), so a
#                  change that moves code between them shows its net
#                  effect
#   2. clang-tidy  .clang-tidy profile over src/ (skipped with a notice
#                  when clang-tidy is not installed)
#   3. thread-safety  clang capability analysis: a negative/positive
#                  self-test pair (tests/static/) proving the analysis is
#                  armed — the seeded off-lock mutation MUST fail to
#                  compile — then a full clang build of the tree with
#                  -DCBL_THREAD_SAFETY=ON, i.e. -Wthread-safety
#                  -Wthread-safety-beta -Werror=thread-safety-analysis
#                  (skipped with a notice when clang++ is not installed)
#   4. secret-flow whole-program secret-flow analysis
#                  (scripts/secret_flow_lint.py over the Secret<T> taint
#                  layer of src/common/secret.h): self-test, then a
#                  negative/positive TU pair (tests/static/) proving the
#                  analyzer is armed — the seeded secret-into-vartime call
#                  MUST be flagged S1, its declassified twin must pass —
#                  then the full-tree run. Uses libclang +
#                  compile_commands.json when the python bindings exist,
#                  the regex fallback (with a notice) otherwise
#   5. release     optimized build + full test suite, then test_net,
#                  test_store, test_tlog, test_obs, test_load,
#                  test_macro_smoke, test_oprf and test_chaos each run
#                  once as a whole binary with --gtest_shuffle
#                  --gtest_repeat=2: the metrics registry is process-wide
#                  (run_macro and VirtualQueue read its counters too,
#                  test_oprf reads the verdict-memo counters, and the
#                  chaos plans read the resilient-client and breaker
#                  counters), so a test that
#                  reads a counter's absolute value instead of a delta
#                  passes under ctest's one-test-per-process runs and
#                  fails here. The shuffle seed and the replay command
#                  are printed
#   6. asan-ubsan  Debug + AddressSanitizer + UBSan, full test suite
#   7. tsan        Debug + ThreadSanitizer, full test suite (query-service
#                  and voting paths are concurrent; see src/oprf locking)
#   8. ctcheck     -DCBL_CTCHECK=ON, built twice (Debug, then
#                  RelWithDebInfo so the inlined kernels are checked as
#                  optimized): crypto libraries instrumented with
#                  -fsanitize-coverage=trace-pc, then the differential
#                  trace harness runs its self-test and the secret audit
#   9. fuzz-smoke  Debug + ASan/UBSan + -DCBL_FUZZ=ON: every harness
#                  replays its committed corpus, then mutation-fuzzes for
#                  CBL_FUZZ_SMOKE_SECONDS (default 30) — any trap, sanitizer
#                  report, or harness invariant violation aborts
#  10. chaos-smoke Debug + ASan/UBSan: the seeded chaos harness
#                  (tests/test_chaos) sweeps randomized fault schedules —
#                  drops, corruption, blackouts, crash-restart, overload —
#                  over thousands of queries. CBL_CHAOS_SEED (default
#                  pinned) and CBL_CHAOS_QUERIES (per plan) are printed so
#                  any failure replays bit-exactly
#  11. crash-smoke Debug + ASan/UBSan: the durable-state suite
#                  (tests/test_store — journal/snapshot parsers, fault
#                  injection, restart recovery) plus the crash-at-every-
#                  fs-op-boundary sweep and store-gremlin rounds from
#                  tests/test_chaos, under a pinned CBL_CHAOS_SEED so any
#                  failure replays bit-exactly (the replay command is
#                  printed before the run)
#  12. perf-smoke  Release build of bench_throughput, bench_tlog and
#                  bench_store, run with --json --quick; the emitted
#                  BENCH_*.json must parse, the batched-encode kernel
#                  must not regress below the scalar path (speedup >= 1
#                  at batch >= 64), the CPUID-selected scalar
#                  multiplication must run >= 1.3x the serial ladder in
#                  the same run when it is the AVX-512 IFMA body
#                  (kernel/scalar_mul; a serial-only CPU reads ~1x and
#                  passes), a full OprfClient::finish must cost >= 2x a
#                  verdict-memo hit on the same inputs
#                  (client/finish_repeat), a signed epoch delta must cost fewer
#                  wire bytes than the full bucket download it replaces
#                  at >= 2 changed entries per 1k, publishing and folding
#                  that epoch must each cost under half a full bucket-tree
#                  build, where churn reshapes the bucket tree (one-entry
#                  buckets) the kept-tree update must stay under 0.8x and
#                  publish and fold under 1.5x a full build of that list,
#                  and store recovery must replay every appended
#                  journal record (all checked by
#                  scripts/check_bench_regression.py --check-results)
#  13. macro-smoke Release build of bench_macro (the open-loop macro-load
#                  harness, src/load, run in virtual time):
#                  scripts/check_bench_regression.py self-tests, a fresh
#                  --quick run under the pinned CBL_MACRO_SEED must equal
#                  the committed BENCH_macro.json golden in seed, config
#                  and model (the first differing path is named), and the
#                  doctored fixture tests/fixtures/BENCH_macro_inflated_p99.json
#                  MUST fail on model.p99_ms — proving the gate is armed.
#                  The replay command is printed before the run
#  14. e2e-smoke   bench/e2e configured as its own CMake project (Release)
#                  under the CI build root, bench_e2e built against the
#                  checkout's src/, then bench/e2e/smoke.py runs every
#                  workload for 2 s with --trace: zero wrong verdicts,
#                  failed operations, retries or sheds, every
#                  BENCHMARK.json metric present and finite, and
#                  compare.py --self-test
#
# Usage:
#   scripts/ci.sh [build-root]          # default build root: build-ci/
#   scripts/ci.sh --list                # enumerate stages, one per line
#   CBL_CI_STAGES="lint release" scripts/ci.sh    # run a subset
#
# Every run ends with a per-stage wall-clock timing summary. Any failure
# (lint finding, configure, compile, or test) aborts.
set -euo pipefail

all_stages=(lint clang-tidy thread-safety secret-flow release asan-ubsan
            tsan ctcheck fuzz-smoke chaos-smoke crash-smoke perf-smoke
            macro-smoke e2e-smoke)

if [[ "${1:-}" == "--list" ]]; then
  printf '%s\n' "${all_stages[@]}"
  exit 0
fi

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_root="${1:-${repo_root}/build-ci}"
jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"
stages="${CBL_CI_STAGES:-${all_stages[*]}}"

generator_args=()
if command -v ninja >/dev/null 2>&1; then
  generator_args=(-G Ninja)
fi

want() { [[ " ${stages} " == *" $1 "* ]]; }

run_config() {
  local name="$1"
  shift
  local dir="${build_root}/${name}"
  echo "=== [${name}] configure ==="
  cmake -S "${repo_root}" -B "${dir}" "${generator_args[@]}" "$@"
  echo "=== [${name}] build ==="
  cmake --build "${dir}" -j "${jobs}"
  echo "=== [${name}] test ==="
  ctest --test-dir "${dir}" --output-on-failure -j "${jobs}"
}

stage_lint() {
  # The four lints are independent read-only analyses — run them
  # concurrently and serialize their logs afterwards.
  mkdir -p "${build_root}"
  local names=(ct_lint parser_lint lock_lint secret_flow_lint)
  local pids=() logs=()
  echo "=== [lint] ${names[*]} (concurrent) ==="
  local name log
  for name in "${names[@]}"; do
    log="${build_root}/lint_${name}.log"
    logs+=("${log}")
    (
      if [[ "${name}" != "ct_lint" ]]; then
        echo "--- ${name} --self-test ---"
        python3 "${repo_root}/scripts/${name}.py" --self-test
      fi
      echo "--- ${name} ---"
      python3 "${repo_root}/scripts/${name}.py" --root "${repo_root}"
    ) >"${log}" 2>&1 &
    pids+=($!)
  done
  local failed=0 i
  for i in "${!names[@]}"; do
    if ! wait "${pids[$i]}"; then
      failed=1
      echo "=== [lint] ${names[$i]} FAILED ===" >&2
    fi
    cat "${logs[$i]}"
  done
  # Informational, not a gate: the sizes of src/ and tests/ that every
  # change records (ROADMAP aim 2).
  local dir lines files
  for dir in src tests; do
    lines="$(cd "${repo_root}" &&
      find "${dir}" -name '*.cpp' -o -name '*.h' | xargs cat | wc -l)"
    files="$(cd "${repo_root}" &&
      find "${dir}" -name '*.cpp' -o -name '*.h' | wc -l)"
    echo "=== [lint] ${dir}/ size: ${lines} lines in ${files} files ==="
  done
  return "${failed}"
}

stage_clang_tidy() {
  if command -v clang-tidy >/dev/null 2>&1; then
    echo "=== [clang-tidy] configure (compile database) ==="
    local tidy_dir="${build_root}/clang-tidy"
    cmake -S "${repo_root}" -B "${tidy_dir}" "${generator_args[@]}" \
      -DCMAKE_BUILD_TYPE=Debug -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
    echo "=== [clang-tidy] analyze src/ ==="
    find "${repo_root}/src" -name '*.cpp' -print0 |
      xargs -0 -P "${jobs}" -n 8 clang-tidy -p "${tidy_dir}" --quiet
  else
    echo "=== [clang-tidy] SKIPPED: clang-tidy not installed ==="
  fi
}

stage_thread_safety() {
  if command -v clang++ >/dev/null 2>&1; then
    mkdir -p "${build_root}"
    local ts_flags=(-std=c++20 -fsyntax-only -I "${repo_root}/src"
                    -Wthread-safety -Wthread-safety-beta
                    -Werror=thread-safety-analysis)
    echo "=== [thread-safety] negative self-test (seeded off-lock access MUST fail) ==="
    if clang++ "${ts_flags[@]}" \
        "${repo_root}/tests/static/thread_safety_negative.cpp" \
        2>"${build_root}/thread_safety_negative.log"; then
      echo "thread-safety stage is NOT armed: the seeded off-lock" \
        "mutation in tests/static/thread_safety_negative.cpp compiled" \
        "cleanly" >&2
      exit 1
    fi
    grep -q "thread-safety" "${build_root}/thread_safety_negative.log" || {
      echo "negative self-test failed for the wrong reason:" >&2
      cat "${build_root}/thread_safety_negative.log" >&2
      exit 1
    }
    echo "=== [thread-safety] positive self-test (fixed twin must pass) ==="
    clang++ "${ts_flags[@]}" \
      "${repo_root}/tests/static/thread_safety_positive.cpp"
    echo "=== [thread-safety] scripts/lock_lint.py ==="
    python3 "${repo_root}/scripts/lock_lint.py" --self-test
    python3 "${repo_root}/scripts/lock_lint.py" --root "${repo_root}"
    local ts_dir="${build_root}/thread-safety"
    echo "=== [thread-safety] configure (clang + -Werror=thread-safety-analysis) ==="
    cmake -S "${repo_root}" -B "${ts_dir}" "${generator_args[@]}" \
      -DCMAKE_BUILD_TYPE=Debug \
      -DCMAKE_CXX_COMPILER=clang++ \
      -DCBL_THREAD_SAFETY=ON
    echo "=== [thread-safety] build (any off-lock access is a compile error) ==="
    cmake --build "${ts_dir}" -j "${jobs}"
  else
    echo "=== [thread-safety] SKIPPED: clang++ not installed ==="
  fi
}

stage_secret_flow() {
  mkdir -p "${build_root}"
  local cxx="${CXX:-c++}"
  command -v "${cxx}" >/dev/null 2>&1 || cxx=g++
  if python3 -c "import clang.cindex" >/dev/null 2>&1; then
    echo "=== [secret-flow] libclang python bindings found: AST front-end available ==="
  else
    echo "=== [secret-flow] libclang python bindings not installed:" \
      "the analyzer will use its regex fallback front-end (same rules," \
      "reduced precision) ==="
  fi
  echo "=== [secret-flow] lintlib + secret_flow_lint self-tests ==="
  python3 "${repo_root}/scripts/lintlib.py" --self-test
  python3 "${repo_root}/scripts/secret_flow_lint.py" --self-test
  echo "=== [secret-flow] static pair is valid C++ (${cxx} -fsyntax-only) ==="
  "${cxx}" -std=c++20 -fsyntax-only -I "${repo_root}/src" \
    "${repo_root}/tests/static/secret_flow_negative.cpp" \
    "${repo_root}/tests/static/secret_flow_positive.cpp"
  local armed="${build_root}/secret-flow-armed"
  local neg_log="${build_root}/secret_flow_negative.log"
  echo "=== [secret-flow] negative self-test (seeded secret-into-vartime MUST be flagged S1) ==="
  rm -rf "${armed}"
  mkdir -p "${armed}/src/demo"
  cp "${repo_root}/tests/static/secret_flow_negative.cpp" "${armed}/src/demo/"
  if python3 "${repo_root}/scripts/secret_flow_lint.py" --root "${armed}" \
      >"${neg_log}" 2>&1; then
    echo "secret-flow stage is NOT armed: the seeded secret-into-vartime" \
      "call in tests/static/secret_flow_negative.cpp passed the lint" >&2
    cat "${neg_log}" >&2
    exit 1
  fi
  grep -q ": S1: " "${neg_log}" || {
    echo "negative self-test failed for the wrong reason (no S1 finding):" >&2
    cat "${neg_log}" >&2
    exit 1
  }
  echo "=== [secret-flow] positive self-test (declassified twin must pass) ==="
  rm -f "${armed}/src/demo/secret_flow_negative.cpp"
  cp "${repo_root}/tests/static/secret_flow_positive.cpp" "${armed}/src/demo/"
  python3 "${repo_root}/scripts/secret_flow_lint.py" --root "${armed}"
  echo "=== [secret-flow] full-tree analysis ==="
  python3 "${repo_root}/scripts/secret_flow_lint.py" --root "${repo_root}"
}

stage_release() {
  run_config release -DCMAKE_BUILD_TYPE=Release
  local dir="${build_root}/release" seed=$((RANDOM % 99999 + 1)) t
  echo "=== [release] whole binaries, shuffled: seed=${seed} ==="
  for t in test_net test_store test_tlog test_obs test_load \
      test_macro_smoke test_oprf test_chaos; do
    echo "=== [release] replay any failure with:" \
      "${dir}/tests/${t} --gtest_shuffle --gtest_repeat=2" \
      "--gtest_random_seed=${seed} ==="
    "${dir}/tests/${t}" --gtest_shuffle --gtest_repeat=2 \
      --gtest_random_seed="${seed}"
  done
}

stage_asan_ubsan() {
  run_config asan-ubsan \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCBL_SANITIZE="address;undefined"
}

stage_tsan() {
  run_config tsan \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCBL_SANITIZE="thread"
}

stage_ctcheck() {
  # Two legs: Debug traces every call as written; RelWithDebInfo traces
  # the shipped shape, where the header-inline field kernels and limb
  # selects are folded into their callers by the optimizer.
  local build_type ct_dir
  for build_type in Debug RelWithDebInfo; do
    ct_dir="${build_root}/ctcheck"
    [[ "${build_type}" == Debug ]] || ct_dir="${build_root}/ctcheck-${build_type,,}"
    echo "=== [ctcheck/${build_type}] configure ==="
    cmake -S "${repo_root}" -B "${ct_dir}" "${generator_args[@]}" \
      -DCMAKE_BUILD_TYPE="${build_type}" -DCBL_CTCHECK=ON
    echo "=== [ctcheck/${build_type}] build ==="
    cmake --build "${ct_dir}" -j "${jobs}" --target ctcheck
    echo "=== [ctcheck/${build_type}] self-test (harness must flag the injected leak) ==="
    "${ct_dir}/src/ct/ctcheck" --self-test
    echo "=== [ctcheck/${build_type}] secret audit over the crypto kernels ==="
    "${ct_dir}/src/ct/ctcheck"
    if command -v valgrind >/dev/null 2>&1; then
      echo "=== [ctcheck/${build_type}] valgrind backend (ctgrind-style) ==="
      valgrind --error-exitcode=1 --quiet "${ct_dir}/src/ct/ctcheck"
    else
      echo "=== [ctcheck/${build_type}] valgrind not installed; trace backend only ==="
    fi
  done
}

stage_fuzz_smoke() {
  local fuzz_dir="${build_root}/fuzz-smoke"
  local fuzz_seconds="${CBL_FUZZ_SMOKE_SECONDS:-30}"
  echo "=== [fuzz-smoke] configure (ASan/UBSan + harness binaries) ==="
  cmake -S "${repo_root}" -B "${fuzz_dir}" "${generator_args[@]}" \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCBL_SANITIZE="address;undefined" \
    -DCBL_FUZZ=ON
  echo "=== [fuzz-smoke] build ==="
  cmake --build "${fuzz_dir}" -j "${jobs}"
  local driver
  driver="$(cat "${fuzz_dir}/fuzz_driver.txt")"
  echo "=== [fuzz-smoke] driver: ${driver}, ${fuzz_seconds}s per harness ==="
  local harness name corpus
  for harness in "${fuzz_dir}"/fuzz/fuzz_*; do
    [[ -x "${harness}" ]] || continue
    name="$(basename "${harness}")"
    corpus="${repo_root}/fuzz/corpora/${name}"
    echo "=== [fuzz-smoke] ${name} ==="
    if [[ "${driver}" == "libfuzzer" ]]; then
      "${harness}" -max_total_time="${fuzz_seconds}" -max_len=8192 "${corpus}"
    else
      "${harness}" -seconds="${fuzz_seconds}" "${corpus}"
    fi
  done
}

stage_chaos_smoke() {
  local chaos_dir="${build_root}/chaos-smoke"
  local chaos_seed="${CBL_CHAOS_SEED:-20260806}"
  local chaos_queries="${CBL_CHAOS_QUERIES:-1000}"
  echo "=== [chaos-smoke] configure (ASan/UBSan) ==="
  cmake -S "${repo_root}" -B "${chaos_dir}" "${generator_args[@]}" \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCBL_SANITIZE="address;undefined"
  echo "=== [chaos-smoke] build ==="
  cmake --build "${chaos_dir}" -j "${jobs}" --target test_chaos
  echo "=== [chaos-smoke] seed=${chaos_seed} queries=${chaos_queries}/plan ==="
  echo "=== [chaos-smoke] replay any failure with:" \
    "CBL_CHAOS_SEED=${chaos_seed} CBL_CHAOS_QUERIES=${chaos_queries}" \
    "${chaos_dir}/tests/test_chaos ==="
  CBL_CHAOS_SEED="${chaos_seed}" CBL_CHAOS_QUERIES="${chaos_queries}" \
    "${chaos_dir}/tests/test_chaos"
}

stage_crash_smoke() {
  local crash_dir="${build_root}/crash-smoke"
  local crash_seed="${CBL_CHAOS_SEED:-20260806}"
  echo "=== [crash-smoke] configure (ASan/UBSan) ==="
  cmake -S "${repo_root}" -B "${crash_dir}" "${generator_args[@]}" \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCBL_SANITIZE="address;undefined"
  echo "=== [crash-smoke] build ==="
  cmake --build "${crash_dir}" -j "${jobs}" --target test_store test_chaos
  echo "=== [crash-smoke] durable-state suite (journal, snapshots, fault injection, recovery) ==="
  "${crash_dir}/tests/test_store"
  echo "=== [crash-smoke] seed=${crash_seed} ==="
  echo "=== [crash-smoke] replay any failure with:" \
    "CBL_CHAOS_SEED=${crash_seed} ${crash_dir}/tests/test_chaos" \
    "--gtest_filter='*CrashSweepAtEveryFsOpBoundary*:*StoreGremlins*' ==="
  CBL_CHAOS_SEED="${crash_seed}" "${crash_dir}/tests/test_chaos" \
    --gtest_filter='*CrashSweepAtEveryFsOpBoundary*:*StoreGremlins*'
}

stage_perf_smoke() {
  local perf_dir="${build_root}/perf-smoke"
  local checker="${repo_root}/scripts/check_bench_regression.py"
  echo "=== [perf-smoke] configure (Release) ==="
  cmake -S "${repo_root}" -B "${perf_dir}" "${generator_args[@]}" \
    -DCMAKE_BUILD_TYPE=Release
  echo "=== [perf-smoke] build bench_throughput bench_tlog bench_store ==="
  cmake --build "${perf_dir}" -j "${jobs}" \
    --target bench_throughput bench_tlog bench_store
  echo "=== [perf-smoke] checker self-test ==="
  python3 "${checker}" --self-test
  local kind json
  for kind in throughput tlog store; do
    json="${perf_dir}/BENCH_${kind}.json"
    echo "=== [perf-smoke] run bench_${kind} (--quick) ==="
    # bench_store writes its RealFs scratch directory under the cwd.
    (cd "${perf_dir}" && "${perf_dir}/bench/bench_${kind}" --quick \
      --json "${json}")
    echo "=== [perf-smoke] sanity-check ${json} ==="
    python3 "${checker}" --check-results "${kind}" "${json}"
  done
}

stage_macro_smoke() {
  local macro_dir="${build_root}/macro-smoke"
  local macro_seed="${CBL_MACRO_SEED:-20260808}"
  local fresh_json="${macro_dir}/BENCH_macro.fresh.json"
  echo "=== [macro-smoke] configure (Release) ==="
  cmake -S "${repo_root}" -B "${macro_dir}" "${generator_args[@]}" \
    -DCMAKE_BUILD_TYPE=Release
  echo "=== [macro-smoke] build bench_macro ==="
  cmake --build "${macro_dir}" -j "${jobs}" --target bench_macro
  echo "=== [macro-smoke] checker self-test ==="
  python3 "${repo_root}/scripts/check_bench_regression.py" --self-test
  echo "=== [macro-smoke] seed=${macro_seed} ==="
  echo "=== [macro-smoke] replay with:" \
    "${macro_dir}/bench/bench_macro --quick --seed ${macro_seed} ==="
  "${macro_dir}/bench/bench_macro" --quick --seed "${macro_seed}" \
    --json "${fresh_json}" >/dev/null
  echo "=== [macro-smoke] fresh run must equal committed BENCH_macro.json ==="
  python3 "${repo_root}/scripts/check_bench_regression.py" \
    --baseline "${repo_root}/BENCH_macro.json" \
    --candidate "${fresh_json}"
  echo "=== [macro-smoke] doctored fixture MUST fail (gate is armed) ==="
  if python3 "${repo_root}/scripts/check_bench_regression.py" \
      --baseline "${repo_root}/BENCH_macro.json" \
      --candidate "${repo_root}/tests/fixtures/BENCH_macro_inflated_p99.json" \
      2>"${macro_dir}/doctored.log"; then
    echo "macro-smoke gate is NOT armed: the doctored fixture with an" \
      "inflated p99 passed the golden check" >&2
    exit 1
  fi
  grep -q "model.p99_ms" "${macro_dir}/doctored.log" || {
    echo "doctored fixture failed for the wrong reason:" >&2
    cat "${macro_dir}/doctored.log" >&2
    exit 1
  }
  echo "=== [macro-smoke] OK: gate armed, trajectory equals the golden ==="
}

stage_e2e_smoke() {
  local e2e_dir="${build_root}/e2e-smoke"
  echo "=== [e2e-smoke] configure bench/e2e (Release) ==="
  cmake -S "${repo_root}/bench/e2e" -B "${e2e_dir}" "${generator_args[@]}" \
    -DCMAKE_BUILD_TYPE=Release
  echo "=== [e2e-smoke] build bench_e2e ==="
  cmake --build "${e2e_dir}" -j "${jobs}" --target bench_e2e
  echo "=== [e2e-smoke] smoke.py: every workload, 2 s, traced ==="
  # smoke.py keeps its scratch reports in a temporary directory under
  # the cwd.
  (cd "${e2e_dir}" && python3 "${repo_root}/bench/e2e/smoke.py" \
    --binary "${e2e_dir}/bench_e2e")
}

timing_summary=()
for stage in "${all_stages[@]}"; do
  want "${stage}" || continue
  stage_t0="$(date +%s)"
  "stage_${stage//-/_}"
  timing_summary+=("$(printf '%-14s %5ds' "${stage}" \
    "$(( $(date +%s) - stage_t0 ))")")
done

echo "=== CI timing summary (wall clock) ==="
printf '  %s\n' "${timing_summary[@]}"
echo "=== CI OK: stages [${stages}] all green ==="
