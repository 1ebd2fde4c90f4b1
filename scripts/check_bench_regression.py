#!/usr/bin/env python3
"""Gate BENCH_macro.json against a committed baseline.

A macro-load report is computed in virtual time from its seed (see
src/load/macro.h), so the file is a golden: a fresh run's seed, config
and model must equal the baseline committed at the repo root exactly.
The first path that differs (e.g. `model.p99_ms`) is named, with both
values. If the change is intentional, regenerate the baseline.

Before comparing, both files must pass schema + self-consistency
validation: exactly the sections bench, schema, seed, config and model
(a section measured in machine time cannot be reproduced from the seed,
so an unknown one is rejected), all canonical fields present,
p50 <= p99 <= p999, shed rate in [0, 1], zero wrong verdicts, and
per-level counts that add up.

--check-results KIND PATH instead sanity-checks one `--quick --json`
report of bench_throughput, bench_tlog or bench_store against fixed
floors (no baseline):

  throughput  kernel/batch_encode >= 1.0x scalar at batch 64 and 256;
              kernel/scalar_mul (serial-ladder ns over the dispatched
              body's ns, same run) >= 1.3x when kernel=ifma, accepted
              at ~1x when kernel=serial (a CPU without AVX-512 IFMA);
              kernel/scalar_mul_pair (two dispatched multiplications'
              ns over one pair call's ns) >= 1.3x and
              kernel/batch_hash_to_group >= 1.2x at batch 64 and 256
              when kernel=ifma, any positive ratio when kernel=serial;
              every pipeline/qps value > 0
  tlog        sync/delta_bytes > 1.0x (delta smaller than the full
              download) at churn=2per1k; publish/epoch and
              verify/delta_fold at churn=2per1k each under half of
              tree/full_build of the same shape from the same run (a
              ratio, so the host's speed cancels: an epoch must not cost
              work over the whole list); at the prefix_filtered shape
              (entries=4096,lambda=16), tree/update under 0.8x and
              publish/epoch and verify/delta_fold under 1.5x that shape's
              tree/full_build (a reshape must not rehash unchanged
              buckets); non-zero sync/full_bytes sizes and verify/*
              timings
  store       non-zero journal/append and snapshot/commit timings;
              journal/recover and store/load replay every record

Every gate is an explicit check, never an `assert`, so `python3 -O`
cannot turn it off.

Usage:
  check_bench_regression.py --baseline BENCH_macro.json --candidate fresh.json
  check_bench_regression.py --check-results {throughput,tlog,store} PATH
  check_bench_regression.py --self-test

Exit codes: 0 = OK, 1 = regression/validation failure, 2 = usage error.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys

# bench_tlog: publish and fold at the lowest churn level, as a share of a
# full bucket-tree build of the same shape in the same run.
MAX_EPOCH_SHARE_OF_FULL_BUILD = 0.5
# bench_tlog at the prefix_filtered shape (one-entry buckets, so churn
# makes buckets appear and empty and the kept tree reshapes), as shares
# of that shape's full build. Sized from 13 --quick runs on a 4-vCPU Xeon
# guest: tree/update read 0.53-0.67 (a rebuild that rehashes every bucket
# read 0.95-1.14 in 6 runs), publish/epoch 0.91-1.26 and
# verify/delta_fold 0.75-1.00 (each adds signatures and the bucket fold
# to the reshape; a second list's worth of tree work would put them past
# 1.5).
RESHAPE_SHAPE = "entries=4096,lambda=16"
MAX_RESHAPE_SHARE_OF_FULL_BUILD = 0.8
MAX_RESHAPE_EPOCH_SHARE_OF_FULL_BUILD = 1.5
# bench_throughput kernel/scalar_mul: the IFMA ladder over the serial one
# in the same run. A scratch prototype ran at ~1.8x; below 1.3x the vector
# body has lost most of what it exists for.
MIN_IFMA_SCALAR_MUL_SPEEDUP = 1.3
# bench_throughput on an IFMA CPU: kernel/scalar_mul_pair, two dispatched
# multiplications over one two-point 512-bit ladder (--quick runs on a
# 4-vCPU Xeon guest read 1.56-1.80x), and kernel/batch_hash_to_group, a
# batch's four square roots per four-lane chain against hash_to_group's
# two (1.26-1.55x at batch 64 in the same runs). Below these floors the
# wide bodies have lost most of what they exist for.
MIN_IFMA_PAIR_SPEEDUP = 1.3
MIN_IFMA_BATCH_HASH_SPEEDUP = 1.2

_CONFIG_KEYS = (
    "simulated_clients", "unique_addresses", "listed_addresses", "zipf_s",
    "cache_hit_ratio", "prefix_local_ratio", "offered_qps",
    "queries_per_level", "service_ms", "max_inflight",
    "transport_latency_ms", "lambda", "chaos", "slo",
)
_SECTIONS = ("bench", "schema", "seed", "config", "model")
_MODEL_KEYS = (
    "sustained_qps_at_slo", "p50_ms", "p99_ms", "p999_ms", "shed_rate",
    "wrong_verdicts", "freshness", "levels",
)
_FRESHNESS_KEYS = (
    "cache_hit", "prefix_local", "fresh", "stale_cache", "prefix_only",
    "unavailable",
)
_LEVEL_KEYS = (
    "offered_qps", "achieved_qps", "p50_ms", "p99_ms", "p999_ms",
    "shed_rate", "queries", "wire_queries", "wire_attempts", "cache_hits",
    "prefix_local", "shed", "fresh", "stale_cache", "prefix_only",
    "unavailable", "wrong", "slo_ok",
)


class BenchError(Exception):
    """A validation or regression failure, with a human-readable reason."""


def _require(cond: bool, what: str, detail: str) -> None:
    if not cond:
        raise BenchError(f"{what}: {detail}")


def validate(report: dict, what: str) -> None:
    """Schema + self-consistency checks for one BENCH_macro.json."""
    _require(report.get("bench") == "macro", what, "not a macro bench report")
    _require(report.get("schema") == 1, what,
             f"unknown schema {report.get('schema')!r}")
    _require(isinstance(report.get("seed"), int), what, "missing seed")
    for section in ("config", "model"):
        _require(isinstance(report.get(section), dict), what,
                 f"missing section {section!r}")
    for key in report:
        _require(key in _SECTIONS, what,
                 f"unknown section {key!r}: a macro report holds only "
                 f"{', '.join(_SECTIONS)}")
    for key in _CONFIG_KEYS:
        _require(key in report["config"], what, f"config missing {key!r}")
    model = report["model"]
    for key in _MODEL_KEYS:
        _require(key in model, what, f"model missing {key!r}")
    for key in _FRESHNESS_KEYS:
        _require(key in model["freshness"], what,
                 f"model.freshness missing {key!r}")

    _require(model["wrong_verdicts"] == 0, what,
             f"{model['wrong_verdicts']} wrong verdicts — correctness "
             "regression, not a perf number")
    _require(0.0 <= model["shed_rate"] <= 1.0, what,
             f"shed_rate {model['shed_rate']} outside [0, 1]")
    _require(model["p50_ms"] <= model["p99_ms"] <= model["p999_ms"], what,
             "quantiles not monotone: "
             f"p50={model['p50_ms']} p99={model['p99_ms']} "
             f"p999={model['p999_ms']}")
    _require(model["sustained_qps_at_slo"] >= 0.0, what,
             "negative sustained QPS")

    levels = model["levels"]
    _require(isinstance(levels, list) and levels, what, "no levels")
    _require(len(levels) == len(report["config"]["offered_qps"]), what,
             "levels do not match config.offered_qps")
    for i, level in enumerate(levels):
        lwhat = f"{what} level[{i}]"
        for key in _LEVEL_KEYS:
            _require(key in level, lwhat, f"missing {key!r}")
        _require(level["cache_hits"] + level["prefix_local"] +
                 level["wire_queries"] == level["queries"], lwhat,
                 "resolution counts do not sum to queries")
        _require(level["fresh"] + level["stale_cache"] +
                 level["prefix_only"] + level["unavailable"] ==
                 level["wire_queries"], lwhat,
                 "freshness counts do not sum to wire_queries")
        _require(level["wire_attempts"] >= level["wire_queries"], lwhat,
                 "fewer attempts than wire queries")
        _require(0.0 <= level["shed_rate"] <= 1.0, lwhat,
                 f"shed_rate {level['shed_rate']} outside [0, 1]")
        _require(level["p50_ms"] <= level["p99_ms"] <= level["p999_ms"],
                 lwhat, "quantiles not monotone")
        _require(level["wrong"] == 0, lwhat,
                 f"{level['wrong']} wrong verdicts")


def _first_difference(base, cand, path: str) -> str | None:
    """The first path, in the baseline's key order, where two decoded JSON
    values differ, with both values; None when they are equal."""
    if isinstance(base, dict) and isinstance(cand, dict):
        for key in base:
            if key not in cand:
                return f"{path}.{key}: missing from the candidate"
            found = _first_difference(base[key], cand[key], f"{path}.{key}")
            if found:
                return found
        extra = [key for key in cand if key not in base]
        return f"{path}.{extra[0]}: not in the baseline" if extra else None
    if isinstance(base, list) and isinstance(cand, list):
        for i, (b, c) in enumerate(zip(base, cand)):
            found = _first_difference(b, c, f"{path}[{i}]")
            if found:
                return found
        if len(base) != len(cand):
            return (f"{path}: {len(base)} entries in the baseline, "
                    f"{len(cand)} in the candidate")
        return None
    if type(base) is type(cand) and base == cand:
        return None
    return f"{path}: baseline {base!r}, candidate {cand!r}"


def compare(baseline: dict, candidate: dict) -> None:
    """Requires the candidate's seed, config and model to equal the
    baseline's; raises BenchError naming the first path that differs."""
    for section in ("seed", "config", "model"):
        found = _first_difference(baseline[section], candidate[section],
                                  section)
        _require(found is None, "compare",
                 f"{found} (the file is a seed-deterministic golden: if "
                 "the change is intentional, regenerate it)")


# --- per-bench result floors ------------------------------------------------


def _results(report: dict, what: str) -> list[dict]:
    results = report.get("results") if isinstance(report, dict) else None
    _require(isinstance(results, list) and bool(results), what,
             "empty results")
    return results


def _named(results: list[dict], name: str) -> list[dict]:
    return [r for r in results if r["name"] == name]


def check_throughput(report: dict) -> str:
    """bench_throughput: batched encode never slower than scalar at real
    batch sizes (the >= 2x target is an acceptance-bench claim; CI only
    guards against < 1x), and the pipeline serves queries at all."""
    what = "throughput"
    results = _results(report, what)
    encode = {r["params"]: r["value"]
              for r in _named(results, "kernel/batch_encode")}
    _require(bool(encode), what, "no kernel/batch_encode records")
    for batch in (64, 256):
        speedup = encode.get(f"batch={batch}")
        _require(speedup is not None, what, f"missing batch={batch} record")
        _require(speedup >= 1.0, what,
                 f"batch_encode regressed: {speedup:.2f}x at batch={batch}")
    mul = _named(results, "kernel/scalar_mul")
    _require(len(mul) == 1, what, "no kernel/scalar_mul record")
    kernel = mul[0]["params"].removeprefix("kernel=")
    ratio = mul[0]["value"]
    if kernel == "ifma":
        _require(ratio >= MIN_IFMA_SCALAR_MUL_SPEEDUP, what,
                 f"scalar_mul regressed: the ifma kernel is {ratio:.2f}x "
                 f"the serial ladder, floor {MIN_IFMA_SCALAR_MUL_SPEEDUP}x")
    else:
        _require(kernel == "serial", what,
                 f"unknown scalar_mul kernel {mul[0]['params']!r}")
        _require(ratio > 0, what, "scalar_mul ratio is not positive")
    pair = _named(results, "kernel/scalar_mul_pair")
    _require(len(pair) == 1, what, "no kernel/scalar_mul_pair record")
    _require(pair[0]["params"] == f"kernel={kernel}", what,
             f"scalar_mul_pair ran {pair[0]['params']!r}, "
             f"scalar_mul kernel={kernel}")
    pair_ratio = pair[0]["value"]
    floor = MIN_IFMA_PAIR_SPEEDUP if kernel == "ifma" else 0.0
    _require(pair_ratio > 0 and pair_ratio >= floor, what,
             f"scalar_mul_pair regressed: one pair call is {pair_ratio:.2f}x "
             f"two {kernel} multiplications, floor {floor}x")
    hashes = {r["params"]: r["value"]
              for r in _named(results, "kernel/batch_hash_to_group")}
    floor = MIN_IFMA_BATCH_HASH_SPEEDUP if kernel == "ifma" else 0.0
    for batch in (64, 256):
        speedup = hashes.get(f"batch={batch}")
        _require(speedup is not None, what,
                 f"missing batch_hash_to_group batch={batch} record")
        _require(speedup > 0 and speedup >= floor, what,
                 f"batch_hash_to_group regressed: {speedup:.2f}x at "
                 f"batch={batch} on kernel={kernel}, floor {floor}x")
    qps = _named(results, "pipeline/qps")
    _require(bool(qps), what, "no pipeline/qps records")
    _require(all(r["value"] > 0 for r in qps), what,
             "pipeline served zero queries")
    return (f"batch_encode {encode['batch=64']:.2f}x @64, "
            f"{encode['batch=256']:.2f}x @256, scalar_mul {kernel} "
            f"{ratio:.2f}x serial, pair {pair_ratio:.2f}x, batch_hash "
            f"{hashes['batch=64']:.2f}x @64, {len(qps)} QPS points")


def check_tlog(report: dict) -> str:
    """bench_tlog: a signed one-step delta is cheaper on the wire than the
    full bucket download it replaces, already at the lowest churn level
    (2 changed entries per 1k); an epoch costs what changed, and where
    churn reshapes the bucket tree, unchanged buckets are not rehashed."""
    what = "tlog"
    results = _results(report, what)
    deltas = _named(results, "sync/delta_bytes")
    _require(bool(deltas), what, "no sync/delta_bytes records")
    low = [r for r in deltas if "churn=2per1k" in r["params"]]
    _require(bool(low), what, "missing churn=2per1k record")
    for r in low:
        _require(r["value"] > 1.0, what,
                 f"delta sync regressed: delta={r['bytes_per_query']:.0f}B "
                 f"is not smaller than the full download ({r['params']})")
    full = _named(results, "sync/full_bytes")
    _require(bool(full) and all(r["bytes_per_query"] > 0 for r in full),
             what, "no/empty sync/full_bytes record")
    builds = {r["params"]: r["ns_per_op"]
              for r in _named(results, "tree/full_build")
              if r["ns_per_op"] > 0}
    _require(bool(builds), what, "no tree/full_build record")

    def gate(name: str, match: str, limit: float, why: str) -> list[str]:
        records = [r for r in _named(results, name) if match in r["params"]]
        _require(bool(records), what, f"missing {name} {match} record")
        shares = []
        for r in records:
            shape = r["params"].split(",churn=")[0]
            _require(shape in builds, what,
                     f"no tree/full_build record for {shape}")
            share = r["ns_per_op"] / builds[shape]
            _require(share <= limit, what,
                     f"{name} {why}: {r['ns_per_op']:.0f} ns is "
                     f"{share:.2f}x a full tree build "
                     f"({builds[shape]:.0f} ns), limit {limit}x "
                     f"({r['params']})")
            shares.append(f"{name}={share:.2f}x")
        return shares

    low_shares = []
    for name in ("publish/epoch", "verify/delta_fold"):
        low_shares += gate(name, "churn=2per1k",
                           MAX_EPOCH_SHARE_OF_FULL_BUILD, "costs O(list)")
    reshape_shares = gate("tree/update", RESHAPE_SHAPE + ",",
                          MAX_RESHAPE_SHARE_OF_FULL_BUILD,
                          "rehashes unchanged buckets")
    for name in ("publish/epoch", "verify/delta_fold"):
        reshape_shares += gate(name, RESHAPE_SHAPE + ",",
                               MAX_RESHAPE_EPOCH_SHARE_OF_FULL_BUILD,
                               "costs more than one reshape")
    verify = [r for r in results if r["name"].startswith("verify/")]
    _require(bool(verify) and all(r["ns_per_op"] > 0 for r in verify), what,
             "missing verify timings")
    return "tlog delta vs full download: " + ", ".join(
        f"{r['params'].split('churn=')[1]}={r['value']:.1f}x"
        for r in deltas) + (
        f"; at churn=2per1k vs a full build: {', '.join(low_shares)}"
        f"; at {RESHAPE_SHAPE}: {', '.join(reshape_shares)}")


def _records_in(params: str) -> int:
    return int(params.split("records=")[1].split(",")[0])


def check_store(report: dict) -> str:
    """bench_store: non-zero write timings, and recovery hands back every
    record a synced append promised (no silent truncation, no checksum
    rejects on our own writes)."""
    what = "store"
    results = _results(report, what)
    appends = _named(results, "journal/append")
    _require(bool(appends) and all(r["ns_per_op"] > 0 for r in appends),
             what, "missing/zero journal append timings")
    snaps = _named(results, "snapshot/commit")
    _require(bool(snaps) and all(r["ns_per_op"] > 0 for r in snaps), what,
             "missing/zero snapshot commit timings")
    for name in ("journal/recover", "store/load"):
        recs = _named(results, name)
        _require(bool(recs), what, f"no {name} records")
        for r in recs:
            want = _records_in(r["params"])
            _require(r["value"] == want, what,
                     f"{name} lost records: replayed {r['value']:.0f} "
                     f"of {want}")
    mem_append = next((r["ns_per_op"] for r in appends
                       if "fs=mem" in r["params"]), appends[0]["ns_per_op"])
    return (f"store append {mem_append:.0f}ns (mem), "
            "recovery replayed every record")


RESULT_CHECKS = {
    "throughput": check_throughput,
    "tlog": check_tlog,
    "store": check_store,
}


def check_results(kind: str, path: str) -> int:
    try:
        with open(path) as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"FAIL: cannot load {path}: {e}", file=sys.stderr)
        return 1
    try:
        summary = RESULT_CHECKS[kind](report)
    except BenchError as e:
        print(f"FAIL: {e}", file=sys.stderr)
        return 1
    except (KeyError, IndexError, TypeError, ValueError) as e:
        print(f"FAIL: {kind}: malformed record in {path}: {e!r}",
              file=sys.stderr)
        return 1
    print(f"OK: {summary}")
    return 0


def check_files(baseline_path: str, candidate_path: str) -> int:
    try:
        with open(baseline_path) as f:
            baseline = json.load(f)
        with open(candidate_path) as f:
            candidate = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"FAIL: cannot load reports: {e}", file=sys.stderr)
        return 1
    try:
        validate(baseline, f"baseline {baseline_path}")
        validate(candidate, f"candidate {candidate_path}")
        compare(baseline, candidate)
    except BenchError as e:
        print(f"FAIL: {e}", file=sys.stderr)
        return 1
    model = candidate["model"]
    print(f"OK: seed, config and model equal the baseline (sustained "
          f"{model['sustained_qps_at_slo']:.0f} qps, p99 "
          f"{model['p99_ms']:.2f} ms)")
    return 0


# --- self-test -------------------------------------------------------------


def _synthetic_report() -> dict:
    level = {
        "offered_qps": 100.0, "achieved_qps": 98.0, "p50_ms": 1.0,
        "p99_ms": 40.0, "p999_ms": 55.0, "shed_rate": 0.0, "queries": 600,
        "wire_queries": 400, "wire_attempts": 410, "cache_hits": 150,
        "prefix_local": 50, "shed": 0, "fresh": 400, "stale_cache": 0,
        "prefix_only": 0, "unavailable": 0, "wrong": 0, "slo_ok": True,
    }
    return {
        "bench": "macro", "schema": 1, "seed": 1,
        "config": {key: 0 for key in _CONFIG_KEYS} | {"offered_qps": [100.0]},
        "model": {
            "sustained_qps_at_slo": 100.0, "p50_ms": 1.0, "p99_ms": 40.0,
            "p999_ms": 55.0, "shed_rate": 0.0, "wrong_verdicts": 0,
            "freshness": {key: 0 for key in _FRESHNESS_KEYS},
            "levels": [level],
        },
    }


class SelfTestFailure(Exception):
    """A gate that the self-test expected to fire (or to pass) did not."""


def _expect(cond: bool, detail: str) -> None:
    if not cond:
        raise SelfTestFailure(detail)


def _expect_rejected(fn, reason: str, needle: str = "") -> str:
    try:
        fn()
    except BenchError as e:
        _expect(needle in str(e), f"{reason}: wrong finding {e}")
        return str(e)
    raise SelfTestFailure(f"gate missed: {reason}")


def _rec(name: str, params: str, ns: float = 1000.0, nbytes: float = 0.0,
         value: float | None = None) -> dict:
    record = {"name": name, "params": params, "ns_per_op": ns,
              "bytes_per_query": nbytes}
    if value is not None:
        record["value"] = value
    return record


def _synthetic_results() -> dict[str, dict]:
    return {
        "throughput": {"bench": "throughput", "results": [
            _rec("kernel/batch_encode", "batch=64", value=2.5),
            _rec("kernel/batch_encode", "batch=256", value=2.8),
            _rec("kernel/scalar_mul", "kernel=ifma", value=1.8),
            _rec("kernel/scalar_mul_pair", "kernel=ifma", value=1.7),
            _rec("kernel/batch_hash_to_group", "batch=64", value=1.5),
            _rec("kernel/batch_hash_to_group", "batch=256", value=1.5),
            _rec("pipeline/qps", "threads=1,max_batch=64", value=3000.0),
            _rec("pipeline/qps", "threads=2,max_batch=64", value=3100.0),
        ]},
        "tlog": {"bench": "tlog", "results": [
            _rec("verify/checkpoint", ""),
            _rec("sync/delta_bytes", "entries=1000,lambda=6,churn=2per1k",
                 ns=0.0, nbytes=237.0, value=168.0),
            _rec("sync/delta_bytes", "entries=1000,lambda=6,churn=50per1k",
                 ns=0.0, nbytes=4000.0, value=10.0),
            _rec("sync/full_bytes", "entries=1000,lambda=6", ns=0.0,
                 nbytes=40000.0),
            _rec("tree/full_build", "entries=1000,lambda=6", ns=4000.0),
            _rec("publish/epoch", "entries=1000,lambda=6,churn=2per1k",
                 ns=500.0),
            _rec("publish/epoch", "entries=1000,lambda=6,churn=50per1k",
                 ns=3000.0),
            _rec("verify/delta_fold", "entries=1000,lambda=6,churn=2per1k",
                 ns=400.0),
            _rec("tree/full_build", "entries=4096,lambda=16", ns=10000.0),
            _rec("tree/update", "entries=4096,lambda=16,churn=62per1k",
                 ns=6000.0),
            _rec("publish/epoch", "entries=4096,lambda=16,churn=62per1k",
                 ns=11000.0),
            _rec("verify/delta_fold", "entries=4096,lambda=16,churn=62per1k",
                 ns=9000.0),
        ]},
        "store": {"bench": "store", "results": [
            _rec("journal/append", "fs=mem,payload=64"),
            _rec("snapshot/commit", "fs=mem,records=100"),
            _rec("journal/recover", "fs=mem,records=100", value=100.0),
            _rec("store/load", "fs=mem,records=100", value=100.0),
        ]},
    }


def _set(name: str, params: str, key: str, value: float):
    def mutate(results: list[dict]) -> None:
        for r in results:
            if r["name"] == name and params in r["params"]:
                r[key] = value
    return mutate


def _drop(name: str, params: str = ""):
    def mutate(results: list[dict]) -> None:
        results[:] = [r for r in results
                      if not (r["name"] == name and params in r["params"])]
    return mutate


def _self_test_results() -> None:
    for kind, report in _synthetic_results().items():
        RESULT_CHECKS[kind](report)  # clean records pass

    doctored = (
        ("throughput", _set("kernel/batch_encode", "batch=64", "value", 0.9),
         "batch_encode regressed"),
        ("throughput", _set("kernel/batch_encode", "batch=256", "value", 0.5),
         "batch_encode regressed"),
        ("throughput", _drop("kernel/batch_encode", "batch=256"),
         "missing batch=256"),
        ("throughput", _set("pipeline/qps", "threads=2", "value", 0.0),
         "pipeline served zero queries"),
        ("throughput", _drop("pipeline/qps"), "no pipeline/qps"),
        ("throughput", _set("kernel/scalar_mul", "kernel=ifma", "value",
                            1.1), "scalar_mul regressed"),
        ("throughput", _drop("kernel/scalar_mul"),
         "no kernel/scalar_mul record"),
        ("throughput", _set("kernel/scalar_mul", "", "params", "kernel=avx2"),
         "unknown scalar_mul kernel"),
        ("throughput", _set("kernel/scalar_mul_pair", "kernel=ifma", "value",
                            1.2), "scalar_mul_pair regressed"),
        ("throughput", _drop("kernel/scalar_mul_pair"),
         "no kernel/scalar_mul_pair record"),
        ("throughput", _set("kernel/scalar_mul_pair", "", "params",
                            "kernel=serial"), "scalar_mul_pair ran"),
        ("throughput", _set("kernel/batch_hash_to_group", "batch=64",
                            "value", 1.1), "batch_hash_to_group regressed"),
        ("throughput", _set("kernel/batch_hash_to_group", "batch=256",
                            "value", 1.0), "batch_hash_to_group regressed"),
        ("throughput", _drop("kernel/batch_hash_to_group", "batch=256"),
         "missing batch_hash_to_group batch=256"),
        ("tlog", _set("sync/delta_bytes", "churn=2per1k", "value", 1.0),
         "delta sync regressed"),
        ("tlog", _drop("sync/delta_bytes", "churn=2per1k"),
         "missing churn=2per1k"),
        ("tlog", _set("sync/full_bytes", "", "bytes_per_query", 0.0),
         "sync/full_bytes"),
        ("tlog", _set("verify/checkpoint", "", "ns_per_op", 0.0),
         "missing verify timings"),
        ("tlog", _set("publish/epoch", "churn=2per1k", "ns_per_op", 2100.0),
         "publish/epoch costs O(list)"),
        ("tlog", _set("verify/delta_fold", "churn=2per1k", "ns_per_op",
                      4000.0),
         "verify/delta_fold costs O(list)"),
        ("tlog", _drop("publish/epoch", "churn=2per1k"),
         "missing publish/epoch"),
        ("tlog", _drop("tree/full_build"), "no tree/full_build"),
        ("tlog", _set("tree/update", "lambda=16", "ns_per_op", 10000.0),
         "tree/update rehashes unchanged buckets"),
        ("tlog", _set("publish/epoch", "lambda=16", "ns_per_op", 16000.0),
         "publish/epoch costs more than one reshape"),
        ("tlog", _set("verify/delta_fold", "lambda=16", "ns_per_op",
                      20000.0),
         "verify/delta_fold costs more than one reshape"),
        ("tlog", _drop("tree/update", "lambda=16"), "missing tree/update"),
        ("tlog", _drop("tree/full_build", "lambda=16"),
         "no tree/full_build record for entries=4096,lambda=16"),
        ("store", _set("journal/append", "", "ns_per_op", 0.0),
         "journal append"),
        ("store", _set("snapshot/commit", "", "ns_per_op", 0.0),
         "snapshot commit"),
        ("store", _set("journal/recover", "", "value", 99.0),
         "journal/recover lost records"),
        ("store", _set("store/load", "", "value", 99.0),
         "store/load lost records"),
        ("store", _drop("store/load"), "no store/load"),
    )
    for kind, mutate, needle in doctored:
        report = _synthetic_results()[kind]
        mutate(report["results"])
        _expect_rejected(lambda: RESULT_CHECKS[kind](report),
                         f"{kind}: {needle}", needle)
    _expect_rejected(lambda: check_throughput({"results": []}),
                     "empty results", "empty results")
    # A CPU without IFMA runs the serial bodies on both sides: ~1x passes,
    # for the single ladder, the pair and the hash batch alike.
    serial_host = _synthetic_results()["throughput"]
    for name in ("kernel/scalar_mul", "kernel/scalar_mul_pair"):
        _set(name, "", "params", "kernel=serial")(serial_host["results"])
        _set(name, "", "value", 0.97)(serial_host["results"])
    _set("kernel/batch_hash_to_group", "", "value", 0.98)(
        serial_host["results"])
    check_throughput(serial_host)
    # ...but not a ratio that is not positive.
    _set("kernel/scalar_mul_pair", "", "value", 0.0)(serial_host["results"])
    _expect_rejected(lambda: check_throughput(serial_host),
                     "serial scalar_mul_pair at 0x",
                     "scalar_mul_pair regressed")


def _self_test_macro() -> None:
    base = _synthetic_report()
    validate(base, "self-test base")
    compare(base, copy.deepcopy(base))  # an identical run passes

    for mutate, reason in (
        (lambda r: r["model"].pop("p99_ms"), "missing field"),
        (lambda r: r["model"].__setitem__("wrong_verdicts", 3),
         "wrong verdicts"),
        (lambda r: r["model"].__setitem__("shed_rate", 1.5),
         "shed rate out of range"),
        (lambda r: r["model"].__setitem__("p50_ms", 100.0),
         "non-monotone quantiles"),
        (lambda r: r["model"]["levels"][0].__setitem__("cache_hits", 999),
         "counts that do not sum"),
    ):
        broken = copy.deepcopy(base)
        mutate(broken)
        _expect_rejected(lambda: validate(broken, "self-test broken"),
                         reason)

    # The gates the golden rests on; each prints the finding it raised.
    def changed(mutate):
        report = copy.deepcopy(base)
        mutate(report)
        return report

    exact = (
        ("changed model value",
         lambda: compare(base, changed(
             lambda r: r["model"].__setitem__("p99_ms", 40.000001))),
         "model.p99_ms: baseline 40.0, candidate 40.000001"),
        ("changed level value",
         lambda: compare(base, changed(
             lambda r: r["model"]["levels"][0].__setitem__("shed", 1))),
         "model.levels[0].shed"),
        ("changed config value",
         lambda: compare(base, changed(
             lambda r: r["config"].__setitem__("service_ms", 21.0))),
         "config.service_ms: baseline 0, candidate 21.0"),
        ("changed config list",
         lambda: compare(base, changed(
             lambda r: r["config"].__setitem__("offered_qps",
                                               [100.0, 200.0]))),
         "config.offered_qps: 1 entries in the baseline, 2"),
        ("changed seed",
         lambda: compare(base, changed(lambda r: r.__setitem__("seed", 2))),
         "seed: baseline 1, candidate 2"),
        ("extra section",
         lambda: validate(changed(
             lambda r: r.__setitem__("cpu", {"qps": 1.0})),
             "self-test extra"),
         "unknown section 'cpu'"),
        ("missing section",
         lambda: validate(changed(lambda r: r.pop("model")),
                          "self-test missing"),
         "missing section 'model'"),
    )
    for reason, fn, needle in exact:
        print(f"  fires on {reason}: {_expect_rejected(fn, reason, needle)}")


def self_test() -> int:
    try:
        _self_test_macro()
        _self_test_results()
    except (SelfTestFailure, BenchError) as e:
        print(f"check_bench_regression self-test FAILED: {e}",
              file=sys.stderr)
        return 1
    print("check_bench_regression self-test OK")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", help="committed BENCH_macro.json")
    parser.add_argument("--candidate", help="freshly generated report")
    parser.add_argument("--check-results", nargs=2,
                        metavar=("{" + ",".join(RESULT_CHECKS) + "}", "PATH"),
                        help="sanity-check one bench --json report")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in self-test and exit")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.check_results:
        kind, path = args.check_results
        if kind not in RESULT_CHECKS:
            parser.error(f"--check-results kind must be one of "
                         f"{', '.join(RESULT_CHECKS)}")
        return check_results(kind, path)
    if not args.baseline or not args.candidate:
        parser.error("--baseline and --candidate are required "
                     "(or use --self-test)")
    return check_files(args.baseline, args.candidate)


if __name__ == "__main__":
    sys.exit(main())
