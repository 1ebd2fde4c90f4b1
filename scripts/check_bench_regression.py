#!/usr/bin/env python3
"""Gate BENCH_macro.json against a committed baseline.

Compares the *model* section of a fresh macro-load run (bit-reproducible
virtual-time numbers — see src/load/macro.h) against the baseline
committed at the repo root, and fails when the trajectory drifted:

  * candidate p99 latency      >  baseline * (1 + --max-drift)
  * candidate sustained QPS    <  baseline * (1 - --max-drift)

Before comparing, both files must pass schema + self-consistency
validation (all canonical fields present, p50 <= p99 <= p999, shed rate
in [0, 1], zero wrong verdicts, per-level counts that add up), and the
candidate must have been produced by the same (seed, config) as the
baseline — otherwise the comparison is meaningless and the script fails
loudly rather than green-lighting apples vs oranges.

The "cpu" section (real machine time) is intentionally ignored.

Usage:
  check_bench_regression.py --baseline BENCH_macro.json --candidate fresh.json
  check_bench_regression.py --self-test

Exit codes: 0 = OK, 1 = regression/validation failure, 2 = usage error.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys

DEFAULT_MAX_DRIFT = 0.15

_CONFIG_KEYS = (
    "simulated_clients", "unique_addresses", "listed_addresses", "zipf_s",
    "cache_hit_ratio", "prefix_local_ratio", "offered_qps",
    "queries_per_level", "service_ms", "max_inflight",
    "transport_latency_ms", "lambda", "chaos",
    "burst_threads", "burst_queries", "slo",
)
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
    for section in ("config", "model", "cpu"):
        _require(isinstance(report.get(section), dict), what,
                 f"missing section {section!r}")
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


def compare(baseline: dict, candidate: dict, max_drift: float) -> list[str]:
    """Returns a list of human-readable regression findings (empty = OK)."""
    _require(baseline["seed"] == candidate["seed"], "compare",
             f"seed mismatch: baseline {baseline['seed']} vs candidate "
             f"{candidate['seed']} — rerun with the baseline seed")
    _require(baseline["config"] == candidate["config"], "compare",
             "config mismatch: baseline and candidate measured different "
             "setups; regenerate the baseline if the config change is "
             "intentional")

    base, cand = baseline["model"], candidate["model"]
    findings = []
    p99_limit = base["p99_ms"] * (1.0 + max_drift)
    if cand["p99_ms"] > p99_limit:
        findings.append(
            f"p99 regression: {cand['p99_ms']:.3f} ms > "
            f"{p99_limit:.3f} ms (baseline {base['p99_ms']:.3f} ms "
            f"+{max_drift:.0%})")
    qps_floor = base["sustained_qps_at_slo"] * (1.0 - max_drift)
    if cand["sustained_qps_at_slo"] < qps_floor:
        findings.append(
            f"sustained-QPS regression: {cand['sustained_qps_at_slo']:.1f} "
            f"< {qps_floor:.1f} (baseline "
            f"{base['sustained_qps_at_slo']:.1f} -{max_drift:.0%})")
    return findings


def check_files(baseline_path: str, candidate_path: str,
                max_drift: float) -> int:
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
        findings = compare(baseline, candidate, max_drift)
    except BenchError as e:
        print(f"FAIL: {e}", file=sys.stderr)
        return 1
    if findings:
        for finding in findings:
            print(f"FAIL: {finding}", file=sys.stderr)
        return 1
    base, cand = baseline["model"], candidate["model"]
    print(f"OK: sustained {cand['sustained_qps_at_slo']:.0f} qps "
          f"(baseline {base['sustained_qps_at_slo']:.0f}), "
          f"p99 {cand['p99_ms']:.2f} ms (baseline {base['p99_ms']:.2f}), "
          f"drift tolerance {max_drift:.0%}")
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
        "cpu": {"per_stage_ns": {}, "burst_qps": 0.0},
    }


def self_test() -> int:
    base = _synthetic_report()
    validate(base, "self-test base")

    ok = copy.deepcopy(base)
    ok["model"]["p99_ms"] = 44.0  # +10% < 15% drift
    assert not compare(base, ok, DEFAULT_MAX_DRIFT), "in-tolerance drift"

    inflated = copy.deepcopy(base)
    inflated["model"]["p99_ms"] = 80.0
    inflated["model"]["p999_ms"] = 90.0
    findings = compare(base, inflated, DEFAULT_MAX_DRIFT)
    assert any("p99 regression" in f for f in findings), "p99 gate dead"

    slower = copy.deepcopy(base)
    slower["model"]["sustained_qps_at_slo"] = 50.0
    findings = compare(base, slower, DEFAULT_MAX_DRIFT)
    assert any("sustained-QPS regression" in f for f in findings), \
        "QPS gate dead"

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
        try:
            validate(broken, "self-test broken")
        except BenchError:
            pass
        else:
            raise AssertionError(f"validation missed: {reason}")

    other_seed = copy.deepcopy(base)
    other_seed["seed"] = 2
    try:
        compare(base, other_seed, DEFAULT_MAX_DRIFT)
    except BenchError:
        pass
    else:
        raise AssertionError("seed mismatch not rejected")

    other_config = copy.deepcopy(base)
    other_config["config"]["offered_qps"] = [100.0, 200.0]
    try:
        compare(base, other_config, DEFAULT_MAX_DRIFT)
    except BenchError:
        pass
    else:
        raise AssertionError("config mismatch not rejected")

    print("check_bench_regression self-test OK")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", help="committed BENCH_macro.json")
    parser.add_argument("--candidate", help="freshly generated report")
    parser.add_argument("--max-drift", type=float, default=DEFAULT_MAX_DRIFT,
                        help="allowed relative drift (default 0.15)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in self-test and exit")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.baseline or not args.candidate:
        parser.error("--baseline and --candidate are required "
                     "(or use --self-test)")
    if not 0.0 < args.max_drift < 1.0:
        parser.error("--max-drift must be in (0, 1)")
    return check_files(args.baseline, args.candidate, args.max_drift)


if __name__ == "__main__":
    sys.exit(main())
