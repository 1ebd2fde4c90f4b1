#!/usr/bin/env python3
"""Compares two sets of bench_e2e runs against BENCHMARK.json's bounds.

    python3 bench/e2e/compare.py BASE_DIR CAND_DIR [--benchmark PATH]
    python3 bench/e2e/compare.py --self-test

Each directory holds report files written by `bench_e2e --json`. For
every workload x end-to-end metric it prints each side's median and
quartiles and one verdict:

  improved       the gain rule holds: at least 10 base/candidate pairs run
                 in alternating order, the candidate wins at least 9 in
                 10 of them (ties count for neither side), and the medians
                 differ by more than the base runs' interquartile range;
  no_regression  the candidate median is not worse than the base median
                 by more than the metric's bound;
  regressed      it is worse by more than the bound;
  unresolved     either side's spread (IQR / median) exceeds the bound,
                 unless every candidate run beats every base run.

Pairs are formed in run order (by each report's started_at). Exits 1
when any verdict is regressed or unresolved, 0 otherwise.
"""

import argparse
import io
import json
import statistics
import sys
from pathlib import Path

DEFAULT_BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_runs(directory):
    """workload -> list of reports, in run order."""
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        report = json.loads(path.read_text())
        if report.get("bench") != "e2e":
            continue
        runs.setdefault(report["workload"], []).append(report)
    for reports in runs.values():
        reports.sort(key=lambda r: r["started_at"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def judge(metric, base, cand):
    """Verdict for one metric; `base`/`cand` are lists of (started_at, value)."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    bv = [v for _, v in base]
    cv = [v for _, v in cand]
    b1, bm, b3 = quartiles(bv)
    c1, cm, c3 = quartiles(cv)
    b_spread = (b3 - b1) / abs(bm) if bm else float("inf")
    c_spread = (c3 - c1) / abs(cm) if cm else float("inf")
    worse = (cm - bm) / abs(bm) if lower else (bm - cm) / abs(bm)

    def beats(c, b):
        return c < b if lower else c > b

    pairs = list(zip(base, cand))
    alternating = all(
        (b[0] < c[0]) != (pairs[i - 1][0][0] < pairs[i - 1][1][0])
        for i, (b, c) in enumerate(pairs) if i > 0)
    wins = sum(beats(c[1], b[1]) for b, c in pairs)
    if (len(pairs) >= 10 and alternating and wins * 10 >= 9 * len(pairs)
            and abs(cm - bm) > b3 - b1 and beats(cm, bm)):
        verdict = "improved"
    elif max(b_spread, c_spread) > bound:
        all_better = all(beats(c, b) for c in cv for b in bv)
        verdict = "no_regression" if all_better else "unresolved"
    elif worse > bound:
        verdict = "regressed"
    else:
        verdict = "no_regression"
    return {
        "verdict": verdict, "base": (b1, bm, b3), "cand": (c1, cm, c3),
        "worse": worse, "spread": max(b_spread, c_spread),
        "pairs": len(pairs), "wins": wins, "alternating": alternating,
    }


def compare(spec, base_runs, cand_runs, out=sys.stdout):
    verdicts = []
    for workload in sorted(set(base_runs) | set(cand_runs)):
        base = base_runs.get(workload, [])
        cand = cand_runs.get(workload, [])
        if not base or not cand:
            print(f"{workload}: missing runs (base {len(base)}, candidate "
                  f"{len(cand)})", file=out)
            verdicts.append("unresolved")
            continue
        print(f"{workload}: {len(base)} base runs, {len(cand)} candidate runs",
              file=out)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [(r["started_at"], r["metrics"][name]["value"]) for r in base
                 if r["metrics"].get(name, {}).get("value") is not None]
            c = [(r["started_at"], r["metrics"][name]["value"]) for r in cand
                 if r["metrics"].get(name, {}).get("value") is not None]
            if not b or not c:
                print(f"  {name:22s} missing", file=out)
                verdicts.append("unresolved")
                continue
            j = judge(metric, b, c)
            verdicts.append(j["verdict"])
            print(f"  {name:22s} base {j['base'][1]:.6g} "
                  f"[{j['base'][0]:.6g}, {j['base'][2]:.6g}]  cand "
                  f"{j['cand'][1]:.6g} [{j['cand'][0]:.6g}, {j['cand'][2]:.6g}] "
                  f"{metric['unit']}  worse {100 * j['worse']:+.1f}% "
                  f"(bound {100 * metric['bound']:.0f}%, spread "
                  f"{100 * j['spread']:.1f}%, wins {j['wins']}/{j['pairs']}"
                  f"{'' if j['alternating'] else ', not alternating'})  "
                  f"{j['verdict']}", file=out)
    return verdicts


def self_test():
    spec = {"end_to_end": [
        {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "server_qps", "unit": "qps", "better": "higher", "bound": 0.1},
    ]}

    # Pair i holds slots 2i and 2i+1; the base runs first in even pairs.
    base_first = [2 * i + i % 2 for i in range(10)]
    cand_second = [2 * i + 1 - i % 2 for i in range(10)]
    later = [100 + i for i in range(10)]

    def runs(p50s, qps, times):
        return {"w": [{"bench": "e2e", "workload": "w", "started_at": t,
                       "metrics": {"p50_ms": {"value": p, "unit": "ms"},
                                   "server_qps": {"value": q, "unit": "qps"}}}
                      for p, q, t in zip(p50s, qps, times)]}

    jitter = [1.00, 1.02, 0.99, 1.01, 0.98, 1.00, 1.03, 0.97, 1.01, 0.99]
    same = runs(jitter, [1000 * j for j in jitter], base_first)
    twin = runs(jitter[::-1], [1000 * j for j in jitter[::-1]], cand_second)
    slower = runs([1.3 * j for j in jitter], [1000 * j for j in jitter],
                  cand_second)
    faster = runs([0.7 * j for j in jitter], [1300 * j for j in jitter],
                  cand_second)
    # The same gain, but every candidate ran after every base run.
    faster_late = runs([0.7 * j for j in jitter], [1300 * j for j in jitter],
                       later)
    few = {"w": faster["w"][:5]}
    noisy = runs([1.0, 1.5, 0.7, 1.4, 0.8, 1.0, 1.6, 0.6, 1.2, 0.9],
                 [1000 * j for j in jitter], cand_second)
    cases = [
        (same, twin, ["no_regression", "no_regression"]),
        (same, slower, ["regressed", "no_regression"]),
        (same, faster, ["improved", "improved"]),
        (same, faster_late, ["no_regression", "no_regression"]),
        ({"w": same["w"][:5]}, few, ["no_regression", "no_regression"]),
        (same, noisy, ["unresolved", "no_regression"]),
    ]
    sink = io.StringIO()
    for i, (base, cand, want) in enumerate(cases):
        got = compare(spec, base, cand, out=sink)
        if got != want:
            print(f"compare.py self-test: case {i} gave {got}, want {want}")
            return 1
    print("compare.py self-test: ok")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="Compare two sets of bench_e2e runs.")
    parser.add_argument("base", nargs="?")
    parser.add_argument("cand", nargs="?")
    parser.add_argument("--benchmark", default=str(DEFAULT_BENCHMARK))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.base or not args.cand:
        parser.error("BASE_DIR and CAND_DIR are required")
    spec = json.loads(Path(args.benchmark).read_text())
    verdicts = compare(spec, load_runs(args.base), load_runs(args.cand))
    bad = [v for v in verdicts if v in ("regressed", "unresolved")]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
