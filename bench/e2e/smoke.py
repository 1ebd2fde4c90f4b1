#!/usr/bin/env python3
"""Smoke test for bench_e2e (registered as the bench_e2e_smoke ctest).

    python3 bench/e2e/smoke.py --binary <path to bench_e2e>

Runs every workload with --seconds 2 and --trace (two passes of 1 s of
phases each). Checks that each run exits 0 with no wrong verdict, no
failed operation and zero retries, timeouts, rate limits and pipeline
sheds; that every metric BENCHMARK.json names is present, finite and in
its unit; and that the span file parses. Then runs compare.py
--self-test. Scratch files go to a temporary directory under
the working directory.
"""

import argparse
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("online_lookup", "prefix_filtered", "churn_sync")


def check_workload(binary, workload, spec, scratch):
    report_path = scratch / f"{workload}.json"
    trace_path = scratch / f"{workload}.trace.json"
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", "20261016", "--seconds",
         "2", "--json", str(report_path), "--trace", str(trace_path)],
        capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    report = json.loads(report_path.read_text())
    errors = []
    if report["wrong"] != 0 or report["failed"] != 0:
        errors.append(f"wrong={report['wrong']} failed={report['failed']}")
    for guard in ("retries", "timeouts", "rate_limited", "pipeline_shed"):
        if report["counts"][guard] != 0:
            errors.append(f"{guard}={report['counts'][guard]}")
    for metric in spec["end_to_end"] + spec["per_layer"]:
        got = report["metrics"].get(metric["name"])
        if got is None:
            errors.append(f"missing {metric['name']}")
        elif not isinstance(got["value"], (int, float)) \
                or not math.isfinite(got["value"]):
            errors.append(f"non-finite {metric['name']}: {got['value']}")
        elif got["unit"] != metric["unit"]:
            errors.append(f"{metric['name']} in {got['unit']}, "
                          f"want {metric['unit']}")
    if not json.loads(trace_path.read_text())["traceEvents"]:
        errors.append("empty trace")
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--binary", required=True)
    args = parser.parse_args()
    spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    failures = 0
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        for workload in WORKLOADS:
            errors = check_workload(args.binary, workload, spec, Path(tmp))
            print(f"{workload}: {'ok' if not errors else '; '.join(errors)}")
            failures += bool(errors)
    self_test = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), "--self-test"])
    failures += self_test.returncode != 0
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
