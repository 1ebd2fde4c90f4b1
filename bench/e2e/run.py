#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark for one workload.

    python3 bench/e2e/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds bench_e2e from source (CMake,
Release) under $CARGO_TARGET_DIR (default .bench_build), runs the
workload, checks the report, and prints as the last line of stdout one
JSON object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. Build and benchmark chatter go to stderr.
Exits 0 when every verdict was right, 1 otherwise.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN_TIMEOUT_S = 170


def build(build_dir: Path) -> Path:
    # The compiler's scratch files stay inside the build directory too.
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir),
           "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (build_dir / "CMakeCache.txt").exists():
        cmd += ["-G", "Ninja"]
    subprocess.run(cmd, check=True, stdout=sys.stderr, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "bench_e2e", "-j", jobs], check=True, stdout=sys.stderr,
                   env=env)
    return build_dir / "bench_e2e"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (base if base.is_absolute() else ROOT / base) / "e2e"
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    out_dir = build_dir / "runs"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-{args.seed}-trace{args.trace}"
    report_path = out_dir / f"{stem}.json"
    report_path.unlink(missing_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--json",
           str(report_path)]
    if args.trace:
        cmd += ["--trace", str(out_dir / f"{stem}.trace.json")]
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1
    if not report_path.exists():
        print(f"run.py: no report (exit {proc.returncode})", file=sys.stderr)
        return 1
    report = json.loads(report_path.read_text())

    metrics = {}
    for m in wanted:
        got = report["metrics"].get(m["name"])
        value = got and got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value) \
                or got["unit"] != m["unit"]:
            print(f"run.py: metric {m['name']} missing, non-finite or not in "
                  f"{m['unit']}: {got}", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    correct = bool(report["correct"]) and proc.returncode == 0
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
