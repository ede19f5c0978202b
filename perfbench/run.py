#!/usr/bin/env python3
"""The nodeshare repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload saturated-cobackfill --seed 1 \\
        --seconds 30 --trace 0

Without --workload it measures every workload in BENCHMARK.json in turn,
one after another.

Builds the `nodeshare-perfbench` package (perfbench/Cargo.toml) in release
mode into $CARGO_TARGET_DIR (default: .bench_build), then runs its
`measure` command for the workload in a child process. With --trace 0 it
also runs its `peak` command, one plain simulation in a second, fresh
process that reports its own peak resident memory (VmHWM) as
`peak_rss_mib`, so no other run's high-water mark can mask it. Prints every metric by name and unit, then one JSON line with
the keys correct, attempted, failed and metrics, the last line of standard
output when one workload is measured. Exits non-zero when any output check
fails.

See perfbench/README.md for the workloads and what each metric measures.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(target_dir):
    """Builds the benchmark binary offline; returns its path."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(target_dir, "release", "nodeshare-perfbench")


def run_child(cmd):
    """Runs cmd to completion; returns (exit code, last stdout line as a
    JSON object or None)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    lines = out.strip().splitlines()
    try:
        report = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        report = None
    return proc.returncode, report


def measure_workload(binary, workload, args, wanted):
    """Measures one workload; prints its metrics and returns the result
    object (correct, attempted, failed, metrics)."""
    data = os.path.join(ROOT, ".bench_build", "perfbench-data",
                        f"{workload}-{args.seed}-{os.getpid()}")
    os.makedirs(data, exist_ok=True)
    common = ["--workload", workload, "--seed", str(args.seed), "--data", data]
    try:
        code, report = run_child(
            [binary, "measure", *common, "--seconds", str(args.seconds),
             "--trace", str(args.trace)])
        if report is None:
            fail(f"measure exited {code} without a report")
        errors = list(report["errors"])
        if code != 0 and not errors:
            errors.append(f"measure exited {code}")
        metrics = report["metrics"]
        attempted, failed = report["attempted"], report["failed"]
        if not args.trace:
            code, peak = run_child([binary, "peak", *common])
            if peak is None:
                fail(f"peak exited {code} without a report")
            errors += peak["errors"]
            attempted += peak["attempted"]
            failed += peak["failed"]
            if peak["counters"] != report["counters"]:
                errors.append("nondeterminism across processes: peak run counters "
                              f"{peak['counters']} vs {report['counters']}")
                failed += peak["attempted"]
            metrics.update(peak["metrics"])
    finally:
        shutil.rmtree(data, ignore_errors=True)

    result = {}
    for m in wanted:
        got = metrics.get(m["name"])
        value = got and got["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"metric {m['name']} missing or not finite: {got}")
        elif got["unit"] != m["unit"]:
            errors.append(f"metric {m['name']} has unit {got['unit']}, want {m['unit']}")
        else:
            result[m["name"]] = {"value": value, "unit": m["unit"]}
    extra = set(metrics) - {m["name"] for m in wanted}
    if extra:
        errors.append(f"metrics not declared in BENCHMARK.json: {sorted(extra)}")

    print(f"perfbench {workload} seed={args.seed} trace={args.trace}")
    for name, m in result.items():
        print(f"  {name:<28} {m['value']:>16.6g} {m['unit']}")
    print(f"  counters: {report['counters']}")
    for e in errors:
        print(f"  CHECK FAILED: {e}")
    correct = not errors
    if not correct and failed == 0:
        failed = attempted
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": result}


def main():
    # On SIGTERM, unwind so that the child is stopped and temporary files go.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", help="one workload (default: each in turn)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload is not None and args.workload not in names:
        fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(target_dir)
    correct = True
    for workload in [args.workload] if args.workload else names:
        result = measure_workload(binary, workload, args, wanted)
        print(json.dumps(result))
        correct = correct and result["correct"]
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
