#!/usr/bin/env python3
"""The CODS benchmark: builds the harness from source, runs one workload,
checks the result and prints it as one JSON object on the last line.

    python3 codsbench/run.py --workload evolve|mixed --seed N \
        --seconds S --trace 0|1
    python3 codsbench/run.py --selftest

Run it from the root of a checkout. The build goes to .bench_build/, each
run's databases to .bench_run/ (removed afterwards) and a traced run's
spans to .bench_out/. --trace 0 prints the end-to-end metrics of
BENCHMARK.json, --trace 1 the per-layer ones. Exits non-zero without a
result line when the build or the run fails or any answer is wrong.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "codsbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(target):
    """Configures once, then builds `target`; every byte of output goes to
    stderr so stdout carries only the result."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(src) or not any(
            f.endswith(".cc") for _, _, fs in os.walk(src) for f in fs):
        log(f"codsbench: no library sources under {src}; run from the root "
            "of a full checkout")
        return False
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        r = subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    r = subprocess.run(
        ["cmake", "--build", BUILD, "-j", jobs, "--target", target],
        stdout=sys.stderr, stderr=sys.stderr)
    return r.returncode == 0


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=["evolve", "mixed"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if args.selftest:
        if not build("bench_selftest"):
            return 2
        return subprocess.run([os.path.join(BUILD, "bench_selftest")]).returncode
    if args.workload is None:
        ap.error("--workload is required")
    if not build("cods_bench"):
        return 2

    run_dir = os.path.join(ROOT, ".bench_run", f"{args.workload}-{os.getpid()}")
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(BUILD, "cods_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--dir", run_dir]
    if args.trace:
        cmd += ["--spans", os.path.join(
            out_dir, f"spans-{args.workload}-{args.seed}.jsonl")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"codsbench: {args.workload} ran past {RUN_TIMEOUT_S} s")
        return 3
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if proc.returncode != 0:
        log(f"codsbench: cods_bench exited with {proc.returncode}")
        return proc.returncode if proc.returncode > 0 else 4
    lines = [l for l in stdout.splitlines() if l.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("codsbench: cods_bench printed no result")
        return 5

    if result.get("correct") is not True:
        log("codsbench: the run gave a wrong answer; no result")
        return 7
    want = expected_metrics(args.trace)
    got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
    if got != want:
        log(f"codsbench: metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(want) - set(got))}, extra "
            f"{sorted(set(got) - set(want))}, units "
            f"{sorted(k for k in got if k in want and got[k] != want[k])}")
        return 6
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
