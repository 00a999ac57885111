#!/usr/bin/env python3
"""Builds the engine and the perfbench program from source, then runs one
benchmark workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The build goes to .bench_build/perfbench
(configured Release). The program's own report lines are passed through; the
last stdout line is the result JSON. A copy of each result, with its
provenance (host CPUs, build type, git sha, seed, workload sizes), is kept
under .bench_build/perfbench/results/. Exits non-zero, without a result
line, when the build fails or the result lacks a metric that BENCHMARK.json
lists for the mode; exits non-zero after the result line when a correctness
check fails.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BUILD_TYPE = "Release"
WORKLOADS = ("one_shard", "four_shard")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"engine sources not found under {ROOT / 'src'}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = (
        ["cmake", "-S", str(HERE), "-B", str(BUILD),
         f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
        ["cmake", "--build", str(BUILD), "-j", jobs],
    )
    for cmd in steps:
        # Build chatter goes to stderr so stdout ends with the result line.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              check=False)
        if proc.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return BUILD / "perfbench"


def expected_metrics(trace):
    """The metric names and units BENCHMARK.json lists for this mode."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in manifest["per_layer" if trace else "end_to_end"]}


def git_sha():
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be within 1..60")

    binary = build()
    work = BUILD / "work"
    results = BUILD / "results"
    work.mkdir(parents=True, exist_ok=True)
    results.mkdir(parents=True, exist_ok=True)
    sha = git_sha()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work), "--git-sha", sha]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"benchmark program exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        result = None
    report = lines[:-1] if result is not None else lines
    for line in report:
        print(line)
    if result is None:
        fail(f"benchmark program exited with code {proc.returncode} "
             "and no result")
    want = expected_metrics(args.trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        fail("result metrics do not match BENCHMARK.json: missing "
             f"{sorted(set(want) - set(got))}, extra "
             f"{sorted(set(got) - set(want))}, or a unit differs")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "build_type": BUILD_TYPE,
        "git_sha": sha,
        "report": report,
        "result": result,
    }
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    # A failed correctness check still reports its result, then fails.
    sys.exit(0 if proc.returncode == 0 and result.get("correct") else 1)


if __name__ == "__main__":
    main()
