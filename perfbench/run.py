#!/usr/bin/env python3
"""Build the nbuf benchmark program and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source tree. The first run configures and
builds perfbench/ (which builds the repository's libraries from src/) into
.bench_build/; later runs only re-check the build. The stdout of the
benchmark program (nbuf_perfbench) is passed through: "input_digest" and
"fact" lines, then one JSON line with the keys correct, attempted, failed
and metrics. Before printing that line
this script checks that its metric names and units are exactly the ones
BENCHMARK.json declares for the mode (end_to_end for --trace 0, per_layer
for --trace 1).

Exit status: 0 after a completed run, 1 when the run failed or its output
broke the contract, 2 on a usage error, 3 when the sources to build are
missing (no result line is printed in any of these cases).
"""
import argparse
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = Path(".bench_build")  # relative to ROOT; keeps socket paths short
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def fail(code, message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(3, f"{path} not found")
    with open(path) as f:
        return json.load(f)


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; kills it on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr,
                            stderr=sys.stderr)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(1, f"timed out: {' '.join(cmd)}")


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(3, f"no nbuf sources (CMakeLists.txt, src/) in {ROOT}")
    if shutil.which("cmake") is None:
        fail(3, "cmake not found")
    build_dir = BUILD / "perfbench"
    if not (ROOT / build_dir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", "perfbench", "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run_logged(cmd, BUILD_TIMEOUT_S) != 0:
            shutil.rmtree(ROOT / build_dir, ignore_errors=True)
            fail(3, "configuring the benchmark failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if run_logged(["cmake", "--build", str(build_dir), "--target",
                   "nbuf_perfbench", "-j", jobs], BUILD_TIMEOUT_S) != 0:
        fail(3, "building the benchmark failed")
    return build_dir / "nbuf_perfbench"


def check_result(result, declared):
    """The result line's shape and metric set must match BENCHMARK.json."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a whole number >= 1"
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        return "failed must be a whole number >= 0"
    metrics = result["metrics"]
    for name in metrics:
        if not NAME_RE.fullmatch(name):
            return f"metric name {name!r} is not [A-Za-z0-9_.-]+"
    if set(metrics) != set(declared):
        missing = sorted(set(declared) - set(metrics))
        extra = sorted(set(metrics) - set(declared))
        return f"metrics differ from BENCHMARK.json: missing {missing}, " \
               f"undeclared {extra}"
    for name, m in metrics.items():
        if set(m) != {"value", "unit"} or m["unit"] != declared[name]:
            return f"metric {name}: unit {m.get('unit')!r}, " \
                   f"declared {declared[name]!r}"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    # Self-test hook: nbuf_perfbench falsifies one answer; failed must be > 0.
    ap.add_argument("--corrupt-answer", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args()

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(2, f"unknown workload {args.workload!r}")
    if args.seconds <= 0:
        fail(2, "--seconds must be > 0")
    key = "per_layer" if args.trace == "1" else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[key]}

    program = build()
    cmd = [str(program), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", repr(args.seconds), "--trace",
           args.trace, "--socket-dir", str(BUILD)]
    if args.trace == "1":
        traces = BUILD / "traces"
        (ROOT / traces).mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    if args.corrupt_answer:
        cmd.append("--corrupt-answer")
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(1, f"{args.workload} did not finish in {RUN_TIMEOUT_S} s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(1, f"nbuf_perfbench exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(1, f"last output line is not JSON: {lines[-1]!r}")
    problem = check_result(result, declared)
    if problem:
        fail(1, problem)
    print(f"fact workload {args.workload}")
    print(f"fact seed {args.seed}")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
