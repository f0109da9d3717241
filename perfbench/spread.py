#!/usr/bin/env python3
"""Check that the benchmark is steady: seeds x workloads, spread vs bound.

    python3 perfbench/spread.py [--seeds 10] [--sets 1] [--workloads a,b]
                                [--seconds S] [--first-seed 1] [--verbose]

For each workload, runs run.py once per seed (--trace 0) and reports every
end-to-end metric's median and its spread: the distance between the first
and third quartile (statistics.quantiles(values, n=4)) as a share of the
median. A spread above the metric's bound fails, setup_s's too; the target
is a spread below a third of the bound. With --sets 2 the same seeds
run twice, and each second median may be worse than the first by at most
the bound. Exit 0 when every check holds, 1 otherwise.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    if out.returncode != 0:
        sys.stderr.write(out.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"  {workload} seed {seed}: {result['failed']} failed op(s)")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else 0.0


def worse(first, second, better):
    """Relative worsening of `second` against `first` (> 0 = worse)."""
    if first == 0:
        return 0.0
    delta = (second - first) / first
    return delta if better == "lower" else -delta


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--sets", type=int, choices=[1, 2], default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=float, default=0)
    ap.add_argument("--verbose", action="store_true",
                    help="also print every run's value")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    ok = True
    for workload in names:
        sets = []
        for s in range(args.sets):
            runs = [run_once(workload, seed, seconds) for seed in seeds]
            sets.append(runs)
        print(f"== {workload} ({len(seeds)} seeds, {seconds} s)")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            row = []
            for runs in sets:
                med, spr = spread([r[name] for r in runs])
                row.append(med)
                flag = ""
                if spr > bound:
                    flag, ok = " FAIL", False
                elif spr > bound / 3:
                    flag = " (above bound/3)"
                print(f"  {name:16s} median {med:12.6g}  spread "
                      f"{spr:7.2%}  bound {bound:.0%}{flag}")
                if args.verbose:
                    print("    " + " ".join(f"{r[name]:.5g}" for r in runs))
            if len(row) == 2:
                w = worse(row[0], row[1], m["better"])
                flag = " FAIL" if w > bound else ""
                ok = ok and w <= bound
                print(f"  {name:16s} second median worse by {w:+.2%}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
