#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/selftest.py [--seconds 1]

Checks, without judging any timing:
  * BENCHMARK.json has the required shape, and every metric name matches
    [A-Za-z0-9_.-]+ and is declared once;
  * per workload: the same seed gives the same input digest, another seed
    a different one; a plain run prints exactly the declared end-to-end
    metrics with failed == 0, a traced run exactly the declared per-layer
    metrics; the core.* counts repeat exactly for the same seed, and a
    traced pass closes one core.optimize span per input; and a run
    with one deliberately corrupted answer reports failed > 0, i.e. a
    failed share above 0;
  * the serve_perturb rate quoted in BENCHMARK.json is the one in
    src/workloads.hpp.
Exit 0 when all hold, 1 otherwise.
"""
import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
FAILURES = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        FAILURES.append(what)


def check_spec(spec):
    check(set(spec) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    for n in names:
        check(len(n) <= 64 and NAME_RE.fullmatch(n) is not None
              and n[0].isalnum(), f"name {n!r} matches [A-Za-z0-9_.-]+")
    check(len(names) == len(set(names)), "every name is used once")
    for m in spec["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"}
              and 0 < m["bound"] <= 0.25, f"end_to_end {m['name']} fields")
    for m in spec["per_layer"]:
        check(set(m) == {"name", "unit", "better"},
              f"per_layer {m['name']} fields")
    for m in spec["end_to_end"] + spec["per_layer"]:
        check(UNIT_RE.fullmatch(m["unit"]) is not None
              and m["better"] in ("lower", "higher"),
              f"{m['name']} unit/better")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(len(setup) == 1 and setup[0]["unit"] == "s"
          and setup[0]["better"] == "lower"
          and setup[0]["bound"] == max(m["bound"]
                                       for m in spec["end_to_end"]),
          "setup_s declared with the largest bound")
    check(2 <= len(spec["workloads"]) <= 8, "2-8 workloads")
    for w in spec["workloads"]:
        check(set(w) == {"name", "why"} and len(w["why"]) <= 200
              and "\n" not in w["why"], f"workload {w['name']} why")


def run(workload, seed, seconds, trace, corrupt=False):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           str(trace)]
    if corrupt:
        cmd.append("--corrupt-answer")
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    if out.returncode != 0:
        sys.stderr.write(out.stderr[-2000:])
        raise SystemExit(f"{' '.join(cmd)}: exit {out.returncode}")
    lines = out.stdout.strip().splitlines()
    digest = next(l.split()[1] for l in lines if l.startswith("input_digest"))
    facts = dict(l.split()[1:3] for l in lines if l.startswith("fact "))
    return digest, json.loads(lines[-1]), facts


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=1.0)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    source = (HERE / "src" / "workloads.hpp").read_text()
    rate = re.search(r"kServeRate = ([0-9.]+);", source).group(1)
    why = next(w["why"] for w in spec["workloads"]
               if w["name"] == "serve_perturb")
    check(f"{float(rate):g} req/s" in why,
          f"serve_perturb why quotes kServeRate ({rate} req/s)")

    for w in [w["name"] for w in spec["workloads"]]:
        d1, r1, _ = run(w, 1, args.seconds, 0)
        d1b, _, _ = run(w, 1, args.seconds, 0)
        d2, _, _ = run(w, 2, args.seconds, 0)
        check(d1 == d1b, f"{w}: same seed, same input digest")
        check(d1 != d2, f"{w}: other seed, other input digest")
        check({k: v["unit"] for k, v in r1["metrics"].items()} == e2e,
              f"{w}: plain run prints exactly the end-to-end metrics")
        check(r1["correct"] and r1["failed"] == 0 and r1["attempted"] > 0,
              f"{w}: no failed op")
        _, t1, facts = run(w, 1, args.seconds, 1)
        _, t1b, _ = run(w, 1, args.seconds, 1)
        check({k: v["unit"] for k, v in t1["metrics"].items()} == layer,
              f"{w}: traced run prints exactly the per-layer metrics")
        counts = {k: v["value"] for k, v in t1["metrics"].items()
                  if k.startswith("core.") and not k.endswith("busy_s")}
        counts_b = {k: v["value"] for k, v in t1b["metrics"].items()
                    if k.startswith("core.") and not k.endswith("busy_s")}
        check(counts == counts_b and counts["core.cands_generated"] > 0,
              f"{w}: core.* counts repeat exactly for the same seed")
        check(counts["core.optimize.calls"] == int(facts["inputs"]),
              f"{w}: one core.optimize span per input in a traced pass")
        _, bad, _ = run(w, 1, args.seconds, 0, corrupt=True)
        check(bad["failed"] > 0 and not bad["correct"]
              and bad["metrics"]["ok_share"]["value"] < 1.0,
              f"{w}: a corrupted answer raises the failed share above 0")
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
