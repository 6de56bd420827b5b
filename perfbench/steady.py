#!/usr/bin/env python3
"""Steadiness self-check for the repository benchmark.

Runs every workload in several fresh processes (one seed each), then
reports for each end-to-end metric the median, the quartiles and the
spread (q3 - q1) / median against the metric's bound in BENCHMARK.json,
and, for comparison, the spread of the unscaled host-time ops_per_s and
op_p50_us each run prints.
It also makes two traced runs per workload with the same seed, checks that
every per-layer counter (every per-layer metric that is not a time) reads
the same in both, prints the tracing overhead each traced run measured
(untraced minus traced ops_per_s and op_p50_us, from alternating rounds of
one process) and checks that the share of failed ops is the same in every
run.

    python3 perfbench/steady.py [--runs 10] [--seed 1]
                                [--workloads rpc_fanout,reg_churn]

Run it from the repository root. Every run measures for BENCHMARK.json's
run_seconds, the length the bounds hold for. It exits 1 if a spread
exceeds its bound, a counter differs between same-seed runs, the failed
share differs between runs, or a run reports `correct: false`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(cmd, workload, seed, seconds, trace):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if p.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {p.returncode}\n{p.stderr}")
    lines = p.stdout.strip().splitlines()
    info = {}
    for line in lines:
        for key in ("tracing overhead", "unscaled"):
            if line.startswith(key + ": "):
                info[key] = json.loads(line[len(key) + 2:])
    return json.loads(lines[-1]), info


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1, help="first seed; run i uses seed + i")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = ap.parse_args()
    seconds = spec["run_seconds"]

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    times = {m["name"] for m in spec["per_layer"] if m["unit"].startswith("us")}
    ok = True
    for wl in args.workloads.split(","):
        results, unscaled = [], []
        for i in range(args.runs):
            res, info = run_once(spec["command"], wl, args.seed + i, seconds, 0)
            results.append(res)
            unscaled.append(info["unscaled"])
            print(f"  {wl} seed {args.seed + i}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()), flush=True)
        print(f"{wl}: {args.runs} runs, seeds {args.seed}..{args.seed + args.runs - 1}")
        for r in results:
            if not r["correct"]:
                ok = False
                print("  FAIL: a run reported correct=false")
        shares = {Fraction(r["failed"], r["attempted"]) for r in results}
        print(f"  failed share: {sorted(str(s) for s in shares)}")
        if len(shares) != 1:
            ok = False
            print("  FAIL: failed share differs between runs")
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else float("inf")
            verdict = "ok" if spread <= bound else "OVER"
            if verdict == "OVER":
                ok = False
            print(f"  {name:12s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {spread:6.3f} / bound {bound} ({spread / bound:4.2f}x) {verdict}")
        for name in ("ops_per_s", "op_p50_us"):
            q1, med, q3 = quartiles([u[name]["value"] for u in unscaled])
            print(f"  unscaled {name:9s} median {med:12.6g}  spread {(q3 - q1) / med:6.3f}")

        # Two traced runs with one seed: counters must repeat exactly.
        traced = [run_once(spec["command"], wl, args.seed, seconds, 1) for _ in range(2)]
        (a, ia), (b, ib) = traced
        for name, v in a["metrics"].items():
            if name in times:
                continue
            if v["value"] != b["metrics"][name]["value"]:
                ok = False
                print(f"  FAIL: {name} differs between same-seed runs: "
                      f"{v['value']} vs {b['metrics'][name]['value']}")
        print("  per-layer (traced, seed %d): " % args.seed + " ".join(
            f"{k}={v['value']:.6g}" for k, v in a["metrics"].items()))
        for name in ("ops_per_s", "op_p50_us"):
            for o in (ia["tracing overhead"], ib["tracing overhead"]):
                u, t = o["untraced_" + name]["value"], o["traced_" + name]["value"]
                print(f"  tracing overhead {name}: untraced {u:.6g} - traced {t:.6g}"
                      f" = {u - t:.6g} ({(u - t) / u:+.2%})")
    print("steady" if ok else "NOT STEADY")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
