#!/usr/bin/env python3
"""Runs the benchmark over several seeds and prints, per workload, every
end-to-end metric with its unit, median, spread and sample count, the
operations attempted and failed, and (with --trace) the per-layer
metrics of one traced run. Run from the repository root:

    python3 perfbench/report.py --runs 5 --trace
    python3 perfbench/report.py --runs 5 --markdown   # the baseline table

Spread is the distance between the first and third quartile of the
per-run values (statistics.quantiles, n=4) as a share of their median.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def bench_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def spread(values):
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    spec = bench_spec()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--trace", action="store_true", help="add one traced run per workload")
    p.add_argument("--markdown", action="store_true",
                   help="also print the baseline table as Markdown")
    opts = p.parse_args()

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    table = {}
    for w in names:
        runs = [run_once(w, s, seconds, 0) for s in range(1, opts.runs + 1)]
        print(f"\n== {w}: {len(runs)} runs of {seconds} s, seeds 1..{opts.runs}")
        print(f"   operations: {sum(r['attempted'] for r in runs)} attempted, "
              f"{sum(r['failed'] for r in runs)} failed; "
              f"all correct: {all(r['correct'] for r in runs)}")
        print(f"   {'metric':<14} {'median':>12} {'unit':<6} {'spread':>8} {'bound':>6} {'n':>3}")
        table[w] = {}
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in runs
                    if r["metrics"].get(name, {}).get("value") is not None]
            unit = runs[0]["metrics"][name]["unit"]
            med = statistics.median(vals) if vals else float("nan")
            table[w][name] = med
            print(f"   {name:<14} {med:>12.6g} {unit:<6} {spread(vals):>8.3f} {bound:>6} "
                  f"{len(vals):>3}")
        if opts.trace:
            t = run_once(w, 1, seconds, 1)
            table[w].update({k: v["value"] for k, v in t["metrics"].items()})
            print(f"   traced run (seed 1): {t['attempted']} attempted, "
                  f"{t['failed']} failed")
            for k, v in t["metrics"].items():
                print(f"   {k:<40} {v['value']:>14.6g} {v['unit']}")

    if opts.markdown:
        print("\n| workload | lsh | basic | eddpc | exact | LSH-DDP ARI vs exact | fit | compact |")
        print("|---|---|---|---|---|---|---|---|")
        for w, m in table.items():
            cells = []
            for a in ("lsh", "basic", "eddpc", "exact"):
                cell = f"{m[f'{a}_s']:.3f} s · {m[f'{a}_rss_mb']:.0f} MB"
                if f"ddp.{a}.dists" in m:
                    cell += f" · {m[f'ddp.{a}.dists'] / 1e6:.1f} M dists"
                cells.append(cell)
            print(f"| {w} | " + " | ".join(cells) +
                  f" | {m['lsh_ari']:.3f} | {m['fit_s']:.3f} s | {m['compact_s']:.3f} s |")


if __name__ == "__main__":
    main()
