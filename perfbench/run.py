#!/usr/bin/env python3
"""The repository benchmark: whole `lshddp cluster` runs of the four DP
algorithms, plus the fit/serve/ingest/compact model lifecycle.

Run from the repository root:

    python3 perfbench/run.py --workload spatial-4d --seed 1 --seconds 30 --trace 0

It builds `lshddp` and the `perfbench` harness from source (release, into
$CARGO_TARGET_DIR or `.bench_build/`), then repeats the workload as
many times as fit in `--seconds` (at least three). Each repetition
generates fresh inputs from a seed derived from `--seed`, runs
`lshddp cluster --algorithm <a> --normalize --k 15 --seed <s>` as a
separate process for each algorithm, checks the labels, and runs the
lifecycle in the harness. Every metric is the median over repetitions.

With `--trace 1` it instead makes one repetition with `lshddp`
processes, then the same steps in process after a warm-up pass, once
untraced and once traced, and reports the per-layer metrics, each
layer's self time and the tracing overhead (traced over untraced wall
time of the in-process steps).

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
See perfbench/README.md for why the workloads and metrics are what they
are, and for the rules timed runs keep.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ALGORITHMS = ["lsh", "basic", "eddpc", "exact"]
WORKLOADS = ["spatial-4d", "kdd-74d"]
# At least this many repetitions, whatever --seconds says, so a median
# never rests on one or two samples.
MIN_REPS = 3
# Settings that change what a timed run measures; they are removed from
# the environment of every process the benchmark starts.
UNSET_ENV = ("LSHDDP_KERNEL", "LSHDDP_THREADS", "LSHDDP_TRACE")

# End-to-end metrics and units, in report order.
E2E = (
    [(f"{a}_s", "s") for a in ALGORITHMS]
    + [(f"{a}_rss_mb", "MB") for a in ALGORITHMS]
    + [
        ("lsh_ari", "ratio"),
        ("fit_s", "s"),
        ("compact_s", "s"),
        ("setup_s", "s"),
    ]
)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def child_env():
    env = {k: v for k, v in os.environ.items() if k not in UNSET_ENV}
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    return env


def build():
    """Builds both binaries; returns (lshddp, perfbench) paths."""
    if not (os.path.isfile("Cargo.toml") and os.path.isdir("crates")):
        fail("run from the repository root: no Cargo.toml and crates/ here")
    env = child_env()
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "lshddp"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ):
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    release = os.path.join(os.path.abspath(env["CARGO_TARGET_DIR"]), "release")
    return os.path.join(release, "lshddp"), os.path.join(release, "perfbench")


def run_process(cmd):
    """Runs `cmd` to completion; returns (wall s, peak RSS MB, exit code, output)."""
    start = time.perf_counter()
    p = subprocess.Popen(cmd, env=child_env(), stdout=subprocess.PIPE,
                         stderr=subprocess.STDOUT, text=True)
    out = p.stdout.read()
    _, status, usage = os.wait4(p.pid, 0)
    wall = time.perf_counter() - start
    p.stdout.close()
    p.returncode = os.waitstatus_to_exitcode(status)
    # Linux reports ru_maxrss in KiB.
    return wall, usage.ru_maxrss / 1024.0, p.returncode, out


def harness(perfbench, args):
    """Runs a harness subcommand; returns its JSON line."""
    _, _, code, out = run_process([perfbench] + args)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        raise RuntimeError(f"perfbench {args[0]} exited {code}: {out.strip()[-500:]}")
    return json.loads(lines[-1])


def read_labels(path):
    with open(path) as f:
        return [int(x) for x in f.read().split()]


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)

    def add(self, result):
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.errors += result["errors"]


def harness_step(perfbench, args, seed, tally, values):
    """Runs a harness subcommand that measures and checks; a failure to
    run counts as a failed operation."""
    try:
        out = harness(perfbench, args)
    except RuntimeError as e:
        tally.check(False, f"seed {seed}: {args[0]}: {e}")
        return
    tally.add(out)
    values.update({k: v["value"] for k, v in out["metrics"].items()})


def repetition(bins, workload, seed, rep_dir, tally, opts, with_lifecycle):
    """One repetition: set-up, four cluster processes and, if asked, the
    lifecycle. Returns {metric: value} for the metrics it measured."""
    lshddp, perfbench = bins
    tiny = ["--tiny"] if opts.tiny else []
    os.makedirs(rep_dir)
    setup = harness(perfbench, ["setup", "--workload", workload, "--seed", str(seed),
                                "--dir", rep_dir] + tiny)
    values = {"setup_s": setup["metrics"]["setup_s"]["value"]}
    points = os.path.join(rep_dir, "points.csv")
    with open(points) as f:
        n = sum(1 for _ in f)

    labels = {}
    for a in ALGORITHMS:
        out = os.path.join(rep_dir, f"{a}.labels")
        wall, rss, code, text = run_process(
            [lshddp, "cluster", "--input", points, "--out", out, "--algorithm", a,
             "--normalize", "--k", "15", "--seed", str(seed)])
        if code != 0:
            tally.check(False, f"seed {seed}: cluster --algorithm {a} exited {code}: "
                               f"{text.strip()[-300:]}")
            continue
        got = read_labels(out)
        if opts.corrupt_basic_label and a == "basic" and got:
            got[0] += 1
        if len(got) != n:
            tally.check(False, f"seed {seed}: {a} wrote {len(got)} labels for {n} points")
            continue
        labels[a] = got
        values[f"{a}_s"] = wall
        values[f"{a}_rss_mb"] = rss
    # basic and eddpc are exact algorithms: their labels must equal exact's.
    exact = labels.get("exact")
    for a in ALGORITHMS:
        if a not in labels:
            continue
        if a in ("basic", "eddpc"):
            same = exact is not None and labels[a] == exact
            diff = "no exact labels" if exact is None else \
                f"{sum(x != y for x, y in zip(labels[a], exact))} labels differ from exact"
            tally.check(same, f"seed {seed}: {a}: {diff}")
        else:
            tally.check(True, "")
    if "lsh" in labels and exact is not None:
        harness_step(perfbench, ["ari", "--dir", rep_dir], seed, tally, values)
    if with_lifecycle:
        harness_step(perfbench, ["lifecycle", "--seed", str(seed), "--dir", rep_dir],
                     seed, tally, values)
    shutil.rmtree(rep_dir)
    return values


def timed_run(bins, opts, work, tally):
    samples = {}
    start = time.perf_counter()
    rep = 0
    # Stop before a repetition of average length would overrun --seconds.
    while rep < MIN_REPS or (time.perf_counter() - start) * (rep + 1) / rep <= opts.seconds:
        # lsh_ari varies widely from one data set to the next, so a run
        # draws as many data sets as it can. The lifecycle's times vary
        # mostly with the machine, so it runs on every other repetition.
        values = repetition(bins, opts.workload, opts.seed * 1000 + rep,
                            os.path.join(work, f"rep{rep}"), tally, opts, rep % 2 == 0)
        for k, v in values.items():
            samples.setdefault(k, []).append(v)
        rep += 1
    print(f"{opts.workload}: {rep} repetitions in {time.perf_counter() - start:.1f} s")
    metrics = {}
    for name, unit in E2E:
        vals = samples.get(name, [])
        # ARI is a property of each data set, not a noisy timing: average it.
        summary = statistics.mean if name == "lsh_ari" else statistics.median
        value = summary(vals) if vals else None
        metrics[name] = {"value": value, "unit": unit}
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"  {name:<14} {shown:>12} {unit:<6} {summary.__name__} of {len(vals)}")
    return metrics


def traced_run(bins, opts, work, tally):
    seed = opts.seed * 1000
    # The processes' wall times, for the cost model's ordering below.
    plain = repetition(bins, opts.workload, seed, os.path.join(work, "processes"), tally,
                       opts, False)
    tiny = ["--tiny"] if opts.tiny else []
    traced_dir = os.path.join(work, "traced")
    os.makedirs(traced_dir)
    result = harness(bins[1], ["trace", "--workload", opts.workload, "--seed", str(seed),
                               "--dir", traced_dir] + tiny)
    tally.add(result)
    spans = os.path.join(".bench_work", f"spans-{opts.workload}-{opts.seed}.jsonl")
    os.replace(os.path.join(traced_dir, "spans.jsonl"), spans)
    metrics = result["metrics"]
    # The cost model is reported, not gated: does it order the three
    # pipelines as the untraced processes measured them?
    pipelines = ["lsh", "basic", "eddpc"]
    predicted = sorted(pipelines, key=lambda a: metrics[f"mapreduce.{a}.predicted_s"]["value"])
    measured = sorted(pipelines, key=lambda a: plain.get(f"{a}_s", float("inf")))
    metrics["mapreduce.cost_rank_match"] = {"value": float(predicted == measured),
                                            "unit": "bool"}
    print(f"{opts.workload}: traced repetition, spans in {spans}")
    for a in pipelines:
        print(f"  {a:<6} measured {plain.get(f'{a}_s', float('nan')):8.3f} s   predicted "
              f"{metrics[f'mapreduce.{a}.predicted_s']['value']:8.3f} s")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    return metrics


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # For the smoke test only: shrink the inputs, or flip one `basic`
    # label before it is checked.
    p.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--corrupt-basic-label", action="store_true", help=argparse.SUPPRESS)
    opts = p.parse_args()

    bins = build()
    work = os.path.join(".bench_work", f"{opts.workload}-{opts.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    tally = Tally()
    try:
        run = traced_run if opts.trace else timed_run
        metrics = run(bins, opts, work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for e in tally.errors:
        print(f"FAILED: {e}")
    print(json.dumps({
        "correct": tally.failed == 0 and all(m["value"] is not None for m in metrics.values()),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
