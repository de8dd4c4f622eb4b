#!/usr/bin/env python3
"""Build and run the TCP-path benchmark of the SMB flow engine.

One measured run (what BENCHMARK.json's command does):

    python3 perfbench/run.py --workload wide_ingest --seed 1 --seconds 10 --trace 0

builds perfbench/ (a Cargo package of its own) into $CARGO_TARGET_DIR,
or .bench_build when that is unset, then runs it. The last line of
standard output is the run's JSON result.

A run that fails its correctness checks exits non-zero.

Steadiness report (run from the repository root):

    python3 perfbench/run.py --steadiness N [--seeds 1,2] [--workloads a,b]

runs every workload N times on each seed of --seeds. It prints each
end-to-end metric's median, quartiles, (q3 - q1) / median and
(max - min) / median, once per seed when N > 1, or once over all seeds
when N = 1 (so `--steadiness 1 --seeds 1000,...,1009` gives the
spread across ten seeds). The verdict compares (q3 - q1) / median with
the metric's bound, the same way for every metric: `ok` below a third
of the bound, `within` up to the bound, `WIDE` beyond it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build():
    """Build the benchmark binary; return its path and its state dir."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return (os.path.join(target, "release", "perfbench"),
            os.path.join(target, "perfbench-state"))


def run_once(binary, state, workload, seed, seconds, trace, echo=False):
    """One run; returns its parsed JSON result, or exits non-zero when
    the run failed or reported an incorrect result. With `echo`, the
    run's standard output is passed on to ours."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--state-dir", state]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"perfbench: {' '.join(cmd)} exited {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"perfbench: {' '.join(cmd)} reported an incorrect run: {lines[-1]}")
    values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
    print(f"  {workload} seed {seed}: {values}", file=sys.stderr, flush=True)
    return result


def report(title, runs, spec):
    """Print one block of per-metric statistics over `runs`."""
    print(f"\n{title} ({len(runs)} runs)")
    print(f"  {'metric':<22} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'iqr/med':>8} {'range/med':>9} {'bound':>6}  verdict")
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        iqr = (q3 - q1) / med if med else float("inf")
        rng = (max(values) - min(values)) / med if med else float("inf")
        verdict = "ok" if iqr < m["bound"] / 3 else ("within" if iqr <= m["bound"] else "WIDE")
        print(f"  {m['name']:<22} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
              f"{iqr:>8.4f} {rng:>9.4f} {m['bound']:>6}  {verdict}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", type=int, metavar="N")
    ap.add_argument("--seeds", default="1,2")
    ap.add_argument("--workloads")
    args = ap.parse_args()

    if args.steadiness is None:
        if args.workload is None or args.seed is None or args.seconds is None:
            ap.error("--workload, --seed and --seconds are required")
        binary, state = build()
        run_once(binary, state, args.workload, args.seed, args.seconds, args.trace, echo=True)
        return

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seeds = [int(s) for s in args.seeds.split(",")]
    binary, state = build()
    for workload in workloads:
        by_seed = {seed: [run_once(binary, state, workload, seed, seconds, 0)
                          for _ in range(args.steadiness)] for seed in seeds}
        if args.steadiness > 1:
            for seed, runs in by_seed.items():
                report(f"{workload}, seed {seed}", runs, spec)
        else:
            report(f"{workload}, seeds {args.seeds}",
                   [r for runs in by_seed.values() for r in runs], spec)


if __name__ == "__main__":
    main()
