#!/usr/bin/env python3
"""Regenerate the reference figures of perfbench/README.md from fresh runs.

Run from the repository root:

    python3 perfbench/reference.py [--seeds 1,2,3,4,5] [--seconds 10]

It runs, for each seed and through perfbench/run.py:

- fig3-cold with the jacobi-cg solver next to the default mg-cg;
- fig3-cold and transient-warmup with one solver worker (Workers: 1),
  the single-threaded baseline;
- every workload traced and untraced, for the tracing overhead: the
  median wall-clock operation time of the traced run against the
  untraced run's (both from the wall-clock line on standard error).

and prints markdown tables of medians over the seeds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

WORKLOADS = ("fig3-cold", "transient-warmup", "serve-mixed")
WALL_PREFIX = ": wall clock "


def run(workload, seed, seconds, trace=0, extra=()):
    """Runs one workload; returns its metrics and its wall-clock figures."""
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)] + list(extra)
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if p.returncode != 0:
        sys.exit("reference.py: %s failed:\n%s" % (" ".join(cmd), p.stderr))
    metrics = json.loads(p.stdout.strip().splitlines()[-1])["metrics"]
    wall = [l for l in p.stderr.splitlines() if WALL_PREFIX in l][-1]
    metrics.update(("wall." + k, {"value": v}) for k, v in json.loads(wall.split(WALL_PREFIX, 1)[1]).items())
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1,2,3,4,5")
    ap.add_argument("--seconds", type=float, default=10)
    a = ap.parse_args()
    seeds = [int(s) for s in a.seeds.split(",")]

    # Variants alternate within each seed, so the host's drift between
    # runs lands on every variant alike.
    variants = [
        ("mg-cg (default)", "fig3-cold", []),
        ("jacobi-cg", "fig3-cold", ["--solver", "jacobi-cg"]),
        ("Workers: 1", "fig3-cold", ["--workers", "1"]),
        ("mg-cg (default)", "transient-warmup", []),
        ("Workers: 1", "transient-warmup", ["--workers", "1"]),
    ]
    metrics = ("setup_s", "op_cpu_ms", "wall.op_p50_ms", "peak_rss_mb")
    vals = {i: {m: [] for m in metrics} for i in range(len(variants))}
    for s in seeds:
        for i, (_, workload, extra) in enumerate(variants):
            r = run(workload, s, a.seconds, extra=extra)
            for m in metrics:
                vals[i][m].append(r[m]["value"])

    print("| variant | workload | setup_s (CPU) | op_cpu_ms | wall op_p50_ms | peak_rss_mb |")
    print("|---|---|---|---|---|---|")
    for i, (label, w, _) in enumerate(variants):
        v = {m: statistics.median(x) for m, x in vals[i].items()}
        print("| %s | %s | %.3f | %.1f | %.1f | %.0f |" % (
            label, w, v["setup_s"], v["op_cpu_ms"], v["wall.op_p50_ms"], v["peak_rss_mb"]))

    print()
    print("| workload | untraced wall op_p50_ms | traced wall op_p50_ms | trace_overhead_pct |")
    print("|---|---|---|---|")
    for w in WORKLOADS:
        plain, traced = [], []
        for s in seeds:
            plain.append(run(w, s, a.seconds)["wall.op_p50_ms"]["value"])
            traced.append(run(w, s, a.seconds, trace=1)["wall.op_p50_ms"]["value"])
        p, t = statistics.median(plain), statistics.median(traced)
        print("| %s | %.2f | %.2f | %+.1f |" % (w, p, t, 100 * (t - p) / p))


if __name__ == "__main__":
    main()
