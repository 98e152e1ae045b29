#!/usr/bin/env python3
"""Time the distance kernel's grid index against its brute-force scan.

Workloads mirror the verifier's containment loop: reduced samples against
lattice translates combined with base-set nodes, at the sizes the golden
problems produce plus a couple of stress points.  This is the distances
layer alone; perfbench/ measures whole verify runs.

Usage: python benchmarks/bench_kernels.py [--repeat N]
"""

import argparse
import time

import numpy as np

from torusflow._kernels import grid_min_distance, scan_min_distance, uses_grid

WORKLOADS = [
    # (name, samples, translates, nodes, dim)
    ("hyperbola-like", 10_000, 25, 1, 1),
    ("cylinder-like", 50_000, 5, 64, 1),
    ("curve-prediction", 1_000, 9, 10_000, 2),
    ("stress", 2_000, 25, 10_000, 2),
]


def best_time(fn, args, repeat):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, result


def run(repeat):
    print(
        f"{'workload':<18} {'M':>7} {'T':>4} {'P':>7} {'q':>2} "
        f"{'scan':>11} {'grid':>11} {'speedup':>8}  picked"
    )
    rng = np.random.default_rng(123)
    for name, m, t, p, q in WORKLOADS:
        args = (rng.normal(size=(m, q)), rng.normal(size=(t, q)), rng.normal(size=(p, q)))
        scan_s, (scan_d, scan_i) = best_time(scan_min_distance, args, repeat)
        grid_s, (grid_d, grid_i) = best_time(grid_min_distance, args, repeat)
        assert np.array_equal(scan_d, grid_d) and np.array_equal(scan_i, grid_i)
        picked = "grid" if uses_grid(m, t * p, q) else "scan"
        print(
            f"{name:<18} {m:>7} {t:>4} {p:>7} {q:>2} "
            f"{scan_s * 1e3:>9.2f}ms {grid_s * 1e3:>9.2f}ms {scan_s / grid_s:>7.1f}x  {picked}"
        )


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeat", type=int, default=3)
    run(parser.parse_args().repeat)
