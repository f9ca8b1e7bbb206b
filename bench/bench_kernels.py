"""Benchmark the two kernel backends on the workloads that dominate runtime.

Run:  python3 bench/bench_kernels.py [--samples N] [--n VERTICES]

Backends are selected per measurement through HYPEROPS_BACKEND, so one
process times both.  The numba warmup (jit compilation) happens before any
timer starts.  Graph sampling has no numba path; it is timed next to the
census it feeds, on the same graphs.
"""

import argparse
import os
import time

import numpy as np

from hyperops.complexes import standard_fixtures
from hyperops.kernels import clique_stats, edge_count, pair_laws, sample_graph_words, warmup
from hyperops.models import rng_from
from hyperops.operators import closure_table, complement_table, interior_complex_table


def timed(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def _sample_graphs(n, samples):
    return [sample_graph_words(n, 0.15, rng_from(1, s)) for s in range(samples)]


def bench_graph_sampling(n, samples):
    def run():
        return sum(edge_count(words) for words in _sample_graphs(n, samples))

    return run


def bench_clique_census(n, samples):
    graphs = _sample_graphs(n, samples)

    def run():
        total = 0
        for words in graphs:
            count, _ = clique_stats(words, 3, 4)
            total += count
        return total

    return run


def bench_pair_laws():
    amb = standard_fixtures()["sk1d3"]
    ct = closure_table(amb)
    dt = interior_complex_table(amb)
    gt = complement_table(amb)

    def run():
        bad, pairs = pair_laws(ct, dt, gt)
        return int(bad.sum()), pairs

    return run


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=300, help="graphs per census")
    ap.add_argument("--n", type=int, default=120, help="vertices per graph")
    args = ap.parse_args()

    os.environ["HYPEROPS_BACKEND"] = "numba"
    try:
        warmup()
        have_numba = True
    except RuntimeError:
        have_numba = False
    backends = ("numpy", "numba") if have_numba else ("numpy",)

    workloads = [
        (f"graph sampling (n={args.n}, {args.samples} graphs)",
         bench_graph_sampling(args.n, args.samples)),
        (f"clique census (n={args.n}, {args.samples} graphs)",
         bench_clique_census(args.n, args.samples)),
        ("pair laws (10-face fixture, 525k pairs)", bench_pair_laws()),
    ]

    print(f"{'workload':<45} " + " ".join(f"{b:>12}" for b in backends) + "  speedup")
    for label, run in workloads:
        times = {}
        results = {}
        for backend in backends:
            os.environ["HYPEROPS_BACKEND"] = backend
            times[backend], results[backend] = timed(run)
        assert len(set(results.values())) == 1, f"backends disagree on {label}"
        row = " ".join(f"{times[b] * 1e3:>10.1f}ms" for b in backends)
        if have_numba:
            row += f"  {times['numpy'] / times['numba']:>6.1f}x"
        print(f"{label:<45} {row}")


if __name__ == "__main__":
    main()
