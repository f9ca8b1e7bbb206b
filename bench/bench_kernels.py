"""Benchmark the kernels that dominate runtime, census on both backends.

Run:  python3 bench/bench_kernels.py [--samples N] [--n VERTICES]

Backends are selected per measurement through HYPEROPS_BACKEND, so one
process times both.  The numba warmup (jit compilation) happens before any
timer starts.  Graphs are drawn and censused the way
sparse.dimension_stats does it: blocks of the same size, from one stream.
Graph sampling has no numba path; it is timed next to the census it feeds,
on the same graphs.  The distribution laws have no numba path either: they
are checked by their atoms in numpy, one doubling per law.
"""

import argparse
import os
import time

import numpy as np

from hyperops.complexes import standard_fixtures
from hyperops.kernels import clique_census, edge_count, pair_laws, sample_graph_block, warmup
from hyperops.models import rng_from
from hyperops.operators import closure_table, complement_table, interior_complex_table
from hyperops.sparse import _BLOCK_UNIFORMS

P = 0.15


def timed(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def _block_sizes(n, samples):
    per_block = max(1, _BLOCK_UNIFORMS // max(n * (n - 1) // 2, 1))
    return [min(per_block, samples - start) for start in range(0, samples, per_block)]


def _sample_blocks(n, samples):
    rng = rng_from(1)
    return [sample_graph_block(n, P, rng, size) for size in _block_sizes(n, samples)]


def bench_graph_sampling(n, samples):
    def run():
        return sum(edge_count(block) for block in _sample_blocks(n, samples))

    return run


def bench_clique_census(n, samples):
    blocks = _sample_blocks(n, samples)

    def run():
        total = found = 0
        for block in blocks:
            counts, exists = clique_census(block, 3, 4)
            total += int(counts.sum())
            found += int(np.count_nonzero(exists))
        return total, found

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
    census_backends = ("numpy", "numba") if have_numba else ("numpy",)

    blocks = len(_block_sizes(args.n, args.samples))
    # (label, run, backends it is timed on)
    workloads = [
        (f"graph sampling (n={args.n}, p={P}, {args.samples} graphs in {blocks} blocks)",
         bench_graph_sampling(args.n, args.samples), ("numpy",)),
        ("clique census (same graphs, sizes 3 and 4)",
         bench_clique_census(args.n, args.samples), census_backends),
        ("pair laws by atoms (10-face fixture, 1024 masks)", bench_pair_laws(), ("numpy",)),
    ]

    print(f"{'workload':<62} " + " ".join(f"{b:>12}" for b in census_backends) + "  speedup")
    for label, run, backends in workloads:
        times = {}
        results = {}
        for backend in backends:
            os.environ["HYPEROPS_BACKEND"] = backend
            times[backend], results[backend] = timed(run)
        assert len(set(results.values())) == 1, f"backends disagree on {label}"
        row = " ".join(f"{times[b] * 1e3:>10.2f}ms" for b in backends)
        if len(backends) > 1:
            row += f"  {times['numpy'] / times['numba']:>6.1f}x"
        print(f"{label:<62} {row}")


if __name__ == "__main__":
    main()
