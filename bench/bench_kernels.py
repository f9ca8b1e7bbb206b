"""Benchmark the kernels that dominate runtime, all in numpy.

Run:  python3 bench/bench_kernels.py [--samples N] [--n VERTICES]

Graphs are drawn and censused the way sparse.dimension_stats does it:
blocks of the same size, from one stream.  Graph sampling is timed next to
the census it feeds, on the same graphs.  The distribution laws are
checked by their atoms, one doubling per law.  The six primitive mask
operators are timed on fixed random masks of a triangulated triangle too
large for tables.  The truncated generators' two draws are timed on the
base vector of the benchmark's sparse jobs: the raw-word Bernoulli draw
and the staged draw under its closure marginals.  Each time is the best
of 3.
"""

import argparse
import random
import time

import numpy as np

from hyperops.complexes import standard_fixtures
from hyperops.kernels import clique_census, pair_laws, sample_graph_block
from hyperops.metric import triangulated_triangle
from hyperops.models import rng_from
from hyperops.operators import (
    PRIMITIVE_MASK_OPS,
    closure_table,
    complement_table,
    interior_complex_table,
)
from hyperops.sparse import (
    _BLOCK_UNIFORMS,
    _base_tuple,
    _bernoulli_faces,
    _derived_cached,
    _staged_complex_faces,
)

P = 0.15
SIDE, MASKS = 20, 10  # triangle and random masks for the mask ops
SPARSE_BASE, SPARSE_R = (1.0, 0.045, 0.0025), 2  # the sparse jobs' base vector
BERNOULLI_N, STAGED_N = 200, 100


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
        # every edge sets two bits
        return sum(int(np.bitwise_count(block).sum()) for block in _sample_blocks(n, samples)) // 2

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


def bench_mask_ops(amb, masks):
    rng = random.Random(1)
    hs = [rng.getrandbits(amb.num_faces) for _ in range(masks)]
    ops = [PRIMITIVE_MASK_OPS[name] for name in ("Delta", "delta", "Ext", "Int", "Nbd", "NbdInv")]

    def run():
        return [op(amb, h) for op in ops for h in hs]

    return run


def bench_bernoulli(n):
    base = _base_tuple(n, SPARSE_BASE)

    def run():
        return sum(len(layer) for layer in _bernoulli_faces(n, base, SPARSE_R, rng_from(1)))

    return run


def bench_staged(n):
    closure = _derived_cached(n, _base_tuple(n, SPARSE_BASE)).closure_marginals

    def run():
        return len(_staged_complex_faces(n, closure, SPARSE_R, rng_from(1)))

    return run


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=300, help="graphs per census")
    ap.add_argument("--n", type=int, default=120, help="vertices per graph")
    args = ap.parse_args()

    blocks = len(_block_sizes(args.n, args.samples))
    tri = triangulated_triangle(SIDE)
    workloads = [
        (f"graph sampling (n={args.n}, p={P}, {args.samples} graphs in {blocks} blocks)",
         bench_graph_sampling(args.n, args.samples)),
        ("clique census (same graphs, sizes 3 and 4)", bench_clique_census(args.n, args.samples)),
        ("pair laws by atoms (10-face fixture, 1024 masks)", bench_pair_laws()),
        (f"six primitive mask ops (side-{SIDE} triangle, {tri.num_faces} faces, {MASKS} masks)",
         bench_mask_ops(tri, MASKS)),
        (f"Bernoulli faces by raw words (n={BERNOULLI_N}, r={SPARSE_R}, sparse base)",
         bench_bernoulli(BERNOULLI_N)),
        (f"staged draw (n={STAGED_N}, r={SPARSE_R}, closure marginals)", bench_staged(STAGED_N)),
    ]

    print(f"{'workload':<72} {'numpy':>12}")
    for label, run in workloads:
        seconds, _ = timed(run)
        print(f"{label:<72} {seconds * 1e3:>10.2f}ms")


if __name__ == "__main__":
    main()
