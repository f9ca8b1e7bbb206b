"""Hot kernels with two interchangeable backends.

The environment variable HYPEROPS_BACKEND selects the implementation:
"numba" compiles the kernels, "numpy" uses pure python/numpy equivalents,
and the default "auto" uses numba when it imports cleanly.  Both backends
produce identical results; the benchmark in bench/ compares their speed.

Kernels here are the ones that dominate the large-n statistics run: clique
censuses on bitset adjacency matrices, and the pair sweep of the
distribution laws used by the verification suites.  Graph sampling is
numpy on every backend.
"""

from __future__ import annotations

import os

import numpy as np

_numba_cache: dict = {}


def requested_backend() -> str:
    return os.environ.get("HYPEROPS_BACKEND", "auto")


def active_backend() -> str:
    """The backend actually in use: "numba" or "numpy"."""
    req = requested_backend()
    if req == "numpy":
        return "numpy"
    if req in ("numba", "auto"):
        if _load_numba() is not None:
            return "numba"
        if req == "numba":
            raise RuntimeError("HYPEROPS_BACKEND=numba but numba failed to import")
        return "numpy"
    raise ValueError(f"unknown backend {req!r}")


def _load_numba():
    if "mod" not in _numba_cache:
        try:
            import numba
        except ImportError:
            numba = None
        _numba_cache["mod"] = numba
    return _numba_cache["mod"]


def _compiled():
    """Build (once) and return the njit-compiled kernel table."""
    if "kernels" in _numba_cache:
        return _numba_cache["kernels"]
    numba = _load_numba()
    njit = numba.njit

    @njit(cache=True)
    def clique_stats_kernel(words, n, nwords, count_size, exist_size):
        # Depth-first clique enumeration over uint64 bitset rows.  Candidates
        # at each level are the remaining vertices adjacent to every chosen
        # vertex; popping the lowest bit keeps the enumeration canonical.
        max_depth = count_size if count_size > exist_size else exist_size
        count = 0
        exists = False
        cand = np.zeros((max_depth + 1, nwords), dtype=np.uint64)
        for v in range(n):
            cand[0, v >> 6] |= np.uint64(1) << np.uint64(v & 63)
        depth = 0
        while depth >= 0:
            v = -1
            for w in range(nwords):
                x = cand[depth, w]
                if x != np.uint64(0):
                    low = x & (~x + np.uint64(1))
                    pos = 0
                    while low > np.uint64(1):
                        low >>= np.uint64(1)
                        pos += 1
                    v = (w << 6) + pos
                    break
            if v < 0:
                depth -= 1
                continue
            cand[depth, v >> 6] &= ~(np.uint64(1) << np.uint64(v & 63))
            k = depth + 1
            if k == count_size:
                count += 1
            if k == exist_size:
                exists = True
            if k < max_depth:
                for w in range(nwords):
                    cand[depth + 1, w] = cand[depth, w] & words[v, w]
                depth += 1
        return count, exists

    @njit(cache=True)
    def pair_laws_kernel(ct, dt, gt):
        # Unordered pairs (a, b) with a <= b; the three identities are
        # symmetric, so this covers all ordered pairs.
        n = ct.shape[0]
        bad = np.zeros(3, dtype=np.int64)
        for a in range(n):
            ca = ct[a]
            da = dt[a]
            ga = gt[a]
            for b in range(a, n):
                u = a | b
                if gt[u] != ga & gt[b]:
                    bad[0] += 1
                if ct[u] != ca | ct[b]:
                    bad[1] += 1
                if dt[a & b] != da & dt[b]:
                    bad[2] += 1
        return bad

    _numba_cache["kernels"] = (clique_stats_kernel, pair_laws_kernel)
    return _numba_cache["kernels"]


def warmup() -> None:
    """Force kernel compilation so timed runs measure the sweep only."""
    if active_backend() == "numba":
        words = np.zeros((1, 1), dtype=np.uint64)
        _compiled()[0](words, 1, 1, 2, 2)
        table = np.zeros(2, dtype=np.uint32)
        _compiled()[1](table, table, table)


# ----- graph sampling -------------------------------------------------------------


def sample_graph_words(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Erdos-Renyi draw as uint64 adjacency bitset rows, shape (n, ceil(n/64)).

    Uniforms are consumed in row-major pair order (0,1), (0,2), ..., the
    order of np.triu_indices, so a fixed (seed, stream) pins the graph.
    Bit j of row i sits at bit j & 63 of word j >> 6: packing the bool
    adjacency little-endian per row and reading it as little-endian
    uint64 gives exactly that layout.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    if not 0.0 <= p <= 1.0:
        raise ValueError("probability outside [0, 1]")
    nwords = (n + 63) >> 6
    us = rng.random(n * (n - 1) // 2)
    rows, cols = np.triu_indices(n, 1)
    hit = us < p
    rows, cols = rows[hit], cols[hit]
    adj = np.zeros((n, 64 * nwords), dtype=bool)
    adj[rows, cols] = True
    adj[cols, rows] = True
    packed = np.packbits(adj, axis=1, bitorder="little")
    return packed.view("<u8").astype(np.uint64, copy=False)


def _clique_stats_py(words: np.ndarray, count_size: int, exist_size: int):
    # Same enumeration as the compiled kernel, on python ints.
    n, nwords = words.shape
    rows = [int.from_bytes(words[i].tobytes(), "little") for i in range(n)]
    max_depth = max(count_size, exist_size)
    count = 0
    exists = False
    stack = [(1 << n) - 1]
    while stack:
        candset = stack[-1]
        if candset == 0:
            stack.pop()
            continue
        low = candset & -candset
        v = low.bit_length() - 1
        stack[-1] = candset ^ low
        k = len(stack)
        if k == count_size:
            count += 1
        if k == exist_size:
            exists = True
        if k < max_depth:
            stack.append(stack[-1] & rows[v])
    return count, exists


def clique_stats(words: np.ndarray, count_size: int, exist_size: int) -> tuple[int, bool]:
    """(number of cliques on count_size vertices, any clique on exist_size).

    count_size and exist_size must be at least 2; vertex and edge counts are
    cheap enough to read off directly.
    """
    if count_size < 2 or exist_size < 2:
        raise ValueError("clique sizes below 2 are direct counts, not a census")
    n, nwords = words.shape
    if active_backend() == "numba":
        kern = _compiled()[0]
        count, exists = kern(words, n, nwords, count_size, exist_size)
        return int(count), bool(exists)
    count, exists = _clique_stats_py(words, count_size, exist_size)
    return count, exists


def edge_count(words: np.ndarray) -> int:
    n = words.shape[0]
    total = int(np.unpackbits(words.view(np.uint8)).sum())
    return total // 2


def pair_laws(ct: np.ndarray, dt: np.ndarray, gt: np.ndarray) -> tuple[np.ndarray, int]:
    """Violation counts for the three distribution laws over all unordered
    mask pairs, given the closure, interior-complex, and complement tables.

    Checks gamma(a+b) = gamma a /\\ gamma b, Delta(a+b) = Delta a + Delta b,
    and delta(a /\\ b) = delta a /\\ delta b.  Returns (violations per law,
    number of pairs swept).  Both backends sweep the same pairs.
    """
    n = int(ct.shape[0])
    pairs = n * (n + 1) // 2
    if active_backend() == "numba":
        bad = _compiled()[1](ct, dt, gt)
        return np.asarray(bad, dtype=np.int64), pairs
    bad = np.zeros(3, dtype=np.int64)
    idx = np.arange(n, dtype=np.uint32)
    for a in range(n):
        b = idx[a:]
        u = np.uint32(a) | b
        bad[0] += int(np.count_nonzero(gt[u] != (gt[a] & gt[b])))
        bad[1] += int(np.count_nonzero(ct[u] != (ct[a] | ct[b])))
        bad[2] += int(np.count_nonzero(dt[np.uint32(a) & b] != (dt[a] & dt[b])))
    return bad, pairs
