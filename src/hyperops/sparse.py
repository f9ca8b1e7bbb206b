"""Sparse random structures on many vertices.

Derived per-dimension inclusion parameters, clique (flag) complexes, and
truncated generation that cuts every draw at a dimension bound r.

The truncated generators work in whole-array steps and read the stream
exactly as one uniform per candidate, in lexicographic order, would:

* the Bernoulli draw gives every face one raw 64-bit word, drawn in
  fixed-size blocks and compared with the exact integer cut of its
  probability, and turns only the hits into faces, by unranking;
* above the vertices, a stage's candidates are the faces whose facets the
  layer below kept.  They are built from sibling pairs of that layer, in
  blocks of about _BLOCK_UNIFORMS pairs, and their facets are tested by
  lexicographic rank, the numbering that places a face's word in the
  stream;
* the staged draw draws each block's uniforms before it builds the next;
* algorithm 2 keeps a face iff its word hits and all its facets were
  kept.  Above the edges it reads only its candidates' words, at their
  ranks, and leaves the generator where reading every word would: on
  Philox, with the same counter, buffer and buffer_pos.

So on the r-skeleton of the simplex on 1..n, whose canonical face order is
this lexicographic order, the generators are the mask layer's samplers,
face for face and leaving the same next draw: algorithm 1 is
sample_hypergraph_masks at the base vector, then sample_complex at the
closure marginals; algorithm 2 is interior_complex_mask of that hypergraph
draw.

Nothing here ever enumerates the full simplex on n vertices, so memory
stays proportional to the output plus one block of hits or candidates.
The raw-word cut needs a bit generator whose doubles come from one 64-bit
word: every numpy bit generator but MT19937.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .complexes import AmbientComplex, Complex, Hypergraph
from .kernels import clique_census, sample_graph_block
from . import models
from .models import _block_cut, _coin_hits, _cumulative_cut, _raw_words, _word_hits, check_probabilities, rng_from

__all__ = [
    "DerivedDims",
    "TruncatedSample",
    "derived_dims",
    "threshold_schedule",
    "clique_complex",
    "clique_complex_in",
    "algorithm1_truncated",
    "algorithm2_truncated",
    "dimension_stats",
    "closure_dimension_stats",
    "counting_bound",
]

STATS_COLUMNS = ("n", "p1", "samples", "prob_dim_le_r", "prob_dim_eq_r", "mean_r_faces")


def _stats_row(*values) -> dict:
    # one row of a dimension census, keyed by STATS_COLUMNS
    return dict(zip(STATS_COLUMNS, values, strict=True))


def _base_tuple(n: int, p) -> tuple[float, ...]:
    # Base vector (p_0 .. p_{n-1}); shorter input is padded with zeros, so
    # faces of the missing dimensions never appear.  p_0 = 1 is a contract:
    # every vertex is always present.
    vals = [float(x) for x in p]
    if not vals:
        raise ValueError("base probability vector is empty")
    if len(vals) > n:
        raise ValueError(f"base vector has {len(vals)} entries but n = {n}")
    check_probabilities(vals)
    if vals[0] != 1.0:
        raise ValueError("p_0 must be 1 (vertices are always present)")
    return tuple(vals) + (0.0,) * (n - len(vals))


@dataclass(frozen=True)
class DerivedDims:
    """Base vector alongside the two derived per-dimension marginals.

    closure_marginals[k] is the probability that a fixed k-face lies in the
    closure of a Bernoulli hypergraph on n vertices with base vector `base`;
    interior_marginals[k] is the probability that it lies in the simplicial
    part.  Both start at 1.0 for dimension 0.
    """

    n: int
    base: tuple[float, ...]
    closure_marginals: tuple[float, ...]
    interior_marginals: tuple[float, ...]


def derived_dims(n: int, p) -> DerivedDims:
    """Derived vectors for n vertices and base probabilities p (p[0] = 1).

    A k-face sits in the closure iff at least one of its supersets is a
    hyperedge; there are C(n-k-1, i) supersets of dimension k+i, drawn
    independently.  It sits in the simplicial part iff all C(k+1, i+1) of its
    i-dimensional subsets are hyperedges.  Exponents use exact binomials and
    the products run in log space so large n does not underflow.
    """
    return _derived_cached(n, _base_tuple(n, p))


def _log_no_hit(coins) -> float:
    """log P(no coin hits) over (count, q) coin groups, q > 0 (callers drop
    q = 0 before computing a count): sum count * log1p(-q), -inf at q = 1."""
    total = 0.0
    for count, q in coins:
        if q == 1.0:
            return -math.inf
        total += count * math.log1p(-q)
    return total


@lru_cache(maxsize=None)
def _derived_cached(n: int, base: tuple[float, ...]) -> DerivedDims:
    closure = []
    interior = []
    for k in range(n):
        log_miss = _log_no_hit((math.comb(n - k - 1, i), base[k + i])
                               for i in range(n - k) if base[k + i] > 0.0)
        closure.append(1.0 - math.exp(log_miss))

        log_keep = 0.0
        for i in range(1, k + 1):
            q = base[i]
            if q == 0.0:
                log_keep = -math.inf
                break
            log_keep += math.comb(k + 1, i + 1) * math.log(q)
        interior.append(math.exp(log_keep))
    return DerivedDims(
        n=n,
        base=base,
        closure_marginals=tuple(closure),
        interior_marginals=tuple(interior),
    )


def threshold_schedule(coefficient: float, denominator: float):
    """The map n -> coefficient * n^(-2/denominator), clamped into [0, 1].

    Denominators r+1 and r select the two threshold regimes for dimension r.
    Values above 1 are clamped with a warning.
    """
    if not (coefficient > 0.0 and denominator > 0.0):  # NaN fails too
        raise ValueError("coefficient and denominator must be positive")

    def p1(n: int) -> float:
        value = coefficient * float(n) ** (-2.0 / denominator)
        if value > 1.0:
            warnings.warn(f"schedule value {value:.4g} clamped to 1 at n={n}")
            return 1.0
        return value

    return p1


def _graph_data(graph: Hypergraph) -> tuple[list[int], set[frozenset]]:
    verts = []
    edges = set()
    for face in graph.faces():
        if len(face) == 1:
            verts.append(face[0])
        elif len(face) == 2:
            edges.add(frozenset(face))
        else:
            raise ValueError(f"not a graph: face {face} has dimension {len(face) - 1}")
    vert_set = set(verts)
    for e in edges:
        if not e <= vert_set:
            raise ValueError(f"edge {sorted(e)} has an endpoint with no vertex face")
    return sorted(vert_set), edges


def clique_complex(graph: Hypergraph) -> Complex:
    """Flag complex of a graph: every clique becomes a face.

    Materializes the whole complex, so this is for small graphs; the
    statistics path works on packed adjacency words instead and never builds
    the complex.
    """
    verts, edges = _graph_data(graph)
    layer = [(v,) for v in verts]
    faces = list(layer)
    while layer:
        nxt = []
        for clique in layer:
            for v in verts:
                if v <= clique[-1]:
                    continue
                if all(frozenset((u, v)) in edges for u in clique):
                    nxt.append(clique + (v,))
        faces.extend(nxt)
        layer = nxt
    amb = AmbientComplex(faces)
    return Complex(amb, amb.full_mask)


def clique_complex_in(graph: Hypergraph, ambient: AmbientComplex) -> Complex:
    """Flag complex of a graph intersected with an ambient complex.

    Keeps exactly the ambient faces all of whose vertex pairs are edges of
    the graph; every ambient vertex passes vacuously.
    """
    verts, edges = _graph_data(graph)
    labels = set(ambient.vertex_labels)
    if not set(verts) <= labels:
        raise ValueError("graph has vertices outside the ambient complex")
    mask = 0
    for i in range(ambient.num_faces):
        vs = ambient.face_vertices(i)
        if all(frozenset(pair) in edges for pair in itertools.combinations(vs, 2)):
            mask |= 1 << i
    return Complex(ambient, mask)


@dataclass(frozen=True)
class TruncatedSample:
    """One truncated draw: the hyperedge part and the staged complex part.

    Each part holds one int64 vertex array per dimension d = 0..r, of shape
    (faces, d + 1): a row is a face's ascending vertices labelled 1..n, and
    rows come in lexicographic order, so the parts list their faces in
    canonical order.  Arrays, not Hypergraph/Complex objects: at the sizes
    this generator targets, materializing an ambient complex would defeat
    the O(output) memory contract.  Arrays have no single truth value, so
    compare samples layer by layer, not with ==.
    """

    n: int
    r: int
    hyper_faces: tuple[np.ndarray, ...]
    complex_faces: tuple[np.ndarray, ...]


_INT64_MAX = np.iinfo(np.int64).max

# _words_at jumps a gap of _SEEK_GAP words or more on Philox with one
# advance(), which costs about as much as random_raw takes for 500 words
# (numpy 2.4 on a 2-vCPU Xeon).
_SEEK_GAP = 512


@lru_cache(maxsize=8)
def _binomial_tables(n, r) -> dict[int, np.ndarray]:
    # binom[j][c] = C(c, j) for c < n and 1 <= j <= r + 1, read-only since
    # callers share them; refuses sizes whose counts (or face ranks) would
    # overflow int64.
    if max(math.comb(n, k) for k in range(1, r + 2)) > _INT64_MAX:
        raise ValueError(f"C({n}, k) for some k <= {r + 1} exceeds int64: too many candidate faces")
    binom = {}
    for j in range(1, r + 2):
        binom[j] = np.array([math.comb(c, j) for c in range(n)], dtype=np.int64)
        binom[j].setflags(write=False)
    return binom


def _bernoulli_layer(n, k, q, bitgen, binom):
    # One draw per k-subset of 1..n, in lexicographic order; the count
    # depends only on (n, k), never on the outcomes.  The raw words are
    # read by models._coin_hits: the same hits, the same stream.  Only the
    # hits become faces: a hit's lexicographic rank is unranked through the
    # combinatorial number system.  With x = C(n, k) - 1 - rank, for
    # j = k..1 the largest c with C(c, j) <= x gives the next vertex n - c,
    # and x drops by C(c, j).  Yields an int64 (hits, k) vertex array per
    # block of the coin read, rows in lex order; each block's words are
    # read when it is asked for, so the caller consumes every block.
    total = math.comb(n, k)
    for hits in _coin_hits(bitgen, total, q):
        x = total - 1 - hits
        verts = np.empty((x.size, k), dtype=np.int64)
        for pos, j in enumerate(range(k, 0, -1)):
            c = binom[j].searchsorted(x, "right") - 1
            verts[:, pos] = n - c
            x -= binom[j][c]
        yield verts


def _lex_ranks(faces: np.ndarray, n: int, binom) -> np.ndarray:
    # Inverse of _bernoulli_layer's unranking: the face v_0 < .. < v_{k-1}
    # has rank C(n, k) - 1 - sum_pos C(n - v_pos, k - pos).
    k = faces.shape[1]
    return math.comb(n, k) - 1 - sum(binom[k - pos][n - faces[:, pos]] for pos in range(k))


def _bernoulli_faces(n, base, r, rng) -> list[np.ndarray]:
    # One _bernoulli_layer per dimension d = 0..r, in order, its blocks
    # joined.
    bitgen = _raw_words(rng)
    binom = _binomial_tables(n, r)
    return [np.concatenate(list(_bernoulli_layer(n, d + 1, base[d], bitgen, binom)))
            for d in range(r + 1)]


def _words_at(bitgen: np.random.BitGenerator, rank_blocks, total: int) -> Iterator[np.ndarray]:
    # The words at each rank array's positions among the next `total` raw
    # words (ranks ascend within and across arrays).  Once rank_blocks ends
    # the generator is where random_raw(total) leaves it: on Philox, the
    # same counter, buffer and buffer_pos.  Philox computes each 4-word
    # block from the key and the block's counter alone, and advance(b) adds
    # b to the counter and empties the buffer, so a gap of _SEEK_GAP words
    # or more is jumped; other bit generators read through it in _block_cut
    # pieces.  The ranks of one read share a block of _BLOCK_UNIFORMS, so
    # with the short gap before them it takes under _BLOCK_UNIFORMS +
    # _SEEK_GAP words.  `used` counts the words of Philox's buffered block
    # already read (4: none left).
    philox = isinstance(bitgen, np.random.Philox)
    state = bitgen.state
    used = state["buffer_pos"] if philox else 4
    pos = 0

    def skip(gap):
        # Move `gap` words on but for the few returned, which the next read
        # takes: after a jump at least one, so that the buffer holds the
        # block a full read would.
        nonlocal used
        if gap < _SEEK_GAP:
            return gap
        if philox:
            blocks, rest = divmod(gap - (4 - used) - 1, 4)
            bitgen.advance(blocks)
            used = 4
            return rest + 1
        for _, size in _block_cut(gap):
            bitgen.random_raw(size)
        return 0

    for ranks in rank_blocks:
        words = np.empty(ranks.size, dtype=np.uint64)
        head = np.ones(ranks.size, dtype=bool)
        head[1:] = (np.diff(ranks) >= _SEEK_GAP) | (np.diff(ranks // models._BLOCK_UNIFORMS) != 0)
        starts = np.flatnonzero(head).tolist()
        for lo, hi in zip(starts, starts[1:] + [ranks.size]):
            first, last = int(ranks[lo]), int(ranks[hi - 1])
            gap = skip(first - pos)
            span = bitgen.random_raw(gap + last - first + 1)
            words[lo:hi] = span[ranks[lo:hi] - (first - gap)]
            used = (used + span.size - 1) % 4 + 1
            pos = last + 1
        yield words
    bitgen.random_raw(skip(total - pos))
    if state["has_uint32"]:
        # advance() also drops the cached 32-bit half, which a raw read keeps
        now = bitgen.state
        now["has_uint32"], now["uinteger"] = state["has_uint32"], state["uinteger"]
        bitgen.state = now


def _facets_kept(keys: np.ndarray, faces: np.ndarray, n, binom) -> np.ndarray:
    # Bool per row of faces (d + 1 vertices, d >= 2) built from two rows of
    # a layer of d-faces (_candidate_blocks): do its other facets, those
    # without v_0, .., v_{d-2}, have their lex ranks among keys, the
    # ascending _lex_ranks of that layer?  The facet without v_i differs
    # from the one without v_{i-1} only at position i - 1, which holds
    # v_{i-1} in place of v_i, so its rank adds
    # C(n - v_i, d - i + 1) - C(n - v_{i-1}, d - i + 1).
    d = faces.shape[1] - 1
    c = n - faces
    facet = _lex_ranks(faces[:, 1:], n, binom)
    keep = _in_sorted(keys, facet)
    for i in range(1, d - 1):
        facet += binom[d - i + 1][c[:, i]] - binom[d - i + 1][c[:, i - 1]]
        keep &= _in_sorted(keys, facet)
    return keep


def _in_sorted(keys: np.ndarray, x: np.ndarray) -> np.ndarray:
    pos = np.minimum(keys.searchsorted(x), keys.size - 1)
    return keys[pos] == x


def _candidate_blocks(layer: np.ndarray, n, binom) -> Iterator[np.ndarray]:
    # The (d + 1)-faces whose facets all lie in the lex-sorted layer of
    # d-faces, in lex order: at least one array, one per block of layer rows
    # holding about _BLOCK_UNIFORMS sibling pairs (models._cumulative_cut).
    # Rows a < b of one sibling run (rows that agree on all but their last
    # vertex) give the face row a + (last vertex of b), in lex order.  Every
    # such face arises once this way, from its facets without v_d and
    # v_{d-1}, and is kept when its other facets (an edge has none) are rows.
    rows = layer.shape[0]
    head = np.ones(rows, dtype=bool)
    head[1:] = (layer[1:, :-1] != layer[:-1, :-1]).any(axis=1)
    starts = np.flatnonzero(head)
    sizes = np.diff(np.append(starts, rows))
    later = np.repeat(starts + sizes, sizes) - np.arange(rows) - 1  # the pairs (a, b) of each row a
    keys = _lex_ranks(layer, n, binom)
    cuts = _cumulative_cut(later, models._BLOCK_UNIFORMS)
    for lo, hi in zip([0, *cuts], [*cuts, rows]):
        pairs = later[lo:hi]
        left = np.repeat(np.arange(lo, hi), pairs)
        right = left + 1 + np.arange(left.size) - np.repeat(np.cumsum(pairs) - pairs, pairs)
        cands = np.concatenate([layer[left], layer[right, -1:]], axis=1)
        if layer.shape[1] > 1:
            # np.compress takes rows several times faster than a boolean index
            cands = np.compress(_facets_kept(keys, cands, n, binom), cands, axis=0)
        yield cands


def _staged_complex_faces(n, closure_p, r, rng) -> list[np.ndarray]:
    # Stage-by-dimension draw: a (d+1)-subset is a candidate once all of its
    # d-subsets were kept, and gets one uniform at closure_p[d].  Candidates
    # come in lexicographic order, a block at a time (_candidate_blocks),
    # and each block's uniforms are drawn before the next block is built:
    # the same doubles as one call over the stage.  Returns the kept layer
    # of each dimension d = 0..r.
    binom = _binomial_tables(n, r)
    layer = np.arange(1, n + 1, dtype=np.int64)[rng.random(n) < closure_p[0], None]
    layers = [layer]
    for d in range(1, r + 1):
        layer = np.concatenate([cands[rng.random(cands.shape[0]) < closure_p[d]]
                                for cands in _candidate_blocks(layer, n, binom)])
        layers.append(layer)
    return layers


def algorithm1_truncated(n: int, p, r: int, rng) -> TruncatedSample:
    """Draw the dimension-<=r part of a Bernoulli hypergraph together with a
    staged complex under the derived closure vector.

    The hypergraph part restricts the full Bernoulli draw exactly: faces of
    dimension <= r are independent, so cutting at r does not disturb their
    joint law.  The complex part is a stage-by-dimension draw with the full-n
    closure marginals; stages never look above the current dimension, so the
    cut is exact there too.  The two parts are independent.  The hypergraph
    part consumes its uniforms first.  Each part is one int64 vertex array
    per dimension 0..r, rows in lexicographic order (TruncatedSample).
    """
    if not 0 <= r < n:
        raise ValueError(f"need 0 <= r < n, got r={r}, n={n}")
    base = _base_tuple(n, p)
    dd = _derived_cached(n, base)
    hyper = _bernoulli_faces(n, base, r, rng)
    cx = _staged_complex_faces(n, dd.closure_marginals, r, rng)
    return TruncatedSample(n=n, r=r, hyper_faces=tuple(hyper), complex_faces=tuple(cx))


def algorithm2_truncated(n: int, p, r: int, rng) -> tuple[np.ndarray, ...]:
    """Draw the dimension-<=r part of the simplicial part of a Bernoulli
    hypergraph.

    A face of dimension <= r belongs to the simplicial part iff all of its
    nonempty subsets are hyperedges, and those subsets also have dimension
    <= r, so drawing the hypergraph only up to r is exact.  Membership is
    decided by facet recursion: keep a face iff it was drawn and all of its
    facets were kept.

    The stream is read as one raw word per face, in lexicographic order per
    dimension.  p_0 = 1 keeps every vertex, so the edges are the Bernoulli
    draw itself.  Above them only a candidate, a face whose facets were all
    kept, can be kept: each dimension builds its candidates in blocks
    (_candidate_blocks) and reads only their words, at their lex ranks
    (_words_at), leaving the generator where reading every word would.

    Returns the kept faces as one int64 vertex array per dimension d = 0..r,
    of shape (faces, d + 1), rows in lexicographic order.
    """
    if not 0 <= r < n:
        raise ValueError(f"need 0 <= r < n, got r={r}, n={n}")
    base = _base_tuple(n, p)
    binom = _binomial_tables(n, r)
    kept = _bernoulli_faces(n, base, min(r, 1), rng)
    for d in range(2, r + 1):
        blocks, rank_blocks = itertools.tee(_candidate_blocks(kept[-1], n, binom))
        words = _words_at(rng.bit_generator, (_lex_ranks(cands, n, binom) for cands in rank_blocks),
                          math.comb(n, d + 1))
        # the reader goes first, so zip stops only once it has moved the
        # stream to the end of the dimension
        kept.append(np.concatenate([cands[_word_hits(w, base[d])] for w, cands in zip(words, blocks)]))
    return tuple(kept)


def dimension_stats(n_values, schedule, r, samples, seed, *, streams_from=0):
    """Clique-complex dimension census over a sweep of n.

    For each n, draws `samples` graphs G(n, schedule(n)) and counts cliques:
    the flag complex has dimension <= r iff the graph has no (r+2)-clique,
    dimension exactly r iff additionally some (r+1)-clique exists, and its
    r-face count is the (r+1)-clique count.  Each n gets its own generator
    stream, so rows are reproducible independently of the sweep order.
    Graphs are drawn and censused in the batches of models._block_cut, a
    graph's adjacency rows being n * ceil(n/64) 64-bit words.  The stream
    is read in the same order whatever the batch size.  schedule is a
    callable from n to the edge probability (threshold_schedule).

    Returns one dict per n with keys matching STATS_COLUMNS.
    """
    if r < 1:
        raise ValueError("dimension census needs r >= 1")
    rows = []
    for offset, n in enumerate(n_values):
        rng = rng_from(seed, stream=streams_from + offset)
        p1 = schedule(n)
        le = eq = 0
        total_faces = 0
        for _, size in _block_cut(samples, n * ((n + 63) >> 6)):
            block = sample_graph_block(n, p1, rng, size)
            counts, exists = clique_census(block, r + 1, r + 2)
            le += int(np.count_nonzero(~exists))
            eq += int(np.count_nonzero(~exists & (counts > 0)))
            total_faces += int(counts.sum())
        rows.append(_stats_row(n, p1, samples, le / samples, eq / samples, total_faces / samples))
    return rows


def closure_dimension_stats(n_values, base_template, r, samples, seed, *, streams_from=0):
    """Dimension census for the closure of a Bernoulli hypergraph.

    The closure's dimension is the top hyperedge dimension, so the staged
    probabilities are exact binomial products; each sample spends one uniform
    on the coupled indicator pair (dim <= r-1 nests inside dim <= r).  The
    template supplies the leading base entries for every n (truncated or
    zero-padded as needed), and mean_r_faces reports the exact expectation
    C(n, r+1) * closure_marginal[r] rather than a sampled count.  For
    r >= n there are no r-faces: the row reads 1, 0, 0, as the clique
    model's does.
    """
    if r < 0:
        raise ValueError("closure census needs r >= 0")
    rows = []
    for offset, n in enumerate(n_values):
        rng = rng_from(seed, stream=streams_from + offset)
        base = _base_tuple(n, list(base_template)[:n])
        def p_no_edge(dims):  # P(no hyperedge of a dimension in dims)
            return math.exp(_log_no_hit((math.comb(n, k + 1), base[k]) for k in dims if base[k] > 0.0))

        p_le = p_no_edge(range(r + 1, n))
        if r >= n:
            p_le_below, mean_r_faces = p_le, 0.0
        else:
            p_le_below = p_le * p_no_edge((r,))
            mean_r_faces = math.comb(n, r + 1) * _derived_cached(n, base).closure_marginals[r]
        us = rng.random(samples)
        le = int(np.count_nonzero(us < p_le))
        eq = int(np.count_nonzero((us >= p_le_below) & (us < p_le)))
        p1 = base[1] if n > 1 else 1.0
        rows.append(_stats_row(n, p1, samples, le / samples, eq / samples, mean_r_faces))
    return rows


def counting_bound(n: int, p1: float, k: int, r: int) -> float:
    """Printed tail bound for the event that a flag complex on G(n, p1) has
    at most k faces of dimension r:

        C(n, k(r+1)) * (1 - p1)^(C(n,2) - C(k(r+1), 2))

    Evaluated in log space and returned as-is, possibly above 1.  This is a
    report-only quantity: it is not a valid upper bound (see the tests), so
    nothing in the package asserts against it.
    """
    m = k * (r + 1)
    if m > n:
        return 0.0
    exponent = math.comb(n, 2) - math.comb(m, 2)
    if p1 >= 1.0:
        return 0.0 if exponent > 0 else float(math.comb(n, m))
    log_val = math.log(math.comb(n, m)) + exponent * math.log1p(-p1)
    return math.exp(log_val)
