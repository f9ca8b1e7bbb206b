"""Sparse random structures on many vertices.

Derived per-dimension inclusion parameters, clique (flag) complexes, and
truncated generation that cuts every draw at a dimension bound r.

The truncated generators work in whole-array steps and read the stream
exactly as one uniform per candidate, in lexicographic order, would:

* the Bernoulli draw gives every face one raw 64-bit word, drawn in
  fixed-size blocks and compared with the exact integer cut of its
  probability, and turns only the hits into faces, by unranking;
* the staged draw builds each stage's candidates as sibling pairs of the
  kept layer and draws all their uniforms in one call;
* algorithm 2 keeps a face iff its word hits and all its facets were
  kept.  On Philox, a dimension whose candidates (the sibling pairs of the
  kept layer with every facet kept) are few reads only their words, by
  lexicographic rank, and leaves the generator at the same stream
  position, counter and buffer as the full Bernoulli draw; other
  dimensions and other bit generators take the full draw;
* algorithm 2 and the staged draw test facets by lexicographic rank, the
  numbering that places a face's word in the stream.

So on the r-skeleton of the simplex on 1..n, whose canonical face order is
this lexicographic order, the generators are the mask layer's samplers,
face for face and leaving the same next draw: algorithm 1 is
sample_hypergraph_masks at the base vector, then sample_complex at the
closure marginals; algorithm 2 is interior_complex_mask of that hypergraph
draw.

Nothing here ever enumerates the full simplex on n vertices, and a full
Bernoulli read in algorithm 2 filters each block's hits by facets as they
are unranked, so memory stays proportional to the output plus one block of
hits (and, where candidates are built, the sibling pairs of the kept layer
they come from).  The raw-word cut needs a bit generator whose doubles come
from one 64-bit word: every numpy bit generator but MT19937.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .complexes import AmbientComplex, Complex, Hypergraph
from .kernels import clique_census, sample_graph_block
from .models import _BLOCK_UNIFORMS, _block_cut, _coin_hits, _raw_words, _word_hits, check_probabilities, rng_from

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

# Algorithm 2 on Philox reads only its candidates' words in a dimension of
# at least _SEEK_MIN_WORDS faces (fewer are read whole in less time than
# the candidates take to build) whose candidates are bounded by
# 1/_SEEK_SHARE of them.  A gap of _SEEK_GAP words or more between two
# candidates is jumped with one advance(), which costs about as much as
# random_raw takes for 500 words (numpy 2.4 on a 2-vCPU Xeon).
_SEEK_MIN_WORDS = 1 << 12
_SEEK_SHARE = 32
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


def _philox_words_at(bitgen: np.random.Philox, ranks: np.ndarray, total: int) -> np.ndarray:
    # The words at the ascending positions `ranks` among the next `total`
    # raw words, leaving the generator exactly where random_raw(total)
    # would: the same counter, buffer and buffer_pos.  Philox computes each
    # 4-word block from the key and the block's counter alone, and
    # advance(b) adds b to the counter and empties the buffer, so a gap of
    # _SEEK_GAP words or more is jumped and a shorter one read through.
    # Reads never cross a multiple of _BLOCK_UNIFORMS, so none is longer
    # than a dense read's.  `used` counts the words of the buffered block
    # already read (4: none left).
    state = bitgen.state
    used = state["buffer_pos"]
    words = np.empty(ranks.size, dtype=np.uint64)
    head = np.ones(ranks.size, dtype=bool)
    head[1:] = (np.diff(ranks) >= _SEEK_GAP) | (np.diff(ranks // _BLOCK_UNIFORMS) != 0)
    starts = np.flatnonzero(head).tolist()
    pos = 0
    for lo, hi in zip(starts, starts[1:] + [ranks.size]):
        first, last = int(ranks[lo]), int(ranks[hi - 1])
        gap = first - pos
        if gap >= _SEEK_GAP:
            blocks, gap = divmod(gap - (4 - used), 4)
            bitgen.advance(blocks)
            used = 4
        span = bitgen.random_raw(gap + last - first + 1)
        words[lo:hi] = span[ranks[lo:hi] - (first - gap)]
        used = (used + span.size - 1) % 4 + 1
        pos = last + 1
    rest = total - pos
    if rest > 4 - used:
        # land on the block the full read ends in, then read its used words
        blocks, rest = divmod(rest - (4 - used) - 1, 4)
        bitgen.advance(blocks)
        rest += 1
    if rest:
        bitgen.random_raw(rest)
    if state["has_uint32"]:
        # advance() also drops the cached 32-bit half, which a raw read keeps
        now = bitgen.state
        now["has_uint32"], now["uinteger"] = state["has_uint32"], state["uinteger"]
        bitgen.state = now
    return words


def _facets_kept(keys: np.ndarray, faces: np.ndarray, n, binom, tested=None) -> np.ndarray:
    # Bool per row of faces (d + 1 vertices): the facets without v_0, v_1,
    # .., v_{tested - 1} (1 <= tested <= d + 1, all by default) have their
    # lex ranks among keys, the ascending _lex_ranks of a lex-sorted layer
    # of d-faces.  The facet without v_i differs from the one without
    # v_{i-1} only at position i - 1, which holds v_{i-1} in place of v_i,
    # so its rank adds C(n - v_i, d - i + 1) - C(n - v_{i-1}, d - i + 1).
    d = faces.shape[1] - 1
    tested = d + 1 if tested is None else tested
    if keys.size == 0:
        return np.zeros(faces.shape[0], dtype=bool)
    c = n - faces
    facet = _lex_ranks(faces[:, 1:], n, binom)
    keep = _in_sorted(keys, facet)
    for i in range(1, tested):
        facet += binom[d - i + 1][c[:, i]] - binom[d - i + 1][c[:, i - 1]]
        keep &= _in_sorted(keys, facet)
    return keep


def _in_sorted(keys: np.ndarray, x: np.ndarray) -> np.ndarray:
    pos = np.minimum(keys.searchsorted(x), keys.size - 1)
    return keys[pos] == x


def _sibling_runs(layer: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Start row and length of each run of rows of the lex-sorted layer that
    # agree on all but their last vertex.
    rows = layer.shape[0]
    head = np.ones(rows, dtype=bool)
    head[1:] = (layer[1:, :-1] != layer[:-1, :-1]).any(axis=1)
    starts = np.flatnonzero(head)
    return starts, np.diff(np.append(starts, rows))


def _sibling_extensions(layer: np.ndarray) -> np.ndarray:
    # Rows a < b of one sibling run give the face row a + (last vertex of
    # b); in (a, b) order these come out in lex order.  Every (d + 1)-face
    # whose facets all lie in the layer arises once this way, from its
    # facets without v_d and v_{d-1}.
    rows = layer.shape[0]
    starts, sizes = _sibling_runs(layer)
    later = np.repeat(starts + sizes, sizes) - np.arange(rows) - 1
    left = np.repeat(np.arange(rows), later)
    right = left + 1 + np.arange(left.size) - np.repeat(np.cumsum(later) - later, later)
    return np.concatenate([layer[left], layer[right, -1:]], axis=1)


def _candidates(layer: np.ndarray, n, binom) -> np.ndarray:
    # The (d + 1)-faces, in lex order, whose facets all lie in the
    # lex-sorted layer of d-faces: the sibling extensions (which hold the
    # facets without v_d and v_{d-1}) whose other d - 1 facets are rows too.
    cands = _sibling_extensions(layer)
    d = layer.shape[1]
    if d > 1:
        cands = cands[_facets_kept(_lex_ranks(layer, n, binom), cands, n, binom, tested=d - 1)]
    return cands


def _sibling_pairs(layer: np.ndarray) -> int:
    # Row count of _sibling_extensions(layer), without building it: a
    # bound on the next dimension's candidates.
    sizes = _sibling_runs(layer)[1]
    return int((sizes * (sizes - 1)).sum()) // 2


def _staged_complex_faces(n, closure_p, r, rng) -> list[np.ndarray]:
    # Stage-by-dimension draw: a (d+1)-subset is a candidate once all of its
    # d-subsets were kept, and gets one uniform at closure_p[d], all of a
    # stage's uniforms in one call.  Candidates come in lexicographic
    # order (_candidates), so the stream layout is reproducible.  Returns
    # the kept layer of each dimension d = 0..r.
    binom = _binomial_tables(n, r)
    layer = np.arange(1, n + 1, dtype=np.int64)[rng.random(n) < closure_p[0], None]
    layers = [layer]
    for d in range(1, r + 1):
        cands = _candidates(layer, n, binom)
        layer = cands[rng.random(cands.shape[0]) < closure_p[d]]
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
    facets were kept (tested by lex rank, see _facets_kept).

    The stream is read as one raw word per face, in lexicographic order per
    dimension, but on Philox a dimension with few candidates (the faces
    whose facets were all kept) reads only their words and jumps the rest
    (_philox_words_at): the same faces, and the same generator state after
    the call.  A dimension read whole filters each block's hits by facets
    as they are unranked, so it never holds more than one block of them.

    Returns the kept faces as one int64 vertex array per dimension d = 0..r,
    of shape (faces, d + 1), rows in lexicographic order.
    """
    if not 0 <= r < n:
        raise ValueError(f"need 0 <= r < n, got r={r}, n={n}")
    base = _base_tuple(n, p)
    bitgen = _raw_words(rng)
    binom = _binomial_tables(n, r)
    philox = isinstance(bitgen, np.random.Philox)
    kept = [np.concatenate(list(_bernoulli_layer(n, 1, base[0], bitgen, binom)))]
    for d in range(1, r + 1):
        layer, total = kept[-1], math.comb(n, d + 1)
        if philox and total >= _SEEK_MIN_WORDS and _SEEK_SHARE * _sibling_pairs(layer) <= total:
            cands = _candidates(layer, n, binom)
            words = _philox_words_at(bitgen, _lex_ranks(cands, n, binom), total)
            kept.append(cands[_word_hits(words, base[d])])
        else:
            keys = _lex_ranks(layer, n, binom)
            kept.append(np.concatenate([
                block[_facets_kept(keys, block, n, binom)]
                for block in _bernoulli_layer(n, d + 1, base[d], bitgen, binom)
            ]))
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
