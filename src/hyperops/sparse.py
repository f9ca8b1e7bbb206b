"""Sparse random structures on many vertices.

Derived per-dimension inclusion parameters, clique (flag) complexes, and
truncated generation that cuts every draw at a dimension bound r.

The truncated generators work in whole-array steps and read the stream
exactly as one uniform per candidate, in lexicographic order, would:

* the Bernoulli draw gives every candidate face one raw 64-bit word,
  drawn in fixed-size blocks and compared with the exact integer cut of
  its probability, and turns only the hits into faces, by unranking;
* the staged draw builds each stage's candidates as sibling pairs of the
  kept layer and draws all their uniforms in one call;
* algorithm 2 and the staged draw test facets by colex rank.

Nothing here ever enumerates the full simplex on n vertices, so memory
stays proportional to the output.  The raw-word cut needs a bit generator
whose doubles come from one 64-bit word: every numpy bit generator but
MT19937.
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
from .models import _BLOCK_UNIFORMS, rng_from

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


def _base_tuple(n: int, p) -> tuple[float, ...]:
    # Base vector (p_0 .. p_{n-1}); shorter input is padded with zeros, so
    # faces of the missing dimensions never appear.  p_0 = 1 is a contract:
    # every vertex is always present.
    vals = [float(x) for x in p]
    if not vals:
        raise ValueError("base probability vector is empty")
    if len(vals) > n:
        raise ValueError(f"base vector has {len(vals)} entries but n = {n}")
    for x in vals:
        if not 0.0 <= x <= 1.0:
            raise ValueError(f"probability {x} outside [0, 1]")
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


@lru_cache(maxsize=None)
def _derived_cached(n: int, base: tuple[float, ...]) -> DerivedDims:
    closure = []
    interior = []
    for k in range(n):
        log_miss = 0.0
        for i in range(n - k):
            q = base[k + i]
            if q == 0.0:
                continue
            if q == 1.0:
                log_miss = -math.inf
                break
            log_miss += math.comb(n - k - 1, i) * math.log1p(-q)
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
    if coefficient <= 0.0 or denominator <= 0.0:
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

    Faces are ascending vertex tuples labelled 1..n, every one of dimension
    at most r.  Plain tuples, not Hypergraph/Complex objects: at the sizes
    this generator targets, materializing an ambient complex would defeat
    the O(output) memory contract.
    """

    n: int
    r: int
    hyper_faces: tuple[tuple[int, ...], ...]
    complex_faces: tuple[tuple[int, ...], ...]


_INT64_MAX = np.iinfo(np.int64).max


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


def _raw_words(rng) -> np.random.BitGenerator:
    # These bit generators make each double (w >> 11) * 2^-53 of one raw
    # word w; MT19937 builds it from two 32-bit draws instead.  (Named here,
    # not at import: numpy.random loads lazily.)
    bitgen = rng.bit_generator
    one_word = (np.random.Philox, np.random.PCG64, np.random.PCG64DXSM, np.random.SFC64)
    if not isinstance(bitgen, one_word):
        raise ValueError(
            f"the sparse generators need a bit generator whose doubles come from one "
            f"64-bit word (Philox, PCG64, PCG64DXSM or SFC64), not {type(bitgen).__name__}"
        )
    return bitgen


def _bernoulli_faces(n, base, r, rng) -> list[np.ndarray]:
    # One draw per candidate face, in lexicographic order per dimension; the
    # count depends only on (n, r), never on the outcomes.  rng.random()
    # would return u = (w >> 11) * 2^-53 for the raw word w, and u < q holds
    # exactly when w < ceil(q * 2^53) * 2^11, so the raw words are compared
    # with that integer cut: the same hits, the same stream.  Only the hits
    # become faces: a hit's lexicographic rank is unranked through the
    # combinatorial number system.  With x = C(n, k) - 1 - rank, for
    # j = k..1 the largest c with C(c, j) <= x gives the next vertex n - c,
    # and x drops by C(c, j).  Returns one int64 (hits, d + 1) vertex array
    # per dimension d, rows in lex order.
    bitgen = _raw_words(rng)
    binom = _binomial_tables(n, r)
    layers = []
    for d in range(r + 1):
        cut = math.ceil(base[d] * 2.0**53) << 11
        k = d + 1
        total = math.comb(n, k)
        ranks = [np.empty(0, dtype=np.int64)]
        for start in range(0, total, _BLOCK_UNIFORMS):
            words = bitgen.random_raw(min(total - start, _BLOCK_UNIFORMS))
            if cut:
                ranks.append(np.flatnonzero(words <= np.uint64(cut - 1)) + start)
        x = total - 1 - np.concatenate(ranks)
        verts = np.empty((x.size, k), dtype=np.int64)
        for pos, j in enumerate(range(k, 0, -1)):
            c = np.searchsorted(binom[j], x, "right") - 1
            verts[:, pos] = n - c
            x -= binom[j][c]
        layers.append(verts)
    return layers


def _face_tuples(layers) -> list[tuple[int, ...]]:
    return [face for verts in layers for face in map(tuple, verts.tolist())]


def _facets_kept(prev: np.ndarray, faces: np.ndarray, binom, tested=None) -> np.ndarray:
    # Bool per row of faces (d + 1 vertices): the facets without v_0, v_1,
    # .., v_{tested - 1} (1 <= tested <= d + 1, all by default) are rows
    # of prev (d vertices).  Faces are compared by colex rank:
    # v_0 < .. < v_d has rank sum_j C(v_j - 1, j + 1).  The facet without
    # v_0 shifts every other vertex down one position, so its rank is
    # sum_{j>0} C(v_j - 1, j); the facet without v_i differs from the one
    # without v_{i-1} only at position i - 1, which holds v_{i-1} in place
    # of v_i, so its rank adds C(v_{i-1} - 1, i) - C(v_i - 1, i).
    d = prev.shape[1]
    tested = d + 1 if tested is None else tested
    if prev.shape[0] == 0:
        return np.zeros(faces.shape[0], dtype=bool)
    keys = np.sort(sum(binom[j + 1][prev[:, j] - 1] for j in range(d)))
    c = [faces[:, j] - 1 for j in range(d + 1)]
    facet_key = sum(binom[j][c[j]] for j in range(1, d + 1))
    keep = _in_sorted(keys, facet_key)
    for i in range(1, tested):
        facet_key = facet_key + binom[i][c[i - 1]] - binom[i][c[i]]
        keep &= _in_sorted(keys, facet_key)
    return keep


def _in_sorted(keys: np.ndarray, x: np.ndarray) -> np.ndarray:
    pos = np.minimum(np.searchsorted(keys, x), keys.size - 1)
    return keys[pos] == x


def _sibling_extensions(layer: np.ndarray) -> np.ndarray:
    # Rows a < b of the lex-sorted layer that agree on all but their last
    # vertex give the face row a + (last vertex of b); in (a, b) order these
    # come out in lex order.  Every (d + 1)-face whose facets all lie in the
    # layer arises once this way, from its facets without v_d and v_{d-1}.
    rows = layer.shape[0]
    head = np.ones(rows, dtype=bool)
    head[1:] = (layer[1:, :-1] != layer[:-1, :-1]).any(axis=1)
    starts = np.flatnonzero(head)
    sizes = np.diff(np.append(starts, rows))
    later = np.repeat(starts + sizes, sizes) - np.arange(rows) - 1
    left = np.repeat(np.arange(rows), later)
    right = left + 1 + np.arange(left.size) - np.repeat(np.cumsum(later) - later, later)
    return np.concatenate([layer[left], layer[right, -1:]], axis=1)


def _staged_complex_faces(n, closure_p, r, rng) -> list[tuple[int, ...]]:
    # Stage-by-dimension draw: a (d+1)-subset is a candidate once all of its
    # d-subsets were kept, and gets one uniform at closure_p[d], all of a
    # stage's uniforms in one call.  Candidates come in lexicographic
    # order, so the stream layout is reproducible: the sibling extensions
    # of the kept layer (which hold the facets without v_d and v_{d-1})
    # whose other d - 1 facets were kept too.
    binom = _binomial_tables(n, r)
    layer = np.arange(1, n + 1, dtype=np.int64)[rng.random(n) < closure_p[0], None]
    layers = [layer]
    for d in range(1, r + 1):
        cands = _sibling_extensions(layer)
        if d > 1:
            cands = cands[_facets_kept(layer, cands, binom, tested=d - 1)]
        layer = cands[rng.random(cands.shape[0]) < closure_p[d]]
        layers.append(layer)
    return _face_tuples(layers)


def algorithm1_truncated(n: int, p, r: int, rng) -> TruncatedSample:
    """Draw the dimension-<=r part of a Bernoulli hypergraph together with a
    staged complex under the derived closure vector.

    The hypergraph part restricts the full Bernoulli draw exactly: faces of
    dimension <= r are independent, so cutting at r does not disturb their
    joint law.  The complex part is a stage-by-dimension draw with the full-n
    closure marginals; stages never look above the current dimension, so the
    cut is exact there too.  The two parts are independent.  The hypergraph
    part consumes its uniforms first.
    """
    if not 0 <= r < n:
        raise ValueError(f"need 0 <= r < n, got r={r}, n={n}")
    base = _base_tuple(n, p)
    dd = _derived_cached(n, base)
    hyper = _face_tuples(_bernoulli_faces(n, base, r, rng))
    cx = _staged_complex_faces(n, dd.closure_marginals, r, rng)
    return TruncatedSample(n=n, r=r, hyper_faces=tuple(hyper), complex_faces=tuple(cx))


def algorithm2_truncated(n: int, p, r: int, rng) -> tuple[tuple[int, ...], ...]:
    """Draw the dimension-<=r part of the simplicial part of a Bernoulli
    hypergraph.

    A face of dimension <= r belongs to the simplicial part iff all of its
    nonempty subsets are hyperedges, and those subsets also have dimension
    <= r, so drawing the hypergraph only up to r is exact.  Membership is
    decided by facet recursion: keep a face iff it was drawn and all of its
    facets were kept (tested by colex rank, see _facets_kept).
    """
    if not 0 <= r < n:
        raise ValueError(f"need 0 <= r < n, got r={r}, n={n}")
    base = _base_tuple(n, p)
    drawn = _bernoulli_faces(n, base, r, rng)
    binom = _binomial_tables(n, r)
    kept = [drawn[0]]
    for d in range(1, r + 1):
        kept.append(drawn[d][_facets_kept(kept[-1], drawn[d], binom)])
    return tuple(_face_tuples(kept))


def dimension_stats(n_values, schedule, r, samples, seed, *, streams_from=0):
    """Clique-complex dimension census over a sweep of n.

    For each n, draws `samples` graphs G(n, schedule(n)) and counts cliques:
    the flag complex has dimension <= r iff the graph has no (r+2)-clique,
    dimension exactly r iff additionally some (r+1)-clique exists, and its
    r-face count is the (r+1)-clique count.  Each n gets its own generator
    stream, so rows are reproducible independently of the sweep order.
    Graphs are drawn and censused in blocks of about _BLOCK_UNIFORMS pair
    uniforms; the stream is read in the same order whatever the block size.

    Returns one dict per n with keys matching STATS_COLUMNS.
    """
    if r < 1:
        raise ValueError("dimension census needs r >= 1")
    rows = []
    for offset, n in enumerate(n_values):
        rng = rng_from(seed, stream=streams_from + offset)
        p1 = schedule(n) if callable(schedule) else float(schedule)
        le = eq = 0
        total_faces = 0
        per_block = max(1, _BLOCK_UNIFORMS // max(n * (n - 1) // 2, 1))
        for start in range(0, samples, per_block):
            block = sample_graph_block(n, p1, rng, min(per_block, samples - start))
            counts, exists = clique_census(block, r + 1, r + 2)
            le += int(np.count_nonzero(~exists))
            eq += int(np.count_nonzero(~exists & (counts > 0)))
            total_faces += int(counts.sum())
        rows.append(
            {
                "n": n,
                "p1": p1,
                "samples": samples,
                "prob_dim_le_r": le / samples,
                "prob_dim_eq_r": eq / samples,
                "mean_r_faces": total_faces / samples,
            }
        )
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
        log_le = 0.0
        for k in range(r + 1, n):
            if base[k] == 1.0:
                log_le = -math.inf
                break
            if base[k] > 0.0:
                log_le += math.comb(n, k + 1) * math.log1p(-base[k])
        p_le = math.exp(log_le)
        if r >= n:
            p_le_below, mean_r_faces = p_le, 0.0
        else:
            p_le_below = 0.0 if base[r] == 1.0 else p_le * math.exp(math.comb(n, r + 1) * math.log1p(-base[r]))
            mean_r_faces = math.comb(n, r + 1) * _derived_cached(n, base).closure_marginals[r]
        us = rng.random(samples)
        le = int(np.count_nonzero(us < p_le))
        eq = int(np.count_nonzero((us >= p_le_below) & (us < p_le)))
        rows.append(
            {
                "n": n,
                "p1": base[1] if n > 1 else 1.0,
                "samples": samples,
                "prob_dim_le_r": le / samples,
                "prob_dim_eq_r": eq / samples,
                "mean_r_faces": mean_r_faces,
            }
        )
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
