"""Exact distributions on the subset lattice and their operator pushforwards.

A distribution is a dense vector indexed by face-index masks, so exactness
is limited to ambients with at most TABLE_LIMIT faces.  Pushing through a
unary operator is a weighted bincount over the operator's lookup table.
Binary operators push the independent coupling of two distributions, and
for union and intersection that pushforward is a subset convolution: a
subset-sum (union) or superset-sum (intersection) transform of each
operand, a pointwise product, then the inverse (Moebius) transform
(Yates' algorithm; Bjoerklund, Husfeldt, Kaski and Koivisto, "Fourier meets
Moebius: fast subset convolution", STOC 2007).  It costs O(m 2^m) time and
memory on m faces, where summing over all pairs of masks costs O(4^m).

The closed-form transforms turn a product law into the product law of its
image: complement flips p; closure yields a complex law with
p'(t) = 1 - prod_{s >= t} (1 - p(s)); interior-complex yields a hypergraph
law with p''(t) = prod_{s <= t} p(s); intersections multiply the transformed
probabilities and unions combine them as 1 - (1-a)(1-b).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import AmbientComplex, Hypergraph, Complex, iter_bits
from .models import resolve_probabilities
from .operators import (
    TABLE_LIMIT,
    TableSet,
    complex_indicator,
    doubling,
    extension_table,
    external_faces_mask,
    fixed_points,
    interior_table,
)
from .words import Compose, Join, Meet, Word, WordError, eval_word_tables


def _lattice_size(amb: AmbientComplex) -> int:
    """2^m on m faces, checked against TABLE_LIMIT before any allocation."""
    if amb.num_faces > TABLE_LIMIT:
        raise ValueError("ambient too large for exact distributions")
    return 1 << amb.num_faces


@dataclass
class Distribution:
    """A probability vector over all subsets of the ambient's faces."""

    ambient: AmbientComplex
    vec: np.ndarray

    def __post_init__(self):
        size = _lattice_size(self.ambient)
        self.vec = np.asarray(self.vec, dtype=np.float64)
        if self.vec.shape != (size,):
            raise ValueError(f"expected vector of length {size}")

    @property
    def total(self) -> float:
        return float(self.vec.sum())

    def prob(self, mask: int) -> float:
        return float(self.vec[mask])

    def support(self) -> list[int]:
        return [int(i) for i in np.flatnonzero(self.vec)]

    def probability_that(self, predicate) -> float:
        """Total mass of masks satisfying a python predicate."""
        return float(
            sum(self.vec[m] for m in range(self.vec.size) if predicate(int(m)))
        )


def point_mass(amb: AmbientComplex, mask: int) -> Distribution:
    vec = np.zeros(_lattice_size(amb))
    vec[mask] = 1.0
    return Distribution(amb, vec)


def uniform_distribution(amb: AmbientComplex) -> Distribution:
    size = _lattice_size(amb)
    return Distribution(amb, np.full(size, 1.0 / size))


def random_exact(amb: AmbientComplex, rng: np.random.Generator) -> Distribution:
    vec = rng.random(_lattice_size(amb))
    return Distribution(amb, vec / vec.sum())


def hypergraph_product(amb: AmbientComplex, p) -> Distribution:
    """The independent-faces law as an exact vector.

    Bit i of the mask index is face i, so the vector doubles once per face.
    """
    _lattice_size(amb)  # checked before the vector doubles to that length
    probs = resolve_probabilities(amb, p)
    vec = np.ones(1)
    for q in probs:
        vec = np.concatenate([vec * (1.0 - q), vec * q])
    return Distribution(amb, vec)


def complex_product(amb: AmbientComplex, p) -> Distribution:
    """The staged law: mass on downward-closed masks, zero elsewhere.

    A subcomplex's mass is p over its faces times 1 - p over its external
    faces.  The vector starts at 1 on the subcomplexes and 0 elsewhere, then
    takes p_i on every mask holding face i, face by face, then 1 - p_i on
    every mask lacking face i but holding its boundary, face by face: the
    multiplies pmf_complex makes, in its order, so each entry is
    bit-identical to it.
    """
    return _staged_product(amb, resolve_probabilities(amb, p), complex_indicator(amb))


def _staged_product(amb: AmbientComplex, probs: np.ndarray, indicator: np.ndarray) -> Distribution:
    # complex_product from the bool subcomplex indicator, so a caller that
    # holds the closure table need not build it again.
    m = amb.num_faces
    vec = indicator.astype(np.float64)
    for i in range(m):
        vec.reshape(-1, 2, 1 << i)[:, 1] *= probs[i]
    cube = vec.reshape((2,) * m)  # axis m - 1 - i is face bit i
    for i in range(m):
        at = [slice(None)] * m
        at[m - 1 - i] = 0
        for j in iter_bits(amb.boundary_masks[i]):
            at[m - 1 - j] = 1
        cube[tuple(at)] *= 1.0 - probs[i]
    return Distribution(amb, vec)


def empirical_distribution(amb: AmbientComplex, masks: np.ndarray) -> Distribution:
    vec = np.bincount(
        np.asarray(masks, dtype=np.int64), minlength=_lattice_size(amb)
    ).astype(np.float64)
    return Distribution(amb, vec / len(masks))


def total_variation(a: Distribution, b: Distribution) -> float:
    if a.ambient is not b.ambient:
        raise ValueError("distributions live on different ambients")
    return float(np.abs(a.vec - b.vec).sum() / 2.0)


# ----- pushforwards ------------------------------------------------------------


def push_table(dist: Distribution, table: np.ndarray) -> Distribution:
    vec = np.bincount(
        table.astype(np.int64), weights=dist.vec, minlength=dist.vec.size
    )
    return Distribution(dist.ambient, vec)


def push_word(word: Word, *dists: Distribution) -> Distribution:
    """Push the independent coupling of the operands through a word."""
    if not dists:
        raise ValueError("need at least one distribution")
    amb = dists[0].ambient
    for d in dists[1:]:
        if d.ambient is not amb:
            raise ValueError("distributions live on different ambients")
    if word.arity() != len(dists):
        raise ValueError(
            f"word has arity {word.arity()}, got {len(dists)} distributions"
        )
    if len(dists) > 2:
        raise ValueError("pushforwards support arity 1 and 2")
    return _push(word, list(dists))


def _push(word: Word, dists: list[Distribution]) -> Distribution:
    # Operands of a join or meet are independent, so each side is pushed on
    # its own and the two laws are combined by a subset convolution.
    if word.arity() == 1:
        amb = dists[0].ambient
        ident = np.arange(dists[0].vec.size, dtype=np.uint32)
        return push_table(dists[0], eval_word_tables(word, amb, [ident]))
    if isinstance(word, (Join, Meet)):
        na = word.left.arity()
        lhs = _push(word.left, dists[:na])
        rhs = _push(word.right, dists[na:])
        return _convolve(lhs, rhs, upward=isinstance(word, Join))
    if isinstance(word, Compose):
        return _push(word.outer, [_push(word.inner, dists)])
    raise WordError(f"cannot push through {word!r}")


def _sum_transform(vec: np.ndarray, upward: bool, op) -> None:
    """In place, one pass per face bit.

    Upward, each mask with the bit takes op(itself, the mask without it);
    otherwise each mask without the bit takes op(itself, the mask with it).
    With op = np.add this is the zeta transform, summing over subsets
    (upward) or supersets; np.subtract undoes it (Moebius inversion).
    """
    dst, src = (1, 0) if upward else (0, 1)
    for b in range(vec.size.bit_length() - 1):
        v = vec.reshape(-1, 2, 1 << b)
        op(v[:, dst], v[:, src], out=v[:, dst])


def _convolve(a: Distribution, b: Distribution, upward: bool) -> Distribution:
    """Law of A | B (upward) or A & B for independent A ~ a, B ~ b.

    Masks that get no mass in exact arithmetic can come out as rounding-level
    values of either sign.
    """
    if a.ambient is not b.ambient:
        raise ValueError("distributions live on different ambients")
    za = a.vec.copy()
    zb = b.vec.copy()
    _sum_transform(za, upward, np.add)
    _sum_transform(zb, upward, np.add)
    za *= zb
    _sum_transform(za, upward, np.subtract)
    return Distribution(a.ambient, za)


def push_union(a: Distribution, b: Distribution) -> Distribution:
    return _convolve(a, b, upward=True)


def push_intersection(a: Distribution, b: Distribution) -> Distribution:
    return _convolve(a, b, upward=False)


# ----- closed-form transforms ---------------------------------------------------


def complement_transform(amb: AmbientComplex, p) -> np.ndarray:
    return 1.0 - resolve_probabilities(amb, p)


def closure_transform(amb: AmbientComplex, p) -> np.ndarray:
    """Per-face inclusion probabilities of the closure of a product draw."""
    probs = resolve_probabilities(amb, p)
    out = np.empty_like(probs)
    for i in range(amb.num_faces):
        miss = 1.0
        for j in iter_bits(amb.sup_masks[i]):
            miss *= 1.0 - probs[j]
        out[i] = 1.0 - miss
    return out


def interior_transform(amb: AmbientComplex, p) -> np.ndarray:
    """Per-face inclusion probabilities of the interior-complex of a product draw."""
    probs = resolve_probabilities(amb, p)
    out = np.empty_like(probs)
    for i in range(amb.num_faces):
        keep = 1.0
        for j in iter_bits(amb.sub_masks[i]):
            keep *= probs[j]
        out[i] = keep
    return out


def union_transform(amb: AmbientComplex, p1, p2) -> np.ndarray:
    a = resolve_probabilities(amb, p1)
    b = resolve_probabilities(amb, p2)
    return 1.0 - (1.0 - a) * (1.0 - b)


def intersection_transform(amb: AmbientComplex, p1, p2) -> np.ndarray:
    a = resolve_probabilities(amb, p1)
    b = resolve_probabilities(amb, p2)
    return a * b


def marginals(dist: Distribution) -> np.ndarray:
    """Per-face inclusion probabilities of a distribution."""
    amb = dist.ambient
    out = np.empty(amb.num_faces)
    idx = np.arange(dist.vec.size, dtype=np.uint32)
    for i in range(amb.num_faces):
        out[i] = dist.vec[(idx >> np.uint32(i)) & np.uint32(1) == 1].sum()
    return out


def support_is_complexes(dist: Distribution, tol: float = 0.0) -> bool:
    """True iff all mass (above tol per point) sits on downward-closed sets."""
    return not np.any((dist.vec > tol) & ~complex_indicator(dist.ambient))


def verify_transforms(amb: AmbientComplex, p, p2=None, tables: TableSet | None = None) -> dict[str, float]:
    """TV between each of the five pushforwards and its closed-form family.

    complement: complement of a product draw against the flipped product.
    closure / interior: brute-force pushforward against the staged complex
    law under the transformed probabilities.  These two comparisons hold
    only for degenerate assignments; the per-face marginals always agree
    (see marginal_gaps), but the joint law of a closed-up product draw is
    not a staged law in general, so nonzero values here are expected.
    intersection / union: two independent product draws combined, against
    the product law with pointwise-multiplied / complement-multiplied
    probabilities.  The tables come from `tables`, made here when None.
    """
    if p2 is None:
        p2 = p
    tables = TableSet(amb) if tables is None else tables
    vec1 = resolve_probabilities(amb, p)
    vec2 = resolve_probabilities(amb, p2)
    base1 = hypergraph_product(amb, vec1)
    base2 = hypergraph_product(amb, vec2)
    ct = tables["Delta"]
    indicator = fixed_points(ct)
    out = {}
    out["complement"] = total_variation(
        push_table(base1, tables["gamma"]),
        hypergraph_product(amb, 1.0 - vec1),
    )
    out["closure"] = total_variation(
        push_table(base1, ct),
        _staged_product(amb, closure_transform(amb, vec1), indicator),
    )
    out["interior"] = total_variation(
        push_table(base1, tables["delta"]),
        _staged_product(amb, interior_transform(amb, vec1), indicator),
    )
    out["intersection"] = total_variation(
        push_intersection(base1, base2),
        hypergraph_product(amb, vec1 * vec2),
    )
    out["union"] = total_variation(
        push_union(base1, base2),
        hypergraph_product(amb, 1.0 - (1.0 - vec1) * (1.0 - vec2)),
    )
    return out


def marginal_gaps(amb: AmbientComplex, p) -> dict[str, float]:
    """Max abs gap between pushforward marginals and the derived vectors.

    P[t in closure] = p'(t) and P[t in interior-complex] = p''(t) hold
    exactly, so both entries vanish to rounding for every assignment.
    """
    tables = TableSet(amb)
    vec = resolve_probabilities(amb, p)
    base = hypergraph_product(amb, vec)
    closed = push_table(base, tables["Delta"])
    inner = push_table(base, tables["delta"])
    return {
        "closure": float(
            np.abs(marginals(closed) - closure_transform(amb, vec)).max()
        ),
        "interior": float(
            np.abs(marginals(inner) - interior_transform(amb, vec)).max()
        ),
    }


# ----- iterated extension / interior of distributions ----------------------------


def push_extension_power(dist: Distribution, k: int) -> Distribution:
    table = extension_table(dist.ambient)
    out = dist
    for _ in range(k):
        out = push_table(out, table)
    return out


def push_interior_power(dist: Distribution, k: int) -> Distribution:
    table = interior_table(dist.ambient)
    out = dist
    for _ in range(k):
        out = push_table(out, table)
    return out


def extension_limit(dist: Distribution) -> Distribution:
    """Saturation value of the extension chain: mass f(empty) stays at the
    empty hypergraph, everything else ends at the whole complex."""
    amb = dist.ambient
    p_empty = dist.prob(0)
    vec = np.zeros_like(dist.vec)
    vec[0] = p_empty
    vec[amb.full_mask] = 1.0 - p_empty
    return Distribution(amb, vec)


def interior_limit(dist: Distribution) -> Distribution:
    """Saturation value of the interior chain: mass f(L) stays at the whole
    complex, everything else ends empty."""
    amb = dist.ambient
    p_full = dist.prob(amb.full_mask)
    vec = np.zeros_like(dist.vec)
    vec[amb.full_mask] = p_full
    vec[0] = 1.0 - p_full
    return Distribution(amb, vec)


def vertex_supported(amb: AmbientComplex) -> np.ndarray:
    """Bool per mask: True when every vertex of the mask's faces is a 0-face
    of the mask."""
    size = _lattice_size(amb)
    dim0 = amb.skeleton_mask(0)
    spans = doubling(np.uint32(0), [sub & dim0 for sub in amb.sub_masks], np.bitwise_or)
    return (spans & ~np.arange(size, dtype=np.uint32)) == 0


def vertex_support_mass(dist: Distribution) -> float:
    """Mass of hypergraphs whose vertex set is contained in their edges.

    This is the lower bound for the probability that the closure of a draw
    is recovered by interior-after-extension.
    """
    return float(dist.vec[vertex_supported(dist.ambient)].sum())


def contained(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bool per entry: mask a is a subset of mask b."""
    return (a & ~b) == 0


def containment_cases(tables: TableSet, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Theorem 1 at power k, one bool per mask H: (the power sandwich
    Ext^(k-1)(gamma H) <= gamma Int^k(H) <= Ext^(k+1)(gamma H), which holds
    for every H, and Ext(Int(H)) <= delta H, which holds on complexes but
    not in general: on the full 1-simplex, H = {{1},{12}} has
    Ext(Int(H)) = L and simplicial part {{1}})."""
    ext, intr, gamma = tables["Ext"], tables["Int"], tables["gamma"]
    low = gamma
    for _ in range(k - 1):
        low = ext[low]
    int_k = tables["id"]
    for _ in range(k):
        int_k = intr[int_k]
    mid = gamma[int_k]
    sandwich = contained(low, mid) & contained(mid, ext[ext[low]])
    return sandwich, contained(ext[intr], tables["delta"])


def recovery_cases(tables: TableSet) -> np.ndarray:
    """Bool per mask H: the closure of H is recovered by interior-after-
    extension, Delta H <= Int(Ext(H))."""
    return contained(tables["Delta"], tables["Int"][tables["Ext"]])


def containment_probabilities(dist: Distribution, k: int) -> dict:
    """Containment report over a distribution's support: the number of H
    with nonzero mass that break either containment_cases at power k, the
    mass of the recovery_cases, and its lower bound, the mass of H whose
    vertices are all 0-dimensional hyperedges."""
    if k < 1:
        raise ValueError("containment report needs k >= 1")
    tables = TableSet(dist.ambient)
    sandwich, ext_int = containment_cases(tables, k)
    support = dist.vec != 0
    violations = int(np.count_nonzero(support & ~(sandwich & ext_int)))
    recovered = float(dist.vec[recovery_cases(tables)].sum())
    bound = vertex_support_mass(dist)
    return {
        "k": k,
        "support_size": int(np.count_nonzero(support)),
        "containment_violations": violations,
        "containments_hold": violations == 0,
        "prob_closure_recovered": recovered,
        "lower_bound": bound,
        "inequality_holds": recovered >= bound - 1e-12,
    }


def restrict_distribution(dist: Distribution, sub: AmbientComplex) -> Distribution:
    """Pushforward under intersecting with a sub-ambient's face set.

    Every face of ``sub`` must be a face of the source ambient (matched by
    vertex ids); the result lives on ``sub``.
    """
    amb = dist.ambient
    src_idx = [amb.face_index(sub.face_vertices(i)) for i in range(sub.num_faces)]
    masks = np.arange(dist.vec.size, dtype=np.int64)
    small = np.zeros_like(masks)
    for b, i in enumerate(src_idx):
        small |= ((masks >> i) & 1) << b
    vec = np.bincount(small, weights=dist.vec, minlength=1 << sub.num_faces)
    return Distribution(sub, vec)


# ----- union resampler ------------------------------------------------------------


def complex_union_resample(
    k1: Complex, k2: Complex, p1, p2, rng: np.random.Generator
) -> Complex:
    """Rebuild a union-law draw from two independent staged draws.

    k1 and k2 must come from the staged model with closure-marginal vectors
    p1 and p2.  Starting from their union, each stage-d candidate (an
    external face s of the evolving complex) is settled by the coins that
    are already determined: if s was external to both inputs, both coins
    came up tails and s stays out; if s was external to exactly one, the
    other coin is undetermined and a fresh draw with that side's probability
    decides; if s was external to neither, a fresh draw with the combined
    probability 1 - (1-p1)(1-p2) decides.  The result has the law of the
    staged model with the combined probabilities.
    """
    amb = k1.ambient
    if k2.ambient is not amb:
        raise ValueError("inputs live on different ambients")
    q1 = resolve_probabilities(amb, p1)
    q2 = resolve_probabilities(amb, p2)
    mask = k1.mask | k2.mask
    ext1 = external_faces_mask(amb, k1.mask)
    ext2 = external_faces_mask(amb, k2.mask)
    for d in range(1, amb.dim + 1):
        for i in iter_bits(amb.faces_by_dim(d)):
            if mask >> i & 1:
                continue
            if amb.boundary_masks[i] & ~mask:
                continue
            in1 = ext1 >> i & 1
            in2 = ext2 >> i & 1
            if in1 and in2:
                continue
            if in1:
                accept = rng.random() < q2[i]
            elif in2:
                accept = rng.random() < q1[i]
            else:
                accept = rng.random() < 1.0 - (1.0 - q1[i]) * (1.0 - q2[i])
            if accept:
                mask |= 1 << i
    return Complex(amb, mask)
