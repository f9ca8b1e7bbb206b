"""Exact distributions on the subset lattice and their operator pushforwards.

A distribution is a dense vector indexed by face-index masks, so exactness
is limited to ambients with at most TABLE_LIMIT faces; operators.lattice_size
checks that before each vector is allocated.  Pushing through a
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

from .complexes import AmbientComplex, Hypergraph, Complex, iter_bits, same_ambient
from .models import check_probabilities, resolve_probabilities, staged_draw
from .operators import (
    JOINS,
    TableSet,
    _join_table,
    doubling,
    extension_table,
    external_faces_mask,
    fixed_points,
    identity_table,
    interior_table,
    lattice_size,
)
from .words import (
    Compose,
    Join,
    Word,
    eval_word_mask,
    eval_word_tables,
    primitive_names,
)

# the tolerance of every exact comparison, in this module and in verify
EXACT_TOL = 1e-12


@dataclass
class Distribution:
    """A probability vector over all subsets of the ambient's faces."""

    ambient: AmbientComplex
    vec: np.ndarray

    def __post_init__(self):
        size = lattice_size(self.ambient)
        self.vec = np.asarray(self.vec, dtype=np.float64)
        if self.vec.shape != (size,):
            raise ValueError(f"expected vector of length {size}")

    @property
    def total(self) -> float:
        return float(self.vec.sum())

    def prob(self, mask: int) -> float:
        return float(self.vec[mask])

    def support(self) -> list[int]:
        # the boolean scan selects what a float scan would, faster
        return np.flatnonzero(self.vec != 0).tolist()


def point_mass(amb: AmbientComplex, mask: int) -> Distribution:
    vec = np.zeros(lattice_size(amb))
    vec[mask] = 1.0
    return Distribution(amb, vec)


def uniform_distribution(amb: AmbientComplex) -> Distribution:
    size = lattice_size(amb)
    return Distribution(amb, np.full(size, 1.0 / size))


def random_exact(amb: AmbientComplex, rng: np.random.Generator) -> Distribution:
    """A law drawn uniformly per mask and normalized.  Its core,
    _random_laws, takes a leading shape of laws: one rng.random call fills
    every row, so k stacked laws are the bytes and the stream of k calls."""
    return Distribution(amb, _random_laws(amb, rng))


def _random_laws(amb: AmbientComplex, rng: np.random.Generator, *laws: int) -> np.ndarray:
    # shape (*laws, 2^m); each row divided by its own sum
    vec = rng.random((*laws, lattice_size(amb)))
    vec /= vec.sum(axis=-1, keepdims=True)
    return vec


def hypergraph_product(amb: AmbientComplex, p) -> Distribution:
    """The independent-faces law as an exact vector.

    Bit i of the mask index is face i, so the filled prefix doubles once
    per face, in one buffer: pass i writes the masks with top bit i as the
    masks below times q, then multiplies those below by 1 - q.  The core,
    _product, takes probabilities of shape (..., m) and builds one law per
    row, each the bytes of its own call.
    """
    lattice_size(amb)  # the size check comes before any check of p
    return Distribution(amb, _product(amb, resolve_probabilities(amb, p)))


def _product(amb: AmbientComplex, probs: np.ndarray) -> np.ndarray:
    vec = np.empty(probs.shape[:-1] + (lattice_size(amb),))
    vec[..., 0] = 1.0
    for i in range(probs.shape[-1]):
        half = 1 << i
        q = probs[..., i, None]
        np.multiply(vec[..., :half], q, out=vec[..., half : 2 * half])
        vec[..., :half] *= 1.0 - q
    return vec


def complex_product(amb: AmbientComplex, p) -> Distribution:
    """The staged law: mass on downward-closed masks, zero elsewhere.

    A subcomplex's mass is p over its faces times 1 - p over its external
    faces (those it lacks whose boundary it holds).  Only the subcomplexes
    are computed: each starts at 1.0, takes p_i for its faces with i
    increasing, then 1 - p_i for its external faces with i increasing,
    the multiplies pmf_complex makes in its order, so each entry is
    bit-identical to it.  Every other mask is 0.
    """
    probs = resolve_probabilities(amb, p)
    return Distribution(amb, _staged_product(probs, TableSet(amb)))


def _staged_product(probs: np.ndarray, tables: TableSet) -> np.ndarray:
    # complex_product's vector, one law per row of probs (shape (..., m)),
    # on the subcomplexes: the fixed points of the set's closure table, so
    # a caller that holds that table does not build it again.  Entry X of
    # the doubling is 1.0 times p_i over the set bits i of X, i increasing.
    closure = tables["Delta"]
    idx = np.flatnonzero(fixed_points(closure))
    vals = doubling(1.0, probs, np.multiply)[..., idx]
    for i, down in enumerate(tables.ambient.sub_masks):
        # external to X: face i is not in X and its proper subfaces are
        external = (idx & down) == down & ~(1 << i)
        np.multiply(vals, 1.0 - probs[..., i, None], out=vals, where=external)
    vec = np.zeros(probs.shape[:-1] + (closure.size,))
    vec[..., idx] = vals
    return vec


def empirical_distribution(amb: AmbientComplex, masks: np.ndarray) -> Distribution:
    vec = np.bincount(
        np.asarray(masks, dtype=np.int64), minlength=lattice_size(amb)
    ).astype(np.float64)
    return Distribution(amb, vec / len(masks))


def total_variation(a: Distribution, b: Distribution) -> float:
    same_ambient(a, b)
    return float(_tv(a.vec, b.vec))


def _tv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # total variation between the laws of a and b, row by row
    return _half_l1(a - b)


def _half_l1(diff: np.ndarray) -> np.ndarray:
    # half the L1 norm of each row of a difference of laws, which it overwrites
    return np.abs(diff, out=diff).sum(axis=-1) / 2.0


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
    same_ambient(*dists)
    if word.arity() != len(dists):
        raise ValueError(
            f"word has arity {word.arity()}, got {len(dists)} distributions"
        )
    if len(dists) > 2:
        raise ValueError("pushforwards support arity 1 and 2")
    return _push(word, list(dists))


def _push(word: Word, dists: list[Distribution]) -> Distribution:
    # A binary word is J or u1. ... .uk.J, J a join or meet of two unary terms
    # with independent operands: each is pushed on its own, the two laws are
    # combined by a subset convolution, then pushed through the prefix table.
    if word.arity() == 1:
        return push_table(dists[0], _unary_table(word, dists[0].ambient))
    *prefix, j = word.terms if isinstance(word, Compose) else (word,)
    lhs, rhs = (_push(t, [d]) for t, d in zip(j.terms, dists))
    out = _convolve(lhs, rhs, upward=isinstance(j, Join))
    if not prefix:
        return out
    return _push(Compose(*prefix) if len(prefix) > 1 else prefix[0], [out])


def _unary_table(word: Word, amb: AmbientComplex) -> np.ndarray:
    # the image of every mask in order under a unary word
    if primitive_names(word) <= JOINS:
        # a composition of joins is a join: one doubling over the word's
        # single-face images, with no table gathered
        return _join_table(amb, lambda amb, h: eval_word_mask(word, amb, [h]))
    # The operand slice(None) reads the first table whole and gamma on a
    # slice reverses it, so nothing is gathered before the first table is
    # read; a word of complements alone ends in a slice.
    table = eval_word_tables(word, TableSet(amb), [slice(None)])
    return identity_table(amb)[table] if isinstance(table, slice) else table


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
    amb = same_ambient(a, b)
    za, zb = a.vec.copy(), b.vec.copy()
    _sum_transform(za, upward, np.add)
    _sum_transform(zb, upward, np.add)
    za *= zb
    _sum_transform(za, upward, np.subtract)
    return Distribution(amb, za)


def push_union(a: Distribution, b: Distribution) -> Distribution:
    return _convolve(a, b, upward=True)


def push_intersection(a: Distribution, b: Distribution) -> Distribution:
    return _convolve(a, b, upward=False)


# ----- closed-form transforms ---------------------------------------------------


def _rows(amb: AmbientComplex, p) -> np.ndarray:
    # p as checked probabilities on the last axis: an assignment or a
    # vector is one law, a float array of shape (laws, m) one law per row
    if isinstance(p, np.ndarray) and p.ndim == 2:
        if p.shape[1] != amb.num_faces:
            raise ValueError(f"expected {amb.num_faces} probabilities per row, got {p.shape}")
        return check_probabilities(p)
    return resolve_probabilities(amb, p)


# Each transform maps p to the per-face probabilities of the image law.  p
# may be a (laws, m) array, and then each row is transformed on its own.


def complement_transform(amb: AmbientComplex, p) -> np.ndarray:
    return 1.0 - _rows(amb, p)


def _relation_products(rel, factors: np.ndarray) -> np.ndarray:
    # entry i: the product of factors[..., j] over the bits j of rel[i],
    # taken in ascending j
    out = np.empty_like(factors)
    for i, mask in enumerate(rel):
        prod = 1.0
        for j in iter_bits(mask):
            prod *= factors[..., j]
        out[..., i] = prod
    return out


def closure_transform(amb: AmbientComplex, p) -> np.ndarray:
    """Per-face inclusion probabilities of the closure of a product draw."""
    return 1.0 - _relation_products(amb.sup_masks, 1.0 - _rows(amb, p))


def interior_transform(amb: AmbientComplex, p) -> np.ndarray:
    """Per-face inclusion probabilities of the interior-complex of a product draw."""
    return _relation_products(amb.sub_masks, _rows(amb, p))


def union_transform(amb: AmbientComplex, p1, p2) -> np.ndarray:
    a = _rows(amb, p1)
    b = _rows(amb, p2)
    return 1.0 - (1.0 - a) * (1.0 - b)


def intersection_transform(amb: AmbientComplex, p1, p2) -> np.ndarray:
    a = _rows(amb, p1)
    b = _rows(amb, p2)
    return a * b


def marginals(dist: Distribution) -> np.ndarray:
    """Per-face inclusion probabilities of a distribution."""
    # Mask X is row X >> k, column X & (2^k - 1) of the matrix view with
    # k = m // 2: faces k and up are read from the row sums, faces below k
    # from the column sums.  The rows are added in blocks, so no sum runs
    # one term after another over more than about 2^(m/4) terms.
    m = dist.ambient.num_faces
    k = m // 2
    mat = dist.vec.reshape(-1, 1 << k)
    cols = mat.reshape(1 << ((m - k) // 2), -1, 1 << k).sum(axis=1).sum(axis=0)
    return np.concatenate([_bit_sums(cols), _bit_sums(mat.sum(axis=1))])


def _bit_sums(short: np.ndarray) -> np.ndarray:
    # entry i: the sum of short[x] over the x with bit i set
    n = short.size.bit_length() - 1
    bits = (np.arange(short.size) >> np.arange(n)[:, None]) & 1
    return (bits * short).sum(axis=1)


def closed_form_family(name: str, amb: AmbientComplex, p) -> Distribution:
    """Closed-form law of the image of the product law at p under the unary
    primitive `name` (Theorem 2): the product law at complement_transform for
    gamma, the staged law at closure_transform or interior_transform for
    Delta or delta, on the fixed points of the closure table.  The staged two
    match the image only in degenerate cases, marginals included: the
    transform vector is the image's marginals (marginal_gaps), but the
    staged law keeps face i with q_i only once its boundary is kept."""
    return Distribution(amb, _family(name, resolve_probabilities(amb, p), TableSet(amb)))


def _family(name: str, probs: np.ndarray, tables: TableSet) -> np.ndarray:
    # closed_form_family's vector, one law per row of probs
    amb = tables.ambient
    if name == "gamma":
        return _product(amb, complement_transform(amb, probs))
    transform = {"Delta": closure_transform, "delta": interior_transform}[name]
    return _staged_product(transform(amb, probs), tables)


def verify_transforms(amb: AmbientComplex, p) -> dict[str, float]:
    """TV between each of the five pushforwards and its closed-form family.

    complement / closure / interior: the gamma, Delta and delta pushes of a
    product draw against closed_form_family.  The last two hold only for
    degenerate assignments: the pushes' marginals are the transform vectors
    (see marginal_gaps), but the staged family at those vectors falls short
    of them from dimension 1 up, so nonzero values here are expected.
    intersection / union: two independent product draws combined, against
    the product law at intersection_transform / union_transform.  This is
    row 0 of _transform_tvs.
    """
    tvs = _transform_tvs(resolve_probabilities(amb, p)[None], TableSet(amb))
    return {op: float(tv[0]) for op, tv in tvs.items()}


def _transform_tvs(probs: np.ndarray, tables: TableSet) -> dict[str, np.ndarray]:
    # verify_transforms for each row of probs (shape (laws, m)): the
    # product laws, the pushes of one operation and their closed-form
    # families are rows of one array each, while every push is its own
    # call on one law.
    amb = tables.ambient
    laws = [Distribution(amb, row) for row in _product(amb, probs)]

    def tv(pushes, family):
        return _tv(np.stack([d.vec for d in pushes]), family)

    out = {
        op: tv([push_table(law, tables[name]) for law in laws], _family(name, probs, tables))
        for op, name in (("complement", "gamma"), ("closure", "Delta"), ("interior", "delta"))
    }
    out["intersection"] = tv([push_intersection(law, law) for law in laws],
                             _product(amb, intersection_transform(amb, probs, probs)))
    out["union"] = tv([push_union(law, law) for law in laws],
                      _product(amb, union_transform(amb, probs, probs)))
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
    return _push_power(dist, extension_table(dist.ambient), k)


def push_interior_power(dist: Distribution, k: int) -> Distribution:
    return _push_power(dist, interior_table(dist.ambient), k)


def _push_power(dist: Distribution, table: np.ndarray, k: int) -> Distribution:
    # k pushes through one table, each a call of the module's push_table,
    # so a wrapper of pushforward.push_table sees every one
    for _ in range(k):
        dist = push_table(dist, table)
    return dist


def extension_limit(dist: Distribution) -> Distribution:
    """Saturation value of the extension chain: mass f(empty) stays at the
    empty hypergraph, everything else ends at the whole complex."""
    return Distribution(dist.ambient, _saturation(dist.vec, 0, dist.ambient.full_mask))


def interior_limit(dist: Distribution) -> Distribution:
    """Saturation value of the interior chain: mass f(L) stays at the whole
    complex, everything else ends empty."""
    return Distribution(dist.ambient, _saturation(dist.vec, dist.ambient.full_mask, 0))


def _saturation(vec: np.ndarray, stay: int, end: int) -> np.ndarray:
    # each row keeps its mass at mask `stay`; the rest of it ends at `end`
    out = np.zeros_like(vec)
    out[..., stay] = vec[..., stay]
    out[..., end] = 1.0 - vec[..., stay]
    return out


def vertex_supported(amb: AmbientComplex) -> np.ndarray:
    """Bool per mask: True when every vertex of the mask's faces is a 0-face
    of the mask."""
    size = lattice_size(amb)
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
        "inequality_holds": recovered >= bound - EXACT_TOL,
    }


def restrict_distribution(dist: Distribution, sub: AmbientComplex) -> Distribution:
    """Pushforward under intersecting with a sub-ambient's face set.

    Every face of ``sub`` must be a face of the source ambient (matched by
    vertex ids); the result lives on ``sub``.
    """
    amb = dist.ambient
    src_idx = [amb.face_index(sub.face_vertices(i)) for i in range(sub.num_faces)]
    atoms = np.zeros(amb.num_faces, dtype=np.int64)
    for b, i in enumerate(src_idx):
        atoms[i] = 1 << b
    pushed = push_table(dist, doubling(np.int64(0), atoms, np.bitwise_or))
    # the first 2^k entries, copied so the full-lattice push can be freed
    return Distribution(sub, pushed.vec[: 1 << sub.num_faces].copy())


# ----- union resampler ------------------------------------------------------------


def complex_union_resample(
    k1: Complex, k2: Complex, p1, p2, rng: np.random.Generator
) -> Complex:
    """Rebuild a union-law draw from two independent staged draws.

    k1 and k2 must come from the staged model with closure-marginal vectors
    p1 and p2.  Starting from their union, each stage-d candidate (an
    external face s of the evolving complex, from clique_faces_mask) is
    settled by the coins that are already determined: if s was external to
    both inputs, both coins came up tails and s stays out; if s was external
    to exactly one, the other coin is undetermined and a fresh draw with
    that side's probability decides; if s was external to neither, a fresh
    draw with the combined probability 1 - (1-p1)(1-p2) decides.  That is
    models.staged_draw from k1 | k2 with ext1 & ext2 settled.  The result
    has the law of the staged model with the combined probabilities.
    """
    amb = same_ambient(k1, k2)
    q1 = resolve_probabilities(amb, p1)
    q2 = resolve_probabilities(amb, p2)
    ext1 = external_faces_mask(amb, k1.mask)
    ext2 = external_faces_mask(amb, k2.mask)
    # ext1 & ext2 is settled, so which side is set last does not matter
    thresholds = 1.0 - (1.0 - q1) * (1.0 - q2)
    for ext, q in ((ext2, q1), (ext1, q2)):
        faces = list(iter_bits(ext))
        thresholds[faces] = q[faces]
    return Complex(amb, staged_draw(amb, k1.mask | k2.mask, thresholds, ext1 & ext2, rng))
