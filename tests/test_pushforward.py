import random

import numpy as np
import pytest

from hyperops.complexes import AmbientComplex, Complex, Hypergraph, skeleton_complex, standard_fixtures
from hyperops.models import (
    ProbabilityAssignment,
    pmf_complex,
    pmf_hypergraph,
    rng_from,
    sample_complex,
)
from hyperops.operators import (
    closure_mask,
    closure_table,
    complement_mask,
    complement_table,
    extension_table,
    interior_complex_table,
    interior_table,
    TableSet,
)
from hyperops.pushforward import (
    Distribution,
    closure_transform,
    complement_transform,
    complex_product,
    complex_union_resample,
    containment_cases,
    containment_probabilities,
    empirical_distribution,
    extension_limit,
    hypergraph_product,
    interior_limit,
    interior_transform,
    intersection_transform,
    marginal_gaps,
    marginals,
    point_mass,
    push_extension_power,
    push_interior_power,
    push_intersection,
    push_table,
    push_union,
    push_word,
    random_exact,
    restrict_distribution,
    support_is_complexes,
    total_variation,
    uniform_distribution,
    union_transform,
    verify_transforms,
)
from hyperops import pushforward as pf
from hyperops.words import Compose, Join, Meet, Prim

import oracles


def test_distribution_basics(delta1):
    d = point_mass(delta1, 5)
    assert d.total == 1.0
    assert d.prob(5) == 1.0
    assert d.support() == [5]
    u = uniform_distribution(delta1)
    assert abs(u.total - 1.0) < 1e-15
    assert u.vec[1::2].sum() == pytest.approx(0.5)
    r = random_exact(delta1, np.random.default_rng(0))
    assert abs(r.total - 1.0) < 1e-12
    with pytest.raises(ValueError):
        Distribution(delta1, np.ones(3))


def test_product_matches_pmf(delta2):
    pa = ProbabilityAssignment.from_dims([0.9, 0.5, 0.3])
    dist = hypergraph_product(delta2, pa)
    for m in range(0, 128, 7):
        assert dist.prob(m) == pytest.approx(pmf_hypergraph(delta2, pa, m))
    staged = complex_product(delta2, pa)
    assert abs(staged.total - 1.0) < 1e-12
    assert support_is_complexes(staged)
    for m in staged.support():
        assert staged.prob(m) == pytest.approx(pmf_complex(delta2, pa, m))


def test_point_mass_pushforwards(delta1):
    m = delta1.mask_from_faces([(1,), (1, 2)])
    d = push_table(point_mass(delta1, m), closure_table(delta1))
    assert d.support() == [closure_mask(delta1, m)]
    d = push_table(point_mass(delta1, m), complement_table(delta1))
    assert d.support() == [complement_mask(delta1, m)]


def test_push_word_matches_pairwise(delta1):
    a = hypergraph_product(delta1, ProbabilityAssignment.constant(0.3))
    b = hypergraph_product(delta1, ProbabilityAssignment.constant(0.8))
    ident = Prim("id")
    joined = push_word(Join(ident, ident), a, b)
    met = push_word(Meet(ident, ident), a, b)
    assert total_variation(joined, push_union(a, b)) < 1e-14
    assert total_variation(met, push_intersection(a, b)) < 1e-14
    # arity checks
    with pytest.raises(ValueError):
        push_word(ident, a, b)
    with pytest.raises(ValueError):
        push_word(Join(ident, ident), a)


def test_pushforward_preserves_mass(delta2):
    a = random_exact(delta2, np.random.default_rng(1))
    b = random_exact(delta2, np.random.default_rng(2))
    for word in (Prim("Delta"), Prim("Ext"), Compose(Prim("delta"), Prim("gamma"))):
        assert push_word(word, a).total == pytest.approx(1.0)
    assert push_word(Join(Prim("Delta"), Prim("delta")), a, b).total == pytest.approx(
        1.0
    )


def test_complement_and_boolean_transforms_are_exact(fixtures):
    rng = np.random.default_rng(3)
    for amb in fixtures.values():
        p1 = rng.random(amb.num_faces)
        p2 = rng.random(amb.num_faces)
        base1 = hypergraph_product(amb, p1)
        base2 = hypergraph_product(amb, p2)
        assert (
            total_variation(
                push_table(base1, complement_table(amb)),
                hypergraph_product(amb, complement_transform(amb, p1)),
            )
            < 1e-12
        )
        assert (
            total_variation(
                push_intersection(base1, base2),
                hypergraph_product(amb, intersection_transform(amb, p1, p2)),
            )
            < 1e-12
        )
        assert (
            total_variation(
                push_union(base1, base2),
                hypergraph_product(amb, union_transform(amb, p1, p2)),
            )
            < 1e-12
        )


def test_closure_interior_joint_gaps_are_frozen(delta1):
    # the closed-up product law is NOT the staged law with transformed
    # probabilities; at p = 1/2 on the 1-simplex the gaps are exactly 9/32
    # and 3/32
    report = verify_transforms(delta1, ProbabilityAssignment.constant(0.5))
    assert report["complement"] < 1e-12
    assert report["intersection"] < 1e-12
    assert report["union"] < 1e-12
    assert report["closure"] == pytest.approx(9 / 32)
    assert report["interior"] == pytest.approx(3 / 32)


def test_transform_marginals_exact(fixtures):
    rng = np.random.default_rng(4)
    for amb in fixtures.values():
        gaps = marginal_gaps(amb, rng.random(amb.num_faces))
        assert gaps["closure"] < 1e-12
        assert gaps["interior"] < 1e-12


def test_transform_values_on_triangle(delta2):
    half = ProbabilityAssignment.constant(0.5)
    cl = closure_transform(delta2, half)
    assert cl[delta2.face_index((1,))] == pytest.approx(0.9375)
    inn = interior_transform(delta2, half)
    assert inn[delta2.face_index((1, 2))] == pytest.approx(0.125)
    assert inn[delta2.face_index((1, 2, 3))] == pytest.approx(1 / 128)


def test_closure_pushforward_is_complex_supported(delta2, p3):
    for amb in (delta2, p3):
        base = hypergraph_product(amb, ProbabilityAssignment.constant(0.4))
        assert support_is_complexes(push_table(base, closure_table(amb)))
        assert support_is_complexes(push_table(base, interior_complex_table(amb)))
        assert not support_is_complexes(base)


def test_staged_intersection_is_staged(delta2):
    # intersecting two independent staged draws is again staged, with
    # pointwise-multiplied probabilities
    p1 = ProbabilityAssignment.from_dims([1.0, 0.6, 0.7]).resolve(delta2)
    p2 = ProbabilityAssignment.from_dims([0.9, 0.5, 0.8]).resolve(delta2)
    got = push_intersection(complex_product(delta2, p1), complex_product(delta2, p2))
    want = complex_product(delta2, p1 * p2)
    assert total_variation(got, want) < 1e-12


def test_extension_interior_limits(delta2):
    dist = random_exact(delta2, np.random.default_rng(5))
    k = delta2.num_faces
    assert total_variation(push_extension_power(dist, k), extension_limit(dist)) == 0
    assert total_variation(push_interior_power(dist, k), interior_limit(dist)) == 0
    assert extension_limit(dist).prob(0) == pytest.approx(dist.prob(0))
    assert interior_limit(dist).prob(delta2.full_mask) == pytest.approx(
        dist.prob(delta2.full_mask)
    )


def test_power_pushforwards_match_tables(delta1):
    dist = random_exact(delta1, np.random.default_rng(6))
    et = extension_table(delta1)
    it = interior_table(delta1)
    assert (
        total_variation(
            push_extension_power(dist, 2), push_table(push_table(dist, et), et)
        )
        == 0
    )
    assert (
        total_variation(
            push_interior_power(dist, 2), push_table(push_table(dist, it), it)
        )
        == 0
    )


def test_containment_report_flags_nonclosed_support(delta1):
    full = uniform_distribution(delta1)
    rep = containment_probabilities(full, 1)
    assert rep["support_size"] == 8
    assert rep["containment_violations"] > 0
    assert not rep["containments_hold"]
    assert rep["inequality_holds"]
    assert rep["prob_closure_recovered"] >= rep["lower_bound"] - 1e-12


def test_containment_report_clean_on_complexes(delta1, delta2):
    for amb in (delta1, delta2):
        staged = complex_product(amb, ProbabilityAssignment.constant(0.5))
        for k in (1, 2):
            rep = containment_probabilities(staged, k)
            assert rep["containment_violations"] == 0
            assert rep["containments_hold"]
            assert rep["inequality_holds"]
    with pytest.raises(ValueError):
        containment_probabilities(uniform_distribution(delta1), 0)


def _containment_ambients():
    rnd = random.Random(11)
    out = list(standard_fixtures().values())
    while len(out) < 16:
        verts = rnd.randint(1, 5)
        amb = AmbientComplex(rnd.sample(range(verts), rnd.randint(1, min(3, verts)))
                             for _ in range(rnd.randint(1, 4)))
        if amb.num_faces <= 8:
            out.append(amb)
    return out


CONTAINMENT_AMBIENTS = _containment_ambients()


def _containment_distributions(amb, rng):
    yield random_exact(amb, rng)  # every mask in the support
    yield complex_product(amb, rng.random(amb.num_faces))  # complexes only
    yield point_mass(amb, int(rng.integers(1 << amb.num_faces)))
    sparse = random_exact(amb, rng)
    sparse.vec[rng.random(sparse.vec.size) < 0.6] = 0.0
    yield sparse


@pytest.mark.parametrize("index", range(len(CONTAINMENT_AMBIENTS)))
def test_containment_report_matches_loop_oracle(index):
    amb = CONTAINMENT_AMBIENTS[index]
    rng = np.random.default_rng(index)
    for dist in _containment_distributions(amb, rng):
        for k in (1, 2, 3):
            got = containment_probabilities(dist, k)
            want = oracles.o_containment_probabilities(dist, k)
            assert got.keys() == want.keys()
            for key, value in want.items():
                if isinstance(value, float):
                    assert abs(got[key] - value) <= 1e-12, key
                else:
                    assert got[key] == value, key


def test_theorem1_cases_at_each_power(sk1d3):
    # the sandwich holds for every mask at every power; Ext.Int <= delta
    # exactly on the masks the oracle accepts
    tables = TableSet(sk1d3)
    for k in range(1, 5):
        sandwich, ext_int = containment_cases(tables, k)
        assert sandwich.all()
    full = uniform_distribution(sk1d3)
    assert int((~ext_int).sum()) == oracles.o_containment_probabilities(full, 1)["containment_violations"]


def test_total_variation_extremes(delta1):
    a = point_mass(delta1, 0)
    b = point_mass(delta1, 7)
    assert total_variation(a, b) == 1.0
    assert total_variation(a, a) == 0.0


def test_restrict_distribution_of_product(delta2):
    sub = skeleton_complex(delta2, 1)
    p = np.linspace(0.1, 0.7, delta2.num_faces)
    big = hypergraph_product(delta2, p)
    small = restrict_distribution(big, sub)
    sub_p = np.array(
        [p[delta2.face_index(sub.face_vertices(i))] for i in range(sub.num_faces)]
    )
    assert total_variation(small, hypergraph_product(sub, sub_p)) < 1e-12
    # the index map is built by a doubling; the face-by-face map is the same
    masks = np.arange(big.vec.size, dtype=np.int64)
    face_map = np.zeros_like(masks)
    for b in range(sub.num_faces):
        face_map |= ((masks >> delta2.face_index(sub.face_vertices(b))) & 1) << b
    want = np.bincount(face_map, weights=big.vec, minlength=1 << sub.num_faces)
    assert small.vec.tobytes() == want.tobytes()


def test_empirical_distribution(delta1):
    masks = np.array([0, 0, 7, 7, 7, 5])
    emp = empirical_distribution(delta1, masks)
    assert emp.prob(7) == pytest.approx(0.5)
    assert emp.prob(0) == pytest.approx(2 / 6)
    assert emp.total == pytest.approx(1.0)


def test_union_resampler_trivial_cases(delta1):
    rng = rng_from(21, 0)
    zero = np.zeros(3)
    k_empty = Complex(delta1, 0)
    full = Complex(delta1, delta1.full_mask)
    # resampling with an empty second draw under p2 = 0 reproduces k1
    pa = ProbabilityAssignment.from_dims([1.0, 0.5]).resolve(delta1)
    for _ in range(20):
        k1 = sample_complex(delta1, pa, rng)
        out = complex_union_resample(k1, k_empty, pa, zero, rng)
        assert out.mask == k1.mask
    # both full: union already saturated
    assert complex_union_resample(full, full, pa, pa, rng).mask == delta1.full_mask


def test_union_resampler_law(delta1):
    # two independent staged halves recombine into the staged 3/4 law
    n = 100_000
    p_half = ProbabilityAssignment.constant(0.5).resolve(delta1)
    rng = rng_from(22, 0)
    masks = np.empty(n, dtype=np.int64)
    for i in range(n):
        k1 = sample_complex(delta1, p_half, rng)
        k2 = sample_complex(delta1, p_half, rng)
        masks[i] = complex_union_resample(k1, k2, p_half, p_half, rng).mask
    want = complex_product(delta1, union_transform(delta1, p_half, p_half))
    got = empirical_distribution(delta1, masks)
    assert total_variation(got, want) < 0.02


def test_mismatched_ambients_rejected(delta1, delta2):
    with pytest.raises(ValueError):
        total_variation(uniform_distribution(delta1), uniform_distribution(delta2))
    with pytest.raises(ValueError):
        complex_union_resample(
            Complex(delta1, 0), Complex(delta2, 0), [0.5] * 3, [0.5] * 7, rng_from(0)
        )


# ----- laws as rows of one array -----------------------------------------------------


@pytest.mark.parametrize("faces", [[(1,)], [(1, 2)], [(1, 2, 3)], [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)],
                                   [(v, v % 6 + 1) for v in range(1, 7)]])
def test_stacked_rows_are_the_bytes_of_single_laws(faces):
    # every core with a leading axis of laws gives, row by row, the bytes of
    # the public one-law call, and the stacked draw leaves the same stream
    amb = AmbientComplex(faces)
    m, full = amb.num_faces, amb.full_mask
    for seed in range(3):
        got_rng, want_rng = rng_from(seed), rng_from(seed)
        laws = pf._random_laws(amb, got_rng, 20)
        singles = [random_exact(amb, want_rng) for _ in range(20)]
        assert got_rng.random(4).tolist() == want_rng.random(4).tolist()
        assert all(np.array_equal(row, d.vec) for row, d in zip(laws, singles))
        others = pf._random_laws(amb, got_rng, 20)
        tvs = pf._tv(laws, others)
        mask = np.random.default_rng(seed).random(laws.shape[1]) < 0.5
        sums = laws.compress(mask, axis=1).sum(axis=1)
        ext, intr = pf._saturation(laws, 0, full), pf._saturation(laws, full, 0)
        for row, d in enumerate(singles):
            assert tvs[row] == total_variation(d, Distribution(amb, others[row]))
            assert sums[row] == d.vec[mask].sum()
            assert np.array_equal(ext[row], extension_limit(d).vec)
            assert np.array_equal(intr[row], interior_limit(d).vec)
        probs = np.random.default_rng(seed).random((4, m))
        probs[0] = 0.0
        probs[1, ::2] = 1.0
        products = pf._product(amb, probs)
        staged = pf._staged_product(probs, TableSet(amb))
        closure, interior = closure_transform(amb, probs), interior_transform(amb, probs)
        for row, p in enumerate(probs):
            assert np.array_equal(products[row], hypergraph_product(amb, p).vec)
            assert np.array_equal(staged[row], complex_product(amb, p).vec)
            assert np.array_equal(closure[row], closure_transform(amb, p))
            assert np.array_equal(interior[row], interior_transform(amb, p))
