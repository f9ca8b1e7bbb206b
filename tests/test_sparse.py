import math

import pytest

from hyperops.complexes import Hypergraph, full_complex, skeleton_complex
from hyperops.models import ProbabilityAssignment, rng_from
from hyperops.operators import interior_complex_table
from hyperops.pushforward import (
    complex_product,
    hypergraph_product,
    push_table,
    restrict_distribution,
    total_variation,
)
from hyperops.sparse import (
    STATS_COLUMNS,
    algorithm1_truncated,
    algorithm2_truncated,
    clique_complex,
    clique_complex_in,
    closure_dimension_stats,
    counting_bound,
    derived_dims,
    dimension_stats,
    threshold_schedule,
)

from oracles import layer_faces, o_derived_closure, o_derived_interior

HALF3 = [1.0, 0.5, 0.5]
HALF4 = [1.0, 0.5, 0.5, 0.5]


def test_derived_dims_values():
    dd = derived_dims(3, HALF3)
    assert dd.closure_marginals[0] == pytest.approx(1.0)
    assert dd.closure_marginals[1] == pytest.approx(0.75)
    assert dd.closure_marginals[2] == pytest.approx(0.5)
    assert dd.interior_marginals[0] == pytest.approx(1.0)
    assert dd.interior_marginals[1] == pytest.approx(0.5)
    assert dd.interior_marginals[2] == pytest.approx(0.0625)


def test_derived_dims_match_oracle():
    for n, p in [(3, HALF3), (4, HALF4), (5, [1.0, 0.3, 0.9, 0.2, 0.7])]:
        dd = derived_dims(n, p)
        for k in range(n):
            assert dd.closure_marginals[k] == pytest.approx(
                o_derived_closure(n, dd.base, k), abs=1e-12
            )
            assert dd.interior_marginals[k] == pytest.approx(
                o_derived_interior(n, dd.base, k), abs=1e-12
            )


def test_derived_dims_guards():
    with pytest.raises(ValueError):
        derived_dims(3, [0.5, 0.5])  # p_0 must be 1
    with pytest.raises(ValueError):
        derived_dims(3, [1.0, 2.0])
    with pytest.raises(ValueError):
        derived_dims(2, [1.0, 0.5, 0.5])
    with pytest.raises(ValueError):
        derived_dims(3, [])
    short = derived_dims(4, [1.0, 0.5])  # padded with zeros
    assert short.base == (1.0, 0.5, 0.0, 0.0)
    assert short.closure_marginals[3] == 0.0


def test_derived_dims_match_exact_pushforward_marginals():
    # per-face closure / simplicial-part inclusion probabilities on the full
    # complex over 3 vertices agree with the n = 3 derived vectors
    from hyperops.pushforward import closure_transform, interior_transform

    amb = full_complex(3)
    pa = ProbabilityAssignment.from_dims(HALF3)
    dd = derived_dims(3, HALF3)
    cl = closure_transform(amb, pa)
    inn = interior_transform(amb, pa)
    for i in range(amb.num_faces):
        d = amb.dims[i]
        assert cl[i] == pytest.approx(dd.closure_marginals[d], abs=1e-12)
        assert inn[i] == pytest.approx(dd.interior_marginals[d], abs=1e-12)


# ----- truncated algorithms -------------------------------------------------------


def test_truncated_laws_equal_restricted_laws():
    # cutting at r = 1 on n = 3: the three governing laws restrict exactly to
    # the 1-skeleton sublattice
    amb = full_complex(3)
    sk1 = skeleton_complex(amb, 1)
    base = ProbabilityAssignment.from_dims(HALF3)
    base_sk = ProbabilityAssignment.from_dims(HALF3[:2])
    dd = derived_dims(3, HALF3)

    # independent-faces law
    assert (
        total_variation(
            restrict_distribution(hypergraph_product(amb, base), sk1),
            hypergraph_product(sk1, base_sk),
        )
        < 1e-12
    )
    # staged law under the derived closure vector
    assert (
        total_variation(
            restrict_distribution(
                complex_product(amb, ProbabilityAssignment.from_dims(dd.closure_marginals)),
                sk1,
            ),
            complex_product(
                sk1, ProbabilityAssignment.from_dims(dd.closure_marginals[:2])
            ),
        )
        < 1e-12
    )
    # simplicial part of the independent draw
    assert (
        total_variation(
            restrict_distribution(
                push_table(hypergraph_product(amb, base), interior_complex_table(amb)),
                sk1,
            ),
            push_table(hypergraph_product(sk1, base_sk), interior_complex_table(sk1)),
        )
        < 1e-12
    )


def _sample_faces(s):
    # (n, r, hyperedge faces, complex faces) of a truncated sample
    return s.n, s.r, layer_faces(s.hyper_faces, s.r), layer_faces(s.complex_faces, s.r)


def test_truncated_samples_deterministic():
    a = _sample_faces(algorithm1_truncated(6, HALF4, 2, rng_from(40, 1)))
    b = _sample_faces(algorithm1_truncated(6, HALF4, 2, rng_from(40, 1)))
    assert a == b
    c = _sample_faces(algorithm1_truncated(6, HALF4, 2, rng_from(40, 2)))
    assert a != c or a[2] == c[2]  # different stream, new draw
    x = layer_faces(algorithm2_truncated(6, HALF4, 2, rng_from(41, 0)), 2)
    y = layer_faces(algorithm2_truncated(6, HALF4, 2, rng_from(41, 0)), 2)
    assert x == y


def test_truncated_sample_shape_contracts():
    n, r, hyper, cx = _sample_faces(algorithm1_truncated(7, HALF4, 2, rng_from(42, 0)))
    assert n == 7 and r == 2
    for f in hyper + cx:
        assert len(f) <= 3
        assert list(f) == sorted(f)
        assert all(1 <= v <= 7 for v in f)
    # staged part is downward closed within itself
    kept = set(cx)
    for f in cx:
        for i in range(len(f)):
            sub = f[:i] + f[i + 1 :]
            if sub:
                assert sub in kept
    # simplicial part of a draw is downward closed too
    t = layer_faces(algorithm2_truncated(7, HALF4, 2, rng_from(42, 1)), 2)
    kept = set(t)
    for f in t:
        for i in range(len(f)):
            sub = f[:i] + f[i + 1 :]
            if sub:
                assert sub in kept


def test_truncated_r_bounds():
    _, _, hyper, cx = _sample_faces(algorithm1_truncated(3, HALF3, 0, rng_from(43, 0)))
    assert hyper == ((1,), (2,), (3,))  # p_0 = 1 keeps every vertex
    assert cx == ((1,), (2,), (3,))
    with pytest.raises(ValueError):
        algorithm1_truncated(3, HALF3, 3, rng_from(0))
    with pytest.raises(ValueError):
        algorithm2_truncated(3, HALF3, -1, rng_from(0))


# ----- clique complexes -----------------------------------------------------------


def graph_from_edges(vertices, edges):
    faces = [(v,) for v in vertices] + [tuple(sorted(e)) for e in edges]
    amb = full_complex(max(vertices))
    return Hypergraph(amb, amb.mask_from_faces(faces))


def test_clique_complex_examples(delta2, p3):
    triangle = graph_from_edges([1, 2, 3], [(1, 2), (1, 3), (2, 3)])
    cx = clique_complex(triangle)
    assert cx.ambient.num_faces == delta2.num_faces
    assert {cx.ambient.face_vertices(i) for i in range(cx.ambient.num_faces)} == {
        delta2.face_vertices(i) for i in range(delta2.num_faces)
    }
    path = graph_from_edges([1, 2, 3], [(1, 2), (2, 3)])
    cx = clique_complex(path)
    assert {cx.ambient.face_vertices(i) for i in range(cx.ambient.num_faces)} == {
        p3.face_vertices(i) for i in range(p3.num_faces)
    }


def test_clique_complex_in(delta2):
    path = graph_from_edges([1, 2, 3], [(1, 2), (2, 3)])
    cx = clique_complex_in(path, delta2)
    assert sorted(cx.faces()) == [(1,), (1, 2), (2,), (2, 3), (3,)]
    full = graph_from_edges([1, 2, 3], [(1, 2), (1, 3), (2, 3)])
    assert clique_complex_in(full, delta2).mask == delta2.full_mask


def test_clique_complex_guards(delta2):
    not_graph = Hypergraph.from_faces(delta2, [(1, 2, 3)])
    with pytest.raises(ValueError):
        clique_complex(not_graph)
    dangling = Hypergraph.from_faces(delta2, [(1,), (1, 2)])  # vertex 2 missing
    with pytest.raises(ValueError):
        clique_complex(dangling)
    amb5 = full_complex(5)
    outside = Hypergraph.from_faces(amb5, [(4,), (5,), (4, 5)])
    with pytest.raises(ValueError):
        clique_complex_in(outside, delta2)


# ----- censuses and bounds --------------------------------------------------------


def test_threshold_schedule():
    p1 = threshold_schedule(0.5, 3.0)
    assert p1(8) == pytest.approx(0.5 * 8 ** (-2 / 3))
    with pytest.raises(ValueError):
        threshold_schedule(0.0, 2.0)
    clamped = threshold_schedule(2.0, 2.0)
    with pytest.warns(UserWarning):
        assert clamped(1) == 1.0


def test_dimension_stats_rows():
    rows = dimension_stats([5, 7], lambda n: 0.5, 2, 300, seed=77)
    again = dimension_stats([5, 7], lambda n: 0.5, 2, 300, seed=77)
    assert rows == again
    assert [r["n"] for r in rows] == [5, 7]
    for row in rows:
        assert set(row) == set(STATS_COLUMNS)
        assert 0.0 <= row["prob_dim_eq_r"] <= row["prob_dim_le_r"] <= 1.0
        assert row["mean_r_faces"] >= 0.0
    shifted = dimension_stats([7], lambda n: 0.5, 2, 300, seed=77, streams_from=1)
    assert shifted[0] == rows[1]  # stream follows position in the sweep
    with pytest.raises(ValueError):
        dimension_stats([5], lambda n: 0.5, 0, 10, seed=0)


def test_dimension_stats_against_exhaustive_p1():
    # p1 = 1 forces the complete graph: dimension n-1 always
    rows = dimension_stats([4], lambda n: 1.0, 2, 50, seed=1)
    assert rows[0]["prob_dim_le_r"] == 0.0  # K4 has a 4-clique
    assert rows[0]["mean_r_faces"] == pytest.approx(4.0)  # C(4,3) triangles


def test_closure_dimension_stats_exact_columns():
    n, r, samples = 5, 2, 4000
    rows = closure_dimension_stats([n], HALF4, r, samples, seed=9)
    row = rows[0]
    dd = derived_dims(n, HALF4[:n])
    assert row["mean_r_faces"] == pytest.approx(
        math.comb(n, r + 1) * dd.closure_marginals[r]
    )
    # dim <= 2 of the closure means no hyperedge above dimension 2
    p_le = (1 - 0.5) ** math.comb(5, 4)  # p_3 = 0.5, p_4 padded to 0
    sigma = math.sqrt(p_le * (1 - p_le) / samples)
    assert abs(row["prob_dim_le_r"] - p_le) <= 4 * sigma + 1e-9
    assert row["prob_dim_eq_r"] <= row["prob_dim_le_r"]


def test_counting_bound_is_report_only():
    # the printed expression exceeds 1, so it cannot be a probability bound
    assert counting_bound(10, 0.01, 1, 1) > 1.0
    assert counting_bound(4, 0.5, 3, 1) == 0.0  # needs 6 vertices
    assert counting_bound(6, 1.0, 1, 1) == 0.0
    assert counting_bound(10, 0.5, 2, 1) >= 0.0
