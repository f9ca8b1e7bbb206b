"""The mask and sampling layer against its former loops (tests/oracles.py).

Every comparison is exact: same words, same relation masks, same diameter,
same faces in the same order, and the same number of uniforms consumed.
"""

import random

import numpy as np
import pytest

from hyperops import sparse
from hyperops.cli import main
from hyperops.complexes import AmbientComplex, standard_fixtures
from hyperops.io import write_probability
from hyperops.kernels import sample_graph_words
from hyperops.metric import diameter, triangulated_triangle
from hyperops.models import ProbabilityAssignment, rng_from

import oracles


def _random_complex(seed):
    rnd = random.Random(seed)
    verts = rnd.randint(1, 10)
    return AmbientComplex(
        rnd.sample(range(verts), rnd.randint(1, min(4, verts)))
        for _ in range(rnd.randint(1, 8))
    )


def _ambients():
    out = dict(standard_fixtures())
    out.update({f"tri{m}": triangulated_triangle(m) for m in range(1, 21)})
    out.update({f"rand{s}": _random_complex(s) for s in range(40)})
    out["vertex"] = AmbientComplex([(7,)])
    out["two_points"] = AmbientComplex([(1,), (2,)])
    out["edge_and_triangle"] = AmbientComplex([(1, 2), (3, 4, 5)])
    return out


AMBIENT_NAMES = list(_ambients())


@pytest.fixture(scope="module")
def ambients():
    return _ambients()


def _same_stream_state(a, b):
    # Equal next draws: both sides consumed the same number of uniforms.
    return a.random(4).tolist() == b.random(4).tolist()


# ----- graph words --------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 5, 20, 40, 63, 64, 65, 80, 120, 200])
def test_graph_words_match_pair_loop(n):
    for p in (0.0, 0.1, 0.5, 1.0):
        got_rng, want_rng = rng_from(n, 1), rng_from(n, 1)
        got = sample_graph_words(n, p, got_rng)
        want = oracles.o_sample_graph_words(n, p, want_rng)
        assert got.dtype == want.dtype == np.uint64
        assert got.shape == want.shape
        assert np.array_equal(got, want), (n, p)
        assert _same_stream_state(got_rng, want_rng)


def test_graph_words_pinned_by_seed_and_stream():
    first = sample_graph_words(70, 0.3, rng_from(11, 4))
    assert np.array_equal(first, sample_graph_words(70, 0.3, rng_from(11, 4)))
    assert not np.array_equal(first, sample_graph_words(70, 0.3, rng_from(11, 5)))
    assert not np.array_equal(first, sample_graph_words(70, 0.3, rng_from(12, 4)))


# ----- ambient relations and diameter -------------------------------------------


@pytest.mark.parametrize("name", AMBIENT_NAMES)
def test_relation_masks_match_pair_loop(ambients, name):
    amb = ambients[name]
    sub, sup, meet, bnd = oracles.o_relation_masks(amb)
    assert amb.sub_masks == sub
    assert amb.sup_masks == sup
    assert amb.meet_masks == meet
    assert amb.boundary_masks == bnd
    maximal = oracles.o_maximal(oracles.ambient_faces(amb))
    assert amb.maximal_mask == oracles.faces_to_mask(amb, maximal)


@pytest.mark.parametrize("name", AMBIENT_NAMES)
def test_diameter_matches_face_bfs(ambients, name):
    amb = ambients[name]
    assert diameter(amb) == oracles.o_diameter(amb)


def test_diameter_special_cases(ambients):
    assert diameter(ambients["vertex"]) == 1
    assert diameter(ambients["two_points"]) == -1
    assert diameter(ambients["edge_and_triangle"]) == -1
    assert diameter(ambients["tri20"]) == 22


# ----- sparse generators --------------------------------------------------------

SPARSE_CASES = [
    (1, 0, [1.0]),
    (4, 3, [1.0, 0.5, 0.5, 0.5]),
    (6, 2, [1.0, 0.0, 1.0]),
    (7, 4, [1.0, 1.0, 1.0, 1.0, 1.0]),
    (9, 4, [1.0, 0.8, 0.0, 0.6, 0.9]),
    (12, 3, [1.0, 0.6, 0.4, 0.3]),
    (30, 2, [1.0, 0.2, 0.05]),
    (60, 2, [1.0, 0.1, 0.002]),  # C(60, 3) spans three uniform blocks
]


@pytest.mark.parametrize("n, r, p", SPARSE_CASES)
def test_bernoulli_faces_match_stream(n, r, p):
    base = sparse._base_tuple(n, p)
    got_rng, want_rng = rng_from(n, 2), rng_from(n, 2)
    got = sparse._bernoulli_faces(n, base, r, got_rng)
    assert got == oracles.o_bernoulli_faces(n, base, r, want_rng)
    assert all(type(v) is int for face in got for v in face)
    assert _same_stream_state(got_rng, want_rng)


@pytest.mark.parametrize("n, r, p", SPARSE_CASES)
def test_staged_faces_match_candidate_loop(n, r, p):
    base = sparse._base_tuple(n, p)
    closure = sparse._derived_cached(n, base).closure_marginals
    for stage_p in (closure, base, (1.0,) * n, (0.7,) * n):
        got_rng, want_rng = rng_from(n, 3), rng_from(n, 3)
        got = sparse._staged_complex_faces(n, stage_p, r, got_rng)
        assert got == oracles.o_staged_complex_faces(n, stage_p, r, want_rng)
        assert _same_stream_state(got_rng, want_rng)


@pytest.mark.parametrize("n, r, p", SPARSE_CASES)
def test_generators_match_loops(monkeypatch, n, r, p):
    got1 = sparse.algorithm1_truncated(n, p, r, rng_from(5, n))
    got2 = sparse.algorithm2_truncated(n, p, r, rng_from(6, n))
    monkeypatch.setattr(sparse, "_bernoulli_faces", oracles.o_bernoulli_faces)
    monkeypatch.setattr(sparse, "_staged_complex_faces", oracles.o_staged_complex_faces)
    assert got1 == sparse.algorithm1_truncated(n, p, r, rng_from(5, n))
    assert got2 == sparse.algorithm2_truncated(n, p, r, rng_from(6, n))


def test_candidate_counts_beyond_int64_are_rejected(tmp_path, capsys):
    # C(70, 35) > 2^63: the rank arithmetic would overflow, and a stream
    # of that many uniforms could never finish anyway.
    with pytest.raises(ValueError, match="int64"):
        sparse.algorithm2_truncated(70, [1.0, 0.5], 40, rng_from(0))
    with pytest.raises(ValueError, match="int64"):
        sparse.algorithm1_truncated(70, [1.0, 0.5], 40, rng_from(0))
    prob = str(tmp_path / "p.json")
    write_probability(prob, ProbabilityAssignment.from_dims([1.0, 0.5]))
    code = main(["sparse", "--algorithm", "2", "--n", "70", "--r", "40",
                 "--prob", prob, "--seed", "1"])
    assert code == 2
    assert "int64" in capsys.readouterr().err
