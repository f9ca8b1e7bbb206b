"""The mask and sampling layer against its former loops (tests/oracles.py).

Every comparison is exact: same words, same relation masks, same diameter,
same faces in the same order, and the same number of uniforms consumed.
"""

import random
from math import comb

import numpy as np
import pytest

from hyperops import sparse
from hyperops.cli import main
from hyperops.complexes import AmbientComplex, standard_fixtures
from hyperops.io import write_probability
from hyperops.kernels import clique_census, sample_graph_block, sample_graph_words
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


@pytest.mark.parametrize("n", [1, 2, 5, 40, 64, 65, 130])
def test_graph_block_matches_successive_draws(n):
    for p in (0.0, 0.1, 0.5, 1.0):
        for graphs in (0, 1, 4):
            got_rng, want_rng = rng_from(n, 7), rng_from(n, 7)
            got = sample_graph_block(n, p, got_rng, graphs)
            assert got.dtype == np.uint64
            assert got.shape == (graphs, n, (n + 63) >> 6)
            for g in range(graphs):
                assert np.array_equal(got[g], oracles.o_sample_graph_words(n, p, want_rng)), (n, p, g)
            assert _same_stream_state(got_rng, want_rng)


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 80])
def test_graph_block_matches_double_sampler(n):
    # raw words cut at ceil(p * 2^53) * 2^11 against rng.random() < p
    for p in (0.0, 1e-3, 0.5, 1.0):
        for graphs in (1, 5):
            got_rng, want_rng = rng_from(n, 12), rng_from(n, 12)
            got = sample_graph_block(n, p, got_rng, graphs)
            want = oracles.o_sample_graph_block(n, p, want_rng, graphs)
            assert got.dtype == want.dtype == np.uint64
            assert np.array_equal(got, want), (n, p, graphs)
            assert _same_stream_state(got_rng, want_rng)


# ----- clique census ------------------------------------------------------------

CENSUS_SIZES = [(2, 2), (2, 4), (3, 3), (3, 4), (4, 2), (4, 5), (5, 3)]


def _census_rows(block, count_size, exist_size):
    counts, exists = clique_census(block, count_size, exist_size)
    assert counts.dtype == np.int64 and exists.dtype == bool
    return [(int(c), bool(e)) for c, e in zip(counts, exists)]


@pytest.mark.parametrize("n", [1, 2, 3, 9, 40, 63, 64, 65, 130])
def test_clique_census_matches_depth_first(n):
    for p in (0.0, 0.1, 0.5, 1.0):
        # complete graphs are all alike, and one is enough at n = 130
        block = sample_graph_block(n, p, rng_from(n, 8), 1 if p == 1.0 else 3)
        for count_size, exist_size in CENSUS_SIZES:
            if p == 1.0 and comb(n, max(count_size, exist_size)) > 10**5:
                # the depth-first loop would visit every clique one by one
                want = [(comb(n, count_size), n >= exist_size)]
            else:
                want = [oracles.o_clique_stats(words, count_size, exist_size) for words in block]
            assert _census_rows(block, count_size, exist_size) == want, (n, p, count_size, exist_size)


def test_clique_census_block_of_mixed_graphs():
    # graphs of very different density share the arrays of every level
    rng = rng_from(9)
    block = np.concatenate([sample_graph_block(70, p, rng, 2) for p in (0.0, 0.5, 0.05, 0.3)])
    for count_size, exist_size in CENSUS_SIZES:
        want = [oracles.o_clique_stats(words, count_size, exist_size) for words in block]
        assert _census_rows(block, count_size, exist_size) == want, (count_size, exist_size)


# ----- ambient relations and diameter -------------------------------------------


@pytest.mark.parametrize("name", AMBIENT_NAMES)
def test_relation_masks_match_pair_loop(ambients, name):
    amb = ambients[name]
    sub, sup, meet = oracles.o_relation_masks(amb)
    assert amb.sub_masks == sub
    assert amb.sup_masks == sup
    assert amb.meet_masks == meet
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

_SPARSE = [
    (1, 0, [1.0]),
    (4, 3, [1.0, 0.5, 0.5, 0.5]),
    (6, 2, [1.0, 0.0, 1.0]),
    (7, 4, [1.0, 1.0, 1.0, 1.0, 1.0]),
    (9, 4, [1.0, 0.8, 0.0, 0.6, 0.9]),
    (12, 3, [1.0, 0.6, 0.4, 0.3]),
    (30, 2, [1.0, 0.2, 0.05]),
    (60, 2, [1.0, 0.1, 0.002]),  # C(60, 3) spans two blocks of draws
    (8, 3, [1.0, 0.0]),  # every layer above the vertices is empty
    (10, 4, [1.0, 1.0, 0.9, 1.0, 0.7]),
    (25, 4, [1.0, 0.6, 0.5, 0.5, 0.5]),
    (60, 2, [1.0, 0.05, 1.0]),  # q = 1: the cut is 2^64, every word hits
    (40, 3, [1.0, 0.5, 1e-300, 0.5]),  # hits only the raw word 0
    (30, 3, [1.0, 0.3, 0.2, 0.1], np.random.PCG64),
    (12, 2, [1.0, 0.5, 0.5], np.random.MT19937),  # rejected: two words a double
]

# (n, r, p, bit generator), with the ids the plain (n, r, p) cases had
SPARSE_CASES = [
    pytest.param(n, r, p, bitgen[0] if bitgen else np.random.Philox,
                 id="-".join([f"{n}-{r}-p{i}", *(b.__name__ for b in bitgen)]))
    for i, (n, r, p, *bitgen) in enumerate(_SPARSE)
]


def _case_rng(bitgen, seed, stream):
    if bitgen is np.random.Philox:
        return rng_from(seed, stream)
    return np.random.Generator(bitgen([seed, stream]))


@pytest.mark.parametrize("n, r, p, bitgen", SPARSE_CASES)
def test_bernoulli_faces_match_stream(n, r, p, bitgen):
    base = sparse._base_tuple(n, p)
    got_rng, want_rng = _case_rng(bitgen, n, 2), _case_rng(bitgen, n, 2)
    if bitgen is np.random.MT19937:
        with pytest.raises(ValueError, match="one 64-bit word"):
            sparse._bernoulli_faces(n, base, r, got_rng)
        return
    layers = sparse._bernoulli_faces(n, base, r, got_rng)
    assert [(v.dtype, v.shape[1]) for v in layers] == [(np.int64, d + 1) for d in range(r + 1)]
    got = sparse._face_tuples(layers)
    assert got == oracles.o_bernoulli_faces(n, base, r, want_rng)
    assert all(type(v) is int for face in got for v in face)
    assert _same_stream_state(got_rng, want_rng)


@pytest.mark.parametrize("n, r, p, bitgen", SPARSE_CASES)
def test_staged_faces_match_candidate_loop(n, r, p, bitgen):
    # the staged draw reads doubles, so it takes any bit generator
    base = sparse._base_tuple(n, p)
    closure = sparse._derived_cached(n, base).closure_marginals
    for stage_p in (closure, base, (1.0,) * n, (0.7,) * n):
        got_rng, want_rng = _case_rng(bitgen, n, 3), _case_rng(bitgen, n, 3)
        got = sparse._staged_complex_faces(n, stage_p, r, got_rng)
        assert got == oracles.o_staged_complex_faces(n, stage_p, r, want_rng)
        assert all(type(v) is int for face in got for v in face)
        assert _same_stream_state(got_rng, want_rng)


@pytest.mark.parametrize("n, r, p, bitgen", SPARSE_CASES)
def test_generators_match_loops(n, r, p, bitgen):
    if bitgen is np.random.MT19937:
        for algorithm in (sparse.algorithm1_truncated, sparse.algorithm2_truncated):
            with pytest.raises(ValueError, match="MT19937"):
                algorithm(n, p, r, _case_rng(bitgen, 5, n))
        return
    base = sparse._base_tuple(n, p)
    closure = sparse._derived_cached(n, base).closure_marginals
    got_rng, want_rng = _case_rng(bitgen, 5, n), _case_rng(bitgen, 5, n)
    got1 = sparse.algorithm1_truncated(n, p, r, got_rng)
    hyper = oracles.o_bernoulli_faces(n, base, r, want_rng)
    cx = oracles.o_staged_complex_faces(n, closure, r, want_rng)
    assert got1 == sparse.TruncatedSample(n=n, r=r, hyper_faces=tuple(hyper), complex_faces=tuple(cx))
    assert _same_stream_state(got_rng, want_rng)
    for seed in range(6, 10):
        got_rng, want_rng = _case_rng(bitgen, seed, n), _case_rng(bitgen, seed, n)
        got2 = sparse.algorithm2_truncated(n, p, r, got_rng)
        assert got2 == oracles.o_algorithm2_truncated(n, p, r, want_rng)
        assert all(type(v) is int for face in got2 for v in face)
        assert _same_stream_state(got_rng, want_rng)


def _dims_schedule(n):
    return {1: 0.5, 3: 0.7, 20: 0.25, 70: 0.1}[n]


@pytest.mark.parametrize("block_uniforms", [sparse._BLOCK_UNIFORMS, 1000])
def test_dimension_stats_match_graph_loop(monkeypatch, block_uniforms):
    # 131 samples fill no whole number of blocks: 13 graphs a block at n = 70
    # by default; 1 at n = 70, 5 at n = 20 and 333 at n = 3 with the small one.
    monkeypatch.setattr(sparse, "_BLOCK_UNIFORMS", block_uniforms)
    for r in (1, 2):
        got = sparse.dimension_stats([1, 3, 20, 70], _dims_schedule, r, 131, seed=12)
        assert got == oracles.o_dimension_stats([1, 3, 20, 70], _dims_schedule, r, 131, seed=12)


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
