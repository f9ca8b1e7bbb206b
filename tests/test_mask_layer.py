"""The mask and sampling layer against its former loops (tests/oracles.py),
and the sparse generators against the mask-layer samplers.

Every comparison is exact: same words, same relation masks, same diameter,
same faces in the same order, and the same number of uniforms consumed.
"""

import itertools
import random
import tracemalloc
from functools import lru_cache
from math import comb

import numpy as np
import pytest

from hyperops import kernels, sparse
from hyperops.cli import main
from hyperops.complexes import AmbientComplex, standard_fixtures
from hyperops.io import write_probability
from hyperops.kernels import clique_census, sample_graph_block, sample_graph_words
from hyperops.metric import diameter, triangulated_triangle
from hyperops.models import ProbabilityAssignment, rng_from, sample_complex, sample_hypergraph_masks
from hyperops.operators import interior_complex_mask
from hyperops.pushforward import complex_product, marginals

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


@pytest.mark.parametrize("n, graphs, chunk", [(260, 3, None), (9, 5, 7), (70, 4, 1000)])
def test_graph_block_reads_words_in_chunks(monkeypatch, n, graphs, chunk):
    # Raw words are read and scattered in chunks of _BLOCK_UNIFORMS, which
    # end inside graphs: n = 260 has 33,670 pairs, more than one chunk at
    # the default size, and the smaller sizes split every graph.
    if chunk is not None:
        monkeypatch.setattr(kernels, "_BLOCK_UNIFORMS", chunk)
    assert graphs * comb(n, 2) > 2 * kernels._BLOCK_UNIFORMS
    for p in (0.05, 0.5):
        got_rng, want_rng = rng_from(n, 13), rng_from(n, 13)
        got = sample_graph_block(n, p, got_rng, graphs)
        assert got.shape == (graphs, n, (n + 63) >> 6)
        for g in range(graphs):
            assert np.array_equal(got[g], oracles.o_sample_graph_words(n, p, want_rng)), (n, p, g)
        assert _philox_state(got_rng.bit_generator) == _philox_state(want_rng.bit_generator)


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
    assert oracles.layer_faces(layers, r) == tuple(oracles.o_bernoulli_faces(n, base, r, want_rng))
    assert _same_stream_state(got_rng, want_rng)


@pytest.mark.parametrize("n, r, p, bitgen", SPARSE_CASES)
def test_staged_faces_match_candidate_loop(n, r, p, bitgen):
    # the staged draw reads doubles, so it takes any bit generator
    base = sparse._base_tuple(n, p)
    closure = sparse._derived_cached(n, base).closure_marginals
    for stage_p in (closure, base, (1.0,) * n, (0.7,) * n):
        got_rng, want_rng = _case_rng(bitgen, n, 3), _case_rng(bitgen, n, 3)
        got = sparse._staged_complex_faces(n, stage_p, r, got_rng)
        assert oracles.layer_faces(got, r) == tuple(oracles.o_staged_complex_faces(n, stage_p, r, want_rng))
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
    assert (got1.n, got1.r) == (n, r)
    assert oracles.layer_faces(got1.hyper_faces, r) == tuple(hyper)
    assert oracles.layer_faces(got1.complex_faces, r) == tuple(cx)
    assert _same_stream_state(got_rng, want_rng)
    for seed in range(6, 10):
        got_rng, want_rng = _case_rng(bitgen, seed, n), _case_rng(bitgen, seed, n)
        got2 = sparse.algorithm2_truncated(n, p, r, got_rng)
        assert oracles.layer_faces(got2, r) == oracles.o_algorithm2_truncated(n, p, r, want_rng)
        assert _same_stream_state(got_rng, want_rng)


# ----- algorithm 2's Philox seek ------------------------------------------------

SEEK_KEYS = [(0, 0), (7, 3), (2**64 - 1, 2**63 + 5)]


def _philox_state(bitgen):
    st = bitgen.state
    return (st["state"]["counter"].tolist(), st["state"]["key"].tolist(), st["buffer"].tolist(),
            st["buffer_pos"], st["has_uint32"], st["uinteger"])


def _keyed(key, pre=0, half=False):
    # Philox at `key` after `pre` raw words and, with `half`, one uint32
    # draw that leaves the other half of its word cached
    rng = np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))
    rng.bit_generator.random_raw(pre)
    if half:
        rng.integers(0, 1 << 32, dtype=np.uint32)
    return rng


@pytest.mark.parametrize("key", SEEK_KEYS)
def test_philox_advance_matches_long_read(key):
    # The seek's premises about numpy's Philox: word w of block c (counted
    # from 1) is word 4 (c - 1) + w of the stream; advance(b) adds b blocks
    # to the counter and empties the buffer and the cached 32-bit half.
    long = _keyed(key).bit_generator.random_raw(5000)
    pick = random.Random(sum(key))
    spots = [0, 3, 4, 5, 4092, 4095, 4999, *range(8, 5000, 404), *pick.sample(range(5000), 40)]
    for word in spots:
        for pre in range(5):
            blocks = word // 4 - (pre + 3) // 4
            if blocks < 0:
                continue
            bitgen = _keyed(key, pre, half=pre % 2 == 1).bit_generator
            bitgen.advance(blocks)
            state = bitgen.state
            assert (state["buffer_pos"], state["has_uint32"], state["uinteger"]) == (4, 0, 0)
            assert bitgen.random_raw(word % 4 + 1)[-1] == long[word]
            assert bitgen.state["buffer_pos"] == word % 4 + 1


@pytest.mark.parametrize("key", SEEK_KEYS)
def test_philox_words_at_match_full_read(key):
    pick = np.random.default_rng(sum(key) % 1000)
    total = 3 * sparse._BLOCK_UNIFORMS + 6
    boundary = sparse._BLOCK_UNIFORMS
    rank_sets = [
        [], [0], [total - 1], [0, total - 1],
        [boundary - 2, boundary - 1, boundary, boundary + 1],
        list(range(600, 700)) + list(range(2000, 2003)),
        sorted(pick.choice(total, 300, replace=False).tolist()),
        sorted(pick.choice(total, 3000, replace=False).tolist()),
    ]
    for pre in range(5):
        for half in (False, True):
            for count in (total, total - 1, total - 2, total - 3):
                for ranks in rank_sets:
                    ranks = np.array([x for x in ranks if x < count], dtype=np.int64)
                    got, want = _keyed(key, pre, half), _keyed(key, pre, half)
                    words = sparse._philox_words_at(got.bit_generator, ranks, count)
                    assert words.tolist() == want.bit_generator.random_raw(count)[ranks].tolist()
                    assert _philox_state(got.bit_generator) == _philox_state(want.bit_generator)


# (n, r, p): each seeks in every dimension above the edges; the oracle
# builds every drawn face, so the cases keep their dense hits few
SEEK_CASES = [
    (200, 2, [1.0, 0.045, 0.0025]),  # the sparse benchmark job
    (50, 3, [1.0, 0.13, 1.0, 0.02]),  # two sparse dimensions
    (40, 2, [1.0, 0.12, 1.0]),  # top p of 1: every candidate is kept
]


def _count_seeks(monkeypatch):
    # the candidate count of each _philox_words_at call, in call order
    seeks = []
    words_at = sparse._philox_words_at
    monkeypatch.setattr(sparse, "_philox_words_at", lambda *a: seeks.append(a[1].size) or words_at(*a))
    return seeks


@pytest.mark.parametrize("n, r, p", SEEK_CASES)
def test_algorithm2_seeks_match_loop(monkeypatch, n, r, p):
    seeks = _count_seeks(monkeypatch)
    for key in SEEK_KEYS:
        for pre in range(5):  # so each dimension ends on every residue mod 4
            got_rng, want_rng = _keyed(key, pre), _keyed(key, pre)
            for _ in range(2):
                got = sparse.algorithm2_truncated(n, p, r, got_rng)
                assert oracles.layer_faces(got, r) == oracles.o_algorithm2_truncated(n, p, r, want_rng)
                assert _philox_state(got_rng.bit_generator) == _philox_state(want_rng.bit_generator)
    # every draw seeks in dimensions 2..r, and each of them meets candidates
    assert len(seeks) == 30 * (r - 1)
    assert all(sum(seeks[d::r - 1]) > 0 for d in range(r - 1))


# Dense edges and every higher coin a hit: the kept layers have too many
# sibling pairs to seek, so algorithm 2 reads d = 2 and 3 whole.  At n = 40
# the C(40, 4) = 91,390 tetrahedra span three blocks of words.
def test_algorithm2_full_read_matches_loop_across_blocks(monkeypatch):
    p, r = [1.0, 0.6, 1.0, 1.0], 3
    seeks = _count_seeks(monkeypatch)
    assert comb(40, r + 1) > 2 * sparse._BLOCK_UNIFORMS
    for pre in range(5):  # each key, and each residue of the stream mod 4
        key = SEEK_KEYS[pre % len(SEEK_KEYS)]
        got_rng, want_rng = _keyed(key, pre), _keyed(key, pre)
        got = sparse.algorithm2_truncated(40, p, r, got_rng)
        assert oracles.layer_faces(got, r) == oracles.o_algorithm2_truncated(40, p, r, want_rng)
        assert _philox_state(got_rng.bit_generator) == _philox_state(want_rng.bit_generator)
    assert seeks == []


def test_algorithm2_full_read_holds_one_block_of_hits(monkeypatch):
    # n = 60 unranks C(60, 4) = 487,635 tetrahedra (15 MiB of int64
    # vertices) and keeps about 1/64 of them; filtered block by block, the
    # peak stays near the output's size.
    seeks = _count_seeks(monkeypatch)
    tracemalloc.start()
    try:
        faces = sparse.algorithm2_truncated(60, [1.0, 0.5, 1.0, 1.0], 3, rng_from(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seeks == [] and len(oracles.layer_faces(faces, 3)) > 0
    assert peak < 8 << 20


# ----- the sparse generators are the mask-layer samplers ------------------------

# (n, r, p, seeking): r = 0..3 with p entries of 0 and 1, and a 10,700-face
# shape whose every Philox draw of algorithm 2 seeks in `seeking` dimensions
IDENTITY_CASES = [
    (1, 0, [1.0], 0),
    (5, 0, [1.0], 0),
    (4, 1, [1.0, 0.5], 0),
    (6, 1, [1.0, 0.0], 0),
    (6, 1, [1.0, 1.0], 0),
    (5, 2, [1.0, 0.5, 0.5], 0),
    (6, 2, [1.0, 1.0, 0.3], 0),
    (7, 2, [1.0, 0.6, 0.0], 0),
    (4, 3, [1.0, 1.0, 1.0, 1.0], 0),
    (6, 3, [1.0, 0.7, 1.0, 0.4], 0),
    (7, 3, [1.0, 0.5, 0.5, 1.0], 0),
    (7, 3, [1.0, 0.8, 0.9], 0),  # padded: no tetrahedron is ever drawn
    (40, 2, [1.0, 0.05, 0.5], 1),
]


@lru_cache(maxsize=None)
def _skeleton(n, r):
    # the r-skeleton of the simplex on 1..n, built from its r-faces alone
    return AmbientComplex(itertools.combinations(range(1, n + 1), r + 1))


@pytest.mark.parametrize("bitgen", [np.random.Philox, np.random.PCG64])
@pytest.mark.parametrize("n, r, p, seeking", IDENTITY_CASES)
def test_generators_are_mask_layer_draws(monkeypatch, n, r, p, seeking, bitgen):
    # On the r-skeleton, algorithm 1 is sample_hypergraph_masks at the base
    # vector then sample_complex at the closure marginals, and algorithm 2
    # is interior_complex_mask of the same hypergraph draw: the same faces
    # and the same next draw.
    amb = _skeleton(n, r)
    dd = sparse.derived_dims(n, p)
    base = ProbabilityAssignment.from_dims(dd.base[: r + 1])
    closure = ProbabilityAssignment.from_dims(dd.closure_marginals[: r + 1])
    for seed in range(3):  # at n = 40, a draw of each part holds ~5000 faces
        got_rng, want_rng = _case_rng(bitgen, seed, n), _case_rng(bitgen, seed, n)
        got = sparse.algorithm1_truncated(n, p, r, got_rng)
        hyper = sample_hypergraph_masks(amb, base, want_rng, 1)[0]
        cx = sample_complex(amb, closure, want_rng).mask
        assert oracles.layer_faces(got.hyper_faces, r) == tuple(amb.faces_of_mask(hyper)), seed
        assert oracles.layer_faces(got.complex_faces, r) == tuple(amb.faces_of_mask(cx)), seed
        assert _same_stream_state(got_rng, want_rng), seed
    seeks = _count_seeks(monkeypatch)
    for seed in range(10):
        got_rng, want_rng = _case_rng(bitgen, seed, n), _case_rng(bitgen, seed, n)
        got = sparse.algorithm2_truncated(n, p, r, got_rng)
        hyper = sample_hypergraph_masks(amb, base, want_rng, 1)[0]
        assert oracles.layer_faces(got, r) == tuple(amb.faces_of_mask(interior_complex_mask(amb, hyper))), seed
        assert _same_stream_state(got_rng, want_rng), seed
    assert len(seeks) == (10 * seeking if bitgen is np.random.Philox else 0)
    assert sum(seeks) > 0 or not seeks


def test_staged_triangle_marginal_at_closure_marginals():
    # The staged law on the 2-skeleton of the simplex on 4 vertices, at the
    # closure marginals p' of n = 4: a triangle's coin comes after its three
    # edges, so its marginal is p'_2 (p'_1)^3; an edge's is p'_1.  Every
    # term is dyadic (p' = 1, 15/16, 3/4), so the sums are exact.
    amb = _skeleton(4, 2)
    closure = sparse.derived_dims(4, [1.0, 0.5, 0.5, 0.5]).closure_marginals
    got = marginals(complex_product(amb, ProbabilityAssignment.from_dims(closure[:3])))
    want = [1.0, closure[1], closure[2] * closure[1] ** 3]
    assert got.tolist() == [want[d] for d in amb.dims]


def _dims_schedule(n):
    return {1: 0.5, 3: 0.7, 20: 0.25, 70: 0.1}[n]


@pytest.mark.parametrize("block_uniforms", [sparse._BLOCK_UNIFORMS, 1000])
def test_dimension_stats_match_graph_loop(monkeypatch, block_uniforms):
    # A block holds the graphs whose adjacency rows fill _BLOCK_UNIFORMS
    # words, n * ceil(n / 64) each: by default all 131 samples fit in one
    # block at every n (234 graphs a block at n = 70); with the small size,
    # 131 samples fill no whole number of blocks: 7 graphs a block at
    # n = 70, 50 at n = 20, 333 at n = 3 and 1000 at n = 1.
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
