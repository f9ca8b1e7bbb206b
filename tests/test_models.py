import numpy as np
import pytest

from hyperops import models
from hyperops.complexes import AmbientComplex, full_complex, standard_fixtures
from hyperops.metric import figure_hypergraphs, triangulated_triangle
from hyperops.models import (
    ProbabilityAssignment,
    enumerate_subcomplexes,
    enumerate_subhypergraphs,
    pmf_complex,
    pmf_hypergraph,
    resolve_probabilities,
    rng_from,
    sample_complex,
    sample_complex_batch,
    sample_hypergraph,
    sample_hypergraph_batch,
    sample_hypergraph_masks,
)

from hyperops.pushforward import complex_product, complex_union_resample, hypergraph_product

from oracles import (
    ambient_faces,
    mask_to_faces,
    o_complex_union_resample,
    o_sample_complex,
    o_sample_hypergraph,
    o_staged_pmf,
)


def test_probability_assignment_modes(delta2):
    const = ProbabilityAssignment.constant(0.5)
    assert np.allclose(const.resolve(delta2), 0.5)
    dims = ProbabilityAssignment.from_dims([1.0, 0.5, 0.25])
    vec = dims.resolve(delta2)
    assert vec[delta2.face_index((1,))] == 1.0
    assert vec[delta2.face_index((1, 2))] == 0.5
    assert vec[delta2.face_index((1, 2, 3))] == 0.25
    ent = ProbabilityAssignment.from_entries([((1, 2), 0.4)], default=0.9)
    vec = ent.resolve(delta2)
    assert vec[delta2.face_index((1, 2))] == 0.4
    assert vec[delta2.face_index((2, 3))] == 0.9


def test_probability_assignment_guards(delta2):
    with pytest.raises(ValueError):
        ProbabilityAssignment(per_dim=(0.5,), entries=())
    with pytest.raises(ValueError):
        ProbabilityAssignment.from_dims([1.5])
    with pytest.raises(ValueError):
        ProbabilityAssignment.from_dims([1.0, 0.5]).resolve(delta2)  # dim 2 missing
    with pytest.raises(ValueError):
        ProbabilityAssignment.from_entries([((7, 8), 0.5)]).resolve(delta2)
    # [1, 2] and [2, 1] are one simplex: the later p must not win silently
    with pytest.raises(ValueError, match=r"simplex \[1, 2\] twice"):
        ProbabilityAssignment.from_entries([((1, 2), 0.5), ((2, 1), 0.9)])
    with pytest.raises(ValueError, match=r"simplex \[1, 2\] twice"):
        ProbabilityAssignment(entries=(((2, 1), 0.5), ((1, 2), 0.5)))
    with pytest.raises(ValueError):
        resolve_probabilities(delta2, [0.5] * 3)  # needs 7 entries


@pytest.mark.parametrize("use", [
    lambda amb, p: resolve_probabilities(amb, p),
    lambda amb, p: hypergraph_product(amb, p),
    lambda amb, p: complex_product(amb, p),
    lambda amb, p: sample_hypergraph(amb, p, rng_from(1)),
    lambda amb, p: sample_complex(amb, p, rng_from(1)),
], ids=["resolve_probabilities", "hypergraph_product", "complex_product",
        "sample_hypergraph", "sample_complex"])
def test_nan_probability_rejected(use):
    # NaN compares false both ways, so it must fail the range check itself
    with pytest.raises(ValueError, match=r"probability nan outside \[0, 1\]"):
        use(full_complex(2), [0.5, np.nan, 0.5])


def test_probability_assignment_json_round_trip():
    for pa in (
        ProbabilityAssignment.from_dims([1.0, 0.25, 0.75]),
        ProbabilityAssignment.from_entries([((1, 2), 0.4), ((3,), 1.0)], default=0.1),
    ):
        back = ProbabilityAssignment.from_json(pa.to_json())
        assert back == pa
    with pytest.raises(ValueError):
        ProbabilityAssignment.from_json('{"mode": "nope"}')


def test_pmf_hypergraph_sums_to_one(fixtures):
    rng = np.random.default_rng(7)
    for amb in fixtures.values():
        probs = rng.random(amb.num_faces)
        total = sum(
            pmf_hypergraph(amb, probs, m) for m in enumerate_subhypergraphs(amb)
        )
        assert abs(total - 1.0) < 1e-12


def test_pmf_complex_sums_to_one(fixtures):
    rng = np.random.default_rng(8)
    for amb in fixtures.values():
        probs = rng.random(amb.num_faces)
        total = sum(pmf_complex(amb, probs, m) for m in enumerate_subcomplexes(amb))
        assert abs(total - 1.0) < 1e-12


def test_pmf_complex_rejects_non_complex(delta1):
    with pytest.raises(ValueError):
        pmf_complex(delta1, [0.5] * 3, 0b100)  # edge without its vertices


def test_pmf_complex_matches_staged_oracle(fixtures):
    per_dim = (1.0, 0.5, 0.25, 0.5)
    for amb in fixtures.values():
        universe = ambient_faces(amb)
        pa = ProbabilityAssignment.from_dims(per_dim[: amb.dim + 1])
        for m in enumerate_subcomplexes(amb):
            want = o_staged_pmf(universe, per_dim, mask_to_faces(amb, m))
            assert abs(pmf_complex(amb, pa, m) - want) < 1e-12


def test_subcomplex_enumeration_counts(delta1, delta2, p3, sk1d3):
    assert len(list(enumerate_subcomplexes(delta1))) == 5
    # delta2: 2^3 vertex sets, then staged edges/triangle; count by brute force
    for amb in (delta2, p3, sk1d3):
        brute = [
            m for m in enumerate_subhypergraphs(amb) if amb.is_complex_mask(m)
        ]
        assert list(enumerate_subcomplexes(amb)) == brute


def test_enumeration_limit():
    big = full_complex(5)  # 31 faces
    with pytest.raises(ValueError):
        list(enumerate_subhypergraphs(big))


def test_rng_reproducible_and_streamed():
    a = rng_from(42, 0).random(8)
    b = rng_from(42, 0).random(8)
    c = rng_from(42, 1).random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_rng_keys_are_64_bit_words():
    # as float64, seeds and streams past 2^63 collided
    firsts = {rng_from(1, (1 << 63) + k).random() for k in range(3)}
    assert len(firsts) == 3
    assert rng_from((1 << 63) + 1).random() != rng_from((1 << 63) + 2).random()
    assert rng_from((1 << 64) - 1, (1 << 64) - 1).random() != rng_from(0).random()
    # below 2^63 the key is the one a list of ints gave
    for seed in (0, 2026, 1 << 62, (1 << 63) - 1):
        old = np.random.Generator(np.random.Philox(key=[seed, 5]))
        assert rng_from(seed, 5).random(4).tolist() == old.random(4).tolist()
    for seed, stream in ((-1, 0), (1 << 64, 0), (0, -1), (0, 1 << 64)):
        with pytest.raises(ValueError, match="2\\^64"):
            rng_from(seed, stream)


def test_sample_complex_matches_pmf(delta1):
    # exhaustive law check on the five subcomplexes of the 1-simplex
    n = 100_000
    pa = ProbabilityAssignment.from_dims([0.6, 0.7])
    rng = rng_from(11, 2)
    counts = {}
    for _ in range(n):
        m = sample_complex(delta1, pa, rng).mask
        counts[m] = counts.get(m, 0) + 1
    for m in enumerate_subcomplexes(delta1):
        want = pmf_complex(delta1, pa, m)
        got = counts.get(m, 0) / n
        sigma = np.sqrt(want * (1 - want) / n)
        assert abs(got - want) <= 4 * sigma + 1e-9, m


def test_sample_complex_always_closed(sk1d3):
    rng = rng_from(9, 0)
    pa = ProbabilityAssignment.from_dims([0.8, 0.5])
    for _ in range(200):
        c = sample_complex(sk1d3, pa, rng)
        assert sk1d3.is_complex_mask(c.mask)


def test_sample_hypergraph_deterministic(delta2):
    pa = ProbabilityAssignment.constant(0.3)
    m1 = sample_hypergraph(delta2, pa, rng_from(1, 0)).mask
    m2 = sample_hypergraph(delta2, pa, rng_from(1, 0)).mask
    m3 = sample_hypergraph(delta2, pa, rng_from(1, 1)).mask
    assert m1 == m2
    batch = sample_hypergraph_batch(delta2, pa, rng_from(1, 0), 1)
    assert int(batch[0]) == m1
    assert m3 != m1 or rng_from(1, 1).random() != rng_from(1, 0).random()


# ----- streams: the samplers against their one-uniform-at-a-time loops ---------

STREAM_AMBIENTS = {
    **standard_fixtures(),
    "figure": figure_hypergraphs()[0],  # 127 faces
    "tri20": triangulated_triangle(20),  # 1261 faces
}


def _stream_probs(amb):
    # per-face values, all 0, all 1, and a mix holding exact 0s and 1s
    mixed = np.random.default_rng(amb.num_faces).random(amb.num_faces)
    mixed[::3] = 0.0
    mixed[1::5] = 1.0
    return {"random": np.random.default_rng(7).random(amb.num_faces),
            "zero": np.zeros(amb.num_faces), "one": np.ones(amb.num_faces), "mixed": mixed}


def _same_next_draw(a, b):
    return a.random() == b.random()


@pytest.mark.parametrize("rows, width", [(0, 1), (1, 1), (5, 1), (70_000, 1), (1000, 7), (300, 240),
                                         (40, 1 << 15), (10, (1 << 15) + 1), (20, (1 << 14) + 1)])
def test_block_cut_bound(rows, width):
    # The blocks tile the rows in order.  Each holds at most _BLOCK_UNIFORMS
    # uniforms, or one row when a row holds more, and each but the last is
    # as full as that bound allows.
    blocks = list(models._block_cut(rows, width))
    sizes = [size for _, size in blocks]
    assert [start for start, _ in blocks] == [sum(sizes[:i]) for i in range(len(sizes))]
    assert sum(sizes) == rows
    assert all(size == 1 or size * width <= models._BLOCK_UNIFORMS for size in sizes)
    assert all((size + 1) * width > models._BLOCK_UNIFORMS for size in sizes[:-1])


def test_cumulative_cut_bound():
    # Cut at each multiple of the bound: the rows after a block's first
    # hold fewer than `bound` items, and a nonempty block with a row after
    # it would pass the bound with that row.  A row of `bound` items or
    # more may leave empty blocks behind it.
    rnd = np.random.default_rng(3)
    bound = 100
    cases = [np.zeros(0, dtype=np.int64), np.zeros(5, dtype=np.int64), np.full(30, 100),
             np.array([0, 250, 3, 0, 99, 1, 100, 0, 340]),
             rnd.integers(0, 40, 500), rnd.integers(0, 300, 200)]
    for counts in cases:
        edges = [0, *models._cumulative_cut(counts, bound), counts.size]
        assert edges == sorted(edges)
        assert len(edges) - 1 == max(1, -(-int(counts.sum()) // bound))
        for lo, hi in zip(edges, edges[1:]):
            assert counts[lo + 1 : hi].sum() < bound
            if lo < hi < counts.size:
                assert counts[lo : hi + 1].sum() > bound


@pytest.mark.parametrize("name", list(STREAM_AMBIENTS))
def test_hypergraph_draws_match_face_loop(name):
    amb = STREAM_AMBIENTS[name]
    # 0 draws, 1 draw, and one draw past a block of uniforms
    runs = (0, 1, models._BLOCK_UNIFORMS // amb.num_faces + 1)
    for label, probs in _stream_probs(amb).items():
        for rows in runs:
            got_rng, want_rng = rng_from(rows, 3), rng_from(rows, 3)
            got = sample_hypergraph_masks(amb, probs, got_rng, rows)
            want = [o_sample_hypergraph(amb, probs, want_rng) for _ in range(rows)]
            assert got == want, (label, rows)
            assert all(type(m) is int for m in got)
            assert _same_next_draw(got_rng, want_rng), (label, rows)
        got_rng, want_rng = rng_from(4), rng_from(4)
        for _ in range(3):
            assert sample_hypergraph(amb, probs, got_rng).mask == o_sample_hypergraph(amb, probs, want_rng)
        assert _same_next_draw(got_rng, want_rng)
        if amb.num_faces <= 32:
            got_rng, want_rng = rng_from(5), rng_from(5)
            batch = sample_hypergraph_batch(amb, probs, got_rng, runs[-1])
            assert batch.dtype == np.uint32
            assert batch.tolist() == [o_sample_hypergraph(amb, probs, want_rng) for _ in range(runs[-1])]
            assert _same_next_draw(got_rng, want_rng)


@pytest.mark.parametrize("name", list(STREAM_AMBIENTS))
def test_complex_draws_match_candidate_loop(name):
    amb = STREAM_AMBIENTS[name]
    for label, probs in _stream_probs(amb).items():
        got_rng, want_rng = rng_from(6, 1), rng_from(6, 1)
        for _ in range(4):
            got = sample_complex(amb, probs, got_rng).mask
            assert got == o_sample_complex(amb, probs, want_rng), label
        assert _same_next_draw(got_rng, want_rng), label


@pytest.mark.parametrize("name", [n for n, amb in STREAM_AMBIENTS.items() if amb.num_faces <= 32])
def test_batch_samplers_are_the_single_draws(name):
    amb = STREAM_AMBIENTS[name]
    for label, probs in _stream_probs(amb).items():
        got_rng, want_rng = rng_from(7, 2), rng_from(7, 2)
        batch = sample_complex_batch(amb, probs, got_rng, 50)
        assert batch.dtype == np.uint32
        assert batch.tolist() == [sample_complex(amb, probs, want_rng).mask for _ in range(50)], label
        assert _same_next_draw(got_rng, want_rng), label
        got_rng, want_rng = rng_from(7, 3), rng_from(7, 3)
        batch = sample_hypergraph_batch(amb, probs, got_rng, 50)
        assert batch.tolist() == sample_hypergraph_masks(amb, probs, want_rng, 50), label
        assert _same_next_draw(got_rng, want_rng), label


RESAMPLE_AMBIENTS = {
    **standard_fixtures(),
    "tri2": triangulated_triangle(2),
    "figure": STREAM_AMBIENTS["figure"],
}


@pytest.mark.parametrize("name", list(RESAMPLE_AMBIENTS))
def test_union_resampler_matches_face_loop(name):
    # one rng.random(k) per dimension reads the doubles the face loop reads
    amb = RESAMPLE_AMBIENTS[name]
    m = amb.num_faces
    gen = np.random.default_rng(m)
    pairs = {"random": (gen.random(m), gen.random(m)), "zero": (np.zeros(m), np.zeros(m)),
             "one": (np.ones(m), np.ones(m)),
             "binary": (gen.integers(0, 2, m).astype(float), gen.integers(0, 2, m).astype(float))}
    for label, (p1, p2) in pairs.items():
        # inputs drawn at 1/2 leave candidates of every kind; the loop
        # settles them under p1 and p2
        half = np.full(m, 0.5)
        draw_rng, got_rng, want_rng = rng_from(m, 1), rng_from(m, 2), rng_from(m, 2)
        for _ in range(40):
            k1, k2 = sample_complex(amb, half, draw_rng), sample_complex(amb, half, draw_rng)
            got = complex_union_resample(k1, k2, p1, p2, got_rng).mask
            assert got == o_complex_union_resample(amb, k1.mask, k2.mask, p1, p2, want_rng), label
            assert _same_next_draw(got_rng, want_rng), label


def test_batch_sizes_and_empty_runs(delta2):
    pa = ProbabilityAssignment.constant(0.5)
    rng = rng_from(8)
    assert sample_hypergraph_masks(delta2, pa, rng, 0) == []
    empty = sample_hypergraph_batch(delta2, pa, rng, 0)
    assert empty.dtype == np.uint32 and empty.shape == (0,)
    assert _same_next_draw(rng, rng_from(8))


def test_samplers_on_an_ambient_without_faces():
    # the empty ambient is valid: every draw is the empty mask, and no
    # draw reads the stream
    amb = AmbientComplex([])
    rng = rng_from(1)
    assert sample_hypergraph_masks(amb, [], rng, 3) == [0, 0, 0]
    assert sample_hypergraph(amb, [], rng).mask == 0
    batch = sample_hypergraph_batch(amb, [], rng, 3)
    assert batch.dtype == np.uint32 and batch.tolist() == [0, 0, 0]
    assert sample_complex(amb, [], rng).mask == 0
    assert _same_next_draw(rng, rng_from(1))
