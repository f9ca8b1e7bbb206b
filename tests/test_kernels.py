import itertools
import math

import numpy as np
import pytest

from hyperops.kernels import clique_stats, edge_count, pair_laws, sample_graph_words
from hyperops.models import rng_from
from hyperops.operators import closure_table, complement_table, interior_complex_table


def dense(words, n):
    bits = np.unpackbits(words.view(np.uint8), bitorder="little")
    return bits.reshape(n, -1)[:, :n].astype(np.int64)


def brute_clique_count(words, n, k):
    a = dense(words, n)
    count = 0
    for combo in itertools.combinations(range(n), k):
        if all(a[i, j] for i, j in itertools.combinations(combo, 2)):
            count += 1
    return count


def test_sample_graph_words_contract():
    rng = rng_from(1, 0)
    words = sample_graph_words(10, 0.5, rng)
    assert words.shape == (10, 1)
    a = dense(words, 10)
    assert (a == a.T).all()
    assert (np.diag(a) == 0).all()
    again = sample_graph_words(10, 0.5, rng_from(1, 0))
    assert (words == again).all()
    with pytest.raises(ValueError):
        sample_graph_words(0, 0.5, rng)
    with pytest.raises(ValueError):
        sample_graph_words(5, 1.5, rng)


def test_sample_graph_edge_density():
    n, p, draws = 30, 0.3, 60
    total = sum(
        edge_count(sample_graph_words(n, p, rng_from(2, s))) for s in range(draws)
    )
    pairs = n * (n - 1) // 2
    want = p * pairs * draws
    sigma = math.sqrt(pairs * draws * p * (1 - p))
    assert abs(total - want) <= 4 * sigma


def test_clique_stats_small_graphs():
    for s in range(8):
        words = sample_graph_words(9, 0.5, rng_from(3, s))
        for k in (2, 3, 4):
            count, exists = clique_stats(words, k, k)
            want = brute_clique_count(words, 9, k)
            assert count == want
            assert exists == (want > 0)


def test_clique_stats_multiword():
    # n > 64 exercises the second bitset word; triangles come from trace(A^3)
    n = 70
    words = sample_graph_words(n, 0.1, rng_from(4, 0))
    a = dense(words, n)
    want = int(np.trace(a @ a @ a)) // 6
    count, exists = clique_stats(words, 3, 4)
    assert count == want


def test_clique_stats_guards():
    words = sample_graph_words(5, 0.5, rng_from(6, 0))
    with pytest.raises(ValueError):
        clique_stats(words, 1, 3)
    with pytest.raises(ValueError):
        clique_stats(words, 3, 0)


def test_edge_count():
    words = sample_graph_words(12, 0.4, rng_from(7, 0))
    a = dense(words, 12)
    assert edge_count(words) == int(a.sum()) // 2


def test_pair_laws_clean_and_broken(delta2):
    ct = closure_table(delta2)
    dt = interior_complex_table(delta2)
    gt = complement_table(delta2)
    bad, pairs = pair_laws(ct, dt, gt)
    size = 1 << delta2.num_faces
    assert pairs == size * (size + 1) // 2
    assert (bad == 0).all()
    # tampering with one closure entry must surface as violations
    ct_broken = ct.copy()
    ct_broken[1] ^= np.uint32(1 << 5)
    bad, _ = pair_laws(ct_broken, dt, gt)
    assert bad[1] > 0
    assert bad[0] == 0 and bad[2] == 0
