import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from hyperops.kernels import (
    _load_numba,
    active_backend,
    clique_census,
    clique_stats,
    edge_count,
    pair_laws,
    requested_backend,
    sample_graph_block,
    sample_graph_words,
    warmup,
)
from hyperops.models import rng_from
from hyperops.operators import closure_table, complement_table, interior_complex_table

HAVE_NUMBA = _load_numba() is not None

BACKENDS = ("numpy", "numba") if HAVE_NUMBA else ("numpy",)


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


def test_backend_selection(monkeypatch):
    monkeypatch.setenv("HYPEROPS_BACKEND", "numpy")
    assert requested_backend() == "numpy"
    assert active_backend() == "numpy"
    monkeypatch.setenv("HYPEROPS_BACKEND", "bogus")
    with pytest.raises(ValueError):
        active_backend()
    monkeypatch.delenv("HYPEROPS_BACKEND")
    assert active_backend() in ("numpy", "numba")


@pytest.mark.skipif(not HAVE_NUMBA, reason="numba unavailable")
def test_warmup_compiles(monkeypatch):
    monkeypatch.setenv("HYPEROPS_BACKEND", "numba")
    warmup()
    assert active_backend() == "numba"


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


@pytest.mark.parametrize("backend", BACKENDS)
def test_clique_stats_small_graphs(monkeypatch, backend):
    monkeypatch.setenv("HYPEROPS_BACKEND", backend)
    for s in range(8):
        words = sample_graph_words(9, 0.5, rng_from(3, s))
        for k in (2, 3, 4):
            count, exists = clique_stats(words, k, k)
            want = brute_clique_count(words, 9, k)
            assert count == want
            assert exists == (want > 0)


@pytest.mark.parametrize("backend", BACKENDS)
def test_clique_stats_multiword(monkeypatch, backend):
    # n > 64 exercises the second bitset word; triangles come from trace(A^3)
    monkeypatch.setenv("HYPEROPS_BACKEND", backend)
    n = 70
    words = sample_graph_words(n, 0.1, rng_from(4, 0))
    a = dense(words, n)
    want = int(np.trace(a @ a @ a)) // 6
    count, exists = clique_stats(words, 3, 4)
    assert count == want


@pytest.mark.skipif(not HAVE_NUMBA, reason="numba unavailable")
def test_backends_agree(monkeypatch):
    words = sample_graph_words(40, 0.25, rng_from(5, 0))
    block = sample_graph_block(70, 0.2, rng_from(5, 1), 6)
    results = {}
    for backend in BACKENDS:
        monkeypatch.setenv("HYPEROPS_BACKEND", backend)
        counts, exists = clique_census(block, 3, 4)
        results[backend] = clique_stats(words, 4, 5), counts.tolist(), exists.tolist()
    assert results["numpy"] == results["numba"]


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


@pytest.mark.parametrize("backend", BACKENDS)
def test_pair_laws_clean_and_broken(monkeypatch, backend, delta2):
    monkeypatch.setenv("HYPEROPS_BACKEND", backend)
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


def test_env_flag_crosses_process_boundary(tmp_path):
    # the flag is read from the environment at call time in a fresh process
    snippet = (
        "from hyperops.kernels import active_backend, clique_stats, sample_graph_words\n"
        "from hyperops.models import rng_from\n"
        "words = sample_graph_words(12, 0.5, rng_from(8, 0))\n"
        "print(active_backend(), clique_stats(words, 3, 4))\n"
    )
    outs = {}
    for backend in BACKENDS:
        proc = subprocess.run(
            [sys.executable, "-c", snippet],
            capture_output=True,
            text=True,
            env={
                "HYPEROPS_BACKEND": backend,
                "PATH": "/usr/bin:/bin",
                "PYTHONPATH": os.pathsep.join(sys.path),
            },
        )
        assert proc.returncode == 0, proc.stderr
        name, _, rest = proc.stdout.strip().partition(" ")
        assert name == backend
        outs[backend] = rest
    assert len(set(outs.values())) == 1
