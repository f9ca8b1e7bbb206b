"""The exact layer's predicates and law checks against their former loops
(tests/oracles.py).

Every comparison is exact: the same subcomplexes in the same order, the
same violation count per distribution law, and the same mask predicates.
"""

import random

import numpy as np
import pytest

from hyperops.complexes import AmbientComplex, standard_fixtures
from hyperops.kernels import _atoms_hold, pair_laws
from hyperops.metric import triangulated_triangle
from hyperops.models import enumerate_subcomplexes
from hyperops.operators import closure_table, complement_table, complex_indicator, interior_complex_table
from hyperops.pushforward import random_exact, vertex_support_mass, vertex_supported

import oracles


def _random_complex(seed, max_faces):
    """A random ambient of at most max_faces faces, fixed by the seed."""
    rnd = random.Random(seed)
    while True:
        verts = rnd.randint(1, 7)
        amb = AmbientComplex(
            rnd.sample(range(verts), rnd.randint(1, min(3, verts)))
            for _ in range(rnd.randint(1, 6))
        )
        if amb.num_faces <= max_faces:
            return amb


def _ambients():
    out = dict(standard_fixtures())
    out.update({f"tri{m}": triangulated_triangle(m) for m in (1, 2)})
    out.update({f"rand{s}": _random_complex(s, 11) for s in range(24)})
    out["vertex"] = AmbientComplex([(7,)])
    out["edge_and_triangle"] = AmbientComplex([(1, 2), (3, 4, 5)])
    return out


AMBIENTS = _ambients()
# the pair sweep is O(4^m): the 19-face triangle stays out of it
SWEPT = [name for name, amb in AMBIENTS.items() if amb.num_faces <= 11]


def _tables(amb):
    return closure_table(amb), interior_complex_table(amb), complement_table(amb)


@pytest.mark.parametrize("name", list(AMBIENTS))
def test_subcomplexes_match_staged_enumeration(name):
    amb = AMBIENTS[name]
    assert list(enumerate_subcomplexes(amb)) == oracles.o_enumerate_subcomplexes(amb)


@pytest.mark.parametrize("name", SWEPT)
def test_pair_laws_match_sweep(name):
    ct, dt, gt = _tables(AMBIENTS[name])
    bad, pairs = pair_laws(ct, dt, gt)
    want_bad, want_pairs = oracles.o_pair_laws(ct, dt, gt)
    assert bad.dtype == np.int64 and bad.shape == (3,)
    assert (bad.tolist(), pairs) == (want_bad.tolist(), want_pairs)
    assert not bad.any()


@pytest.mark.parametrize("name", ["delta1", "delta2", "p3", "sk1d3", "rand0", "rand6", "rand9"])
def test_pair_laws_match_sweep_after_tampering(name):
    # one entry of one table flipped in one face bit; entry 0 and the full
    # mask are the atoms' base cases (the empty union and, read backwards,
    # the empty intersection)
    amb = AMBIENTS[name]
    rnd = random.Random(name)
    size = 1 << amb.num_faces
    caught = 0
    for which in range(3):
        for entry in (0, size - 1, rnd.randrange(size)):
            tables = list(_tables(amb))
            tables[which] = tables[which].copy()
            tables[which][entry] ^= np.uint32(1 << rnd.randrange(amb.num_faces))
            bad, pairs = pair_laws(*tables)
            want_bad, want_pairs = oracles.o_pair_laws(*tables)
            assert (bad.tolist(), pairs) == (want_bad.tolist(), want_pairs)
            # the atoms alone decide whether a law holds; the sweep only counts
            ct, dt, gt = tables
            held = [_atoms_hold(gt, np.bitwise_and), _atoms_hold(ct, np.bitwise_or),
                    _atoms_hold(dt[::-1], np.bitwise_and)]
            assert held == [n == 0 for n in want_bad.tolist()]
            caught += bool(bad.any())
    assert caught > 0


@pytest.mark.parametrize("name", SWEPT)
def test_mask_predicates_match_loops(name):
    amb = AMBIENTS[name]
    masks = range(1 << amb.num_faces)
    want = [oracles.o_vertex_faces_mask(amb, m) & ~m == 0 for m in masks]
    assert vertex_supported(amb).tolist() == want
    dist = random_exact(amb, np.random.default_rng(len(name)))
    mass = sum(dist.vec[m] for m in masks if want[m])
    assert abs(vertex_support_mass(dist) - mass) <= 1e-12
    vec = dist.vec.copy()
    complexes = set(oracles.o_enumerate_subcomplexes(amb))
    vec[[m for m in masks if m not in complexes]] = 0.0
    dist.vec = vec
    assert not dist.vec[~complex_indicator(amb)].any()
    for m in masks:
        if m not in complexes:
            vec[m] = 1e-3
            assert dist.vec[~complex_indicator(amb)].any()
            break
