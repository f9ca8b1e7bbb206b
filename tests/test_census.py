"""Every suite on every small ambient: the simplicial complexes on at most
four vertices, one per isomorphism class.

An ambient on the vertices 1..n is a downward-closed set of their subsets
holding every vertex, so the classes come from enumerating the downsets of
the subsets of size at least 2 and keeping the least relabelling of each.
The oracle is the enumeration itself; nothing is sampled.
"""

import itertools
from collections import Counter

import pytest

from hyperops.complexes import AmbientComplex
from hyperops.metric import diameter
from hyperops.models import rng_from
from hyperops.operators import TableSet
from hyperops.verify import SUITES


def complex_classes(n):
    """One face list per isomorphism class of complexes on exactly the
    vertices 1..n."""
    verts = range(1, n + 1)
    upper = [f for k in range(2, n + 1) for f in itertools.combinations(verts, k)]
    seen = set()
    for bits in range(1 << len(upper)):
        faces = {f for i, f in enumerate(upper) if bits >> i & 1}
        if any(sub not in faces
               for f in faces if len(f) > 2
               for sub in itertools.combinations(f, len(f) - 1)):
            continue
        canon = min(tuple(sorted(tuple(sorted(perm[v - 1] for v in f)) for f in faces))
                    for perm in itertools.permutations(verts))
        if canon not in seen:
            seen.add(canon)
            yield [(v,) for v in verts] + list(canon)


CLASSES = [(n, AmbientComplex(faces)) for n in range(1, 5) for faces in complex_classes(n)]
CONNECTED = [(n, amb) for n, amb in CLASSES if diameter(amb) >= 0]
DISCONNECTED = [(n, amb) for n, amb in CLASSES if diameter(amb) < 0]

# The two printed claims that are false (acceptance criteria 2 and 4): they
# fail on every connected class with an edge, and nothing else fails.
PRINTED_CLAIMS = {
    "theorem1": ["extension of interior inside the simplicial part (all masks)"],
    "theorem2": ["closure at p=0.5", "interior at p=0.5",
                 "closure at asymmetric", "interior at asymmetric"],
}


def test_class_counts():
    assert Counter(n for n, _ in CLASSES) == {1: 1, 2: 2, 3: 5, 4: 20}
    assert Counter(n for n, _ in CONNECTED) == {1: 1, 2: 1, 3: 3, 4: 14}


def facets(amb):
    # test id: the maximal faces, e.g. "12-13-4"
    return "-".join("".join(map(str, f)) for f in amb.faces_of_mask(amb.maximal_mask))


@pytest.mark.parametrize("n, amb", CONNECTED, ids=[facets(amb) for _, amb in CONNECTED])
def test_suites_fail_only_the_printed_claims(n, amb):
    tables = TableSet(amb)
    failing = {}
    for name in sorted(SUITES):
        res = SUITES[name](tables, rng_from(2026))
        assert res.ok == (not res.failures)
        if res.failures:
            failing[name] = [f.split(":")[0] for f in res.failures]
    assert failing == ({} if n == 1 else PRINTED_CLAIMS)


@pytest.mark.parametrize("n, amb", DISCONNECTED, ids=[facets(amb) for _, amb in DISCONNECTED])
@pytest.mark.parametrize("suite", ["powers", "theorem1"])
def test_disconnected_classes_have_no_diameter(n, amb, suite):
    with pytest.raises(ValueError, match="finite diameter"):
        SUITES[suite](TableSet(amb), rng_from(2026))
