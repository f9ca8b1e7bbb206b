"""Independent set-comprehension implementations of every operator.

Everything here works on plain frozensets (a face is a frozenset of vertex
ids, a hypergraph is a frozenset of faces) with no bitmask tricks, so the
package's table/mask machinery can be checked against definitions that read
like the definitions.  The one numpy oracle, o_push_pairwise, sums over
every pair of masks, the O(4^m) definition of a binary pushforward.
"""

from itertools import chain, combinations
from math import comb

import numpy as np

Face = frozenset
Faces = frozenset


def subfaces(face):
    """All nonempty subsets of a face."""
    items = sorted(face)
    return {
        Face(c)
        for k in range(1, len(items) + 1)
        for c in combinations(items, k)
    }


def facets(face):
    """Codimension-1 subsets; empty for vertices."""
    return {face - {v} for v in face} - {Face()}


def o_closure(ambient, h):
    return Faces(tau for sigma in h for tau in subfaces(sigma))


def o_interior(ambient, h):
    # delta: faces all of whose nonempty subsets are present
    return Faces(sigma for sigma in h if subfaces(sigma) <= h)


def o_complement(ambient, h):
    return ambient - h


def o_ext(ambient, h):
    g = lambda x: o_complement(ambient, x)
    return o_closure(ambient, g(o_interior(ambient, g(h))))


def o_int(ambient, h):
    g = lambda x: o_complement(ambient, x)
    return o_interior(ambient, g(o_closure(ambient, g(h))))


def o_nbd(ambient, h):
    touched = Faces(
        sigma for sigma in ambient if any(sigma & tau for tau in h)
    )
    return o_closure(ambient, touched)


def o_nbd_inv(ambient, h):
    # largest h' whose neighborhood stays inside h; nbd distributes over
    # union, so test single faces
    return Faces(
        tau for tau in ambient if o_nbd(ambient, Faces([tau])) <= h
    )


def o_closed_star(ambient, v):
    return o_closure(ambient, Faces(s for s in ambient if v in s))


def o_external(ambient, y):
    # facets suffice when y is a complex; vertices are external when absent
    return Faces(
        sigma
        for sigma in ambient - y
        if all(f in y for f in facets(sigma))
    )


def o_cliques(ambient, y, d):
    return Faces(
        sigma
        for sigma in ambient
        if len(sigma) == d + 1 and all(t in y for t in subfaces(sigma) - {sigma})
    )


def o_maximal(ambient):
    return Faces(
        s for s in ambient if not any(s < t for t in ambient)
    )


def o_distance(ambient, a, b):
    """Simplex-counting BFS distance; d(a, a) = 1."""
    if a == b:
        return 1
    seen = {a}
    frontier = [a]
    steps = 1
    while frontier:
        steps += 1
        nxt = []
        for cur in frontier:
            for s in ambient:
                if s not in seen and s & cur:
                    if s == b:
                        return steps
                    seen.add(s)
                    nxt.append(s)
        frontier = nxt
    return None


def o_staged_pmf(ambient, per_dim, k):
    """Probability of the complex k under the stagewise clique-filling law.

    Stage d looks at the d-faces of the ambient whose proper subsets all
    made it into the complex so far, and keeps each independently with the
    stage probability.
    """
    if o_closure(ambient, k) != k and k != Faces():
        return 0.0
    prob = 1.0
    built = Faces()
    dims = sorted({len(s) - 1 for s in ambient})
    for d in dims:
        eligible = o_cliques(ambient, built, d)
        layer = Faces(s for s in k if len(s) == d + 1)
        if not layer <= eligible:
            return 0.0
        p = per_dim[d]
        for sigma in eligible:
            prob *= p if sigma in layer else 1.0 - p
        built = built | layer
    return prob


def o_derived_closure(n, p, k):
    """Marginal that a fixed k-simplex appears in the closure of the
    Bernoulli hypergraph on n vertices: complement of every superset
    failing."""
    miss = 1.0
    for i in range(0, n - k):
        miss *= (1.0 - p[k + i]) ** comb(n - k - 1, i)
    return 1.0 - miss


def o_derived_interior(n, p, k):
    """Marginal that a fixed k-simplex survives the interior-complex of the
    Bernoulli hypergraph: every nonempty subset present."""
    keep = 1.0
    for i in range(0, k + 1):
        keep *= p[i] ** comb(k + 1, i + 1)
    return keep


def powerset_faces(ambient):
    """Every sub-hypergraph, as frozensets; exponential, keep |L| small."""
    faces = sorted(ambient, key=lambda s: (len(s), sorted(s)))
    for bits in range(1 << len(faces)):
        yield Faces(
            faces[i] for i in range(len(faces)) if (bits >> i) & 1
        )


def mask_to_faces(amb, mask):
    """Bridge: package mask -> oracle face set."""
    return Faces(
        Face(amb.face_vertices(i))
        for i in range(amb.num_faces)
        if (mask >> i) & 1
    )


def faces_to_mask(amb, faces):
    """Bridge: oracle face set -> package mask."""
    mask = 0
    for f in faces:
        mask |= 1 << amb.face_index(tuple(sorted(f)))
    return mask


def ambient_faces(amb):
    return Faces(
        Face(amb.face_vertices(i)) for i in range(amb.num_faces)
    )


def chains_equal(*args):
    return all(a == args[0] for a in args[1:])


def o_push_pairwise(a, b, op):
    """Vector of the law of op(A, B) for independent A ~ a, B ~ b.

    op maps broadcast arrays of row and column masks to result masks; every
    pair is visited, in row chunks that keep the pair matrix bounded.
    """
    size = a.size
    cols = np.arange(size, dtype=np.uint32)
    vec = np.zeros(size, dtype=np.float64)
    chunk = max(1, (1 << 22) // size)
    for start in range(0, size, chunk):
        rows = np.arange(start, min(start + chunk, size), dtype=np.uint32)
        idx = op(rows[:, None], cols[None, :])
        vec += np.bincount(
            idx.ravel().astype(np.int64),
            weights=np.outer(a[start : start + chunk], b).ravel(),
            minlength=size,
        )
    return vec
