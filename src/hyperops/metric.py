"""Paths, distance and diameter on a complex, and the minimal power indices.

A path is a sequence of faces in which consecutive faces share a vertex; its
length is the number of faces, so a face is at distance 1 from itself and
adjacent faces are at distance 2.  The diameter is the maximum distance over
face pairs.

Iterating extension saturates an arbitrary sub-hypergraph to the whole
complex; iterating interior erodes it to nothing.  `minimal_powers` reports
the first interior power that is empty (t) and the first extension power of
the complement that is everything (r).
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import AmbientComplex, Hypergraph, iter_bits
from .operators import _meets, complement_mask, extension_mask, interior_mask


def _balls(amb: AmbientComplex, i: int):
    """Balls around face i in the meets-graph.

    Ball k holds the faces at most k hops from i, as a face bitset; the
    balls stop when one stops growing.  Each round adds the faces that
    meet a face the last round added.
    """
    ball = frontier = 1 << i
    while frontier:
        yield ball
        frontier = _meets(amb, frontier) & ~ball
        ball |= frontier


def distance(amb: AmbientComplex, i: int, j: int) -> int:
    """Least number of faces in a path from face i to face j (inf -> -1)."""
    for hops, ball in enumerate(_balls(amb, i)):
        if ball >> j & 1:
            return hops + 1
    return -1


def eccentricity(amb: AmbientComplex, i: int) -> int:
    """Largest distance from face i to any face; -1 if some face is out of reach."""
    for hops, ball in enumerate(_balls(amb, i)):
        pass
    return hops + 1 if ball == amb.full_mask else -1


def diameter(amb: AmbientComplex) -> int:
    """Maximum pairwise distance; -1 if the complex is disconnected.

    Consecutive faces of a path share a vertex, and any two vertices of one
    face are joined by an edge of L.  So two distinct faces i and j are at
    distance 2 + d_G(V_i, V_j), where G is the 1-skeleton, and the diameter
    is 2 + diam(G), reached at two vertex faces; one vertex gives 1.
    diam(G) is found by growing every vertex's ball one hop per round, as
    vertex bitsets, until every ball is all of G.
    """
    n = amb.num_vertices
    if n <= 1:
        return 1
    adj: list[list[int]] = [[] for _ in range(n)]
    for i in iter_bits(amb.faces_by_dim(1)):
        a, b = iter_bits(amb.face_vmasks[i])
        adj[a].append(b)
        adj[b].append(a)
    full = (1 << n) - 1
    ball = [1 << v for v in range(n)]
    radius = 0
    while any(b != full for b in ball):
        grown = []
        for v, near in enumerate(adj):
            b = ball[v]
            for u in near:
                b |= ball[u]
            grown.append(b)
        if grown == ball:
            return -1
        ball = grown
        radius += 1
    return 2 + radius


# ----- iterated extension and interior ----------------------------------------


@dataclass(frozen=True)
class PowerIndices:
    """Minimal saturation exponents of a sub-hypergraph.

    t: least k with Int^k(H) empty.
    r: least k with Ext^k(complement of H) the whole complex.
    degenerate: H was empty or everything, where both indices are 0 by
    convention and the t/r comparison theorems do not apply.
    """

    t: int
    r: int
    degenerate: bool = False


def minimal_powers(h: Hypergraph) -> PowerIndices:
    amb = h.ambient
    if h.mask == 0 or h.mask == amb.full_mask:
        return PowerIndices(0, 0, degenerate=True)
    t = _power_until(amb, interior_mask, h.mask, 0, "interior")
    r = _power_until(amb, extension_mask, complement_mask(amb, h.mask), amb.full_mask, "extension")
    return PowerIndices(t, r)


def _power_until(amb: AmbientComplex, op, mask: int, goal: int, name: str) -> int:
    # least k with op^k(mask) == goal; an op that leaves a mask unchanged
    # before the goal never reaches it
    k = 0
    while mask != goal:
        nxt = op(amb, mask)
        if nxt == mask:
            raise ValueError(f"{name} iteration stalled; is the complex connected?")
        mask = nxt
        k += 1
    return k


# ----- triangulated triangle fixture -------------------------------------------


def triangle_vertex_id(m: int, i: int, j: int) -> int:
    """Vertex id of lattice point (i, j), 0 <= i, j and i + j <= m."""
    if i < 0 or j < 0 or i + j > m:
        raise ValueError(f"({i}, {j}) is outside the triangle of side {m}")
    return i * (m + 1) + j


def triangulated_triangle(m: int) -> AmbientComplex:
    """Equilateral triangle of side m cut into m*m unit triangles.

    Vertices are lattice points (i, j) with i + j <= m, numbered
    i * (m + 1) + j.  Upward cells {(i,j), (i+1,j), (i,j+1)} exist for
    i + j < m, downward cells {(i+1,j), (i,j+1), (i+1,j+1)} for i + j < m - 1.
    """
    if m < 1:
        raise ValueError("side must be at least 1")
    vid = lambda i, j: triangle_vertex_id(m, i, j)
    faces = []
    for i in range(m + 1):
        for j in range(m + 1 - i):
            if i + j <= m - 1:
                faces.append((vid(i, j), vid(i + 1, j), vid(i, j + 1)))
            if i + j <= m - 2:
                faces.append((vid(i + 1, j), vid(i, j + 1), vid(i + 1, j + 1)))
    return AmbientComplex(faces)


def _subtriangle_mask(amb: AmbientComplex, m: int, i0: int, j0: int, side: int) -> int:
    # Closed subcomplex on lattice points of the upward subtriangle with
    # corner (i0, j0) and the given side.
    inside = set()
    for di in range(side + 1):
        for dj in range(side + 1 - di):
            inside.add(triangle_vertex_id(m, i0 + di, j0 + dj))
    out = 0
    for idx in range(amb.num_faces):
        if set(amb.face_vertices(idx)) <= inside:
            out |= 1 << idx
    return out


def figure_hypergraphs() -> tuple[AmbientComplex, Hypergraph, Hypergraph, Hypergraph]:
    """The side-6 triangle with its three reference sub-hypergraphs.

    h1: closed side-2 subtriangle at corner (1, 2).
    h2: closed side-3 subtriangle at corner (1, 1).
    h3: h2 less the closure of its perimeter edges (its own perimeter
        vertices and edges); keeps all nine cells, the interior edges and
        the single interior vertex, and is not downward closed.
    """
    m = 6
    amb = triangulated_triangle(m)
    h1 = _subtriangle_mask(amb, m, 1, 2, 2)
    h2 = _subtriangle_mask(amb, m, 1, 1, 3)
    # h3 drops the closure of h2's perimeter edges, the edges of h2 that
    # lie in exactly one of its triangles
    cells = h2 & amb.faces_by_dim(2)
    perimeter = 0
    for i in iter_bits(h2 & amb.faces_by_dim(1)):
        if (amb.sup_masks[i] & cells).bit_count() == 1:
            perimeter |= amb.sub_masks[i]
    h3 = h2 & ~perimeter
    return amb, Hypergraph(amb, h1), Hypergraph(amb, h2), Hypergraph(amb, h3)
