from collections import deque

import pytest

from hyperops.complexes import AmbientComplex, Hypergraph, full_complex
from hyperops.metric import (
    PowerIndices,
    diameter,
    distance,
    eccentricity,
    figure_hypergraphs,
    minimal_powers,
    triangle_vertex_coords,
    triangle_vertex_id,
    triangulated_triangle,
)
from hyperops.words import Power, Prim, eval_word_mask

from oracles import (
    ambient_faces,
    o_distance,
    o_extension_power_by_paths,
    o_interior_power_by_paths,
)


def extension_power_mask(amb, h, k):
    return eval_word_mask(Power(Prim("Ext"), k), amb, [h])


def interior_power_mask(amb, h, k):
    return eval_word_mask(Power(Prim("Int"), k), amb, [h])


def test_distance_counts_simplices(delta1, p3):
    i1 = delta1.face_index((1,))
    i2 = delta1.face_index((2,))
    e = delta1.face_index((1, 2))
    assert distance(delta1, i1, i1) == 1
    assert distance(delta1, i1, e) == 2
    assert distance(delta1, i1, i2) == 3
    a = p3.face_index((1,))
    c = p3.face_index((3,))
    assert distance(p3, a, c) == 4


def test_distance_matches_oracle(fixtures):
    # distance, eccentricity and the maximal-face hop diameter grow the same
    # balls; each is checked against brute force, on a disconnected ambient too
    extra = [triangulated_triangle(2), triangulated_triangle(3), AmbientComplex([(1, 2), (3, 4, 5)])]
    for amb in [*fixtures.values(), *extra]:
        universe = ambient_faces(amb)
        by_index = [frozenset(amb.face_vertices(i)) for i in range(amb.num_faces)]
        for i in range(amb.num_faces):
            want = [o_distance(universe, by_index[i], b) for b in by_index]
            assert [distance(amb, i, j) for j in range(amb.num_faces)] == [
                -1 if d is None else d for d in want
            ]
            assert eccentricity(amb, i) == (-1 if None in want else max(want))


def test_diameter_examples(delta1, delta2, p3, sk1d3):
    assert diameter(delta1) == 3
    assert diameter(delta2) == 3
    assert diameter(p3) == 4
    assert diameter(sk1d3) == 3
    assert diameter(AmbientComplex([(1,)])) == 1
    assert diameter(full_complex(2)) == 3


def test_eccentricity_consistent(p3):
    assert max(eccentricity(p3, i) for i in range(p3.num_faces)) == diameter(p3)
    mid = p3.face_index((2,))
    assert eccentricity(p3, mid) == 3


def geodesic(amb, i, j):
    # BFS over the meets-graph, returning one minimal chain of faces
    prev = {i: None}
    queue = deque([i])
    while queue:
        cur = queue.popleft()
        if cur == j:
            break
        for nxt in range(amb.num_faces):
            if nxt not in prev and amb.meet_masks[cur] >> nxt & 1:
                prev[nxt] = cur
                queue.append(nxt)
    path = [j]
    while prev[path[-1]] is not None:
        path.append(prev[path[-1]])
    return path[::-1]


def test_geodesic_subchain_distances(p3, delta2, sk1d3):
    # along a minimal chain sigma_1..sigma_n the induced distance is the
    # number of simplices in the subchain
    for amb in (p3, delta2, sk1d3):
        for i in range(amb.num_faces):
            for j in range(amb.num_faces):
                chain = geodesic(amb, i, j)
                assert len(chain) == distance(amb, i, j)
                for a in range(len(chain)):
                    for b in range(a, len(chain)):
                        assert distance(amb, chain[a], chain[b]) == b - a + 1


# ----- saturation powers ---------------------------------------------------------


def test_power_masks_match_path_characterizations(fixtures):
    for amb in fixtures.values():
        for h in range(1 << amb.num_faces):
            for k in (1, 2, 3):
                assert extension_power_mask(amb, h, k) == o_extension_power_by_paths(
                    amb, h, k
                )
                assert interior_power_mask(amb, h, k) == o_interior_power_by_paths(
                    amb, h, k
                )


def test_minimal_powers_degenerate(delta1):
    assert minimal_powers(Hypergraph(delta1, 0)) == PowerIndices(0, 0, True)
    assert minimal_powers(Hypergraph(delta1, delta1.full_mask)) == PowerIndices(
        0, 0, True
    )


def test_minimal_powers_definition(fixtures):
    from hyperops.operators import complement_mask

    for amb in fixtures.values():
        for m in range(1, amb.full_mask):
            p = minimal_powers(Hypergraph(amb, m))
            assert not p.degenerate
            assert interior_power_mask(amb, m, p.t) == 0
            if p.t > 0:
                assert interior_power_mask(amb, m, p.t - 1) != 0
            comp = complement_mask(amb, m)
            assert extension_power_mask(amb, comp, p.r) == amb.full_mask
            if p.r > 0:
                assert extension_power_mask(amb, comp, p.r - 1) != amb.full_mask


def test_t_r_within_one_exhaustive(fixtures):
    for amb in fixtures.values():
        for m in range(1, amb.full_mask):
            p = minimal_powers(Hypergraph(amb, m))
            assert p.r - 1 <= p.t <= p.r + 1, (amb, m, p)


# ----- triangulated triangle -----------------------------------------------------


def test_triangle_vertex_ids():
    assert triangle_vertex_id(2, 0, 0) == 0
    assert triangle_vertex_id(2, 1, 1) == 4
    assert triangle_vertex_coords(2, 4) == (1, 1)
    with pytest.raises(ValueError):
        triangle_vertex_id(2, 2, 1)
    with pytest.raises(ValueError):
        triangle_vertex_coords(2, 5)  # (1, 2) lies outside side 2


def test_triangulated_triangle_counts():
    for m, nv, ne, nt in [(1, 3, 3, 1), (2, 6, 9, 4), (6, 28, 63, 36)]:
        amb = triangulated_triangle(m)
        assert amb.num_vertices == nv
        assert amb.faces_by_dim(0).bit_count() == nv
        assert amb.faces_by_dim(1).bit_count() == ne
        assert amb.faces_by_dim(2).bit_count() == nt
        assert amb.dim == 2
    with pytest.raises(ValueError):
        triangulated_triangle(0)


def test_triangulated_triangle_side_one_is_simplex(delta2):
    amb = triangulated_triangle(1)
    assert amb.num_faces == delta2.num_faces
    assert sorted(amb.dims) == sorted(delta2.dims)


def test_figure_hypergraphs_shapes():
    amb, h1, h2, h3 = figure_hypergraphs()
    assert amb.num_faces == 127
    assert h1.is_complex
    assert h2.is_complex
    assert not h3.is_complex
    # side-2 subtriangle: 6 vertices, 9 edges, 4 cells
    assert h1.edge_count == 19
    # side-3 subtriangle: 10 vertices, 18 edges, 9 cells
    assert h2.edge_count == 37
    # h3 strips the 9 perimeter vertices and 9 perimeter edges
    assert h3.edge_count == 37 - 18
    assert h3.mask & ~h2.mask == 0


def test_figure_powers_match_reference():
    _, h1, h2, h3 = figure_hypergraphs()
    assert (minimal_powers(h1).t, minimal_powers(h1).r) == (1, 2)
    assert (minimal_powers(h2).t, minimal_powers(h2).r) == (2, 2)
    assert (minimal_powers(h3).t, minimal_powers(h3).r) == (2, 1)
