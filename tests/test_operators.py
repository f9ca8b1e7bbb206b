import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperops.complexes import AmbientComplex, Hypergraph, full_complex, iter_bits
from hyperops.metric import figure_hypergraphs, triangulated_triangle
from hyperops.operators import (
    PRIMITIVE_MASK_OPS,
    clique_faces_mask,
    closed_star,
    closure,
    closure_mask,
    complement,
    complement_mask,
    extension,
    extension_mask,
    external_faces,
    external_faces_mask,
    interior,
    interior_complex,
    interior_complex_mask,
    interior_mask,
    intersection,
    neighborhood,
    neighborhood_inverse,
    neighborhood_mask,
    neighborhood_inverse_mask,
    primitive_table,
    union,
)

from oracles import (
    ambient_faces,
    faces_to_mask,
    mask_to_faces,
    o_cliques,
    o_closed_star,
    o_closure,
    o_complement,
    o_ext,
    o_external,
    o_int,
    o_interior,
    o_nbd,
    o_nbd_inv,
)


def hg(amb, faces):
    return Hypergraph.from_faces(amb, faces)


def face_set(h):
    return {tuple(f) for f in h.faces()}


# ----- frozen input/output pairs ---------------------------------------------


def test_closure_examples(delta1, delta2):
    assert face_set(closure(hg(delta1, [(1, 2)]))) == {(1,), (2,), (1, 2)}
    assert closure(Hypergraph(delta1, 0)).mask == 0
    assert closure(hg(delta2, [(1, 2, 3)])).mask == delta2.full_mask


def test_interior_complex_examples(delta1, delta2):
    assert interior_complex(hg(delta1, [(1, 2)])).mask == 0
    h = hg(delta1, [(1,), (2,), (1, 2)])
    assert interior_complex(h).mask == h.mask
    h2 = hg(delta2, [(1,), (2,), (3,), (1, 2), (2, 3), (1, 2, 3)])
    assert face_set(interior_complex(h2)) == {(1,), (2,), (3,), (1, 2), (2, 3)}


def test_complement_examples(delta1):
    assert complement(Hypergraph(delta1, 0)).mask == delta1.full_mask
    assert complement(Hypergraph(delta1, delta1.full_mask)).mask == 0
    assert face_set(complement(hg(delta1, [(1,), (1, 2)]))) == {(2,)}


def test_extension_examples(p3):
    assert extension(hg(p3, [(2,)])).mask == p3.full_mask
    assert extension(Hypergraph(p3, 0)).mask == 0
    assert face_set(extension(hg(p3, [(1,)]))) == {(1,), (2,), (1, 2)}


def test_interior_examples(p3, delta2):
    assert interior(Hypergraph(p3, p3.full_mask)).mask == p3.full_mask
    assert face_set(interior(hg(p3, [(1,), (2,), (1, 2)]))) == {(1,)}
    h = hg(delta2, [(1,), (2,), (3,), (1, 2), (2, 3)])
    assert interior(h).mask == 0


def test_union_intersection_examples(delta1):
    h = hg(delta1, [(1,), (1, 2)])
    assert union(h, Hypergraph(delta1, 0)).mask == h.mask
    assert intersection(h, Hypergraph(delta1, delta1.full_mask)).mask == h.mask
    got = union(hg(delta1, [(1,)]), hg(delta1, [(2,)]))
    assert face_set(got) == {(1,), (2,)}


def test_external_faces_examples(delta1):
    assert face_set(external_faces(Hypergraph(delta1, 0))) == {(1,), (2,)}
    assert external_faces(Hypergraph(delta1, delta1.full_mask)).mask == 0
    assert face_set(external_faces(hg(delta1, [(1,), (2,)]))) == {(1, 2)}


def test_external_faces_needs_complex(delta1):
    with pytest.raises(ValueError):
        external_faces_mask(delta1, delta1.mask_from_faces([(1, 2)]))


def test_clique_examples(delta2):
    assert clique_faces_mask(delta2, 0, 0) == delta2.faces_by_dim(0)
    boundary = delta2.skeleton_mask(1)
    assert clique_faces_mask(delta2, boundary, 2) == delta2.faces_by_dim(2)
    two_verts = delta2.mask_from_faces([(1,), (2,)])
    assert clique_faces_mask(delta2, two_verts, 1) == delta2.mask_from_faces([(1, 2)])


def test_closed_star(delta2):
    st1 = closed_star(delta2, 1)
    assert st1.mask == delta2.full_mask
    faces = ambient_faces(delta2)
    for v in (1, 2, 3):
        want = faces_to_mask(delta2, o_closed_star(faces, v))
        assert closed_star(delta2, v).mask == want


# ----- relations (i)-(vii), exhaustive on the fixtures -------------------------


def test_relations_exhaustive(fixtures):
    for amb in fixtures.values():
        g = lambda m: complement_mask(amb, m)
        D = lambda m: closure_mask(amb, m)
        d = lambda m: interior_complex_mask(amb, m)
        for m in range(1 << amb.num_faces):
            assert g(g(m)) == m
            assert D(d(m)) == d(m)
            assert d(D(m)) == D(m)
            assert D(D(m)) == D(m)
            assert d(d(m)) == d(m)
            a = D(g(D(g(m))))
            assert D(g(D(g(a)))) == a
            b = d(g(d(g(m))))
            assert d(g(d(g(b)))) == b


def test_distribution_laws_exhaustive(delta2):
    amb = delta2
    size = 1 << amb.num_faces
    g = lambda m: complement_mask(amb, m)
    D = lambda m: closure_mask(amb, m)
    d = lambda m: interior_complex_mask(amb, m)
    for a in range(size):
        for b in range(a, size):
            assert g(a | b) == g(a) & g(b)
            assert D(a | b) == D(a) | D(b)
            assert d(a & b) == d(a) & d(b)
            # remark containments, one-sided
            assert D(a & b) & ~(D(a) & D(b)) == 0
            assert (d(a) | d(b)) & ~d(a | b) == 0


def test_alpha_beta_order_two_on_complexes(fixtures):
    # alpha^4 = alpha^2 and beta^4 = beta^2 restricted to complexes
    for amb in fixtures.values():
        g = lambda m: complement_mask(amb, m)
        D = lambda m: closure_mask(amb, m)
        d = lambda m: interior_complex_mask(amb, m)
        alpha = lambda m: D(g(m))
        beta = lambda m: d(g(m))
        for m in range(1 << amb.num_faces):
            if not amb.is_complex_mask(m):
                continue
            a2 = alpha(alpha(m))
            assert alpha(alpha(a2)) == a2
            b2 = beta(beta(m))
            assert beta(beta(b2)) == b2


def test_vi_vii_characterizations(fixtures):
    # DgDg H = closure(maximal faces in H); dgdg H = full subcomplex on the
    # vertices that are 0-hyperedges of H
    for amb in fixtures.values():
        g = lambda m: complement_mask(amb, m)
        D = lambda m: closure_mask(amb, m)
        d = lambda m: interior_complex_mask(amb, m)
        vert_mask = amb.faces_by_dim(0)
        for m in range(1 << amb.num_faces):
            assert D(g(D(g(m)))) == D(amb.maximal_mask & m)
            span_vm = 0
            for i in iter_bits(m & vert_mask):
                span_vm |= amb.face_vmasks[i]
            spanned = 0
            for i in range(amb.num_faces):
                if amb.face_vmasks[i] & ~span_vm == 0:
                    spanned |= 1 << i
            assert d(g(d(g(m)))) == spanned


def test_monotone_idempotent_sandwich(fixtures):
    for amb in fixtures.values():
        for m in range(1 << amb.num_faces):
            cm = closure_mask(amb, m)
            dm = interior_complex_mask(amb, m)
            assert dm & ~m == 0 and m & ~cm == 0
            assert closure_mask(amb, cm) == cm
            assert interior_complex_mask(amb, dm) == dm
            sub = m & (m - 1)  # drop one face: monotone check
            assert closure_mask(amb, sub) & ~cm == 0
            assert interior_complex_mask(amb, sub) & ~dm == 0


# ----- oracle equivalence ------------------------------------------------------


MASK_OPS = {
    "closure": (closure_mask, o_closure),
    "interior_complex": (interior_complex_mask, o_interior),
    "complement": (complement_mask, o_complement),
    "extension": (extension_mask, o_ext),
    "interior": (interior_mask, o_int),
    "neighborhood": (neighborhood_mask, o_nbd),
    "neighborhood_inverse": (neighborhood_inverse_mask, o_nbd_inv),
}


@pytest.mark.parametrize("name", sorted(MASK_OPS))
def test_ops_match_oracle_exhaustive(name, fixtures):
    op, oracle = MASK_OPS[name]
    for key in ("delta1", "delta2", "p3"):
        amb = fixtures[key]
        faces = ambient_faces(amb)
        for m in range(1 << amb.num_faces):
            want = faces_to_mask(amb, oracle(faces, mask_to_faces(amb, m)))
            assert op(amb, m) == want, f"{name} disagrees at mask {m} on {key}"


def test_external_and_cliques_match_oracle(fixtures):
    for key in ("delta2", "p3"):
        amb = fixtures[key]
        faces = ambient_faces(amb)
        for m in range(1 << amb.num_faces):
            if not amb.is_complex_mask(m):
                continue
            y = mask_to_faces(amb, m)
            assert external_faces_mask(amb, m) == faces_to_mask(amb, o_external(faces, y))
            for dim in range(amb.dim + 1):
                assert clique_faces_mask(amb, m, dim) == faces_to_mask(
                    amb, o_cliques(faces, y, dim)
                )


def test_external_and_cliques_match_oracle_on_figure():
    # random complexes (closures of random masks) and random masks on the
    # 127-face figure; the clique rule holds for any mask
    amb = figure_hypergraphs()[0]
    faces = ambient_faces(amb)
    gen = random.Random(127)
    for density in (0.02, 0.1, 0.5, 0.9):
        for _ in range(5):
            m = sum(1 << i for i in range(amb.num_faces) if gen.random() < density)
            for y_mask in (m, closure_mask(amb, m)):
                y = mask_to_faces(amb, y_mask)
                for dim in range(amb.dim + 1):
                    assert clique_faces_mask(amb, y_mask, dim) == faces_to_mask(
                        amb, o_cliques(faces, y, dim))
            cx = closure_mask(amb, m)
            assert external_faces_mask(amb, cx) == faces_to_mask(
                amb, o_external(faces, mask_to_faces(amb, cx)))


@st.composite
def ambient_and_mask(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    gens = draw(
        st.lists(
            st.sets(st.integers(min_value=1, max_value=n), min_size=1, max_size=4),
            min_size=1,
            max_size=3,
        )
    )
    amb = AmbientComplex(gens)
    mask = draw(st.integers(min_value=0, max_value=amb.full_mask))
    return amb, mask


@given(ambient_and_mask())
@settings(max_examples=80, deadline=None)
def test_ops_match_oracle_random(case):
    amb, m = case
    faces = ambient_faces(amb)
    h = mask_to_faces(amb, m)
    for name, (op, oracle) in MASK_OPS.items():
        assert op(amb, m) == faces_to_mask(amb, oracle(faces, h)), name


# Past the table limit the mask ops are checked only against the oracles:
# the 127-face figure at mask 0, the full mask and 20 random masks, the
# 1261-face side-20 triangle at 2 random masks (o_nbd_inv takes about a
# second per mask there), and every mask of a disconnected ambient.
@pytest.fixture(scope="module")
def large_cases():
    rng = random.Random(2026)
    fig = figure_hypergraphs()[0]
    tri = triangulated_triangle(20)
    apart = AmbientComplex([(1, 2, 3), (4, 5), (6,)])
    return [
        (fig, [0, fig.full_mask] + [rng.getrandbits(fig.num_faces) for _ in range(20)]),
        (tri, [rng.getrandbits(tri.num_faces) for _ in range(2)]),
        (apart, range(1 << apart.num_faces)),
    ]


@pytest.mark.parametrize(
    "name", ["closure", "interior_complex", "extension", "interior", "neighborhood",
             "neighborhood_inverse"]
)
def test_ops_match_oracle_beyond_tables(name, large_cases):
    op, oracle = MASK_OPS[name]
    for amb, masks in large_cases:
        faces = ambient_faces(amb)
        for m in masks:
            want = faces_to_mask(amb, oracle(faces, mask_to_faces(amb, m)))
            assert op(amb, m) == want, f"{name} disagrees at mask {m:#x} on {amb!r}"


@given(ambient_and_mask())
@settings(max_examples=60, deadline=None)
def test_extension_interior_compose_from_generators(case):
    amb, m = case
    g = lambda x: complement_mask(amb, x)
    assert extension_mask(amb, m) == closure_mask(amb, g(interior_complex_mask(amb, g(m))))
    assert interior_mask(amb, m) == interior_complex_mask(amb, g(closure_mask(amb, g(m))))


def test_nbd_inverse_vs_interior(fixtures):
    # contained always; equal on complexes; strict somewhere off them
    strict_seen = False
    for amb in fixtures.values():
        for m in range(1 << amb.num_faces):
            ni = neighborhood_inverse_mask(amb, m)
            im = interior_mask(amb, m)
            assert ni & ~im == 0
            if amb.is_complex_mask(m):
                assert ni == im
            elif ni != im:
                strict_seen = True
    assert strict_seen


def test_nbd_inverse_identity_witness(delta1):
    # H = {{1},{12}}: Int keeps the vertex, the neighborhood test drops it
    m = delta1.mask_from_faces([(1,), (1, 2)])
    assert interior_mask(delta1, m) == delta1.mask_from_faces([(1,)])
    assert neighborhood_inverse_mask(delta1, m) == 0


# ----- full tables against the single-mask ops ---------------------------------


@pytest.mark.parametrize(
    "name", ["id", "Delta", "delta", "gamma", "Ext", "Int", "Nbd", "NbdInv"]
)
def test_tables_match_mask_ops(name, fixtures):
    six_cycle = AmbientComplex([(v, v % 6 + 1) for v in range(1, 7)])  # 12 faces
    for amb in list(fixtures.values()) + [six_cycle]:
        table = primitive_table(amb, name)
        op = PRIMITIVE_MASK_OPS[name]
        assert table.shape == (1 << amb.num_faces,)
        for m in range(1 << amb.num_faces):
            assert int(table[m]) == op(amb, m)


def test_primitive_table_unknown_name(delta1):
    with pytest.raises(ValueError):
        primitive_table(delta1, "sigma")


def test_table_limit_enforced():
    big = full_complex(5)  # 31 faces
    assert big.num_faces == 31
    with pytest.raises(ValueError):
        primitive_table(big, "Delta")


def test_wrappers_return_complexes(delta2):
    h = hg(delta2, [(1, 2), (3,)])
    for fn in (closure, interior_complex, extension, interior, neighborhood,
               neighborhood_inverse):
        out = fn(h)
        assert out.is_complex
    assert union(h, h).mask == h.mask
    assert intersection(h, complement(h)).mask == 0
