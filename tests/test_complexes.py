import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperops.complexes import (
    AmbientComplex,
    AmbientError,
    Complex,
    Hypergraph,
    full_complex,
    iter_bits,
    path_complex,
    same_ambient,
    simplex,
    skeleton_complex,
)
from hyperops.models import ProbabilityAssignment
from hyperops.pushforward import uniform_distribution

from oracles import ambient_faces, o_closure, o_maximal, subfaces


def test_construction_closes_downward():
    amb = AmbientComplex([(1, 2, 3)])
    faces = {amb.face_vertices(i) for i in range(amb.num_faces)}
    assert faces == {(1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)}
    assert amb.num_faces == 7
    assert amb.dim == 2


def test_canonical_order_is_dim_then_lex():
    amb = AmbientComplex([(1, 2), (2, 3)])
    listed = [amb.face_vertices(i) for i in range(amb.num_faces)]
    assert listed == [(1,), (2,), (3,), (1, 2), (2, 3)]
    assert listed == sorted(listed, key=lambda f: (len(f), f))


def test_vertex_order_and_duplicates_ignored():
    a = AmbientComplex([(3, 1, 2)])
    b = AmbientComplex([(1, 2, 3), (2, 3)])
    assert a.face_vmasks == b.face_vmasks
    assert a.vertex_labels == b.vertex_labels


def test_empty_face_rejected():
    with pytest.raises(AmbientError):
        AmbientComplex([()])
    with pytest.raises(AmbientError):
        AmbientComplex([(1,), (-2,)])


def test_face_index_round_trip(delta2):
    for i in range(delta2.num_faces):
        assert delta2.face_index(delta2.face_vertices(i)) == i
    with pytest.raises(AmbientError):
        delta2.face_index((1, 9))
    with pytest.raises(AmbientError):
        AmbientComplex([(1, 2), (2, 3)]).face_index((1, 3))


def test_relation_masks_match_subset_arithmetic(p3):
    fv = [set(p3.face_vertices(i)) for i in range(p3.num_faces)]
    for i in range(p3.num_faces):
        subs = {j for j in range(p3.num_faces) if fv[j] <= fv[i]}
        sups = {j for j in range(p3.num_faces) if fv[i] <= fv[j]}
        meets = {j for j in range(p3.num_faces) if fv[i] & fv[j]}
        assert set(iter_bits(p3.sub_masks[i])) == subs
        assert set(iter_bits(p3.sup_masks[i])) == sups
        assert set(iter_bits(p3.meet_masks[i])) == meets


def test_maximal_mask_matches_oracle(fixtures):
    for amb in fixtures.values():
        got = {amb.face_vertices(i) for i in iter_bits(amb.maximal_mask)}
        want = {tuple(sorted(f)) for f in o_maximal(ambient_faces(amb))}
        assert got == want


def test_skeleton_and_bydim(delta2):
    assert delta2.skeleton_mask(0) == delta2.faces_by_dim(0)
    assert delta2.skeleton_mask(1) == delta2.faces_by_dim(0) | delta2.faces_by_dim(1)
    assert delta2.skeleton_mask(2) == delta2.full_mask
    assert delta2.faces_by_dim(5) == 0


def test_fixture_shapes(fixtures):
    shapes = {
        name: (amb.num_vertices, amb.num_faces, amb.dim)
        for name, amb in fixtures.items()
    }
    assert shapes == {
        "delta1": (2, 3, 1),
        "delta2": (3, 7, 2),
        "p3": (3, 5, 1),
        "sk1d3": (4, 10, 1),
    }


def test_path_complex_small():
    assert path_complex(1).num_faces == 1
    amb = path_complex(4)
    assert amb.num_faces == 4 + 3
    assert amb.dim == 1


def test_skeleton_complex_reindexes():
    sk = skeleton_complex(full_complex(4), 1)
    assert sk.num_faces == 4 + 6
    assert sk.dim == 1
    assert sk.full_mask == (1 << 10) - 1


def test_hypergraph_round_trip(delta2):
    h = Hypergraph.from_faces(delta2, [(1, 2), (3,)])
    assert h.faces() == [(3,), (1, 2)]
    assert h.edge_count == 2
    assert h.vertex_set() == (1, 2, 3)
    assert (1, 2) in h and (1,) not in h and (1, 9) not in h
    assert not h.is_complex


def test_mask_range_checked(delta1):
    with pytest.raises(AmbientError):
        Hypergraph(delta1, 1 << 3)


def test_complex_validates_closure(delta2):
    Complex(delta2, delta2.skeleton_mask(1))
    with pytest.raises(AmbientError):
        Complex(delta2, delta2.mask_from_faces([(1, 2)]))


def test_same_ambient_guard(delta1, delta2):
    with pytest.raises(AmbientError):
        same_ambient(Hypergraph(delta1, 0), Hypergraph(delta2, 0))
    amb = same_ambient(Hypergraph(delta1, 1), Hypergraph(delta1, 2))
    assert amb is delta1
    with pytest.raises(AmbientError):
        same_ambient(uniform_distribution(delta1), uniform_distribution(delta2))
    assert same_ambient(uniform_distribution(delta2), Hypergraph(delta2, 1)) is delta2


@pytest.mark.parametrize("make", [
    lambda amb: simplex([2, 1, 1]),
    lambda amb: amb.face_index((1, 1, 2)),
    lambda amb: AmbientComplex([(1, 1, 2)]),
    lambda amb: ProbabilityAssignment.from_entries([((2, 2, 3), 0.4)]),
], ids=["simplex", "face_index", "AmbientComplex", "from_entries"])
def test_repeated_vertex_raises(delta2, make):
    # a face lists each vertex once: (1, 1, 2) is not read as (1, 2)
    with pytest.raises(AmbientError, match="repeated vertex"):
        make(delta2)


@st.composite
def small_ambients(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    k = draw(st.integers(min_value=1, max_value=4))
    gens = draw(
        st.lists(
            st.sets(st.integers(min_value=1, max_value=n), min_size=1, max_size=3),
            min_size=1,
            max_size=k,
        )
    )
    return AmbientComplex(gens)


@given(small_ambients())
@settings(max_examples=60, deadline=None)
def test_ambient_is_downward_closed(amb):
    faces = ambient_faces(amb)
    assert o_closure(faces, faces) == faces
    # every face's subsets appear and carry smaller indices
    for i in range(amb.num_faces):
        for sub in subfaces(frozenset(amb.face_vertices(i))):
            j = amb.face_index(tuple(sub))
            assert j <= i or len(sub) == len(amb.face_vertices(i))


@given(small_ambients(), st.integers(min_value=0))
@settings(max_examples=60, deadline=None)
def test_mask_face_round_trip(amb, bits):
    mask = bits % (amb.full_mask + 1)
    assert amb.mask_from_faces(amb.faces_of_mask(mask)) == mask


@given(small_ambients(), st.integers(min_value=0))
@settings(max_examples=60, deadline=None)
def test_is_complex_mask_matches_oracle(amb, bits):
    mask = bits % (amb.full_mask + 1)
    faces = {frozenset(f) for f in amb.faces_of_mask(mask)}
    closed = all(sub in faces for f in faces for sub in subfaces(f))
    assert amb.is_complex_mask(mask) == closed
