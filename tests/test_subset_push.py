"""Subset-convolution pushes, the product and staged laws and marginals
against brute force.

Binary pushes are checked against o_push_pairwise, which sums over every
pair of masks, the product law against o_hypergraph_pmf and the staged law
against a loop over all masks, both bit for bit, and marginals against
per-face sums.  The doubling tables are checked against the single-mask
operators in test_operators.py.
"""

import math
import tracemalloc

import numpy as np
import pytest

from hyperops import pushforward
from hyperops.cli import _print_distribution
from hyperops.complexes import AmbientComplex
from hyperops.expr import parse_expression
from hyperops.io import format_mask
from hyperops.metric import triangulated_triangle
from hyperops.models import pmf_complex
from hyperops.operators import TableSet
from hyperops.pushforward import (
    Distribution,
    complex_product,
    hypergraph_product,
    marginals,
    push_intersection,
    push_table,
    push_union,
    push_word,
    random_exact,
)
from hyperops.words import PRIMITIVES, Compose, Join, Power, Prim, eval_word_tables

from oracles import o_hypergraph_pmf, o_push_pairwise

TOL = 1e-12

BINARY_WORDS = ("Delta + Ext", "Int /\\ Delta", "gamma.(Ext + delta)", "id + id")


def _operand_pairs(amb, rng):
    """Two independent product laws, then two independent dense laws."""
    m = amb.num_faces
    yield hypergraph_product(amb, rng.random(m)), hypergraph_product(amb, rng.random(m))
    yield random_exact(amb, rng), random_exact(amb, rng)


def _assert_law(got, want):
    assert np.abs(got.vec - want).max() <= TOL
    assert abs(got.total - 1.0) <= TOL


@pytest.mark.parametrize("name", ["delta1", "delta2", "p3", "sk1d3"])
def test_union_and_intersection_match_pairwise(fixtures, name):
    amb = fixtures[name]
    rng = np.random.default_rng(11)
    for a, b in _operand_pairs(amb, rng):
        _assert_law(push_union(a, b), o_push_pairwise(a.vec, b.vec, np.bitwise_or))
        _assert_law(
            push_intersection(a, b), o_push_pairwise(a.vec, b.vec, np.bitwise_and)
        )


@pytest.mark.parametrize("name", ["delta1", "delta2", "p3", "sk1d3"])
@pytest.mark.parametrize("text", BINARY_WORDS)
def test_binary_words_match_pairwise(fixtures, name, text):
    amb = fixtures[name]
    word = parse_expression(text).word
    rng = np.random.default_rng(12)
    tables = TableSet(amb)
    for a, b in _operand_pairs(amb, rng):
        want = o_push_pairwise(
            a.vec, b.vec, lambda rows, cols: eval_word_tables(word, tables, [rows, cols])
        )
        _assert_law(push_word(word, a, b), want)


def test_unary_pushes_conserve_mass(fixtures):
    rng = np.random.default_rng(14)
    for amb in fixtures.values():
        dist = random_exact(amb, rng)
        for text in ("Delta", "delta", "gamma", "Ext^3", "Int.gamma", "Nbd", "NbdInv"):
            assert abs(push_word(parse_expression(text).word, dist).total - 1.0) <= TOL


def test_push_word_rejects_arity_three(delta1):
    d = random_exact(delta1, np.random.default_rng(15))
    ternary = Join(Join(Prim("id"), Prim("id")), Prim("id"))
    with pytest.raises(ValueError):
        push_word(ternary, d, d, d)


def test_self_coupling_transforms_once_with_equal_bytes(fixtures):
    # one zeta transform squared equals the product of two transforms
    rng = np.random.default_rng(19)
    for amb in [*fixtures.values(), _cycle6()]:
        for d in (hypergraph_product(amb, rng.random(amb.num_faces)), random_exact(amb, rng)):
            twin = Distribution(amb, d.vec.copy())
            assert np.array_equal(push_union(d, d).vec, push_union(d, twin).vec)
            assert np.array_equal(push_intersection(d, d).vec, push_intersection(d, twin).vec)


def test_binary_pushes_reject_mixed_ambients(delta1, delta2):
    a = random_exact(delta1, np.random.default_rng(16))
    b = random_exact(delta2, np.random.default_rng(17))
    with pytest.raises(ValueError):
        push_union(a, b)
    with pytest.raises(ValueError):
        push_intersection(a, b)


def _cycle6():
    """The 6-cycle: 12 faces, 4096 masks."""
    return AmbientComplex([(v, v % 6 + 1) for v in range(1, 7)])


def _cycle10():
    """The 10-cycle: 20 faces, the exact layer's largest lattice."""
    return AmbientComplex([(v, v % 10 + 1) for v in range(1, 11)])


def test_dense_laws_on_the_six_cycle():
    amb = _cycle6()
    rng = np.random.default_rng(18)
    a, b = random_exact(amb, rng), random_exact(amb, rng)
    _assert_law(push_union(a, b), o_push_pairwise(a.vec, b.vec, np.bitwise_or))
    _assert_law(push_intersection(a, b), o_push_pairwise(a.vec, b.vec, np.bitwise_and))


def _with_zeros_and_ones(rng, m):
    """Random probabilities, with about a third of the faces set to exactly
    0 or exactly 1."""
    probs = rng.random(m)
    pick = rng.random(m) < 1 / 3
    probs[pick] = rng.integers(0, 2, m)[pick]
    return probs


def test_complex_product_is_bit_identical_to_all_masks_loop(fixtures):
    rng = np.random.default_rng(19)
    for amb in list(fixtures.values()) + [_cycle6(), triangulated_triangle(2)]:
        m = amb.num_faces
        complexes = [mask for mask in range(1 << m) if amb.is_complex_mask(mask)]
        for probs in (rng.random(m), _with_zeros_and_ones(rng, m)):
            want = np.zeros(1 << m)
            for mask in complexes:
                want[mask] = pmf_complex(amb, probs, mask)
            assert np.array_equal(complex_product(amb, probs).vec, want)


def test_hypergraph_product_is_bit_identical_to_fold(fixtures):
    rng = np.random.default_rng(25)
    for amb in list(fixtures.values()) + [triangulated_triangle(2), _cycle10()]:
        m = amb.num_faces
        for probs in (rng.random(m), _with_zeros_and_ones(rng, m)):
            assert hypergraph_product(amb, probs).vec.tobytes() == o_hypergraph_pmf(probs).tobytes()


# Every primitive, a power, a zeroth power, compositions whose first
# primitive's table is a reversed view (delta and Int are complement duals),
# compositions of joins, whose table is one doubling, and words that apply
# gamma first, which reverses the order of the masks without a gather.
UNARY_WORDS = [Prim(name) for name in PRIMITIVES] + [
    Power(Prim("Ext"), 3), Power(Prim("Ext"), 0),
    Compose(Prim("Ext"), Prim("delta")), Compose(Prim("Delta"), Prim("Int"))] + [
    parse_expression(text).word for text in (
        "Delta.Ext", "Ext.Nbd", "Nbd^2", "Ext^4", "id.Ext",
        "gamma^2", "gamma^3", "Int.gamma", "Delta.gamma", "Ext.delta.gamma")]


def test_unary_push_is_bit_identical_to_identity_gather(fixtures):
    # the push reads its first primitive's table whole; evaluating the word
    # on the identity array instead gathers that table first
    rng = np.random.default_rng(26)
    for amb in list(fixtures.values()) + [_cycle6()]:
        dist = random_exact(amb, rng)
        ident = np.arange(dist.vec.size, dtype=np.uint32)
        for word in UNARY_WORDS:
            want = push_table(dist, eval_word_tables(word, TableSet(amb), [ident]))
            assert push_word(word, dist).vec.tobytes() == want.vec.tobytes(), word


def _brute_marginals(dist):
    masks = np.arange(dist.vec.size)
    return np.array([math.fsum(dist.vec[(masks >> i) & 1 == 1].tolist())
                     for i in range(dist.ambient.num_faces)])


def test_marginals_match_per_face_sums(fixtures):
    rng = np.random.default_rng(27)
    ambients = list(fixtures.values()) + [AmbientComplex([(1,)]), _cycle10()]
    for amb in ambients:
        m = amb.num_faces
        for dist in (hypergraph_product(amb, rng.random(m)), random_exact(amb, rng)):
            got = marginals(dist)
            assert got.shape == (m,)
            assert np.abs(got - _brute_marginals(dist)).max() <= 1e-15


def test_product_and_marginals_peak_memory():
    # on 20 faces one float64 vector is 8 MiB: the product law allocates
    # only its result, and marginals only short sums
    amb = _cycle10()
    probs = np.random.default_rng(28).random(amb.num_faces)
    tracemalloc.start()
    try:
        dist = hypergraph_product(amb, probs)
        product_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        marginals(dist)
        marginals_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert product_peak <= 8.5 * 2**20
    assert marginals_peak <= 2**20


def test_each_primitive_table_built_once_per_evaluation(delta2, table_builds):
    word = parse_expression("(Delta.gamma.delta.gamma)^3").word
    idx = np.arange(1 << delta2.num_faces, dtype=np.uint32)
    tables = TableSet(delta2)
    first = eval_word_tables(word, tables, [idx])
    assert table_builds == {"Delta": 1, "delta": 1, "gamma": 1}
    # the caller's set is filled once and reused
    again = eval_word_tables(word, tables, [idx])
    assert table_builds == {"Delta": 1, "delta": 1, "gamma": 1}
    assert np.array_equal(first, again)
    # Ext is an operator of its own: Ext^3 reads its one table, built once
    table_builds.clear()
    ext3 = eval_word_tables(parse_expression("Ext^3").word, TableSet(delta2), [idx])
    assert table_builds == {"Ext": 1}
    assert np.array_equal(ext3, first)


def test_push_of_int_gamma_builds_only_int(delta2, table_builds):
    # gamma on every mask in order is a reversed read of Int's table
    push_word(parse_expression("Int.gamma").word, random_exact(delta2, np.random.default_rng(30)))
    assert table_builds == {"Int": 1}


def test_push_of_a_join_word_builds_no_table(delta2, table_builds, monkeypatch):
    # Ext^3 is a join: its table is one doubling over single-face images
    def refuse(*args):
        raise AssertionError("a join word read through eval_word_tables")

    monkeypatch.setattr(pushforward, "eval_word_tables", refuse)
    push_word(parse_expression("Ext^3").word, random_exact(delta2, np.random.default_rng(31)))
    assert not table_builds


def test_support_matches_the_float_scan(delta2, capsys):
    # -0.0 is zero; subnormals and NaN are not
    vec = np.zeros(1 << delta2.num_faces)
    vec[[1, 3, 4, 6, 9, 20]] = [-0.0, 5e-324, 0.25, np.nan, 0.5, 0.25]
    dist = Distribution(delta2, vec)
    want = np.flatnonzero(vec).tolist()
    assert want == [3, 4, 6, 9, 20]
    support = dist.support()  # the support push prints
    assert support == want
    _print_distribution(delta2, support, vec[support])
    assert capsys.readouterr().out == "".join(
        f"{vec[mask]:.12e}  {format_mask(delta2, mask)}\n" for mask in want)


def _chain_spelling(text):
    # Ext and Int written out as their defining chains
    return (text.replace("Ext", "(Delta.gamma.delta.gamma)")
                .replace("Int", "(delta.gamma.Delta.gamma)"))


@pytest.mark.parametrize("text", BINARY_WORDS[:3])
def test_binary_push_of_ext_int_equals_chain_spelling(delta2, text):
    # the Ext and Int tables equal their chains on every mask, so the pushes
    # agree bit for bit
    word, chain = parse_expression(text).word, parse_expression(_chain_spelling(text)).word
    assert word != chain
    for a, b in _operand_pairs(delta2, np.random.default_rng(17)):
        assert np.array_equal(push_word(word, a, b).vec, push_word(chain, a, b).vec)
