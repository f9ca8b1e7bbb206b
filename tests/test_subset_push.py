"""Subset-convolution pushes and the staged law against brute force.

Binary pushes are checked against o_push_pairwise, which sums over every
pair of masks, and the staged law against a loop over all masks.  The
doubling tables are checked against the single-mask operators in
test_operators.py.
"""

import numpy as np
import pytest

from hyperops.complexes import AmbientComplex
from hyperops.expr import parse_expression
from hyperops.metric import triangulated_triangle
from hyperops.models import pmf_complex
from hyperops.operators import TableSet
from hyperops.pushforward import (
    complex_product,
    hypergraph_product,
    push_intersection,
    push_union,
    push_word,
    random_exact,
)
from hyperops.words import Join, Prim, eval_word_tables

from oracles import o_push_pairwise

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
    for a, b in _operand_pairs(amb, rng):
        want = o_push_pairwise(
            a.vec, b.vec, lambda rows, cols: eval_word_tables(word, amb, [rows, cols])
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


def test_each_primitive_table_built_once_per_evaluation(delta2, table_builds):
    word = parse_expression("Ext^3").word  # (Delta.gamma.delta.gamma)^3
    idx = np.arange(1 << delta2.num_faces, dtype=np.uint32)
    eval_word_tables(word, delta2, [idx])
    assert table_builds == {"Delta": 1, "delta": 1, "gamma": 1}
    # a set handed in by the caller is filled once and reused
    tables = TableSet(delta2)
    first = eval_word_tables(word, delta2, [idx], tables)
    again = eval_word_tables(word, delta2, [idx], tables)
    assert table_builds == {"Delta": 2, "delta": 2, "gamma": 2}
    assert np.array_equal(first, again)
    with pytest.raises(ValueError, match="different ambient"):
        eval_word_tables(word, AmbientComplex([(1, 2)]), [idx], tables)
