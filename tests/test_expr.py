import pytest

from hyperops.expr import OperatorExpression, ParseError, parse_expression
from hyperops.operators import closure_mask, complement_mask
from hyperops.words import Compose, Join, Meet, Power, Prim, eval_word_mask, normalize


def parse(text):
    expr = parse_expression(text)
    assert isinstance(expr, OperatorExpression)
    assert expr.source == text
    return expr.word


def test_parse_primitives():
    assert parse("gamma") == Prim("gamma")
    assert parse("NbdInv") == Prim("NbdInv")  # an operator, not an alias
    assert parse("id") == Prim("id")


def test_parse_power_and_normalize():
    w = parse("gamma^2")
    assert w == Power(Prim("gamma"), 2)
    assert str(normalize(w)) == "id"


def test_parse_expands_aliases():
    # Ext and Int are operators of their own; alpha and beta name none
    assert parse("Ext") == Prim("Ext")
    assert parse("Int") == Prim("Int")
    assert str(parse("alpha")) == "Delta.gamma"
    assert str(parse("beta")) == "delta.gamma"
    # normalize still rewrites Ext and Int to their defining chains
    assert str(normalize(parse("Ext"))) == "Delta.gamma.delta.gamma"
    assert str(normalize(parse("Int"))) == "delta.gamma.Delta.gamma"
    assert str(normalize(parse("Ext^2.Int"))) == str(
        normalize(parse("(Delta.gamma.delta.gamma)^2.delta.gamma.Delta.gamma")))


def test_parse_composition_order():
    w = parse("Delta.delta.gamma")
    assert str(w) == "Delta.delta.gamma"
    assert w.arity() == 1


def test_parse_binary_meet(delta2):
    w = parse("Delta.(gamma /\\ gamma)")
    assert w == Compose(Prim("Delta"), Meet(Prim("gamma"), Prim("gamma")))
    assert w.arity() == 2
    for a, b in [(0, 0), (5, 98), (127, 1)]:
        want = closure_mask(
            delta2, complement_mask(delta2, a) & complement_mask(delta2, b)
        )
        assert eval_word_mask(w, delta2, [a, b]) == want


def test_parse_join_binds_loosest():
    w = parse("Delta.gamma + delta^2")
    assert w == Join(
        Compose(Prim("Delta"), Prim("gamma")), Power(Prim("delta"), 2)
    )
    w = parse("gamma /\\ gamma + gamma")
    # left associative at the same level
    assert w == Join(Meet(Prim("gamma"), Prim("gamma")), Prim("gamma"))
    assert w.arity() == 3


def test_parse_power_binds_tightest():
    w = parse("Delta.gamma^2")
    assert w == Compose(Prim("Delta"), Power(Prim("gamma"), 2))
    w = parse("(Delta.gamma)^2")
    assert w == Power(Compose(Prim("Delta"), Prim("gamma")), 2)


def test_parse_error_positions():
    with pytest.raises(ParseError) as e:
        parse("Delta$")
    assert e.value.position == 5
    with pytest.raises(ParseError) as e:
        parse("sigma")
    assert e.value.position == 0
    with pytest.raises(ParseError) as e:
        parse("Delta.gamma.bogus")
    assert e.value.position == 12
    with pytest.raises(ParseError):
        parse("(Delta.gamma")
    with pytest.raises(ParseError):
        parse("Delta)")
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("   ")


def test_parse_power_guards():
    with pytest.raises(ParseError):
        parse("gamma^0")
    with pytest.raises(ParseError):
        parse("gamma^-1")
    with pytest.raises(ParseError):
        parse("gamma^gamma")
    with pytest.raises(ParseError):
        parse("2^gamma")


def test_parse_rejects_binary_composition():
    with pytest.raises(ParseError):
        parse("(gamma /\\ gamma).Delta")
    with pytest.raises(ParseError):
        parse("(gamma /\\ gamma)^2")


def test_parse_zero_is_not_grammar():
    with pytest.raises(ParseError):
        parse("zero")
