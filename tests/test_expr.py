import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperops.expr import OperatorExpression, ParseError, parse_expression
from hyperops.operators import closure_mask, complement_mask
from hyperops.words import (
    PRIMITIVES,
    Compose,
    Join,
    Meet,
    Power,
    Prim,
    eval_word_mask,
    normalize,
)


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
    g = Prim("gamma")
    assert parse("gamma + gamma /\\ gamma + gamma") == Join(Meet(Join(g, g), g), g)


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


@pytest.mark.parametrize("text, position, message", [
    ("(gamma /\\ gamma).Delta", 16, "only unary words can be composed"),
    ("Delta.(gamma + gamma).Delta", 21, "only unary words can be composed"),
    ("(gamma /\\ gamma)^2", 16, "powers are defined for unary words"),
    # the term after a '.' parses before the term before it is checked
    ("(gamma + gamma).(", 17, "unexpected end of input"),
    ("(gamma + gamma).Delta^0", 22, "power must be a positive integer"),
])
def test_parse_error_positions_of_binary_terms(text, position, message):
    with pytest.raises(ParseError, match=message) as e:
        parse(text)
    assert e.value.position == position


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


def test_parse_chains_are_flat():
    # a parsed chain is the flat word that word_from_names builds, so an
    # already-normal word normalizes to itself, hash included
    w = parse("Delta.gamma.delta")
    assert w == Compose(Prim("Delta"), Prim("gamma"), Prim("delta"))
    assert normalize(w) == w and hash(normalize(w)) == hash(w)
    assert parse("(Delta.gamma).delta") == parse("Delta.(gamma.delta)") == w
    assert parse("alpha.delta") == w
    assert parse("gamma + gamma + gamma") == Join(Prim("gamma"), Prim("gamma"), Prim("gamma"))


def test_parse_long_chains():
    for op in (".", " + ", " /\\ "):
        w = parse(op.join(["Delta"] * 3000))
        assert len(w.terms) == 3000
    assert str(normalize(parse(".".join(["Delta"] * 3000)))) == "Delta"


_PRIMS = st.sampled_from(PRIMITIVES).map(Prim)


def _unary_words(children):
    return st.one_of(
        st.lists(children, min_size=2, max_size=3).map(lambda ts: Compose(*ts)),
        st.builds(Power, children, st.integers(min_value=1, max_value=3)),
    )


_UNARY = st.recursive(_PRIMS, _unary_words, max_leaves=6)


def _words(children):
    # children may be of any arity; a composition's leading terms are unary
    return st.one_of(
        st.lists(children, min_size=2, max_size=3).map(lambda ts: Join(*ts)),
        st.lists(children, min_size=2, max_size=3).map(lambda ts: Meet(*ts)),
        st.builds(lambda us, w: Compose(*us, w), st.lists(_UNARY, min_size=1, max_size=2), children),
    )


_WORDS = st.recursive(_UNARY, _words, max_leaves=10)


@given(_WORDS)
@example(Power(Compose(Prim("Delta"), Prim("gamma")), 2))
@example(Meet(Join(Prim("gamma"), Prim("Delta")), Compose(Prim("delta"), Prim("id"))))
@settings(max_examples=200, deadline=None)
def test_str_parses_back_to_the_word(w):
    # str parenthesises every term that binds looser than its place, the
    # composition base of a power included
    assert parse(str(w)) == w
