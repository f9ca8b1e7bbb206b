import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperops.complexes import AmbientError, Hypergraph, standard_fixtures
from hyperops.operators import TableSet, identity_table, interior_mask, neighborhood_inverse_mask
from hyperops.words import (
    ALIASES,
    Compose,
    Join,
    Meet,
    Power,
    Prim,
    WordError,
    eval_word,
    eval_word_mask,
    eval_word_tables,
    normalize,
    normalize_chain,
    word_from_names,
)


def test_prim_validation():
    Prim("Delta")
    with pytest.raises(WordError):
        Prim("sigma")
    with pytest.raises(WordError):
        Prim("alpha")  # alias exists only in expression syntax


def test_arity_rules():
    g = Prim("gamma")
    assert g.arity() == 1
    assert Compose(g, g).arity() == 1
    assert Join(g, g).arity() == 2
    assert Meet(Join(g, g), g).arity() == 3
    assert Power(g, 3).arity() == 1
    with pytest.raises(WordError):
        Compose(Join(g, g), g)  # binary outer cannot be composed
    with pytest.raises(WordError):
        Power(Join(g, g), 2)
    with pytest.raises(WordError):
        Power(g, -1)


def test_eval_relation_examples(delta2):
    g = Prim("gamma")
    d = Prim("delta")
    D = Prim("Delta")
    for m in range(1 << delta2.num_faces):
        h = Hypergraph(delta2, m)
        assert eval_word(Compose(g, g), h).mask == m
        assert eval_word(Compose(D, d), h).mask == eval_word(d, h).mask
    # gamma(w1 + w2) = (gamma w1) /\ (gamma w2) on pairs
    left = Compose(g, Join(D, d))
    right = Meet(Compose(g, D), Compose(g, d))
    rng = np.random.default_rng(0)
    for _ in range(50):
        a, b = rng.integers(0, delta2.full_mask + 1, size=2)
        assert eval_word_mask(left, delta2, [int(a), int(b)]) == eval_word_mask(
            right, delta2, [int(a), int(b)]
        )


def test_eval_word_guards(delta1, delta2):
    g = Prim("gamma")
    with pytest.raises(WordError):
        eval_word_mask(g, delta1, [1, 2])
    with pytest.raises(AmbientError):
        eval_word(Join(g, g), Hypergraph(delta1, 1), Hypergraph(delta2, 1))
    with pytest.raises(WordError):
        eval_word(g)


def test_zero_and_identity(delta1):
    h = Hypergraph(delta1, 5)
    assert eval_word(Prim("id"), h).mask == 5
    assert eval_word(Power(Prim("Delta"), 0), h).mask == 5


def test_power_iterates(p3):
    h = Hypergraph.from_faces(p3, [(1,)])
    e1 = eval_word(Prim("Ext"), h).mask
    e2 = eval_word(Power(Prim("Ext"), 2), h).mask
    chain = eval_word(Prim("Ext"), Hypergraph(p3, e1)).mask
    assert e2 == chain
    assert e2 == p3.full_mask  # Ext^2({1}) saturates on the path


def test_tables_agree_with_masks(delta2, p3):
    words = [
        Prim("gamma"),
        Compose(Prim("Delta"), Prim("gamma")),
        Power(Compose(Prim("Delta"), Prim("gamma")), 2),
        Prim("Ext"),
        Prim("Int"),
        Prim("Nbd"),
        Prim("NbdInv"),
        word_from_names(list(ALIASES["Ext"])),
    ]
    for amb in (delta2, p3):
        idx = identity_table(amb)
        tables = TableSet(amb)
        for w in words:
            vec = eval_word_tables(w, tables, [idx])
            for m in range(1 << amb.num_faces):
                assert int(vec[m]) == eval_word_mask(w, amb, [m]), str(w)


def test_binary_tables(delta1):
    idx = identity_table(delta1)
    w = Join(Prim("Delta"), Prim("delta"))
    grid = eval_word_tables(w, TableSet(delta1), [idx[:, None], idx[None, :]])
    for a in range(8):
        for b in range(8):
            assert int(grid[a, b]) == eval_word_mask(w, delta1, [a, b])


def test_nbd_inv_is_not_the_interior_chain(delta1):
    # the two agree on complexes only; mask {1},{12} separates them
    m = delta1.mask_from_faces([(1,), (1, 2)])
    assert eval_word_mask(Prim("NbdInv"), delta1, [m]) == neighborhood_inverse_mask(
        delta1, m
    )
    assert eval_word_mask(Prim("Int"), delta1, [m]) == interior_mask(delta1, m)
    assert eval_word_mask(Prim("NbdInv"), delta1, [m]) != eval_word_mask(
        Prim("Int"), delta1, [m]
    )


# ----- normalization ------------------------------------------------------------


def chain(*names):
    return word_from_names(list(names))


def test_normalize_examples():
    assert str(normalize(chain("Delta", "Delta"))) == "Delta"
    assert str(normalize(chain("Delta", "delta"))) == "delta"
    assert str(normalize(chain("gamma", "gamma"))) == "id"
    vi = chain(*(("Delta", "gamma") * 4))
    assert str(normalize(vi)) == "Delta.gamma.Delta.gamma"
    vii = chain(*(("delta", "gamma") * 4))
    assert str(normalize(vii)) == "delta.gamma.delta.gamma"


def test_normalize_expands_aliases():
    assert str(normalize(Prim("Ext"))) == "Delta.gamma.delta.gamma"
    assert str(normalize(Prim("Int"))) == "delta.gamma.Delta.gamma"
    # NbdInv stays a primitive of its own
    assert str(normalize(Prim("NbdInv"))) == "NbdInv"


def test_normalize_chain_drops_id():
    assert normalize_chain(["id", "Delta", "id", "id", "Delta"]) == ["Delta"]
    assert normalize_chain([]) == []


def test_normalize_rejects_binary():
    with pytest.raises(WordError):
        normalize(Join(Prim("gamma"), Prim("gamma")))


NAME_POOL = ("Delta", "delta", "gamma", "Ext", "Int", "id")


@given(
    st.lists(st.sampled_from(NAME_POOL), min_size=1, max_size=8),
    st.integers(min_value=0, max_value=127),
)
@settings(max_examples=120, deadline=None)
def test_normalized_word_extensionally_equal(names, m):
    amb = standard_fixtures()["delta2"]
    w = chain(*names)
    n = normalize(w)
    assert eval_word_mask(w, amb, [m]) == eval_word_mask(n, amb, [m])


def test_normalize_is_idempotent_on_alias_powers(delta2):
    # no rule crosses the Delta.gamma.delta.gamma seam, so Ext^3 is already
    # normal; normalizing must still preserve the evaluation and be stable
    w = Power(Prim("Ext"), 3)
    n = normalize(w)
    assert str(normalize(n)) == str(n)
    for m in range(1 << delta2.num_faces):
        assert eval_word_mask(w, delta2, [m]) == eval_word_mask(n, delta2, [m])


def test_str_round_trip_structure():
    w = Compose(Prim("Delta"), Meet(Prim("gamma"), Prim("gamma")))
    assert str(w) == "Delta.(gamma /\\ gamma)"
    assert str(Power(Prim("gamma"), 2)) == "gamma^2"
