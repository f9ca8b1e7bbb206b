"""Composition words over the operator monoid.

A word is a tree of primitives combined by composition ('.'), powers ('^'),
and the pointwise join ('+') and meet ('/\\') of maps.  Compose, Join and
Meet hold flat tuples of two or more terms and splice in terms of their own
kind, so every grouping of a chain is one value.  Join and meet concatenate
their terms' operand lists, evaluate each term on its own slice, and union
or intersect the results.  A composition's terms but the last are unary.

One tree walk, `_walk`, evaluates a word on masks or on tables and reads
out the chain that `normalize` rewrites; it loops over a chain's terms, so
only parentheses deepen it.  `normalize` rewrites pure unary chains of
Delta/delta/gamma with the monoid relations until no rule applies; every
rule strictly shortens the chain, so this terminates.
Normalization is syntactic; tests confirm extensional equality against
the original word, the code never assumes it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce

from .complexes import AmbientComplex, Hypergraph, same_ambient
from .operators import PRIMITIVE_MASK_OPS, TableSet

import numpy as np

PRIMITIVES = tuple(PRIMITIVE_MASK_OPS)

# The defining chains over Delta, delta, gamma, stated once; normalize
# rewrites through them.  Ext and Int are operators with their own tables
# and equal their chains on every mask; a word evaluates them through their
# own operators.  alpha and beta name no operator: they generate the
# submonoid of words with an even number of complements, and the parser
# expands them.  NbdInv has no chain: it agrees with Int only on complexes.
ALIASES = {
    "Ext": ("Delta", "gamma", "delta", "gamma"),
    "Int": ("delta", "gamma", "Delta", "gamma"),
    "alpha": ("Delta", "gamma"),
    "beta": ("delta", "gamma"),
}


class WordError(ValueError):
    """Raised for malformed words (bad arity, unknown primitive)."""


@dataclass(frozen=True)
class Word:
    def arity(self) -> int:
        raise NotImplementedError


@dataclass(frozen=True)
class Prim(Word):
    name: str

    def __post_init__(self):
        if self.name not in PRIMITIVES:
            raise WordError(f"unknown primitive {self.name!r}")

    def arity(self) -> int:
        return 1

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, init=False)
class _Chain(Word):
    """Two or more terms under one operation.  A term of the chain's own
    kind is spliced in, so every grouping of a chain is one value."""

    terms: tuple[Word, ...]

    def __init__(self, *terms: Word):
        kind = type(self)
        terms = tuple(u for t in terms for u in (t.terms if type(t) is kind else (t,)))
        if len(terms) < 2:
            raise WordError(f"{kind.__name__} needs at least two terms")
        object.__setattr__(self, "terms", terms)

    def arity(self) -> int:
        return sum(t.arity() for t in self.terms)

    def __str__(self) -> str:
        return self.SYMBOL.join(_wrap(t, (Join, Meet)) for t in self.terms)


class Compose(_Chain):
    SYMBOL = "."

    def __init__(self, *terms: Word):
        super().__init__(*terms)
        if any(t.arity() != 1 for t in self.terms[:-1]):
            raise WordError("only unary words can be composed onto another")

    def arity(self) -> int:
        return self.terms[-1].arity()


@dataclass(frozen=True)
class Power(Word):
    base: Word
    k: int

    def __post_init__(self):
        if self.base.arity() != 1:
            raise WordError("powers are defined for unary words")
        if self.k < 0:
            raise WordError("negative powers are not defined")

    def arity(self) -> int:
        return 1

    def __str__(self) -> str:
        return f"{_wrap(self.base, Compose)}^{self.k}"


class Join(_Chain):
    SYMBOL = " + "


class Meet(_Chain):
    SYMBOL = " /\\ "


def _wrap(w: Word, kinds) -> str:
    return f"({w})" if isinstance(w, kinds) else str(w)


# ----- evaluation -------------------------------------------------------------


def _walk(word: Word, args: list, apply):
    """Evaluate a word tree; apply(name, x) applies a primitive to one operand.

    Operands are ints (single masks) or numpy arrays of masks; both support
    the | and & that join and meet need.
    """
    if isinstance(word, Prim):
        return apply(word.name, args[0])
    if isinstance(word, Compose):
        for term in reversed(word.terms):
            args = [_walk(term, args, apply)]
        return args[0]
    if isinstance(word, Power):
        h = args[0]
        for _ in range(word.k):
            h = _walk(word.base, [h], apply)
        return h
    if isinstance(word, (Join, Meet)):
        rest = iter(args)
        parts = (_walk(t, [next(rest) for _ in range(t.arity())], apply) for t in word.terms)
        return reduce(operator.or_ if isinstance(word, Join) else operator.and_, parts)
    raise WordError(f"cannot evaluate {word!r}")


def _check_arity(word: Word, args) -> None:
    if len(args) != word.arity():
        raise WordError(f"word has arity {word.arity()}, got {len(args)} arguments")


def eval_word_mask(word: Word, amb: AmbientComplex, args: list[int]) -> int:
    """Evaluate on face-index masks.  len(args) must equal the word's arity."""
    _check_arity(word, args)
    return _walk(word, list(args), lambda name, h: PRIMITIVE_MASK_OPS[name](amb, h))


def eval_word(word: Word, *args: Hypergraph) -> Hypergraph:
    if not args:
        raise WordError("need at least one argument")
    amb = same_ambient(*args)
    mask = eval_word_mask(word, amb, [h.mask for h in args])
    return Hypergraph(amb, mask)


def eval_word_tables(word: Word, tables: TableSet, args: list[np.ndarray]) -> np.ndarray:
    """Vectorized evaluation over arrays of masks (broadcast together) of
    the ambient `tables.ambient`.  An operand of slice(None) stands for
    every mask in order, so a primitive applied to it returns a view of its
    table, with no gather.  Gamma maps mask X to 2^m - 1 - X, so gamma on
    every mask in order is every mask in reverse order: on a slice it
    returns the reversed slice and reads no table, and a word of
    complements alone returns a slice.

    Primitives are read from `tables`, which the caller owns and may share
    between calls, so each primitive's table is built at most once per set,
    however often the word uses it.
    """
    _check_arity(word, args)
    return _walk(word, list(args), lambda name, x: _read_table(tables, name, x))


def _read_table(tables: TableSet, name: str, x):
    if name == "gamma" and isinstance(x, slice):
        # slice(None) reverses to slice(None, None, -1) and back
        return slice(None, None, None if x.step else -1)
    return tables[name][x]


def primitive_names(word: Word) -> frozenset[str]:
    """The primitives a unary word applies."""
    if word.arity() != 1:
        raise WordError("primitive_names applies to unary words only")
    return _walk(word, [frozenset()], lambda name, names: names | {name})


# ----- normalization ----------------------------------------------------------


def _flatten_chain(word: Word) -> list[str]:
    """The names of a unary word in application order, aliases expanded to
    generators.  A unary word holds no join or meet, so the walk meets
    only primitives, and each prepends its names to the chain so far."""
    if word.arity() != 1:
        raise WordError("normalization applies to unary composition words only")
    return _walk(word, [[]], lambda name, chain: [*ALIASES.get(name, (name,)), *chain])


# Rewrites in application order: a chain [f, g] denotes f.g, i.e. g applied
# first.  Each left side is replaced by the (shorter) right side.
REWRITE_RULES: list[tuple[tuple[str, ...], tuple[str, ...]]] = [
    (("gamma", "gamma"), ()),
    (("Delta", "delta"), ("delta",)),
    (("delta", "Delta"), ("Delta",)),
    (("Delta", "Delta"), ("Delta",)),
    (("delta", "delta"), ("delta",)),
    (
        ("Delta", "gamma", "Delta", "gamma", "Delta", "gamma", "Delta", "gamma"),
        ("Delta", "gamma", "Delta", "gamma"),
    ),
    (
        ("delta", "gamma", "delta", "gamma", "delta", "gamma", "delta", "gamma"),
        ("delta", "gamma", "delta", "gamma"),
    ),
]


def normalize_chain(names: list[str]) -> list[str]:
    """Rewrite to a fixpoint, scanning left to right, first matching rule wins."""
    names = [n for n in names if n != "id"]
    changed = True
    while changed:
        changed = False
        for pos in range(len(names)):
            for lhs, rhs in REWRITE_RULES:
                if tuple(names[pos : pos + len(lhs)]) == lhs:
                    names[pos : pos + len(lhs)] = list(rhs)
                    changed = True
                    break
            if changed:
                break
    return names


def normalize(word: Word) -> Word:
    """Normal form of a unary composition word.

    Aliases are expanded first, so the result is a chain over the generators
    (plus any Nbd/NbdInv occurrences, which no rule touches).
    """
    return word_from_names(normalize_chain(_flatten_chain(word)))


def word_from_names(names: list[str]) -> Word:
    """Build the composition word f1.f2...fk from names in application order f1 last applied."""
    if len(names) < 2:
        return Prim(names[0] if names else "id")
    return Compose(*map(Prim, names))
