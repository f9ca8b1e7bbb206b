"""Composition words over the operator monoid.

A word is a tree of primitives combined by composition ('.'), powers ('^'),
and the pointwise join ('+') and meet ('/\\') of maps.  Join and meet take a
word of arity a and a word of arity b to a word of arity a+b: the two operand
lists are concatenated, each side is evaluated on its own arguments, and the
results are unioned or intersected.  Composition requires a unary outer word.

`normalize` rewrites pure unary chains of Delta/delta/gamma with the monoid
relations until no rule applies; every rule strictly shortens the chain, so
this terminates.  Normalization is syntactic; tests confirm extensional
equality against the original word, the code never assumes it.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class Compose(Word):
    outer: Word
    inner: Word

    def __post_init__(self):
        if self.outer.arity() != 1:
            raise WordError("only unary words can be composed onto another")

    def arity(self) -> int:
        return self.inner.arity()

    def __str__(self) -> str:
        return f"{self.outer}.{_wrap(self.inner)}"


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
        return f"{_wrap(self.base)}^{self.k}"


@dataclass(frozen=True)
class Join(Word):
    left: Word
    right: Word

    def arity(self) -> int:
        return self.left.arity() + self.right.arity()

    def __str__(self) -> str:
        return f"{_wrap(self.left)} + {_wrap(self.right)}"


@dataclass(frozen=True)
class Meet(Word):
    left: Word
    right: Word

    def arity(self) -> int:
        return self.left.arity() + self.right.arity()

    def __str__(self) -> str:
        return f"{_wrap(self.left)} /\\ {_wrap(self.right)}"


def _wrap(w: Word) -> str:
    if isinstance(w, (Join, Meet)):
        return f"({w})"
    return str(w)


# ----- evaluation -------------------------------------------------------------


def _walk(word: Word, args: list, apply):
    """Evaluate a word tree; apply(name, x) applies a primitive to one operand.

    Operands are ints (single masks) or numpy arrays of masks; both support
    the | and & that join and meet need.
    """
    if isinstance(word, Prim):
        return apply(word.name, args[0])
    if isinstance(word, Compose):
        return _walk(word.outer, [_walk(word.inner, args, apply)], apply)
    if isinstance(word, Power):
        h = args[0]
        for _ in range(word.k):
            h = _walk(word.base, [h], apply)
        return h
    if isinstance(word, (Join, Meet)):
        na = word.left.arity()
        lhs = _walk(word.left, args[:na], apply)
        rhs = _walk(word.right, args[na:], apply)
        return (lhs | rhs) if isinstance(word, Join) else (lhs & rhs)
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
    amb = args[0].ambient
    for other in args[1:]:
        same_ambient(args[0], other)
    mask = eval_word_mask(word, amb, [h.mask for h in args])
    return Hypergraph(amb, mask)


def eval_word_tables(word: Word, tables: TableSet, args: list[np.ndarray]) -> np.ndarray:
    """Vectorized evaluation over arrays of masks (broadcast together) of
    the ambient `tables.ambient`.  An operand of slice(None) stands for
    every mask in order, so a primitive applied to it returns a view of its
    table, with no gather.

    Primitives are read from `tables`, which the caller owns and may share
    between calls, so each primitive's table is built at most once per set,
    however often the word uses it.
    """
    _check_arity(word, args)
    return _walk(word, list(args), lambda name, x: tables[name][x])


# ----- normalization ----------------------------------------------------------


def _flatten_chain(word: Word) -> list[str]:
    # Unary words only; Compose/Power expand, aliases expand to generators.
    if isinstance(word, Prim):
        if word.name in ALIASES:
            return list(ALIASES[word.name])
        return [word.name]
    if isinstance(word, Compose):
        return _flatten_chain(word.outer) + _flatten_chain(word.inner)
    if isinstance(word, Power):
        return _flatten_chain(word.base) * word.k
    raise WordError("normalization applies to unary composition words only")


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
    if not names:
        return Prim("id")
    out: Word = Prim(names[-1])
    for name in reversed(names[:-1]):
        out = Compose(Prim(name), out)
    return out
