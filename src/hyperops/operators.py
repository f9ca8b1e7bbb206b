"""The operator algebra on sub-hypergraphs of a fixed ambient complex.

Unary operators: closure, interior-complex, complement, extension, interior,
neighborhood and its adjoint, each one function on face-index bitmasks.
These mask functions and the word evaluators of `words` (`eval_word`,
`eval_word_mask`), which also give union and intersection as the join and
meet of maps, are the one way to apply an operator.

The six non-trivial primitives come from three face relations of the
ambient, each stored as one mask per face: `sub_masks` (faces contained in
face i), `sup_masks` (faces containing it) and `meet_masks` (faces sharing a
vertex with it).  The join J_rel(h) of a relation is the OR of rel[i] over
the faces i of h (complexes._join, which also states closedness); it maps
the empty set to itself and distributes over union.  Closure, extension
and neighborhood are joins:

    Delta = J_sub      Ext = J_sub(maximal & J_sup)      Nbd = J_sub . J_meet

and the other three are their complement duals gamma . J . gamma, which fix
L and distribute over intersection:

    delta = gamma J_sup gamma    Int = gamma J_meet gamma    NbdInv = gamma J_meet J_sup gamma

For ambients with at most `TABLE_LIMIT` faces the module also builds full
lookup tables (numpy arrays indexed by every subset of faces), which the
exact distribution code uses to push measures through operators in bulk.
`lattice_size` is the one check of that limit: every table, exact vector
and enumeration calls it before it allocates, and the CLI calls it up front.
A join's table is one doubling over the face bits of its single-face
images; the table of gamma . J . gamma is J's table XORed with L and read
backwards, since mask L - X is 2^m - 1 - X.  A composition of joins is a
join, so a word over the join primitives in `JOINS` has a table of the
same form: one doubling over the word's single-face images.
"""

from __future__ import annotations

import numpy as np

from .complexes import AmbientComplex, _join

# Above this many faces a 2**m table no longer fits; callers must use the
# single-mask functions instead.  Up to it, every mask fits a uint32 entry.
TABLE_LIMIT = 20


# ----- single-mask operators ------------------------------------------------


def _sups(amb: AmbientComplex, h: int) -> int:
    # faces containing an edge of h
    return _join(amb.sup_masks, h)


def _meets(amb: AmbientComplex, h: int) -> int:
    # faces meeting an edge of h
    return _join(amb.meet_masks, h)


def _meets_of_sups(amb: AmbientComplex, h: int) -> int:
    # faces meeting a face that contains an edge of h
    return _meets(amb, _sups(amb, h))


def _dual(amb: AmbientComplex, join, h: int) -> int:
    # gamma . join . gamma
    return amb.full_mask & ~join(amb, amb.full_mask & ~h)


def closure_mask(amb: AmbientComplex, h: int) -> int:
    """All faces contained in some edge of h (the operator Delta)."""
    return _join(amb.sub_masks, h)


def interior_complex_mask(amb: AmbientComplex, h: int) -> int:
    """Faces all of whose nonempty subsets are edges of h (the operator delta):
    the faces containing no face outside h."""
    return _dual(amb, _sups, h)


def complement_mask(amb: AmbientComplex, h: int) -> int:
    """All ambient faces not in h (the operator gamma)."""
    return amb.full_mask & ~h


def extension_mask(amb: AmbientComplex, h: int) -> int:
    """Ext = closure . complement . interior-complex . complement.

    Equivalently: the closure of the maximal ambient faces that contain an
    edge of h.  Every face lies in a maximal one, so the restriction to
    maximal faces only shortens the outer join.
    """
    return _join(amb.sub_masks, amb.maximal_mask & _sups(amb, h))


def interior_mask(amb: AmbientComplex, h: int) -> int:
    """Int = interior-complex . complement . closure . complement.

    Equivalently: the faces meeting no face outside h.
    """
    return _dual(amb, _meets, h)


def neighborhood_mask(amb: AmbientComplex, h: int) -> int:
    """Closure of every ambient face meeting an edge of h."""
    return _join(amb.sub_masks, _meets(amb, h))


def neighborhood_inverse_mask(amb: AmbientComplex, h: int) -> int:
    """Largest h' with neighborhood(h') contained in h.

    Neighborhoods distribute over union, so this is the set of single faces
    whose neighborhood lies inside h: the faces meeting no face that
    contains a face outside h.  It is always contained in interior_mask and
    coincides with it when h is a complex; for non-closed h the two differ,
    because Nbd(tau) is closed while the faces meeting tau need not be.
    """
    return _dual(amb, _meets_of_sups, h)


def closed_star_mask(amb: AmbientComplex, vertex: int) -> int:
    """Closure of all faces containing the given vertex id."""
    i = amb.face_index((vertex,))
    return closure_mask(amb, amb.sup_masks[i])


def external_faces_mask(amb: AmbientComplex, y: int) -> int:
    """Faces of the ambient not in y whose boundary lies in y.

    y must be downward closed, so a face's boundary lies in y exactly when
    all its proper faces do: these are the faces of clique_faces_mask, over
    every dimension, outside y.  Missing vertices have empty boundary and
    are always external.
    """
    if not amb.is_complex_mask(y):
        raise ValueError("external faces are defined for complexes only")
    out = 0
    for d in range(amb.dim + 1):
        out |= clique_faces_mask(amb, y, d)
    return out & ~y


def clique_faces_mask(amb: AmbientComplex, y: int, d: int) -> int:
    """d-faces of the ambient all of whose proper nonempty subsets are in y:
    the d-faces containing no face of lower dimension outside y.

    This is the candidate rule of the staged model; its draw, its external
    faces and the union resampler all read it.
    """
    return amb.faces_by_dim(d) & ~_sups(amb, amb.skeleton_mask(d - 1) & ~y)


# ----- full lookup tables ----------------------------------------------------


def lattice_size(amb: AmbientComplex) -> int:
    """2^m on the ambient's m faces: the length of every table, exact
    distribution and enumeration of its sub-hypergraphs.  The one check of
    TABLE_LIMIT, made before anything of that length is allocated."""
    m = amb.num_faces
    if m > TABLE_LIMIT:
        raise ValueError(f"ambient of {m} faces is too large for the exact layer, "
                         f"which holds at most {TABLE_LIMIT}")
    return 1 << m


def identity_table(amb: AmbientComplex) -> np.ndarray:
    return np.arange(lattice_size(amb), dtype=np.uint32)


def complement_table(amb: AmbientComplex) -> np.ndarray:
    masks = np.arange(lattice_size(amb), dtype=np.uint32)
    return np.uint32(amb.full_mask) ^ masks


def doubling(first, atoms, op) -> np.ndarray:
    """Entry X is op over first and atoms[b] for the set bits b of X, in
    first's dtype: pass b fills the masks with top bit b from those below.
    Atoms of shape (..., n) give one doubling per row."""
    atoms = np.asarray(atoms, dtype=np.asarray(first).dtype)
    n = atoms.shape[-1]
    out = np.empty(atoms.shape[:-1] + (1 << n,), dtype=atoms.dtype)
    out[..., 0] = first
    for b in range(n):
        half = 1 << b
        op(out[..., :half], atoms[..., b, None], out=out[..., half : 2 * half])
    return out


# The primitives that map the empty set to itself and distribute over
# union: each is a join, and so is every composition of them.
JOINS = frozenset({"id", "Delta", "Ext", "Nbd"})


def _join_table(amb: AmbientComplex, join) -> np.ndarray:
    """Table of a join: one doubling over its single-face images."""
    lattice_size(amb)  # checked before the doubling allocates 2^m entries
    return doubling(np.uint32(0), [join(amb, 1 << b) for b in range(amb.num_faces)], np.bitwise_or)


def _dual_table(amb: AmbientComplex, join) -> np.ndarray:
    """Table of gamma . join . gamma: entry X is L - join(L - X), and mask
    L - X is 2^m - 1 - X, so it is the join's table complemented in place
    and read backwards."""
    out = _join_table(amb, join)
    out ^= np.uint32(amb.full_mask)
    return out[::-1]


def closure_table(amb: AmbientComplex) -> np.ndarray:
    return _join_table(amb, closure_mask)


def fixed_points(table: np.ndarray) -> np.ndarray:
    """Bool per mask: True where the table maps the mask to itself."""
    return table == np.arange(table.size, dtype=table.dtype)


def complex_indicator(amb: AmbientComplex) -> np.ndarray:
    """Bool per mask: True on the downward-closed masks, the fixed points
    of the closure."""
    return fixed_points(closure_table(amb))


def interior_complex_table(amb: AmbientComplex) -> np.ndarray:
    return _dual_table(amb, _sups)


def interior_table(amb: AmbientComplex) -> np.ndarray:
    return _dual_table(amb, _meets)


def extension_table(amb: AmbientComplex) -> np.ndarray:
    return _join_table(amb, extension_mask)


def neighborhood_table(amb: AmbientComplex) -> np.ndarray:
    return _join_table(amb, neighborhood_mask)


def neighborhood_inverse_table(amb: AmbientComplex) -> np.ndarray:
    return _dual_table(amb, _meets_of_sups)


PRIMITIVE_TABLES = {
    "id": identity_table,
    "Delta": closure_table,
    "delta": interior_complex_table,
    "gamma": complement_table,
    "Ext": extension_table,
    "Int": interior_table,
    "Nbd": neighborhood_table,
    "NbdInv": neighborhood_inverse_table,
}

PRIMITIVE_MASK_OPS = {
    "id": lambda amb, h: h,
    "Delta": closure_mask,
    "delta": interior_complex_mask,
    "gamma": complement_mask,
    "Ext": extension_mask,
    "Int": interior_mask,
    "Nbd": neighborhood_mask,
    "NbdInv": neighborhood_inverse_mask,
}


def primitive_table(amb: AmbientComplex, name: str) -> np.ndarray:
    try:
        builder = PRIMITIVE_TABLES[name]
    except KeyError:
        raise ValueError(f"unknown operator {name!r}") from None
    return builder(amb)


class TableSet(dict):
    """The primitive tables of one ambient by name, each built on first use
    by primitive_table.  A set is the exact layer's one handle on its
    ambient: a function that reads tables takes the set alone and reads the
    ambient as `tables.ambient`, so the two cannot disagree.  Its maker owns
    it: a `verify` run makes one per ambient for all its suites, and a push
    or closed-form law makes one per call, dropping its tables on return."""

    def __init__(self, ambient: AmbientComplex):
        super().__init__()
        self.ambient = ambient

    def __missing__(self, name: str) -> np.ndarray:
        table = self[name] = primitive_table(self.ambient, name)
        return table
