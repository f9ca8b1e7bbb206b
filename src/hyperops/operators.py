"""The operator algebra on sub-hypergraphs of a fixed ambient complex.

Unary operators: closure, interior-complex, complement, extension, interior,
neighborhood and its adjoint.  Binary operators: union, intersection.  All
operate on face-index bitmasks; thin wrappers accept Hypergraph values.

For ambients with at most `TABLE_LIMIT` faces the module also builds full
lookup tables (numpy arrays indexed by every subset of faces), which the
exact distribution code uses to push measures through operators in bulk.
"""

from __future__ import annotations

import numpy as np

from .complexes import AmbientComplex, Hypergraph, Complex, iter_bits, same_ambient

# Above this many faces a 2**m table no longer fits; callers must use the
# single-mask functions instead.  Up to it, every mask fits a uint32 entry.
TABLE_LIMIT = 20


# ----- single-mask operators ------------------------------------------------


def closure_mask(amb: AmbientComplex, h: int) -> int:
    """All faces contained in some edge of h (the operator Delta)."""
    out = 0
    for i in iter_bits(h):
        out |= amb.sub_masks[i]
    return out


def interior_complex_mask(amb: AmbientComplex, h: int) -> int:
    """Faces all of whose nonempty subsets are edges of h (the operator delta)."""
    out = 0
    for i in range(amb.num_faces):
        if amb.sub_masks[i] & ~h == 0:
            out |= 1 << i
    return out


def complement_mask(amb: AmbientComplex, h: int) -> int:
    """All ambient faces not in h (the operator gamma)."""
    return amb.full_mask & ~h


def extension_mask(amb: AmbientComplex, h: int) -> int:
    """Ext = closure . complement . interior-complex . complement.

    Equivalently: the closure of the maximal ambient faces that contain an
    edge of h.
    """
    out = 0
    for i in iter_bits(amb.maximal_mask):
        if amb.sub_masks[i] & h:
            out |= amb.sub_masks[i]
    return out


def interior_mask(amb: AmbientComplex, h: int) -> int:
    """Int = interior-complex . complement . closure . complement.

    Equivalently: the faces meeting no face outside h.
    """
    out = 0
    comp = amb.full_mask & ~h
    for i in range(amb.num_faces):
        if amb.meet_masks[i] & comp == 0:
            out |= 1 << i
    return out


def neighborhood_mask(amb: AmbientComplex, h: int) -> int:
    """Closure of every ambient face meeting an edge of h."""
    hit = 0
    for i in iter_bits(h):
        hit |= amb.meet_masks[i]
    return closure_mask(amb, hit)


def neighborhood_inverse_mask(amb: AmbientComplex, h: int) -> int:
    """Largest h' with neighborhood(h') contained in h.

    Neighborhoods distribute over union, so this is the set of single faces
    whose neighborhood lies inside h.  It is always contained in
    interior_mask and coincides with it when h is a complex; for non-closed
    h the two differ, because Nbd(tau) is closed while the faces meeting
    tau need not be.
    """
    out = 0
    for i in range(amb.num_faces):
        if neighborhood_mask(amb, 1 << i) & ~h == 0:
            out |= 1 << i
    return out


def closed_star_mask(amb: AmbientComplex, vertex: int) -> int:
    """Closure of all faces containing the given vertex id."""
    i = amb.face_index((vertex,))
    return closure_mask(amb, amb.sup_masks[i])


def external_faces_mask(amb: AmbientComplex, y: int) -> int:
    """Faces of the ambient not in y whose boundary lies in y.

    y must be downward closed.  Missing vertices have empty boundary and are
    always external.
    """
    if not amb.is_complex_mask(y):
        raise ValueError("external faces are defined for complexes only")
    out = 0
    for i in range(amb.num_faces):
        if y >> i & 1:
            continue
        if amb.boundary_masks[i] & ~y == 0:
            out |= 1 << i
    return out


def clique_faces_mask(amb: AmbientComplex, y: int, d: int) -> int:
    """d-faces of the ambient all of whose proper nonempty subsets are in y."""
    out = 0
    for i in iter_bits(amb.faces_by_dim(d)):
        if (amb.sub_masks[i] & ~(1 << i)) & ~y == 0:
            out |= 1 << i
    return out


# ----- Hypergraph-level wrappers ---------------------------------------------


def closure(h: Hypergraph) -> Complex:
    return Complex(h.ambient, closure_mask(h.ambient, h.mask))


def interior_complex(h: Hypergraph) -> Complex:
    return Complex(h.ambient, interior_complex_mask(h.ambient, h.mask))


def complement(h: Hypergraph) -> Hypergraph:
    return Hypergraph(h.ambient, complement_mask(h.ambient, h.mask))


def extension(h: Hypergraph) -> Complex:
    return Complex(h.ambient, extension_mask(h.ambient, h.mask))


def interior(h: Hypergraph) -> Complex:
    return Complex(h.ambient, interior_mask(h.ambient, h.mask))


def neighborhood(h: Hypergraph) -> Complex:
    return Complex(h.ambient, neighborhood_mask(h.ambient, h.mask))


def neighborhood_inverse(h: Hypergraph) -> Complex:
    return Complex(h.ambient, neighborhood_inverse_mask(h.ambient, h.mask))


def union(a: Hypergraph, b: Hypergraph) -> Hypergraph:
    same_ambient(a, b)
    return Hypergraph(a.ambient, a.mask | b.mask)


def intersection(a: Hypergraph, b: Hypergraph) -> Hypergraph:
    same_ambient(a, b)
    return Hypergraph(a.ambient, a.mask & b.mask)


def closed_star(amb: AmbientComplex, vertex: int) -> Complex:
    return Complex(amb, closed_star_mask(amb, vertex))


def external_faces(y: Hypergraph) -> Hypergraph:
    return Hypergraph(y.ambient, external_faces_mask(y.ambient, y.mask))


# ----- full lookup tables ----------------------------------------------------


def _check_table_size(amb: AmbientComplex) -> int:
    m = amb.num_faces
    if m > TABLE_LIMIT:
        raise ValueError(
            f"ambient has {m} faces; operator tables support at most {TABLE_LIMIT}"
        )
    return m


def identity_table(amb: AmbientComplex) -> np.ndarray:
    m = _check_table_size(amb)
    return np.arange(1 << m, dtype=np.uint32)


def complement_table(amb: AmbientComplex) -> np.ndarray:
    m = _check_table_size(amb)
    return np.uint32(amb.full_mask) ^ np.arange(1 << m, dtype=np.uint32)


def _join_table(amb: AmbientComplex, op) -> np.ndarray:
    """Table of an operator that maps the empty set to itself and distributes
    over union: doubling over face bits ORs in each single face's image."""
    m = _check_table_size(amb)
    out = np.zeros(1 << m, dtype=np.uint32)
    for b in range(m):
        half = 1 << b
        np.bitwise_or(out[:half], np.uint32(op(amb, 1 << b)), out=out[half : 2 * half])
    return out


def _meet_table(amb: AmbientComplex, op) -> np.ndarray:
    """Table of an operator that fixes L and distributes over intersection.

    op(L minus X) is the AND of op(L minus face b) over the bits b of X, so
    a doubling over X builds it; L minus X is mask 2^m - 1 - X, so the table
    is that doubling read backwards.
    """
    m = _check_table_size(amb)
    out = np.empty(1 << m, dtype=np.uint32)
    by_complement = out[::-1]
    by_complement[0] = amb.full_mask
    for b in range(m):
        half = 1 << b
        np.bitwise_and(
            by_complement[:half],
            np.uint32(op(amb, amb.full_mask & ~(1 << b))),
            out=by_complement[half : 2 * half],
        )
    return out


def closure_table(amb: AmbientComplex) -> np.ndarray:
    return _join_table(amb, closure_mask)


def complex_indicator(amb: AmbientComplex) -> np.ndarray:
    """Bool per mask: True on the downward-closed masks, the fixed points
    of the closure."""
    table = closure_table(amb)
    return table == np.arange(table.size, dtype=table.dtype)


def interior_complex_table(amb: AmbientComplex) -> np.ndarray:
    return _meet_table(amb, interior_complex_mask)


def interior_table(amb: AmbientComplex) -> np.ndarray:
    return _meet_table(amb, interior_mask)


def extension_table(amb: AmbientComplex) -> np.ndarray:
    return _join_table(amb, extension_mask)


def neighborhood_table(amb: AmbientComplex) -> np.ndarray:
    return _join_table(amb, neighborhood_mask)


def neighborhood_inverse_table(amb: AmbientComplex) -> np.ndarray:
    return _meet_table(amb, neighborhood_inverse_mask)


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
    "zero": lambda amb, h: 0,
}


def primitive_table(amb: AmbientComplex, name: str) -> np.ndarray:
    if name == "zero":
        m = _check_table_size(amb)
        return np.zeros(1 << m, dtype=np.uint32)
    try:
        builder = PRIMITIVE_TABLES[name]
    except KeyError:
        raise ValueError(f"unknown operator {name!r}") from None
    return builder(amb)
