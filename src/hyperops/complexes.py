"""Core combinatorial types: simplices, ambient complexes, sub-hypergraphs.

Everything downstream is subset-lattice arithmetic, so faces are indexed by
vertex bitmasks and a sub-hypergraph of the ambient complex L is a single
bitmask over L's canonical face order.  The canonical order is lexicographic
by (dimension, ascending vertex tuple) and is the iteration order everywhere,
including the sub-hypergraph index used by the exact distribution code.
L keeps each face's vertex tuple too, which every read of a face's vertices
takes; iter_bits is the one walk of a mask's set bits.

Each face relation of the ambient is one mask per face, and `_join` is the
one OR of a relation over a face set, which every mask-layer operator reads.
Closedness is stated here once, as the closure's fixed point: a face set is
a complex exactly when the join of its sub masks is itself.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Sequence


class AmbientError(ValueError):
    """Raised for a malformed face, a face outside the ambient complex, or
    mismatched ambients."""


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order.  The int
    is read once, as text, so a walk costs O(bit length) in all."""
    bits = bin(mask)[:1:-1]  # bits[i] is bit i of mask
    i = bits.find("1")
    while i >= 0:
        yield i
        i = bits.find("1", i + 1)


def _join(rel, h: int) -> int:
    """The OR of rel[i] over the set bits i of h (iter_bits): the one join
    of a relation (one mask per face) over a face set."""
    out = 0
    for i in iter_bits(h):
        out |= rel[i]
    return out


def simplex(vertices: Iterable[int]) -> tuple[int, ...]:
    """A face as its ascending vertex tuple.  The one statement of what a
    face is: a nonempty set of non-negative integer vertex ids, each listed
    once.  Raises AmbientError for an empty face, a negative id or a
    repeated vertex."""
    face = tuple(sorted(vertices))
    if not face:
        raise AmbientError("the empty set is not a face")
    if face[0] < 0:
        raise AmbientError(f"negative vertex id in {face}")
    if len(set(face)) != len(face):
        raise AmbientError(f"repeated vertex in {face}")
    return face


class AmbientComplex:
    """The fixed finite simplicial complex L.

    Constructed from generator faces (each a simplex) and closed downward
    eagerly.
    """

    def __init__(self, faces: Iterable[Iterable[int]]):
        gen = [simplex(f) for f in faces]
        labels = sorted({v for f in gen for v in f})
        self.vertex_labels: tuple[int, ...] = tuple(labels)
        self._vbit = {v: 1 << i for i, v in enumerate(labels)}

        # Downward closure: every nonempty subset of a generator, as its
        # vertex tuple, grouped by size.  Tuples of one size sort in
        # lexicographic order, so the canonical order needs no sort key.
        closed: dict[int, set[tuple[int, ...]]] = {}
        for f in gen:
            for k in range(1, len(f) + 1):
                closed.setdefault(k, set()).update(itertools.combinations(f, k))
        faces = [f for k in sorted(closed) for f in sorted(closed[k])]
        self._face_vertices: tuple[tuple[int, ...], ...] = tuple(faces)
        self.face_vmasks: tuple[int, ...] = tuple(sum(map(self._vbit.__getitem__, f)) for f in faces)
        self.index: dict[int, int] = {vm: i for i, vm in enumerate(self.face_vmasks)}
        m = len(self.face_vmasks)
        self.num_faces: int = m
        self.full_mask: int = (1 << m) - 1
        self.dims: tuple[int, ...] = tuple(len(f) - 1 for f in faces)
        self.dim: int = max(self.dims, default=-1)

        # Relation masks over face indices: faces contained in / containing /
        # meeting each face.  Faces come in order of dimension and the set
        # is downward closed, so each facet vi ^ vbit[v] is already
        # indexed, and the sub mask is the face's own bit joined with its
        # facets' sub masks.  Likewise the sup mask is the face's own bit
        # joined with its cofacets' sup masks: one pass in reverse order
        # ORs each face's finished sup mask into its facets'.  A face meets
        # exactly the faces in the vertex stars of its vertices.
        index, vbit = self.index, self._vbit
        facets: list[list[int]] = [[] for _ in range(m)]
        sub = [0] * m
        for i, (f, vi) in enumerate(zip(faces, self.face_vmasks)):
            down = 1 << i
            if len(f) > 1:
                facets[i] = [index[vi ^ vbit[v]] for v in f]
                for j in facets[i]:
                    down |= sub[j]
            sub[i] = down
        sup = [1 << i for i in range(m)]
        for i in range(m - 1, -1, -1):
            for j in facets[i]:
                sup[j] |= sup[i]
        star = {v: sup[index[b]] for v, b in vbit.items()}
        meet = [0] * m
        for i, f in enumerate(faces):
            for v in f:
                meet[i] |= star[v]
        self.sub_masks: tuple[int, ...] = tuple(sub)
        self.sup_masks: tuple[int, ...] = tuple(sup)
        self.meet_masks: tuple[int, ...] = tuple(meet)
        self.maximal_mask: int = 0
        for i in range(m):
            if sup[i] == (1 << i):
                self.maximal_mask |= 1 << i
        self._bydim: dict[int, int] = {}
        for i, d in enumerate(self.dims):
            self._bydim[d] = self._bydim.get(d, 0) | (1 << i)

    # ----- face accessors -------------------------------------------------

    def face_vertices(self, i: int) -> tuple[int, ...]:
        """Vertex ids of face ``i`` in ascending order."""
        return self._face_vertices[i]

    def face_index(self, vertices: Iterable[int]) -> int:
        """Index of the simplex with the given vertex ids; raises if absent."""
        face = simplex(vertices)
        vm = 0
        for v in face:
            b = self._vbit.get(v)
            if b is None:
                raise AmbientError(f"vertex {v} is not in the ambient complex")
            vm |= b
        idx = self.index.get(vm)
        if idx is None:
            raise AmbientError(f"{face} is not a face")
        return idx

    def faces_by_dim(self, d: int) -> int:
        """Face-index mask of all faces of dimension ``d``."""
        return self._bydim.get(d, 0)

    def skeleton_mask(self, r: int) -> int:
        """Face-index mask of all faces of dimension at most ``r``."""
        out = 0
        for d, mask in self._bydim.items():
            if d <= r:
                out |= mask
        return out

    @property
    def num_vertices(self) -> int:
        return len(self.vertex_labels)

    # ----- sub-hypergraph helpers ------------------------------------------

    def mask_from_faces(self, faces: Iterable[Iterable[int]]) -> int:
        """Face-index mask of literal faces (each must lie in the ambient)."""
        out = 0
        for f in faces:
            out |= 1 << self.face_index(f)
        return out

    @cached_property
    def face_text(self) -> tuple[str, ...]:
        """Each face's vertex ids joined by spaces, canonical order."""
        return tuple(" ".join(map(str, f)) for f in self._face_vertices)

    def faces_of_mask(self, mask: int) -> list[tuple[int, ...]]:
        """Vertex tuples of the faces in ``mask``, canonical order."""
        return list(map(self._face_vertices.__getitem__, iter_bits(mask)))

    def is_complex_mask(self, mask: int) -> bool:
        """True iff the face set is downward closed within the ambient: a
        fixed point of the closure, the join of the sub masks."""
        return _join(self.sub_masks, mask) == mask

    def __repr__(self) -> str:
        return (
            f"AmbientComplex({self.num_vertices} vertices, "
            f"{self.num_faces} faces, dim {self.dim})"
        )


@dataclass(frozen=True)
class Hypergraph:
    """An arbitrary subset of the ambient's faces (not necessarily closed)."""

    ambient: AmbientComplex
    mask: int = 0

    def __post_init__(self):
        if self.mask & ~self.ambient.full_mask:
            raise AmbientError("mask has bits outside the ambient face range")

    @classmethod
    def from_faces(cls, ambient: AmbientComplex, faces: Iterable[Iterable[int]]) -> "Hypergraph":
        return cls(ambient, ambient.mask_from_faces(faces))

    def faces(self) -> list[tuple[int, ...]]:
        return self.ambient.faces_of_mask(self.mask)

    @property
    def is_complex(self) -> bool:
        return self.ambient.is_complex_mask(self.mask)

    @property
    def edge_count(self) -> int:
        return self.mask.bit_count()

    def vertex_set(self) -> tuple[int, ...]:
        """V_H: all vertex ids occurring in some edge."""
        return tuple(sorted({v for face in self.faces() for v in face}))

    def __contains__(self, vertices) -> bool:
        try:
            return bool(self.mask >> self.ambient.face_index(vertices) & 1)
        except AmbientError:
            return False

    def __repr__(self) -> str:
        return f"Hypergraph({self.faces()!r})"


class Complex(Hypergraph):
    """A downward-closed sub-hypergraph."""

    def __post_init__(self):
        super().__post_init__()
        if not self.ambient.is_complex_mask(self.mask):
            raise AmbientError("face set is not downward closed")


def same_ambient(*items) -> AmbientComplex:
    """The one ambient of the items (hypergraphs, distributions, anything
    with an .ambient); raises AmbientError if two of them differ.  The one
    shared-ambient check of the package."""
    amb = items[0].ambient
    for item in items[1:]:
        if item.ambient is not amb:
            raise AmbientError("operands live in different ambient complexes")
    return amb


# ----- standard fixtures ----------------------------------------------------


def full_complex(num_vertices: int) -> AmbientComplex:
    """The complete complex on vertices 1..num_vertices (a full simplex)."""
    if num_vertices < 1:
        raise ValueError("need at least one vertex")
    return AmbientComplex([range(1, num_vertices + 1)])


def path_complex(num_vertices: int) -> AmbientComplex:
    """The path graph 1-2-...-k as a 1-dimensional complex."""
    if num_vertices < 1:
        raise ValueError("need at least one vertex")
    if num_vertices == 1:
        return AmbientComplex([(1,)])
    return AmbientComplex([(i, i + 1) for i in range(1, num_vertices)])


def skeleton_complex(base: AmbientComplex, r: int) -> AmbientComplex:
    """The r-skeleton of ``base`` as a new ambient complex."""
    return AmbientComplex(base.faces_of_mask(base.skeleton_mask(r)))


def standard_fixtures() -> dict[str, AmbientComplex]:
    """The small complexes used throughout the test battery.

    delta1: full complex on 2 vertices (an edge), 3 faces.
    delta2: full complex on 3 vertices (a triangle), 7 faces.
    p3:     path 1-2-3, 5 faces.
    sk1d3:  1-skeleton of the full complex on 4 vertices, 10 faces.
    """
    return {
        "delta1": full_complex(2),
        "delta2": full_complex(3),
        "p3": path_complex(3),
        "sk1d3": skeleton_complex(full_complex(4), 1),
    }
