"""Core combinatorial types: simplices, ambient complexes, sub-hypergraphs.

Everything downstream is subset-lattice arithmetic, so faces are stored as
vertex bitmasks and a sub-hypergraph of the ambient complex L is a single
bitmask over L's canonical face order.  The canonical order is lexicographic
by (dimension, ascending vertex tuple) and is the iteration order everywhere,
including the sub-hypergraph index used by the exact distribution code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Sequence


class AmbientError(ValueError):
    """Raised for faces outside the ambient complex or mismatched ambients."""


def _popcount(x: int) -> int:
    return bin(x).count("1")


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _nonempty_subsets(vmask: int) -> Iterator[int]:
    # Proper and improper nonempty submasks of a vertex mask.
    sub = vmask
    while sub:
        yield sub
        sub = (sub - 1) & vmask


class AmbientComplex:
    """The fixed finite simplicial complex L.

    Constructed from generator faces (iterables of non-negative integer
    vertex ids) and closed downward eagerly.  The empty set is never a face.
    """

    def __init__(self, faces: Iterable[Iterable[int]]):
        gen = [tuple(sorted(set(f))) for f in faces]
        for f in gen:
            if not f:
                raise AmbientError("the empty set is not a face")
            if any(v < 0 for v in f):
                raise AmbientError(f"negative vertex id in {f}")
        labels = sorted({v for f in gen for v in f})
        self.vertex_labels: tuple[int, ...] = tuple(labels)
        self._vbit = {v: i for i, v in enumerate(labels)}

        # Downward closure over vertex bitmasks.
        closed: set[int] = set()
        for f in gen:
            vmask = 0
            for v in f:
                vmask |= 1 << self._vbit[v]
            for sub in _nonempty_subsets(vmask):
                closed.add(sub)

        def key(vm: int) -> tuple:
            verts = tuple(labels[b] for b in iter_bits(vm))
            return (len(verts), verts)

        self.face_vmasks: tuple[int, ...] = tuple(sorted(closed, key=key))
        self.index: dict[int, int] = {vm: i for i, vm in enumerate(self.face_vmasks)}
        m = len(self.face_vmasks)
        self.num_faces: int = m
        self.full_mask: int = (1 << m) - 1
        self.dims: tuple[int, ...] = tuple(
            _popcount(vm) - 1 for vm in self.face_vmasks
        )
        self.dim: int = max(self.dims, default=-1)

        # Relation masks over face indices: faces contained in / containing /
        # meeting each face.  Faces come in order of dimension and the set
        # is downward closed, so each facet vi ^ (1 << v) is already
        # indexed, and the sub mask is the face's own bit joined with its
        # facets' sub masks.  The sup masks transpose the sub masks, and a
        # face meets exactly the faces in the vertex stars of its vertices.
        index = self.index
        sub = [0] * m
        for i, vi in enumerate(self.face_vmasks):
            down = 1 << i
            if vi & (vi - 1):
                for v in iter_bits(vi):
                    down |= sub[index[vi ^ (1 << v)]]
            sub[i] = down
        sup = [0] * m
        for i, down in enumerate(sub):
            for j in iter_bits(down):
                sup[j] |= 1 << i
        star = [sup[index[1 << v]] for v in range(len(labels))]
        meet = [0] * m
        for i, vi in enumerate(self.face_vmasks):
            for v in iter_bits(vi):
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
        vm = self.face_vmasks[i]
        return tuple(self.vertex_labels[b] for b in iter_bits(vm))

    def face_index(self, vertices: Iterable[int]) -> int:
        """Index of the face with the given vertex ids; raises if absent."""
        vm = 0
        for v in set(vertices):
            b = self._vbit.get(v)
            if b is None:
                raise AmbientError(f"vertex {v} is not in the ambient complex")
            vm |= 1 << b
        idx = self.index.get(vm)
        if idx is None:
            raise AmbientError(f"{tuple(sorted(set(vertices)))} is not a face")
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
        return tuple(" ".join(map(str, self.face_vertices(i))) for i in range(self.num_faces))

    def faces_of_mask(self, mask: int) -> list[tuple[int, ...]]:
        """Vertex tuples of the faces in ``mask``, canonical order."""
        return [self.face_vertices(i) for i in iter_bits(mask)]

    def is_complex_mask(self, mask: int) -> bool:
        """True iff the face set is downward closed within the ambient."""
        for i in iter_bits(mask):
            if self.sub_masks[i] & ~mask:
                return False
        return True

    def vertex_faces_mask(self, mask: int) -> int:
        """Face-index mask of the 0-faces spanned by the faces in ``mask``.

        These are the vertex set V_H viewed as 0-dimensional faces of L,
        whether or not they belong to ``mask`` themselves.
        """
        vm = 0
        for i in iter_bits(mask):
            vm |= self.face_vmasks[i]
        out = 0
        for b in iter_bits(vm):
            out |= 1 << self.index[1 << b]
        return out

    def __len__(self) -> int:
        return self.num_faces

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
        return _popcount(self.mask)

    def vertex_set(self) -> tuple[int, ...]:
        """V_H: all vertex ids occurring in some edge."""
        vm = 0
        for i in iter_bits(self.mask):
            vm |= self.ambient.face_vmasks[i]
        return tuple(self.ambient.vertex_labels[b] for b in iter_bits(vm))

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


def same_ambient(a: Hypergraph, b: Hypergraph) -> AmbientComplex:
    if a.ambient is not b.ambient:
        raise AmbientError("operands live in different ambient complexes")
    return a.ambient


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
    faces = [base.face_vertices(i) for i in iter_bits(base.skeleton_mask(r))]
    return AmbientComplex(faces)


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
