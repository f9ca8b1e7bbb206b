"""Random sub-hypergraphs and random sub-complexes of an ambient complex.

Two laws on subsets of the ambient's faces, each driven by a probability
per face:

* hypergraph model: every face is an independent Bernoulli draw, giving
  mass prod_{in} p * prod_{out} (1 - p) to each face subset.
* complex model: faces are examined in ascending dimension and a face is
  eligible only once its whole boundary is present, giving mass
  prod_{faces} p * prod_{external faces} (1 - p) to each downward-closed
  subset.  External faces are the missing faces whose boundary is present.
  With one p per dimension this is the multi-parameter model of Costa and
  Farber ("Large random simplicial complexes I", 2016).  Its candidate
  rule is operators.clique_faces_mask, which the external faces and the
  one draw loop staged_draw read; every staged draw runs that loop.

Every probability, of an assignment, a vector or a graph model, passes
check_probabilities, the one range check.

Sampling is reproducible: a (seed, stream) pair pins the generator, and
draws consume uniforms in canonical face order.  Hypergraph draws of a whole
run come from one draw of (draws, faces) uniforms, in the blocks of
_block_cut, the one block cut, which also cuts sparse's graph batches and
the coin read _coin_hits (_cumulative_cut is its form for rows of uneven
size: sparse's candidate blocks and the census levels of kernels); a
staged draw takes one call per dimension over the faces whose boundary it
kept.  Either reads the stream exactly as one
uniform at a time would, so a run and its one-at-a-time loop agree draw for
draw and leave the same next draw.  The uint32 batch samplers are views of
these: sample_hypergraph_batch is sample_hypergraph_masks and
sample_complex_batch is n sample_complex draws, stream included.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .complexes import AmbientComplex, Hypergraph, Complex, iter_bits, simplex
from .operators import clique_faces_mask, complex_indicator, external_faces_mask, lattice_size


def rng_from(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator so independent streams never overlap.

    seed and stream are the two 64-bit words of the Philox key, so each
    must lie in [0, 2^64); the key is built as uint64, never as float64,
    so distinct pairs never share a stream.
    """
    for name, value in (("seed", seed), ("stream", stream)):
        if not 0 <= value < 1 << 64:
            raise ValueError(f"{name} must lie in [0, 2^64), got {value}")
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


@dataclass(frozen=True)
class ProbabilityAssignment:
    """A probability for every face, per dimension or per simplex.

    per-dim mode: entry d of ``per_dim`` applies to all d-faces; ambients of
    larger dimension are rejected at resolve time.
    per-simplex mode: explicit entries, anything unlisted gets ``default``.
    Each entry's face is read by complexes.simplex, so it is stored as its
    ascending vertex tuple, a repeated vertex raises, and a simplex may be
    listed once.  resolve places each entry at its face of the ambient
    (face_index), so a simplex that is not a face of it raises too.
    """

    per_dim: tuple[float, ...] | None = None
    entries: tuple[tuple[tuple[int, ...], float], ...] | None = None
    default: float = 0.0

    def __post_init__(self):
        if (self.per_dim is None) == (self.entries is None):
            raise ValueError("exactly one of per_dim / entries must be given")
        if self.entries is not None:
            # frozen: the normalized entries replace the given ones once, here
            object.__setattr__(self, "entries",
                               tuple((simplex(face), float(p)) for face, p in self.entries))
        check_probabilities(list(self._all_values()))
        seen = set()
        for face, _ in self.entries or ():
            if face in seen:
                raise ValueError(f"probability entries list the simplex {list(face)} twice")
            seen.add(face)

    def _all_values(self) -> Iterator[float]:
        if self.per_dim is not None:
            yield from self.per_dim
        else:
            yield self.default
            for _, p in self.entries:
                yield p

    @classmethod
    def constant(cls, p: float) -> "ProbabilityAssignment":
        # Constant assignments are dimension-blind; 64 entries outruns any
        # ambient the exact code can hold.
        return cls(per_dim=tuple([p] * 64))

    @classmethod
    def from_dims(cls, ps: Iterable[float]) -> "ProbabilityAssignment":
        return cls(per_dim=tuple(ps))

    @classmethod
    def from_entries(
        cls, entries: Iterable[tuple[Iterable[int], float]], default: float = 0.0
    ) -> "ProbabilityAssignment":
        return cls(entries=tuple(entries), default=default)

    def resolve(self, amb: AmbientComplex) -> np.ndarray:
        """Vector of probabilities in the ambient's canonical face order."""
        out = np.empty(amb.num_faces, dtype=np.float64)
        if self.per_dim is not None:
            if amb.dim >= len(self.per_dim):
                raise ValueError(
                    f"ambient has dimension {amb.dim}; assignment stops at "
                    f"{len(self.per_dim) - 1}"
                )
            for i, d in enumerate(amb.dims):
                out[i] = self.per_dim[d]
            return out
        out[:] = self.default
        for face, p in self.entries:
            # face_index raises for a face the ambient lacks: a per-simplex
            # table is tied to one ambient, and a typo should not silently
            # become ``default``
            out[amb.face_index(face)] = p
        return out

    # JSON wire format (used by the CLI):
    #   {"mode": "per-dim", "p": [1.0, 0.5]}
    #   {"mode": "per-simplex", "default": 0.0,
    #    "entries": [{"simplex": [1, 2], "p": 0.4}]}

    def to_json(self) -> str:
        if self.per_dim is not None:
            doc = {"mode": "per-dim", "p": list(self.per_dim)}
        else:
            doc = {
                "mode": "per-simplex",
                "default": self.default,
                "entries": [
                    {"simplex": list(face), "p": p} for face, p in self.entries
                ],
            }
        return json.dumps(doc, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ProbabilityAssignment":
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("probability JSON must be an object with a \"mode\"")
        mode = doc.get("mode")
        try:
            if mode == "per-dim":
                return cls(per_dim=tuple(_json_number(x, "p") for x in _json_list(doc, "p")))
            if mode == "per-simplex":
                entries = tuple(
                    ([_json_of(v, "simplex", int) for v in _json_list(e, "simplex")],
                     _json_number(e["p"], "p"))
                    for e in _json_list(doc, "entries")
                )
                return cls(entries=entries, default=_json_number(doc.get("default", 0.0), "default"))
        except KeyError as e:
            raise ValueError(f"{mode} probability JSON lacks the key {e}") from None
        except (TypeError, OverflowError, ValueError) as e:
            raise ValueError(f"malformed {mode} probability JSON: {e}") from None
        raise ValueError(f"unknown probability mode {mode!r}")


def _json_list(doc, key: str) -> list:
    # doc[key], which must be a JSON list: a string or an object would
    # iterate as characters or keys
    value = doc[key]
    if not isinstance(value, list):
        raise TypeError(f"{key!r} must be a list, not {type(value).__name__}")
    return value


def _json_of(value, key: str, kind):
    # value, checked to be of kind and not a bool: JSON true and false
    # are ints to Python
    if isinstance(value, bool) or not isinstance(value, kind):
        raise TypeError(f"{key!r} takes {'integers' if kind is int else 'numbers'}, not {value!r}")
    return value


def _json_number(value, key: str) -> float:
    return float(_json_of(value, key, (int, float)))


def check_probabilities(values) -> np.ndarray:
    """values as a float64 array, each checked to lie in [0, 1].  The one
    range check of the package: NaN lies in no range, so it fails too."""
    vec = np.asarray(values, dtype=np.float64)
    inside = (vec >= 0.0) & (vec <= 1.0)
    if not inside.all():
        raise ValueError(f"probability {float(vec[~inside].flat[0])} outside [0, 1]")
    return vec


def resolve_probabilities(amb: AmbientComplex, p) -> np.ndarray:
    if isinstance(p, ProbabilityAssignment):
        return p.resolve(amb)
    vec = np.asarray(p, dtype=np.float64)
    if vec.shape != (amb.num_faces,):
        raise ValueError(f"expected {amb.num_faces} probabilities, got {vec.shape}")
    return check_probabilities(vec)


# ----- hypergraph model --------------------------------------------------------


# Uniforms per block of a whole-run draw (256 KiB of doubles).
_BLOCK_UNIFORMS = 1 << 15


def _block_cut(rows: int, width: int = 1) -> Iterator[tuple[int, int]]:
    """(start, size) of each block of `rows` rows of `width` uniforms: at
    most _BLOCK_UNIFORMS uniforms a block, at least one row, lazily."""
    per_block = max(1, _BLOCK_UNIFORMS // max(width, 1))
    for start in range(0, rows, per_block):
        yield start, min(per_block, rows - start)


def _cumulative_cut(counts: np.ndarray, bound: int) -> list[int]:
    """Where to cut rows of `counts` items into blocks: at each row whose
    running total passes a multiple of bound.  A block's rows after its
    first hold fewer than bound items; a row of more may leave empty blocks."""
    ends = np.cumsum(counts)
    return np.searchsorted(ends, np.arange(bound, ends[-1] if ends.size else 0, bound), "right").tolist()


def _raw_words(rng) -> np.random.BitGenerator:
    # These bit generators make each double (w >> 11) * 2^-53 of one raw
    # word w; MT19937 builds it from two 32-bit draws instead.  (Named here,
    # not at import: numpy.random loads lazily.)
    bitgen = rng.bit_generator
    one_word = (np.random.Philox, np.random.PCG64, np.random.PCG64DXSM, np.random.SFC64)
    if not isinstance(bitgen, one_word):
        raise ValueError(
            f"raw-word sampling needs a bit generator whose doubles come from one "
            f"64-bit word (Philox, PCG64, PCG64DXSM or SFC64), not {type(bitgen).__name__}"
        )
    return bitgen


def _word_hits(words: np.ndarray, q: float) -> np.ndarray:
    """Bool per raw word w: is its coin of probability q a hit?
    rng.random() would return u = (w >> 11) * 2^-53, and u < q holds
    exactly when w < ceil(q * 2^53) * 2^11, so the words are compared with
    that integer cut."""
    cut = math.ceil(q * 2.0**53) << 11
    if not cut:
        return np.zeros(words.shape, dtype=bool)
    return words <= np.uint64(cut - 1)


def _coin_hits(bitgen: np.random.BitGenerator, count: int, q: float) -> Iterator[np.ndarray]:
    """Per block of _block_cut, the hit indices (from the first coin) of
    `count` raw-word coins: the hits and stream of rng.random(count) < q."""
    for start, size in _block_cut(count):
        yield start + _word_hits(bitgen.random_raw(size), q).nonzero()[0]


def sample_hypergraph_masks(amb: AmbientComplex, p, rng: np.random.Generator, n: int) -> list[int]:
    """n independent hypergraph draws as Python-int masks, any face count.

    One uniform per face and draw, in canonical face order: the same stream,
    and the same masks, as n calls to sample_hypergraph.  The draws come in
    (block, faces) arrays cut by _block_cut; rng.random fills them
    row-major, so the stream is read exactly as by n successive
    rng.random(m) calls, whatever the block size.
    """
    probs = resolve_probabilities(amb, p)
    width = (amb.num_faces + 7) // 8
    masks = []
    for _, size in _block_cut(n, probs.size):
        hits = rng.random((size, probs.size)) < probs
        raw = np.packbits(hits, axis=1, bitorder="little").tobytes()
        masks.extend(int.from_bytes(raw[i * width : (i + 1) * width], "little") for i in range(len(hits)))
    return masks


def sample_hypergraph(amb: AmbientComplex, p, rng: np.random.Generator) -> Hypergraph:
    """One draw: each face kept independently with its own probability."""
    return Hypergraph(amb, sample_hypergraph_masks(amb, p, rng, 1)[0])


def pmf_hypergraph(amb: AmbientComplex, p, mask: int) -> float:
    probs = resolve_probabilities(amb, p)
    out = 1.0
    for i in range(amb.num_faces):
        out *= probs[i] if mask >> i & 1 else 1.0 - probs[i]
    return out


# ----- complex model -----------------------------------------------------------


def staged_draw(amb: AmbientComplex, mask: int, thresholds, settled: int, rng) -> int:
    """The staged draw from the start mask `mask`, dimension by dimension.

    A stage's candidates are the faces of that dimension whose boundary was
    already kept (clique_faces_mask), less those in mask or in `settled`,
    visited in canonical order.  Each takes one uniform, all of a stage's in
    one call, and is kept when it falls below the face's threshold:
    eligibility in dimension d depends only on the faces of lower dimension.
    """
    for d in range(amb.dim + 1):
        eligible = list(iter_bits(clique_faces_mask(amb, mask, d) & ~mask & ~settled))
        for i in itertools.compress(eligible, rng.random(len(eligible)) < thresholds[eligible]):
            mask |= 1 << i
    return mask


def sample_complex(amb: AmbientComplex, p, rng: np.random.Generator) -> Complex:
    """One draw of the staged model: staged_draw from the empty mask, each
    face kept with its own probability."""
    return Complex(amb, staged_draw(amb, 0, resolve_probabilities(amb, p), 0, rng))


def pmf_complex(amb: AmbientComplex, p, mask: int) -> float:
    """Mass of a downward-closed face set: present faces times absent
    external faces.  external_faces_mask raises ValueError for a face set
    that is not closed."""
    probs = resolve_probabilities(amb, p)
    out = 1.0
    for i in iter_bits(mask):
        out *= probs[i]
    for i in iter_bits(external_faces_mask(amb, mask)):
        out *= 1.0 - probs[i]
    return out


def sample_hypergraph_batch(
    amb: AmbientComplex, p, rng: np.random.Generator, n: int
) -> np.ndarray:
    """sample_hypergraph_masks as a uint32 array: the same masks and stream."""
    if amb.num_faces > 32:
        raise ValueError("batched sampling supports at most 32 faces")
    return np.array(sample_hypergraph_masks(amb, p, rng, n), dtype=np.uint32)


def sample_complex_batch(
    amb: AmbientComplex, p, rng: np.random.Generator, n: int
) -> np.ndarray:
    """n sample_complex draws as a uint32 array: the same masks and stream."""
    if amb.num_faces > 32:
        raise ValueError("batched sampling supports at most 32 faces")
    probs = resolve_probabilities(amb, p)
    return np.array([staged_draw(amb, 0, probs, 0, rng) for _ in range(n)], dtype=np.uint32)


# ----- enumeration -------------------------------------------------------------


def enumerate_subhypergraphs(amb: AmbientComplex) -> Iterator[int]:
    """Every subset of the ambient's faces, as masks in increasing order."""
    yield from range(lattice_size(amb))


def enumerate_subcomplexes(amb: AmbientComplex) -> Iterator[int]:
    """Every downward-closed subset, as masks in increasing order."""
    yield from np.flatnonzero(complex_indicator(amb)).tolist()
