"""Hot kernels of the statistics run and of the verification suites, in numpy.

Graphs travel in blocks: a (graphs, n, ceil(n/64)) uint64 array of
adjacency rows, drawn from one call for raw words.  The clique census counts
cliques over a whole block level by level: the k-cliques of every graph
are rows (graph, common neighbours above the last vertex), the popcount of
a row counts the (k+1)-cliques extending it, and the next level unpacks
the nonzero rows.  A few dozen numpy calls per level then serve every
graph of the block.

The distribution laws of the verification suites are checked by their
atoms: a table that distributes over union is fixed by its value at the
empty mask and at the single faces, so one doubling over the 2^m masks
rebuilds what the table must be, and one comparison checks every pair.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .models import _BLOCK_UNIFORMS, _bernoulli_hits, _raw_words, check_probabilities
from .operators import doubling


def active_backend() -> str:
    """The census implementation in use; numpy is the only one."""
    return "numpy"


# ----- graph sampling -------------------------------------------------------------


@lru_cache(maxsize=1)
def _pair_slots(n: int) -> tuple[np.ndarray, ...]:
    # For the pairs i < j in np.triu_indices order, counted in words from
    # the graph's first row: the word of row i that holds bit j, that bit,
    # the word of row j that holds bit i, and that bit; read-only, since
    # callers share them.  One n is kept: a sweep draws every block of one
    # n before the next.
    nwords = (n + 63) >> 6
    rows, cols = np.triu_indices(n, 1)
    one = np.uint64(1)
    slots = (rows * nwords + (cols >> 6), one << (cols & 63).astype(np.uint64),
             cols * nwords + (rows >> 6), one << (rows & 63).astype(np.uint64))
    for arr in slots:
        arr.setflags(write=False)
    return slots


def sample_graph_block(n: int, p: float, rng: np.random.Generator, graphs: int) -> np.ndarray:
    """`graphs` Erdos-Renyi draws as uint64 adjacency bitset rows, shape
    (graphs, n, ceil(n/64)).

    One coin per pair, one raw word each (models._bernoulli_hits: the hits
    and the stream of rng.random(graphs * n(n-1)/2) < p); graph g reads the
    g-th slice of n(n-1)/2 of them in row-major pair order (0,1), (0,2),
    ..., the order of np.triu_indices.  The words are read in chunks of at
    most _BLOCK_UNIFORMS, each scattered into the block's rows before the
    next is read, so a chunk may end inside a graph.  A raw stream yields
    the same words in one call as in many, so a fixed (seed, stream) pins
    each graph however the draws are grouped into blocks and chunks.  Bit j
    of row i sits at bit j & 63 of word j >> 6; each hit adds its two bits
    into the rows, and the bits added to one word are distinct, so adding
    them ORs them.  The bit generator must make a double from one raw word
    (every numpy one but MT19937).
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    q = float(check_probabilities(p))
    bitgen = _raw_words(rng)
    nwords = (n + 63) >> 6
    pairs = n * (n - 1) // 2
    total = graphs * pairs
    lo, lo_bit, hi, hi_bit = _pair_slots(n)
    words = np.zeros(graphs * n * nwords, dtype=np.uint64)
    for start in range(0, total, _BLOCK_UNIFORMS):
        hit = start + _bernoulli_hits(bitgen, min(total - start, _BLOCK_UNIFORMS), q)
        g, pair = np.divmod(hit, pairs)
        first = g * (n * nwords)
        np.add.at(words, first + lo[pair], lo_bit[pair])
        np.add.at(words, first + hi[pair], hi_bit[pair])
    return words.reshape(graphs, n, nwords)


def sample_graph_words(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """One Erdos-Renyi draw as uint64 adjacency bitset rows, shape (n, ceil(n/64))."""
    return sample_graph_block(n, p, rng, 1)[0]


# ----- clique census ---------------------------------------------------------------

# Rows of one level handed to the next at a time, so a dense graph's
# census holds a bounded slice of a level (at most about 256 KiB of
# unpacked bits per adjacency word) rather than all of it.
_LEVEL_ROWS = 1 << 12


def _popcount_rows(cand: np.ndarray) -> np.ndarray:
    # np.bitwise_count per uint64 word (uint8), then an int64 column sum
    # over the few words of a row
    x = np.bitwise_count(cand)
    total = x[:, 0].astype(np.int64)
    for w in range(1, x.shape[1]):
        total += x[:, w]
    return total


def clique_census(block: np.ndarray, count_size: int, exist_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-graph clique census of a (graphs, n, nwords) block of bitset rows.

    Returns (int64 number of cliques on count_size vertices, bool whether
    some clique on exist_size vertices exists), one entry per graph, found
    level by level over every graph of the block at once.  count_size and
    exist_size must be at least 2; vertex and edge counts are cheap enough
    to read off directly.
    """
    if count_size < 2 or exist_size < 2:
        raise ValueError("clique sizes below 2 are direct counts, not a census")
    # A row is a k-clique of graph g, held as (g, cand): cand is the bitset
    # of common neighbours above the clique's last vertex, so popcount(cand)
    # is the number of (k+1)-cliques extending it, each counted once.
    # Level 1 is every vertex v of every graph g, at row g * n + v of
    # `first`; appending w to a row ANDs its cand with first[g * n + w].
    graphs, n, nwords = block.shape
    top = max(count_size, exist_size)
    counts = np.zeros(graphs, dtype=np.int64)
    exists = np.zeros(graphs, dtype=bool)
    # above[v]: the bitset of the vertices greater than v
    bits = np.arange(64 * nwords)
    above = np.packbits(bits[None, :] > np.arange(n)[:, None], axis=1, bitorder="little")
    first = (block & above.view("<u8").astype(np.uint64, copy=False)).reshape(graphs * n, nwords)

    def level(k, g, cand):
        pc = _popcount_rows(cand)
        if k + 1 == count_size:
            # float weights sum integers exactly below 2^53 cliques
            counts[:] += np.bincount(g, weights=pc, minlength=graphs).astype(np.int64)
        if k + 1 == exist_size:
            exists[g[pc > 0]] = True
        if k + 1 >= top:
            return
        live = np.flatnonzero(pc)
        if live.size == 0:
            return
        ends = np.cumsum(pc[live])
        cuts = np.searchsorted(ends, np.arange(_LEVEL_ROWS, int(ends[-1]), _LEVEL_ROWS), "right")
        for piece in np.split(live, cuts):
            if piece.size == 0:
                continue
            # set bits of the piece, row by row in ascending order; a flat
            # nonzero on a bool view is several times faster than a 2-D one
            sub = cand[piece]
            bit = np.flatnonzero(np.unpackbits(sub.view(np.uint8), bitorder="little").view(bool))
            row = np.repeat(np.arange(piece.size), pc[piece])
            gs = g[piece][row]
            level(k + 1, gs, sub[row] & first[gs * n + bit - row * (64 * nwords)])

    level(1, np.repeat(np.arange(graphs), n), first)
    return counts, exists


def clique_stats(words: np.ndarray, count_size: int, exist_size: int) -> tuple[int, bool]:
    """(number of cliques on count_size vertices, any clique on exist_size)
    for one graph's (n, nwords) bitset rows; see clique_census."""
    counts, exists = clique_census(words[None], count_size, exist_size)
    return int(counts[0]), bool(exists[0])


def _atoms_hold(table: np.ndarray, op) -> bool:
    """True iff table[a | b] = op(table[a], table[b]) for every pair of masks.

    With op an OR or an AND, that holds exactly when each table[a] is op
    over table[0] and the table[{i}] of the faces i of a, so a doubling
    over the face bits rebuilds the table from those atoms.
    """
    atoms = table[1 << np.arange(table.size.bit_length() - 1)]
    return bool(np.array_equal(doubling(table[0], atoms, op), table))


def _bad_pairs(table: np.ndarray, op) -> int:
    """Number of unordered pairs a <= b with table[a | b] != op(table[a], table[b])."""
    idx = np.arange(table.size, dtype=np.uint32)
    bad = 0
    for a in range(table.size):
        b = idx[a:]
        bad += int(np.count_nonzero(table[np.uint32(a) | b] != op(table[a], table[b])))
    return bad


def pair_laws(ct: np.ndarray, dt: np.ndarray, gt: np.ndarray) -> tuple[np.ndarray, int]:
    """Violation counts for the three distribution laws over all unordered
    mask pairs, given the closure, interior-complex, and complement tables.

    Checks gamma(a+b) = gamma a /\\ gamma b, Delta(a+b) = Delta a + Delta b,
    and delta(a /\\ b) = delta a /\\ delta b.  Returns (violations per law,
    number of pairs).  Each law is checked by its atoms (_atoms_hold); the
    delta law is a union law of S(x) = delta(L minus x), which is dt read
    backwards.  Only a law that fails is swept pair by pair, for its count.
    """
    n = int(ct.shape[0])
    laws = ((gt, np.bitwise_and), (ct, np.bitwise_or), (dt[::-1], np.bitwise_and))
    bad = np.zeros(3, dtype=np.int64)
    for k, (table, op) in enumerate(laws):
        if not _atoms_hold(table, op):
            bad[k] = _bad_pairs(table, op)
    return bad, n * (n + 1) // 2
