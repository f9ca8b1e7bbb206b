"""Seeded input files for the three workloads.

Every input is written as plain files (generator faces in `.cx`, literal
faces in `.hg`, probability JSON) into a work directory, so the program sees
only files and argv.  Ambients are written as generator faces and never
built here: ambient construction is paid inside the timed passes, not in
set-up.

The workload seed selects one of VARIANTS recorded input variants
(seed mod VARIANTS).  Each variant has its expected outputs recorded in
expected/<workload>.json, so the byte-identical checks apply to every seed.
Variants change vertex labels (and with them the canonical face order),
random sub-hypergraphs, the CLI `--seed` values and, where the work does not
depend on them, probability values.  Lattice sizes, expressions and sample
counts stay fixed, so the amount of work in a pass barely moves between
seeds.

Only `random.Random.random()` is used, whose output for an integer seed is
stable across Python versions.
"""

from __future__ import annotations

import json
import os
import random

VARIANTS = 16


def variant_of(seed: int) -> int:
    return seed % VARIANTS


class _Draw:
    def __init__(self, workload: str, variant: int):
        index = ("exact_big", "exact_small", "beyond_tables").index(workload)
        self.rng = random.Random(1000 * variant + index)

    def uniform(self, lo: float, hi: float, digits: int = 3) -> float:
        return round(lo + (hi - lo) * self.rng.random(), digits)

    def below(self, n: int) -> int:
        return min(int(self.rng.random() * n), n - 1)

    def labels(self, k: int) -> list[int]:
        """k distinct vertex labels from 0..4k-1, in random order."""
        pool = list(range(4 * k))
        for i in range(k):
            j = i + self.below(len(pool) - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]

    def subset(self, items: list, p: float) -> list:
        return [x for x in items if self.rng.random() < p]


def _cycle(labels: list[int]) -> list[tuple[int, ...]]:
    k = len(labels)
    return [(labels[i], labels[(i + 1) % k]) for i in range(k)]


def _triangle(m: int, labels: list[int] | None = None) -> list[tuple[int, ...]]:
    """The 2-cells of the side-m triangulated triangle.

    Lattice point (i, j) is vertex i * (m + 1) + j, the numbering of the
    package's `figure1` output; `labels` (one per lattice point, in that
    order) renames them.
    """
    vid = lambda i, j: i * (m + 1) + j
    cells = []
    for i in range(m + 1):
        for j in range(m + 1 - i):
            if i + j <= m - 1:
                cells.append((vid(i, j), vid(i + 1, j), vid(i, j + 1)))
            if i + j <= m - 2:
                cells.append((vid(i + 1, j), vid(i, j + 1), vid(i + 1, j + 1)))
    if labels is not None:
        rename = dict(zip(sorted({v for c in cells for v in c}), labels))
        cells = [tuple(rename[v] for v in c) for c in cells]
    return cells


def _closure(gens) -> list[tuple[int, ...]]:
    faces = set()
    for g in gens:
        g = tuple(sorted(g))
        for bits in range(1, 1 << len(g)):
            faces.add(tuple(v for b, v in enumerate(g) if bits >> b & 1))
    return sorted(faces, key=lambda f: (len(f), f))


def _random_complex(draw: _Draw, faces: int) -> list[tuple[int, ...]]:
    """Generator faces of a random connected complex with exactly `faces` faces.

    Grows from one vertex by edges and triangles that touch what is already
    there, skipping any that would overshoot the face count.
    """
    for _ in range(1000):
        labels = draw.labels(6)
        have = {(labels[0],)}
        gens = [(labels[0],)]
        for _ in range(60):
            if len(have) == faces:
                return gens
            a, b, c = (labels[draw.below(6)] for _ in range(3))
            gen = tuple(sorted({a, b, c} if draw.below(3) == 0 else {a, b}))
            grown = have | set(_closure([gen]))
            if grown != have and any((v,) in have for v in gen) and len(grown) <= faces:
                have = grown
                gens.append(gen)
    raise ValueError(f"no connected complex with {faces} faces found")


def _write_faces(path: str, faces) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(" ".join(str(v) for v in f) + "\n" for f in faces))


def _write_per_dim(path: str, p: list[float]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"mode": "per-dim", "p": p}, fh)


# Face counts of the exact_small family: a few dozen small ambients, most of
# them at 8 faces or fewer, where per-call cost outweighs lattice size.  No
# connected complex has 2 or 4 faces.
FAMILY_FACES = (3, 3, 3, 5, 5, 5, 5, 6, 6, 6, 6, 7, 7, 7, 7, 7,
                8, 8, 8, 8, 8, 8, 8, 8, 9, 9, 10, 11)


def make_inputs(workload: str, seed: int, out_dir: str) -> dict:
    """Write the workload's inputs into out_dir; return the run parameters."""
    variant = variant_of(seed)
    draw = _Draw(workload, variant)
    path = lambda name: os.path.join(out_dir, name)
    params = {"variant": variant, "cli_seed": 100 + variant}

    if workload == "exact_big":
        _write_faces(path("c10.cx"), _cycle(draw.labels(10)))
        _write_faces(path("t2.cx"), _triangle(2, draw.labels(6)))
        _write_faces(path("c6.cx"), _cycle(draw.labels(6)))
        _write_per_dim(path("cycle.json"), [draw.uniform(0.5, 0.9), draw.uniform(0.3, 0.7)])
        _write_per_dim(path("tri.json"), [1.0, draw.uniform(0.3, 0.7), draw.uniform(0.3, 0.7)])
        _write_per_dim(path("staged.json"), [draw.uniform(0.6, 0.95), draw.uniform(0.3, 0.7), draw.uniform(0.3, 0.7)])
        for name in ("join_a.json", "join_b.json"):
            _write_per_dim(path(name), [draw.uniform(0.1, 0.9), draw.uniform(0.1, 0.9)])
    elif workload == "exact_small":
        names = []
        for k, faces in enumerate(FAMILY_FACES):
            names.append(f"f{k:02d}.cx")
            _write_faces(path(names[-1]), _random_complex(draw, faces))
        # sk1d3, the 1-skeleton of the 3-simplex, under fresh labels
        labels = draw.labels(4)
        edges = [(labels[a], labels[b]) for a in range(4) for b in range(a + 1, 4)]
        names.append("sk1d3.cx")
        _write_faces(path("sk1d3.cx"), edges)
        params["family"] = names
    elif workload == "beyond_tables":
        # Fixed probabilities: output sizes, and with them the work, would
        # follow them.  Labels and CLI seeds still vary.
        _write_per_dim(path("sparse.json"), [1.0, 0.045, 0.0025])
        _write_per_dim(path("gen.json"), [0.75, 0.7, 0.65])
        _write_per_dim(path("tri.json"), [1.0, 0.5, 0.5])
        _write_faces(path("t2.cx"), _triangle(2, draw.labels(6)))
        # two sub-hypergraphs of the figure1 ambient (vertex ids fixed by figure1)
        fig_faces = _closure(_triangle(6))
        for name, p in (("fig_a.hg", 0.5), ("fig_b.hg", 0.9)):
            _write_faces(path(name), draw.subset(fig_faces, p) or fig_faces[:1])
        side20 = _triangle(20, draw.labels(21 * 22 // 2))
        _write_faces(path("t20.cx"), side20)
        t20_faces = _closure(side20)
        for name, p in (("t20_a.hg", 0.5), ("t20_b.hg", 0.97)):
            _write_faces(path(name), draw.subset(t20_faces, p) or t20_faces[:1])
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return params
