"""Text file formats.

Complex files (.cx) and hypergraph files (.hg) share one syntax: UTF-8, one
face per line as ascending space-separated integer vertex labels, '#' starts
a comment, blank lines ignored.  A .cx is closed downward on load; a .hg is
taken literally and each face must exist in the ambient it is read against.
Writers emit faces in canonical order (dimension, then lexicographic) with a
single trailing newline, so writing what was read from a canonical file
reproduces it byte for byte.  All writes go through a temp file and rename.
"""

from __future__ import annotations

import csv
import io as _io
import os
import tempfile

from .complexes import AmbientComplex, Complex, Hypergraph, iter_bits
from .models import ProbabilityAssignment
from .sparse import STATS_COLUMNS

__all__ = [
    "FileFormatError",
    "atomic_write",
    "read_complex",
    "write_complex",
    "read_hypergraph",
    "write_hypergraph",
    "read_probability",
    "write_probability",
    "format_faces",
    "format_mask",
    "write_samples",
    "format_stats_csv",
    "write_stats_csv",
]


class FileFormatError(ValueError):
    pass


def atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _parse_face_lines(path: str) -> list[tuple[int, ...]]:
    faces = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                verts = tuple(int(tok) for tok in line.split())
            except ValueError:
                raise FileFormatError(f"{path}:{lineno}: not an integer face: {line!r}") from None
            if len(set(verts)) != len(verts):
                raise FileFormatError(f"{path}:{lineno}: repeated vertex in {line!r}")
            faces.append(tuple(sorted(verts)))
    return faces


def _face_lines(faces) -> str:
    ordered = sorted(set(faces), key=lambda f: (len(f), f))
    return "".join(" ".join(str(v) for v in face) + "\n" for face in ordered)


def read_complex(path: str) -> AmbientComplex:
    faces = _parse_face_lines(path)
    if not faces:
        raise FileFormatError(f"{path}: no faces")
    return AmbientComplex(faces)


def write_complex(path: str, cx) -> None:
    """Write an ambient complex, or a Hypergraph that is downward closed."""
    if isinstance(cx, AmbientComplex):
        faces = [cx.face_vertices(i) for i in range(cx.num_faces)]
    else:
        if not cx.is_complex:
            raise FileFormatError("face set is not downward closed; write it as a .hg")
        faces = list(cx.faces())
    atomic_write(path, _face_lines(faces))


def read_hypergraph(path: str, ambient: AmbientComplex) -> Hypergraph:
    faces = _parse_face_lines(path)
    return Hypergraph.from_faces(ambient, faces)


def write_hypergraph(path: str, h: Hypergraph) -> None:
    atomic_write(path, _face_lines(h.faces()))


def read_probability(path: str) -> ProbabilityAssignment:
    with open(path, encoding="utf-8") as fh:
        return ProbabilityAssignment.from_json(fh.read())


def write_probability(path: str, pa: ProbabilityAssignment) -> None:
    atomic_write(path, pa.to_json() + "\n")


def format_faces(faces) -> str:
    """One structure on one line: faces joined by ', ', '-' when empty."""
    ordered = sorted(faces, key=lambda f: (len(f), f))
    if not ordered:
        return "-"
    return ", ".join(" ".join(str(v) for v in face) for face in ordered)


def format_mask(amb: AmbientComplex, mask: int) -> str:
    """format_faces(amb.faces_of_mask(mask)) from the ambient's cached face
    text: the canonical face order is the (size, vertices) order."""
    text = amb.face_text
    return ", ".join([text[i] for i in iter_bits(mask)]) or "-"


def write_samples(path: str, samples) -> None:
    atomic_write(path, "".join(format_faces(faces) + "\n" for faces in samples))


def format_stats_csv(rows) -> str:
    """The stats rows as CSV text, header first, floats at full precision
    (str of a float is its repr)."""
    buf = _io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(STATS_COLUMNS), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def write_stats_csv(path: str, rows) -> None:
    atomic_write(path, format_stats_csv(rows))
