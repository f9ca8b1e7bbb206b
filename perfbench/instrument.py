"""Wrappers the benchmark puts around hyperops' public functions.

Two kinds of wrapper, installed for one pass and removed after it:

* a span per call (traced passes only): name, start, end and the index of
  the enclosing span, kept in memory.  A span's self time is its duration
  minus the durations of its direct children; self times are summed per
  layer metric, named after the module that owns the function.
* a mass probe on the push functions (every pass): the benchmark checks
  that each pushed distribution keeps total mass 1 within MASS_TOL.  It wraps
  outside the span, so the probe's own sum is not charged to the layer.

Wrappers are installed by replacing every reference to the original function
object in the namespaces of the loaded hyperops modules, including the
values of module-level dicts such as PRIMITIVE_TABLES and SUITES, so calls
made inside the package are wrapped as well as calls from outside.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

MASS_TOL = 1e-12


def _arity_layer(args) -> str:
    return "pushforward.binary" if len(args) > 2 else "pushforward.unary"


def _size(x) -> int:
    return int(getattr(x, "size", 0))


def _pairs(counts, args, result):
    counts["pushforward.binary_pairs"] += _size(args[-1].vec) ** 2


def _word_pairs(counts, args, result):
    if len(args) > 2:
        _pairs(counts, args, result)


def _faces_out(counts, args, result):
    faces = (result.hyper_faces + result.complex_faces) if hasattr(result, "hyper_faces") else result
    counts["sparse.faces_out"] += len(faces)


def _incr(name, amount=lambda args, result: 1):
    def count(counts, args, result):
        counts[name] += amount(args, result)
    return count


_TABLE_BUILDERS = ("identity_table", "complement_table", "closure_table",
                   "interior_complex_table", "interior_table", "extension_table",
                   "neighborhood_table", "neighborhood_inverse_table")
_MASK_OPS = ("closure_mask", "interior_complex_mask", "complement_mask",
             "extension_mask", "interior_mask", "neighborhood_mask",
             "neighborhood_inverse_mask", "closed_star_mask",
             "external_faces_mask", "clique_faces_mask")

_count_table = _incr("operators.table_builds")
_count_entries = _incr("operators.table_entries", lambda a, r: _size(r))

# (module, attribute, layer or layer-of-args, counters).  Layer names become
# the per-layer metrics "<layer>_s"; counters add to the named counts.
LAYERS = [
    ("complexes", "AmbientComplex.__init__", "complexes.ambient",
     [_incr("complexes.faces_built", lambda a, r: a[0].num_faces)]),
    ("io", "read_complex", "io.read", []),
    ("io", "read_hypergraph", "io.read", []),
    ("io", "read_probability", "io.read", []),
    ("io", "atomic_write", "io.write", [_incr("io.bytes_out", lambda a, r: len(a[1].encode()))]),
    ("io", "format_faces", "io.write", []),
    ("io", "write_complex", "io.write", []),
    ("io", "write_hypergraph", "io.write", []),
    ("io", "write_samples", "io.write", []),
    ("io", "write_stats_csv", "io.write", []),
    ("operators", "primitive_table", "operators.table", []),
    *[("operators", name, "operators.table", [_count_table, _count_entries]) for name in _TABLE_BUILDERS],
    *[("operators", name, "operators.mask_op", [_incr("operators.mask_ops")]) for name in _MASK_OPS],
    ("words", "eval_word_tables", "words.eval_tables", [_incr("words.evals")]),
    ("words", "eval_word_mask", "words.eval_mask", [_incr("words.evals")]),
    ("pushforward", "push_word", _arity_layer, [_word_pairs]),
    ("pushforward", "push_table", "pushforward.unary", []),
    ("pushforward", "push_extension_power", "pushforward.unary", []),
    ("pushforward", "push_interior_power", "pushforward.unary", []),
    ("pushforward", "push_union", "pushforward.binary", [_pairs]),
    ("pushforward", "push_intersection", "pushforward.binary", [_pairs]),
    ("pushforward", "hypergraph_product", "pushforward.product", []),
    ("pushforward", "point_mass", "pushforward.product", []),
    ("pushforward", "random_exact", "pushforward.product", []),
    ("pushforward", "empirical_distribution", "pushforward.product", []),
    ("pushforward", "complex_product", "pushforward.staged", []),
    ("pushforward", "marginals", "pushforward.marginals", []),
    ("pushforward", "marginal_gaps", "pushforward.marginals", []),
    ("pushforward", "closure_transform", "pushforward.transform", []),
    ("pushforward", "interior_transform", "pushforward.transform", []),
    ("pushforward", "union_transform", "pushforward.transform", []),
    ("pushforward", "intersection_transform", "pushforward.transform", []),
    ("pushforward", "complement_transform", "pushforward.transform", []),
    ("pushforward", "total_variation", "pushforward.transform", []),
    ("pushforward", "verify_transforms", "pushforward.transform", []),
    ("models", "sample_hypergraph", "models.sample", [_incr("models.samples")]),
    ("models", "sample_complex", "models.sample", [_incr("models.samples")]),
    ("models", "sample_hypergraph_batch", "models.sample", [_incr("models.samples", lambda a, r: len(r))]),
    ("models", "sample_complex_batch", "models.sample", [_incr("models.samples", lambda a, r: len(r))]),
    ("kernels", "sample_graph_words", "kernels.graph_sample", [_incr("kernels.graphs")]),
    ("kernels", "clique_stats", "kernels.census", []),
    ("kernels", "pair_laws", "kernels.pair_laws", [_incr("kernels.pairs", lambda a, r: r[1])]),
    ("sparse", "algorithm1_truncated", "sparse.alg1", [_faces_out]),
    ("sparse", "algorithm2_truncated", "sparse.alg2", [_faces_out]),
    ("sparse", "dimension_stats", "sparse.stats", []),
    ("sparse", "closure_dimension_stats", "sparse.stats", []),
    ("metric", "diameter", "metric.diameter", []),
    ("metric", "minimal_powers", "metric.powers", []),
    ("verify", "suite_identities", "verify.identities", []),
    ("verify", "suite_laws", "verify.laws", []),
    ("verify", "suite_powers", "verify.powers", []),
    ("verify", "suite_theorem1", "verify.theorem1", []),
    ("verify", "suite_theorem2", "verify.theorem2", []),
    ("cli", "cmd_push", "cli.push", []),
    ("cli", "cmd_verify", "cli.verify", []),
    ("cli", "cmd_stats", "cli.stats", []),
    ("cli", "cmd_sparse", "cli.sparse", []),
    ("cli", "cmd_gen", "cli.gen", []),
    ("cli", "cmd_powers", "cli.powers", []),
    ("cli", "cmd_figure1", "cli.figure1", []),
]

PUSHES = ("push_table", "push_word", "push_union", "push_intersection")

# Every layer and count the traced run reports, zero when a workload never
# reaches it.
LAYER_NAMES = sorted({layer for _, _, layer, _ in LAYERS if isinstance(layer, str)}
                     | {"pushforward.binary", "pushforward.unary"})
COUNT_NAMES = ["complexes.faces_built", "io.bytes_out", "operators.table_builds",
               "operators.table_entries", "operators.mask_ops", "words.evals",
               "pushforward.binary_pairs", "models.samples", "kernels.graphs",
               "kernels.pairs", "sparse.faces_out"]


class Tracer:
    """Spans of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self.origin = 0.0  # perf_counter at the start of the pass

    def wrap(self, layer, fn, counters):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            name = layer if isinstance(layer, str) else layer(args)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            for count in counters:
                count(counts, args, result)
            return result

        return traced

    def _self(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(end - start) - inner for (_, start, end, _), inner in zip(self.spans, child)]

    def self_times(self) -> dict[str, float]:
        """Self time summed per layer."""
        out = defaultdict(float)
        for (name, *_), own in zip(self.spans, self._self()):
            out[name] += own
        return dict(out)

    def dump(self, path: str) -> None:
        """One JSON line per span, times in seconds from the pass start."""
        origin = self.origin
        with open(path, "w", encoding="utf-8") as fh:
            for i, ((name, start, end, parent), own) in enumerate(zip(self.spans, self._self())):
                fh.write(json.dumps({"id": i, "name": name, "parent": parent,
                                     "start": round(start - origin, 7), "end": round(end - origin, 7),
                                     "self": round(own, 7)}) + "\n")


class Probe:
    """Total mass of every pushed distribution, collected per job."""

    def __init__(self):
        self.drifts: list[float] = []

    def wrap(self, fn):
        drifts = self.drifts

        def probed(*args, **kwargs):
            result = fn(*args, **kwargs)
            drifts.append(abs(1.0 - float(result.vec.sum())))
            return result

        return probed


def _resolve(module: str, attr: str):
    mod = importlib.import_module(f"hyperops.{module}")
    owner, _, name = attr.rpartition(".")
    return (getattr(mod, owner) if owner else mod), name


class Instrumented:
    """Context manager: wrappers in place for one pass, originals restored after."""

    def __init__(self, probe: Probe, tracer: Tracer | None = None):
        self.probe = probe
        self.tracer = tracer
        self._undo: list = []

    def __enter__(self):
        for module, attr, layer, counters in LAYERS:
            owner, name = _resolve(module, attr)
            original = owner.__dict__[name]
            wrapped = original
            if self.tracer is not None:
                wrapped = self.tracer.wrap(layer, original, counters)
            if module == "pushforward" and name in PUSHES:
                wrapped = self.probe.wrap(wrapped)
            if wrapped is not original:
                self._replace(original, wrapped)
                if isinstance(owner, type):
                    setattr(owner, name, wrapped)
                    self._undo.append((owner, name, original, True))
        return self

    def _replace(self, original, wrapped):
        for modname, mod in list(sys.modules.items()):
            if modname != "hyperops" and not modname.startswith("hyperops."):
                continue
            space = vars(mod)
            for key, value in list(space.items()):
                if key.startswith("__"):
                    continue
                if value is original:
                    space[key] = wrapped
                    self._undo.append((space, key, original, False))
                elif type(value) is dict:
                    for dkey, dvalue in value.items():
                        if dvalue is original:
                            value[dkey] = wrapped
                            self._undo.append((value, dkey, original, False))

    def __exit__(self, *exc):
        for target, key, original, is_attr in reversed(self._undo):
            if is_attr:
                setattr(target, key, original)
            else:
                target[key] = original
        self._undo.clear()
        return False
