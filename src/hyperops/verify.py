"""Verification suites.

Each suite sweeps a family of claims on one ambient complex and reports a
pass count over an explicit case count, one summary line per run:

    SUITE <name> PASS|FAIL <passed>/<total>

The sweeps are exhaustive over the subset lattice wherever the claim
quantifies over sub-hypergraphs; random exact distributions cover the
distribution-level claims.  theorem2 compares the closure and interior
pushforwards against the staged product family at face value, so its
closure/interior cases fail at non-degenerate probabilities: only the
per-face marginals of those two pushforwards match the derived vectors,
not the joint laws.

theorem1 and theorem2 hold their laws as rows of one array: the 20 random
laws of each theorem1 check, drawn in one call (the bytes and the stream
of 20 random_exact calls), and the four settings of theorem2 with their
product laws and closed-form families.  Limits, masses and TVs are taken
over the rows.  Every push is still one push_table, push_union or
push_intersection call on one law.

Every suite takes a TableSet, its one handle on the ambient (read as
`tables.ambient`), and a generator for its sampled checks.  The run owns
the set: iter_standard makes one per fixture and `verify --ambient` one per
run, so each table is built at most once per ambient.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .complexes import AmbientComplex, Hypergraph, standard_fixtures
from .kernels import pair_laws
from .metric import diameter, minimal_powers
from .models import rng_from
from .operators import TableSet, fixed_points
from .pushforward import (
    Distribution,
    _half_l1,
    _push_power,
    _random_laws,
    _saturation,
    _transform_tvs,
    contained,
    containment_cases,
    recovery_cases,
    vertex_supported,
)
from .words import REWRITE_RULES, eval_word_tables, word_from_names

__all__ = ["SuiteResult", "SUITES", "run_suite", "run_standard", "default_fixtures"]

EXACT_TOL = 1e-12

# seed of the sampled checks when none is given
DEFAULT_SEED = 2026


@dataclass
class SuiteResult:
    name: str
    passed: int
    total: int
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.passed == self.total

    def summary_line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"SUITE {self.name} {status} {self.passed}/{self.total}"


def _finite_diameter(amb: AmbientComplex, suite: str) -> int:
    """The ambient's diameter, which the saturation and power suites iterate
    to; a disconnected ambient has none."""
    d = diameter(amb)
    if d < 0:
        raise ValueError(
            f"suite {suite} needs an ambient of finite diameter; this one "
            f"({amb.num_vertices} vertices, {amb.num_faces} faces) is disconnected"
        )
    return d


def suite_identities(tables: TableSet, rng: np.random.Generator) -> SuiteResult:
    """The normalizer's rewrite rules, every sub-hypergraph of the ambient."""
    idx = tables["id"]
    size = idx.size
    passed = 0
    failures = []
    for lhs, rhs in REWRITE_RULES:
        left, right = word_from_names(list(lhs)), word_from_names(list(rhs))
        eq = int(np.count_nonzero(eval_word_tables(left, tables, [idx])
                                  == eval_word_tables(right, tables, [idx])))
        passed += eq
        if eq != size:
            failures.append(f"{left} = {right}: {size - eq} of {size} masks disagree")
    return SuiteResult("identities", passed, len(REWRITE_RULES) * size, failures)


def suite_laws(tables: TableSet, rng: np.random.Generator) -> SuiteResult:
    """The three distribution laws over all unordered mask pairs."""
    bad, pairs = pair_laws(tables["Delta"], tables["delta"], tables["gamma"])
    labels = (
        "gamma(a + b) = gamma(a) /\\ gamma(b)",
        "Delta(a + b) = Delta(a) + Delta(b)",
        "delta(a /\\ b) = delta(a) /\\ delta(b)",
    )
    failures = [
        f"{label}: {int(n)} of {pairs} pairs disagree"
        for label, n in zip(labels, bad)
        if n
    ]
    passed = 3 * pairs - int(bad.sum())
    return SuiteResult("laws", passed, 3 * pairs, failures)


def suite_theorem1(tables: TableSet, rng: np.random.Generator) -> SuiteResult:
    """Saturation, the containment battery, and the recovery inequality.

    Ext(Int(H)) inside the simplicial part of H is recorded as printed and
    as restricted to complexes; it fails for non-closed H (see
    containment_cases), so expect the all-masks record to FAIL on every
    fixture while the complex-restricted record passes.
    """
    amb = tables.ambient
    d = _finite_diameter(amb, "theorem1")
    size = tables["id"].size
    et, it, ct, dt = tables["Ext"], tables["Int"], tables["Delta"], tables["delta"]
    nt, nit = tables["Nbd"], tables["NbdInv"]

    passed = 0
    total = 0
    failures = []

    def record(label: str, good: int, cases: int):
        nonlocal passed, total
        passed += good
        total += cases
        if good != cases:
            failures.append(f"{label}: {cases - good} of {cases} cases fail")

    def saturated(laws: np.ndarray, table: np.ndarray, stay: int, end: int) -> int:
        # laws whose chain of d pushes ends at its limit; each row's end law
        # is subtracted in place from that row of the limits
        gaps = _saturation(laws, stay, end)
        for row, vec in enumerate(laws):
            np.subtract(_push_power(Distribution(amb, vec), table, d).vec, gaps[row], out=gaps[row])
        return int(np.count_nonzero(_half_l1(gaps) < EXACT_TOL))

    # saturation at the diameter: 20 random exact laws, rows of one array
    laws = _random_laws(amb, rng, 20)
    record("extension chain saturates at the diameter", saturated(laws, et, 0, amb.full_mask), 20)
    record("interior chain empties at the diameter", saturated(laws, it, amb.full_mask, 0), 20)

    # power sandwich: Ext^(k-1)(gH) <= g Int^k(H) <= Ext^(k+1)(gH), k <= diam+1
    sandwich = np.logical_and.reduce([containment_cases(tables, k)[0] for k in range(1, d + 2)])
    record("power sandwich between extension chains", int(sandwich.sum()), size)

    vcond = vertex_supported(amb)
    record(
        "neighborhood of co-neighborhood inside the simplicial part",
        int(contained(nt[nit], dt).sum()),
        size,
    )
    record("closure inside co-neighborhood of neighborhood", int(contained(ct, nit[nt]).sum()), size)
    ext_in_nbd = contained(et, nt)
    eq_where_vertex = ~vcond | (et == nt)
    record("extension inside neighborhood, equal on vertex-supported masks",
           int((ext_in_nbd & eq_where_vertex).sum()), size)

    ext_int_inside = containment_cases(tables, 1)[1]
    record("extension of interior inside the simplicial part (all masks)",
           int(ext_int_inside.sum()), size)
    is_complex = fixed_points(ct)
    record("extension of interior inside the simplicial part (complexes)",
           int(ext_int_inside[is_complex].sum()), int(is_complex.sum()))
    recovered_mask = recovery_cases(tables)
    record("closure recovered on vertex-supported masks",
           int(recovered_mask[vcond].sum()), int(vcond.sum()))

    # recovery inequality for 20 more random exact laws; compress keeps the
    # rows contiguous, so each row sums as its own vector would
    laws = _random_laws(amb, rng, 20)
    prob = laws.compress(recovered_mask, axis=1).sum(axis=1)
    bound = laws.compress(vcond, axis=1).sum(axis=1)
    record("recovery probability dominates vertex-support mass",
           int(np.count_nonzero(prob >= bound - EXACT_TOL)), 20)

    return SuiteResult("theorem1", passed, total, failures)


def suite_theorem2(tables: TableSet, rng: np.random.Generator) -> SuiteResult:
    """Pushforwards of product draws against the closed-form families.

    Complement, intersection, and union match exactly.  The closure and
    interior rows match only at degenerate probabilities; expect this suite
    to FAIL its four non-degenerate closure/interior cases.
    """
    # one row of probabilities per setting, in face order
    labels = ("p=0", "p=0.5", "p=1", "asymmetric")
    asymmetric = (0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3)
    m = tables.ambient.num_faces
    probs = np.stack([np.zeros(m), np.full(m, 0.5), np.ones(m), np.resize(asymmetric, m)])
    tvs = _transform_tvs(probs, tables)
    passed = 0
    total = 0
    failures = []
    for row, label in enumerate(labels):
        for op in ("complement", "closure", "interior", "intersection", "union"):
            tv = float(tvs[op][row])
            total += 1
            if tv < EXACT_TOL:
                passed += 1
            else:
                failures.append(f"{op} at {label}: TV = {tv:.6g}")
    return SuiteResult("theorem2", passed, total, failures)


def suite_powers(tables: TableSet, rng: np.random.Generator) -> SuiteResult:
    """Minimal vanishing/filling powers stay within one of each other.

    t is the least k with Int^k(H) empty, r the least k with Ext^k(gamma H)
    full; the empty and full masks are degenerate and skipped.  A random
    sample is cross-checked against the operator-level implementation.
    """
    amb = tables.ambient
    idx = tables["id"]
    size = idx.size
    it, et, gt = tables["Int"], tables["Ext"], tables["gamma"]
    full = np.uint32(amb.full_mask)
    limit = _finite_diameter(amb, "powers") + 2

    def first_power(table: np.ndarray, start: np.ndarray, goal) -> np.ndarray:
        # per mask, the least k <= limit with table^k(start) == goal; -1 if none
        least = np.full(size, -1, dtype=np.int64)
        cur = start
        least[cur == goal] = 0
        for k in range(1, limit + 1):
            cur = table[cur]
            least[(least < 0) & (cur == goal)] = k
        return least

    t = first_power(it, idx, 0)
    r = first_power(et, gt, full)

    live = (idx != 0) & (idx != full)
    resolved = live & (t >= 0) & (r >= 0)
    within_one = resolved & (np.abs(t - r) <= 1)
    passed = int(within_one.sum())
    total = int(live.sum())
    failures = []
    if passed != total:
        failures.append(f"{total - passed} of {total} masks break |t - r| <= 1")

    # a one-vertex ambient has no live mask to sample
    sample = rng.integers(1, size - 1, size=32) if total else []
    checks = len(sample)
    agree = 0
    for mask in sample:
        p = minimal_powers(Hypergraph(amb, int(mask)))
        if p.t == t[mask] and p.r == r[mask]:
            agree += 1
    if agree != checks:
        failures.append(f"{checks - agree} of {checks} sampled masks disagree with the operator-level powers")
    return SuiteResult("powers", passed + agree, total + checks, failures)


SUITES = {
    "identities": suite_identities,
    "laws": suite_laws,
    "theorem1": suite_theorem1,
    "theorem2": suite_theorem2,
    "powers": suite_powers,
}

# theorem2 on the 10-face sk1d3 runs in well under a second; it stays out of
# that suite's default scope only so that verify's output does not change.
_DEFAULT_SCOPE = {
    "identities": ("delta1", "delta2", "p3", "sk1d3"),
    "laws": ("delta1", "delta2", "p3", "sk1d3"),
    "theorem1": ("delta1", "delta2", "p3", "sk1d3"),
    "theorem2": ("delta1", "delta2", "p3"),
    "powers": ("delta1", "delta2", "p3", "sk1d3"),
}


def default_fixtures(suite: str) -> tuple[str, ...]:
    return _DEFAULT_SCOPE[suite]


def run_suite(name: str, tables: TableSet, rng: np.random.Generator) -> SuiteResult:
    try:
        fn = SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}") from None
    return fn(tables, rng)


def iter_standard(names=None, seed: int = DEFAULT_SEED) -> Iterator[SuiteResult]:
    """Run suites over their default fixtures, tagging names suite:fixture;
    each result is yielded as soon as its suite returns.  Each fixture has
    one TableSet, shared by every suite that runs on it."""
    sets = {fix: TableSet(amb) for fix, amb in standard_fixtures().items()}
    for name in names or sorted(SUITES):
        for fix in default_fixtures(name):
            res = run_suite(name, sets[fix], rng_from(seed))
            res.name = f"{name}:{fix}"
            yield res


def run_standard(names=None, seed: int = DEFAULT_SEED) -> list[SuiteResult]:
    """Every result of iter_standard, in order."""
    return list(iter_standard(names, seed))
