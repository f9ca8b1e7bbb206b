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

Suites read their tables from a TableSet owned by the run: iter_standard
makes one per fixture and `verify --ambient` one per run, so each table is
built at most once per ambient; a suite called without a set makes its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .complexes import AmbientComplex, Hypergraph, standard_fixtures
from .kernels import pair_laws
from .metric import diameter, minimal_powers
from .models import ProbabilityAssignment, rng_from
from .operators import TableSet, fixed_points
from .pushforward import (
    contained,
    containment_cases,
    extension_limit,
    interior_limit,
    push_table,
    random_exact,
    recovery_cases,
    total_variation,
    verify_transforms,
    vertex_supported,
)
from .words import REWRITE_RULES, eval_word_tables, word_from_names

__all__ = ["SuiteResult", "SUITES", "run_suite", "run_standard", "default_fixtures"]

EXACT_TOL = 1e-12


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


def suite_identities(amb: AmbientComplex, rng=None, tables: TableSet | None = None) -> SuiteResult:
    """The normalizer's rewrite rules, every sub-hypergraph of the ambient."""
    tables = TableSet(amb) if tables is None else tables
    idx = tables["id"]
    size = idx.size
    passed = 0
    failures = []
    for lhs, rhs in REWRITE_RULES:
        left, right = word_from_names(list(lhs)), word_from_names(list(rhs))
        eq = int(np.count_nonzero(eval_word_tables(left, amb, [idx], tables)
                                  == eval_word_tables(right, amb, [idx], tables)))
        passed += eq
        if eq != size:
            failures.append(f"{left} = {right}: {size - eq} of {size} masks disagree")
    return SuiteResult("identities", passed, len(REWRITE_RULES) * size, failures)


def suite_laws(amb: AmbientComplex, rng=None, tables: TableSet | None = None) -> SuiteResult:
    """The three distribution laws over all unordered mask pairs."""
    tables = TableSet(amb) if tables is None else tables
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


def suite_theorem1(amb: AmbientComplex, rng=None, tables: TableSet | None = None) -> SuiteResult:
    """Saturation, the containment battery, and the recovery inequality.

    Ext(Int(H)) inside the simplicial part of H is recorded as printed and
    as restricted to complexes; it fails for non-closed H (see
    containment_cases), so expect the all-masks record to FAIL on every
    fixture while the complex-restricted record passes.
    """
    rng = rng if rng is not None else rng_from(2026)
    tables = TableSet(amb) if tables is None else tables
    d = diameter(amb)
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

    # saturation at the diameter, 20 random exact distributions each way,
    # pushed d times through the set's tables
    ext_good = int_good = 0
    for _ in range(20):
        f = random_exact(amb, rng)
        ext = intr = f
        for _ in range(d):
            ext, intr = push_table(ext, et), push_table(intr, it)
        if total_variation(ext, extension_limit(f)) < EXACT_TOL:
            ext_good += 1
        if total_variation(intr, interior_limit(f)) < EXACT_TOL:
            int_good += 1
    record("extension chain saturates at the diameter", ext_good, 20)
    record("interior chain empties at the diameter", int_good, 20)

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

    # recovery inequality for 20 random exact distributions
    good = 0
    for _ in range(20):
        f = random_exact(amb, rng)
        prob = float(f.vec[recovered_mask].sum())
        bound = float(f.vec[vcond].sum())
        if prob >= bound - EXACT_TOL:
            good += 1
    record("recovery probability dominates vertex-support mass", good, 20)

    return SuiteResult("theorem1", passed, total, failures)


def _asymmetric_assignment(amb: AmbientComplex) -> ProbabilityAssignment:
    values = (0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3)
    entries = [
        (amb.face_vertices(i), values[i % len(values)])
        for i in range(amb.num_faces)
    ]
    return ProbabilityAssignment.from_entries(entries)


def suite_theorem2(amb: AmbientComplex, rng=None, tables: TableSet | None = None) -> SuiteResult:
    """Pushforwards of product draws against the closed-form families.

    Complement, intersection, and union match exactly.  The closure and
    interior rows match only at degenerate probabilities; expect this suite
    to FAIL its four non-degenerate closure/interior cases.
    """
    tables = TableSet(amb) if tables is None else tables
    settings = [
        ("p=0", ProbabilityAssignment.constant(0.0)),
        ("p=0.5", ProbabilityAssignment.constant(0.5)),
        ("p=1", ProbabilityAssignment.constant(1.0)),
        ("asymmetric", _asymmetric_assignment(amb)),
    ]
    passed = 0
    total = 0
    failures = []
    for label, pa in settings:
        tvs = verify_transforms(amb, pa, tables=tables)
        for op in ("complement", "closure", "interior", "intersection", "union"):
            total += 1
            if tvs[op] < EXACT_TOL:
                passed += 1
            else:
                failures.append(f"{op} at {label}: TV = {tvs[op]:.6g}")
    return SuiteResult("theorem2", passed, total, failures)


def suite_powers(amb: AmbientComplex, rng=None, tables: TableSet | None = None) -> SuiteResult:
    """Minimal vanishing/filling powers stay within one of each other.

    t is the least k with Int^k(H) empty, r the least k with Ext^k(gamma H)
    full; the empty and full masks are degenerate and skipped.  A random
    sample is cross-checked against the operator-level implementation.
    """
    rng = rng if rng is not None else rng_from(2026)
    tables = TableSet(amb) if tables is None else tables
    idx = tables["id"]
    size = idx.size
    it, et, gt = tables["Int"], tables["Ext"], tables["gamma"]
    full = np.uint32(amb.full_mask)
    limit = diameter(amb) + 2

    t = np.full(size, -1, dtype=np.int64)
    cur = idx
    t[cur == 0] = 0
    for k in range(1, limit + 1):
        cur = it[cur]
        t[(t < 0) & (cur == 0)] = k
    r = np.full(size, -1, dtype=np.int64)
    cur = gt
    r[cur == full] = 0
    for k in range(1, limit + 1):
        cur = et[cur]
        r[(r < 0) & (cur == full)] = k

    live = (idx != 0) & (idx != full)
    resolved = live & (t >= 0) & (r >= 0)
    within_one = resolved & (np.abs(t - r) <= 1)
    passed = int(within_one.sum())
    total = int(live.sum())
    failures = []
    if passed != total:
        failures.append(f"{total - passed} of {total} masks break |t - r| <= 1")

    checks = 32
    sample = rng.integers(1, size - 1, size=checks)
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


def run_suite(name: str, amb: AmbientComplex, rng=None, tables: TableSet | None = None) -> SuiteResult:
    try:
        fn = SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}") from None
    return fn(amb, rng, tables)


def iter_standard(names=None, seed: int = 2026) -> Iterator[SuiteResult]:
    """Run suites over their default fixtures, tagging names suite:fixture;
    each result is yielded as soon as its suite returns.  Each fixture has
    one TableSet, shared by every suite that runs on it."""
    fixtures = standard_fixtures()
    sets = {fix: TableSet(amb) for fix, amb in fixtures.items()}
    for name in names or sorted(SUITES):
        for fix in default_fixtures(name):
            res = run_suite(name, fixtures[fix], rng_from(seed), sets[fix])
            res.name = f"{name}:{fix}"
            yield res


def run_standard(names=None, seed: int = 2026) -> list[SuiteResult]:
    """Every result of iter_standard, in order."""
    return list(iter_standard(names, seed))
