import pytest

from hyperops import operators, pushforward, verify
from hyperops.models import rng_from
from hyperops.verify import (
    SUITES,
    SuiteResult,
    default_fixtures,
    run_standard,
    run_suite,
    suite_identities,
    suite_laws,
    suite_powers,
    suite_theorem1,
    suite_theorem2,
)

# exhaustive counts of masks violating the printed extension-of-interior
# containment, per fixture; only complexes satisfy it
EXT_INT_VIOLATIONS = {"delta1": 2, "delta2": 18, "p3": 10, "sk1d3": 192}


def test_identities_exhaustive(fixtures):
    for amb in fixtures.values():
        res = suite_identities(amb)
        assert res.ok
        assert res.total == 7 * (1 << amb.num_faces)
        assert res.summary_line() == f"SUITE identities PASS {res.total}/{res.total}"


def test_laws_exhaustive(fixtures):
    for amb in fixtures.values():
        res = suite_laws(amb)
        assert res.ok
        size = 1 << amb.num_faces
        assert res.total == 3 * size * (size + 1) // 2


def test_theorem1_fails_only_the_printed_ext_int_row(fixtures):
    for name, amb in fixtures.items():
        res = suite_theorem1(amb, rng_from(2026))
        assert not res.ok
        assert len(res.failures) == 1
        assert "all masks" in res.failures[0]
        assert res.total - res.passed == EXT_INT_VIOLATIONS[name], name


def test_theorem1_builds_ext_and_int_once(sk1d3, monkeypatch):
    # the saturation pushes go through the suite's own tables
    built = []
    for module in (verify, pushforward):
        for name in ("extension_table", "interior_table"):
            build = getattr(module, name)
            monkeypatch.setattr(module, name, lambda amb, b=build, n=name: built.append(n) or b(amb))
    res = suite_theorem1(sk1d3, rng_from(2026))
    assert sorted(built) == ["extension_table", "interior_table"]
    assert res.total - res.passed == EXT_INT_VIOLATIONS["sk1d3"]


def test_theorem2_builds_closure_once_per_setting(delta2, monkeypatch):
    # verify_transforms pushes through the closure table it holds and reads
    # the staged laws' subcomplex indicator off the same table
    built = []
    for module in (operators, pushforward, verify):
        if hasattr(module, "closure_table"):
            build = getattr(module, "closure_table")
            monkeypatch.setattr(module, "closure_table", lambda amb, b=build: built.append(1) or b(amb))
    res = suite_theorem2(delta2)
    assert len(built) == 4
    assert (res.passed, res.total) == (16, 20)


def test_theorem2_known_gaps(delta1, delta2):
    res = suite_theorem2(delta1)
    assert (res.passed, res.total) == (16, 20)
    assert len(res.failures) == 4
    joined = "\n".join(res.failures)
    assert "closure at p=0.5: TV = 0.28125" in joined
    assert "interior at p=0.5: TV = 0.09375" in joined
    res = suite_theorem2(delta2)
    assert (res.passed, res.total) == (16, 20)
    for line in res.failures:
        assert line.startswith(("closure", "interior"))
        assert "p=0.5" in line or "asymmetric" in line


def test_powers_suite(fixtures):
    for amb in fixtures.values():
        res = suite_powers(amb, rng_from(2026))
        assert res.ok
        assert res.total == (1 << amb.num_faces) - 2 + 32


def test_run_suite_dispatch(delta1):
    res = run_suite("identities", delta1)
    assert isinstance(res, SuiteResult)
    with pytest.raises(ValueError):
        run_suite("bogus", delta1)


def test_run_standard_tags_names():
    results = run_standard(["identities", "powers"], seed=2026)
    names = [r.name for r in results]
    assert names == [
        f"identities:{f}" for f in default_fixtures("identities")
    ] + [f"powers:{f}" for f in default_fixtures("powers")]
    assert all(r.ok for r in results)


def test_default_scope_covers_all_suites():
    for name in SUITES:
        fixes = default_fixtures(name)
        assert fixes
        assert set(fixes) <= {"delta1", "delta2", "p3", "sk1d3"}
