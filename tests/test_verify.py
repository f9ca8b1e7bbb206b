import pytest

from hyperops.cli import main
from hyperops.complexes import AmbientComplex, standard_fixtures
from hyperops.models import rng_from
from hyperops.operators import TableSet
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


def test_theorem1_builds_ext_and_int_once(sk1d3, table_builds):
    # the saturation pushes and every case read the suite's one table set
    res = suite_theorem1(sk1d3, rng_from(2026))
    assert table_builds["Ext"] == table_builds["Int"] == 1
    assert set(table_builds.values()) == {1}
    assert res.total - res.passed == EXT_INT_VIOLATIONS["sk1d3"]


def test_theorem2_builds_closure_once_per_ambient(delta2, table_builds):
    # verify_transforms reads Delta, delta and gamma from the suite's set,
    # so the closure table serves all four settings
    res = suite_theorem2(delta2)
    assert table_builds["Delta"] == 1
    assert set(table_builds.values()) == {1}
    assert (res.passed, res.total) == (16, 20)


def test_verify_ambient_builds_each_table_at_most_once(tmp_path, capsys, table_builds):
    path = tmp_path / "sk1d3.cx"
    path.write_text("1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n", encoding="utf-8")
    assert main(["verify", "--ambient", str(path)]) == 1  # theorem1 and theorem2 fail by design
    out = capsys.readouterr().out
    assert [line.split()[1] for line in out.splitlines()] == sorted(SUITES)
    assert set(table_builds) >= {"id", "Delta", "delta", "gamma", "Ext", "Int", "Nbd", "NbdInv"}
    assert set(table_builds.values()) == {1}


def test_standard_run_builds_each_table_once_per_fixture(table_builds):
    results = run_standard(seed=2026)
    assert len(results) == sum(len(default_fixtures(name)) for name in SUITES)
    assert max(table_builds.values()) <= len(standard_fixtures())


def test_suites_share_a_table_set(sk1d3, table_builds):
    tables = TableSet(sk1d3)
    for name in sorted(SUITES):
        alone = run_suite(name, sk1d3, rng_from(3))
        shared = run_suite(name, sk1d3, rng_from(3), tables)
        assert (alone.passed, alone.total, alone.failures) == (shared.passed, shared.total, shared.failures)
    built = dict(table_builds)
    for name in sorted(SUITES):
        run_suite(name, sk1d3, rng_from(3), tables)
    assert table_builds == built  # a filled set builds nothing more


def test_suites_reject_ambients_beyond_tables():
    big = AmbientComplex([(1, 2, 3, 4, 5)])  # 31 faces
    for name in SUITES:
        with pytest.raises(ValueError, match="at most|too large"):
            run_suite(name, big, rng_from(1))


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
