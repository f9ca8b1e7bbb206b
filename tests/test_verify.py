import itertools

import pytest

from hyperops.cli import main
from hyperops.complexes import AmbientComplex, standard_fixtures
from hyperops.metric import triangulated_triangle
from hyperops.models import rng_from
from hyperops.operators import TableSet
from hyperops.pushforward import verify_transforms
from hyperops.verify import (
    SUITES,
    SuiteResult,
    default_fixtures,
    iter_standard,
    run_suite,
    suite_identities,
    suite_laws,
    suite_powers,
    suite_theorem1,
    suite_theorem2,
)

import oracles
from test_census import CONNECTED, facets

# exhaustive counts of masks violating the printed extension-of-interior
# containment, per fixture; only complexes satisfy it
EXT_INT_VIOLATIONS = {"delta1": 2, "delta2": 18, "p3": 10, "sk1d3": 192}


def test_identities_exhaustive(fixtures):
    for amb in fixtures.values():
        res = suite_identities(TableSet(amb), rng_from(2026))
        assert res.ok
        assert res.total == 7 * (1 << amb.num_faces)
        assert res.summary_line() == f"SUITE identities PASS {res.total}/{res.total}"


def test_laws_exhaustive(fixtures):
    for amb in fixtures.values():
        res = suite_laws(TableSet(amb), rng_from(2026))
        assert res.ok
        size = 1 << amb.num_faces
        assert res.total == 3 * size * (size + 1) // 2


def test_theorem1_fails_only_the_printed_ext_int_row(fixtures):
    for name, amb in fixtures.items():
        res = suite_theorem1(TableSet(amb), rng_from(2026))
        assert not res.ok
        assert len(res.failures) == 1
        assert "all masks" in res.failures[0]
        assert res.total - res.passed == EXT_INT_VIOLATIONS[name], name


def test_theorem1_builds_ext_and_int_once(sk1d3, table_builds):
    # the saturation pushes and every case read the suite's one table set
    res = suite_theorem1(TableSet(sk1d3), rng_from(2026))
    assert table_builds["Ext"] == table_builds["Int"] == 1
    assert set(table_builds.values()) == {1}
    assert res.total - res.passed == EXT_INT_VIOLATIONS["sk1d3"]


def test_theorem2_builds_closure_once_per_ambient(delta2, table_builds):
    # _transform_tvs reads Delta, delta and gamma from the suite's set,
    # so the closure table serves all four settings
    res = suite_theorem2(TableSet(delta2), rng_from(2026))
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
    results = list(iter_standard(seed=2026))
    assert len(results) == sum(len(default_fixtures(name)) for name in SUITES)
    assert max(table_builds.values()) <= len(standard_fixtures())


def test_suites_share_a_table_set(sk1d3, table_builds):
    tables = TableSet(sk1d3)
    for name in sorted(SUITES):
        alone = run_suite(name, TableSet(sk1d3), rng_from(3))
        shared = run_suite(name, tables, rng_from(3))
        assert (alone.passed, alone.total, alone.failures) == (shared.passed, shared.total, shared.failures)
    built = dict(table_builds)
    for name in sorted(SUITES):
        run_suite(name, tables, rng_from(3))
    assert table_builds == built  # a filled set builds nothing more


def test_suites_reject_ambients_beyond_tables():
    big = AmbientComplex([(1, 2, 3, 4, 5)])  # 31 faces
    for name in SUITES:
        with pytest.raises(ValueError, match="at most|too large"):
            run_suite(name, TableSet(big), rng_from(1))


def test_theorem2_known_gaps(delta1, delta2):
    res = suite_theorem2(TableSet(delta1), rng_from(2026))
    assert (res.passed, res.total) == (16, 20)
    assert len(res.failures) == 4
    joined = "\n".join(res.failures)
    assert "closure at p=0.5: TV = 0.28125" in joined
    assert "interior at p=0.5: TV = 0.09375" in joined
    res = suite_theorem2(TableSet(delta2), rng_from(2026))
    assert (res.passed, res.total) == (16, 20)
    for line in res.failures:
        assert line.startswith(("closure", "interior"))
        assert "p=0.5" in line or "asymmetric" in line


def test_powers_suite(fixtures):
    for amb in fixtures.values():
        res = suite_powers(TableSet(amb), rng_from(2026))
        assert res.ok
        assert res.total == (1 << amb.num_faces) - 2 + 32


def test_diameter_suites_reject_disconnected_ambients():
    # diameter -1: no saturation power to iterate to
    for faces in ([(1, 2), (1, 3), (4, 5)], [(1, 2, 3), (4, 5), (6,)]):
        amb = AmbientComplex(faces)
        for suite in (suite_powers, suite_theorem1):
            with pytest.raises(ValueError, match="finite diameter"):
                suite(TableSet(amb), rng_from(2026))


def test_powers_suite_on_one_vertex():
    res = suite_powers(TableSet(AmbientComplex([(1,)])), rng_from(2026))
    assert (res.ok, res.passed, res.total) == (True, 0, 0)


def test_run_suite_dispatch(delta1):
    res = run_suite("identities", TableSet(delta1), rng_from(1))
    assert isinstance(res, SuiteResult)
    with pytest.raises(ValueError):
        run_suite("bogus", TableSet(delta1), rng_from(1))


def test_run_standard_tags_names():
    results = list(iter_standard(["identities", "powers"], seed=2026))
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


# ----- stacked laws against the per-law loops ------------------------------------


def _random_flag_ambient(seed):
    # a random tree on 6 vertices, two more random edges and every triangle
    # of the resulting graph: connected, at most 6 + 7 + 6 faces
    rng = rng_from(seed)
    edges = {(int(rng.integers(1, v)), v) for v in range(2, 7)}
    pairs = sorted(set(itertools.combinations(range(1, 7), 2)) - edges)
    edges |= {pairs[int(k)] for k in rng.choice(len(pairs), 2, replace=False)}
    triangles = [t for t in itertools.combinations(range(1, 7), 3)
                 if set(itertools.combinations(t, 2)) <= edges]
    return AmbientComplex([(v,) for v in range(1, 7)] + sorted(edges) + triangles)


ORACLE_AMBIENTS = [
    *standard_fixtures().items(),
    *((f"class-{facets(amb)}", amb) for _, amb in CONNECTED),
    ("triangle1", triangulated_triangle(1)),
    *((f"flag6-{seed}", _random_flag_ambient(seed)) for seed in (1, 2)),
]


@pytest.mark.parametrize("seed", [3, 2026])
@pytest.mark.parametrize("name, amb", ORACLE_AMBIENTS, ids=[name for name, _ in ORACLE_AMBIENTS])
def test_stacked_theorem_suites_match_per_law_loops(name, amb, seed):
    # same counts and failure lines, and the same uniforms consumed
    tables = TableSet(amb)
    for suite, oracle in ((suite_theorem1, oracles.o_suite_theorem1),
                          (suite_theorem2, oracles.o_suite_theorem2)):
        got_rng, want_rng = rng_from(seed), rng_from(seed)
        res = suite(tables, got_rng)
        assert (res.passed, res.total, res.failures) == oracle(amb, want_rng, tables), suite.__name__
        assert got_rng.random(4).tolist() == want_rng.random(4).tolist(), suite.__name__


@pytest.mark.parametrize("name, amb", ORACLE_AMBIENTS, ids=[name for name, _ in ORACLE_AMBIENTS])
def test_verify_transforms_matches_per_setting_loop(name, amb):
    tables = TableSet(amb)
    for _, pa in oracles.o_theorem2_settings(amb):
        assert verify_transforms(amb, pa) == oracles.o_verify_transforms(amb, pa, tables)
