"""Self-tests of the benchmark's checks.  Run from the repository root:

    python3 -m pytest perfbench -q

Each output check must fire on a corrupted result, and a second seed must
give new inputs that pass every check apart from the recorded mass drift.
"""

import filecmp
import os

import pytest

import inputs
import jobs as jobmod
import run
from instrument import Instrumented, Probe, Tracer

HO = run._import_hyperops()


def _setup(workload, seed, tmp_path, monkeypatch):
    params = inputs.make_inputs(workload, seed, str(tmp_path))
    monkeypatch.chdir(tmp_path)
    return params, {job.name: job for job in jobmod.WORKLOADS[workload](params)}


def _evaluate(workload, params, checks, only_these=True):
    """run.evaluate against the recorded values; `only_these` leaves out the
    checks of jobs that were not run."""
    expected = run.load_expected(workload, params["variant"])
    if only_these:
        expected = {k: v for k, v in expected.items() if k in checks}
    return run.evaluate(expected, [checks])


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    tracer.spans = [["a", 0.0, 10.0, -1], ["b", 2.0, 5.0, 0], ["c", 3.0, 4.0, 1], ["b", 6.0, 7.0, 0]]
    assert tracer.self_times() == {"a": 6.0, "b": 3.0, "c": 1.0}


def test_wrappers_are_removed_after_a_pass():
    pf = HO.pushforward
    before = (pf.push_union, HO.operators.PRIMITIVE_TABLES["Delta"], HO.complexes.AmbientComplex.__init__)
    with Instrumented(Probe(), Tracer()):
        assert pf.push_union is not before[0]
        assert HO.operators.PRIMITIVE_TABLES["Delta"] is not before[1]
    assert (pf.push_union, HO.operators.PRIMITIVE_TABLES["Delta"], HO.complexes.AmbientComplex.__init__) == before


def test_perturbed_probability_vector_fails_mass_and_tv(tmp_path, monkeypatch):
    params, jobs = _setup("exact_big", 1, tmp_path, monkeypatch)
    original = HO.pushforward.push_union

    def perturbed(a, b):
        out = original(a, b)
        out.vec[0] += 1e-9
        return out

    monkeypatch.setattr(HO.pushforward, "push_union", perturbed)
    checks = run.run_pass([jobs["union.c6"]], jobmod.Context(HO), traced=False).checks
    assert checks == {"union.c6.tv": False, "union.c6.mass": False}
    failed, unexpected = _evaluate("exact_big", params, checks)
    assert {"union.c6.tv", "union.c6.mass"} <= set(unexpected)


def test_wrong_join_law_fails_tv_where_mass_is_a_known_failure(tmp_path, monkeypatch):
    # Variant 0 records join.c6.mass as failing, so only the TV check can
    # catch a binary push that moves mass to the wrong mask.
    params, jobs = _setup("exact_big", 0, tmp_path, monkeypatch)
    original = HO.pushforward.push_word

    def misplaced(word, *dists):
        out = original(word, *dists)
        if len(dists) == 2:
            moved = 1e-8
            out.vec[out.vec.argmax()] -= moved
            out.vec[0] += moved
        return out

    monkeypatch.setattr(HO.pushforward, "push_word", misplaced)
    checks = run.run_pass([jobs["join.c6"]], jobmod.Context(HO), traced=False).checks
    assert checks["join.c6.tv"] is False
    failed, unexpected = _evaluate("exact_big", params, checks)
    assert unexpected == ["join.c6.tv"]


def test_push_table_is_mass_checked(tmp_path, monkeypatch):
    params, jobs = _setup("exact_small", 1, tmp_path, monkeypatch)
    original = HO.pushforward.push_table

    def leaky(dist, table):
        out = original(dist, table)
        out.vec[0] -= 1e-9
        return out

    monkeypatch.setattr(HO.pushforward, "push_table", leaky)
    checks = run.run_pass([jobs["verify.sk1d3"]], jobmod.Context(HO), traced=False).checks
    assert checks["verify.sk1d3.mass"] is False


class _Corrupting(jobmod.Context):
    def __init__(self, corrupt):
        super().__init__(HO)
        self.corrupt = corrupt

    def cli(self, argv):
        rc, text = super().cli(argv)
        return rc, self.corrupt(text)


def test_flipped_stdout_byte_fails_digest(tmp_path, monkeypatch):
    params, jobs = _setup("beyond_tables", 1, tmp_path, monkeypatch)
    job = [jobs["figure1"], jobs["powers.H1"]]
    clean = run.run_pass(job, jobmod.Context(HO), traced=False).checks
    assert _evaluate("beyond_tables", params, clean) == ([], [])
    flip = lambda text: chr(ord(text[0]) ^ 1) + text[1:]
    checks = run.run_pass(job, _Corrupting(flip), traced=False).checks
    for name in ("figure1.stdout", "powers.H1.stdout"):
        assert checks[name] != clean[name]
        assert name in _evaluate("beyond_tables", params, checks)[1]


def test_changed_suite_failure_count_fails(tmp_path, monkeypatch):
    params, jobs = _setup("exact_small", 1, tmp_path, monkeypatch)
    job = [jobs["verify.sk1d3"]]

    def one_more_pass(text):
        # theorem1 passes one more case: the failed count drops by one
        lines = []
        for line in text.splitlines(keepends=True):
            if line.startswith("SUITE theorem1 "):
                passed, total = line.split()[3].split("/")
                line = line.replace(f"{passed}/{total}", f"{int(passed) + 1}/{total}")
            lines.append(line)
        return "".join(lines)

    checks = run.run_pass(job, _Corrupting(one_more_pass), traced=False).checks
    failed, unexpected = _evaluate("exact_small", params, checks)
    assert unexpected == ["verify.sk1d3.theorem1"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_seed_fixes_the_inputs(workload, tmp_path):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d, seed in zip(dirs, (1, 1, 2)):
        d.mkdir()
        inputs.make_inputs(workload, seed, str(d))
    names = sorted(os.listdir(dirs[0]))
    same, diff, _ = filecmp.cmpfiles(dirs[0], dirs[1], names, shallow=False)
    assert same == names
    same, diff, _ = filecmp.cmpfiles(dirs[0], dirs[2], names, shallow=False)
    assert diff, "a second seed must change the inputs"


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_second_seed_passes_all_but_known_drift(workload, tmp_path, monkeypatch):
    params, jobs = _setup(workload, 2, tmp_path, monkeypatch)
    checks = run.run_pass(list(jobs.values()), jobmod.Context(HO), traced=True).checks
    failed, unexpected = _evaluate(workload, params, checks, only_these=False)
    assert unexpected == []
    assert set(failed) <= {"join.c6.mass", "push.ext3.c10.mass"}
    if workload == "exact_big":
        assert failed, "variant 2 records the mass drift as a known failure"
