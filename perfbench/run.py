"""hyperops benchmark: three workloads over the exact and beyond-table layers.

Run from the repository root:

    python3 perfbench/run.py --workload exact_big --seed 1 --seconds 40 --trace 0

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics: with --trace 0 the end-to-end metrics (run_s, setup_s,
peak_rss_mib), with --trace 1 the per-layer metrics of a traced run.  The
lines before it print every metric with its unit, the spread of run_s, the
failed checks and the environment.  `--workload all` runs every workload in
both modes, and `--record` rewrites the expected outputs (see README.md).

This process only orchestrates.  The workload itself runs in one fresh
worker process (`--worker run`), jobs one after another, no threads; setup
is timed from spawning a process to its first job being ready, several
times (`--worker setup`), and reported as the median.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORKLOADS = ("exact_big", "exact_small", "beyond_tables")
SETUP_PROBES = 5
MIN_PASSES = 3
END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}



# ----- worker ------------------------------------------------------------------


def _import_hyperops():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import importlib
    from types import SimpleNamespace

    names = ("cli", "complexes", "expr", "io", "kernels", "metric", "models",
             "operators", "pushforward", "sparse", "verify", "words")
    return SimpleNamespace(**{n: importlib.import_module(f"hyperops.{n}") for n in names})


def _prepare(workload: str, seed: int, spawned_at: float):
    """Import, write the inputs into a fresh work dir and enter it."""
    ho = _import_hyperops()
    import inputs

    work = os.path.join(ROOT, ".perfbench_tmp", f"{workload}-{os.getpid()}")
    os.makedirs(work)
    params = inputs.make_inputs(workload, seed, work)
    os.chdir(work)
    return ho, params, work, time.monotonic() - spawned_at


def _environment(ho) -> dict:
    import importlib.util
    import platform

    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "active_backend": ho.kernels.active_backend(),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": commit or "unknown (not a git checkout)",
    }


class Pass(NamedTuple):
    wall: float  # seconds
    checks: dict
    drifts: dict  # job -> largest |1 - mass| of its pushes
    tracer: object


def run_pass(jobs, ctx, traced: bool) -> Pass:
    """One pass over the job list."""
    from instrument import MASS_TOL, Instrumented, Probe, Tracer

    tracer = Tracer() if traced else None
    ctx.tracer = tracer
    probe = Probe()
    checks, drifts = {}, {}
    with Instrumented(probe, tracer):
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.origin = t0
        for job in jobs:
            probe.drifts.clear()
            try:
                out = job.run(ctx)
            except Exception as e:
                traceback.print_exc(file=sys.stderr)
                out = {f"{job.name}.error": f"{type(e).__name__}: {e}"}
            if job.pushes:
                drifts[job.name] = max(probe.drifts, default=0.0)
                out[f"{job.name}.mass"] = drifts[job.name] <= MASS_TOL
            checks.update(out)
        wall = time.perf_counter() - t0
    return Pass(wall, checks, drifts, tracer)


def _expected_path(workload: str) -> str:
    return os.path.join(HERE, "expected", f"{workload}.json")


def load_expected(workload: str, variant: int) -> dict:
    """Check name -> recorded value for one input variant."""
    with open(_expected_path(workload), encoding="utf-8") as fh:
        doc = json.load(fh)
    return {k: v for k, v in zip(doc["checks"], doc["variants"][variant]) if v is not None}


def evaluate(expected: dict, passes: list[dict]) -> tuple[list[str], list[str]]:
    """(failed checks, unexpected failures) over all passes.

    An exact value fails when any pass differs from the recorded value, which
    also catches traced and untraced passes that disagree.  An invariant fails
    when any pass breaks it; that is unexpected unless it was recorded as
    failing, i.e. a known failure.
    """
    failed, unexpected = [], []
    for name in sorted(set(expected).union(*passes)):
        want = expected.get(name)
        got = [p.get(name) for p in passes]
        if isinstance(want, bool):
            bad = any(g is not True for g in got)
            surprise = bad and want
        else:
            bad = want is None or any(g != want for g in got)
            surprise = bad
        if bad:
            failed.append(name)
        if surprise:
            unexpected.append(name)
    return failed, unexpected


def worker_run(args) -> dict:
    import jobs as jobmod
    from instrument import COUNT_NAMES, LAYER_NAMES

    ho, params, work, setup_s = _prepare(args.workload, args.seed, args.spawned_at)
    try:
        ctx = jobmod.Context(ho)
        jobs = jobmod.WORKLOADS[args.workload](params)
        timed, traced, all_checks = [], [], []
        drift_max = 0.0
        t_begin = time.perf_counter()
        while True:
            use_trace = bool(args.trace) and len(timed) > len(traced)
            res = run_pass(jobs, ctx, use_trace)
            all_checks.append(res.checks)
            if use_trace:
                traced.append((res.wall, res.tracer.self_times(), dict(res.tracer.counts)))
                last_tracer = res.tracer
                drift_max = max([drift_max, *res.drifts.values()])
            else:
                timed.append(res.wall)
            done = min(len(timed), len(traced) if args.trace else len(timed))
            elapsed = time.perf_counter() - t_begin
            if done >= MIN_PASSES and elapsed + res.wall > args.seconds:
                break
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
        trace_file = os.path.join(".perfbench_out", f"{args.workload}-seed{args.seed}.trace.jsonl")
        last_tracer.dump(os.path.join(ROOT, trace_file))
    failed, unexpected = evaluate(load_expected(args.workload, params["variant"]), all_checks)
    attempted = len(set().union(*all_checks))
    out = {
        "setup_s": setup_s,
        "pass_s": timed,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "unexpected": unexpected,
        "variant": params["variant"],
        "env": _environment(ho),
    }
    if args.trace:
        out["trace_file"] = trace_file
        n = len(traced)
        run_traced = sum(w for w, _, _ in traced) / n
        layers = {name: sum(t[1].get(name, 0.0) for t in traced) / n for name in LAYER_NAMES}
        counts = {name: sum(t[2].get(name, 0.0) for t in traced) / n for name in COUNT_NAMES}
        out["layers"] = {
            **{f"{name}_s": (v, "s") for name, v in layers.items()},
            **{name: (v, "count") for name, v in counts.items()},
            "pushforward.mass_drift_max": (drift_max, "1"),
            "fail_ratio": (len(failed) / max(attempted, 1), "1"),
            "trace.run_s": (run_traced, "s"),
            "trace.unattributed_s": (run_traced - sum(layers.values()), "s"),
            "trace.overhead_s": (run_traced - sum(timed) / len(timed), "s"),
        }
    return out


def worker_setup(args) -> dict:
    _, _, work, setup_s = _prepare(args.workload, args.seed, args.spawned_at)
    os.chdir(ROOT)
    shutil.rmtree(work, ignore_errors=True)
    return {"setup_s": setup_s}


def worker_record(workload: str) -> None:
    """Run one untraced pass per input variant and write expected/<workload>.json."""
    import inputs
    import jobs as jobmod

    ho = _import_hyperops()
    variants = []
    for variant in range(inputs.VARIANTS):
        work = os.path.join(ROOT, ".perfbench_tmp", f"record-{workload}-{os.getpid()}")
        os.makedirs(work)
        try:
            params = inputs.make_inputs(workload, variant, work)
            os.chdir(work)
            res = run_pass(jobmod.WORKLOADS[workload](params), jobmod.Context(ho), False)
        finally:
            os.chdir(ROOT)
            shutil.rmtree(work, ignore_errors=True)
        known = sorted(k for k, v in res.checks.items() if v is False)
        print(f"{workload} variant {variant}: {res.wall:.2f} s, {len(res.checks)} checks, "
              f"failing invariants {known}, worst drift {max(res.drifts.values(), default=0.0):.3g}",
              file=sys.stderr)
        variants.append(res.checks)
    names = sorted(set().union(*variants))
    with open(_expected_path(workload), "w", encoding="utf-8") as fh:
        fh.write('{"workload": %s,\n"checks": %s,\n"variants": [\n' % (json.dumps(workload), json.dumps(names)))
        fh.write(",\n".join(json.dumps([v.get(k) for k in names]) for v in variants))
        fh.write("\n]}\n")


# ----- orchestrator ------------------------------------------------------------


def _spawn(mode: str, args) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--worker", mode,
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def _why(workload: str) -> str:
    """Why the workload was chosen, as BENCHMARK.json records it."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            return next(w["why"] for w in json.load(fh)["workloads"] if w["name"] == workload)
    except (OSError, ValueError, KeyError, StopIteration):
        return ""


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run_workload(args) -> dict:
    setups = [_spawn("setup", args)["setup_s"] for _ in range(SETUP_PROBES)]
    res = _spawn("run", args)
    setups.append(res["setup_s"])
    passes = res["pass_s"]
    q1, q3 = _quartiles(passes)
    say = lambda text: print(text, flush=True)
    say(f"# workload {args.workload} seed {args.seed} (input variant {res['variant']}) "
        f"trace {args.trace}: {_why(args.workload)}")
    say("env " + json.dumps(res["env"], sort_keys=True))
    say(f"run_s        {statistics.median(passes):.4f} s    median of {len(passes)} untraced passes, "
        f"q1 {q1:.4f} q3 {q3:.4f}, min {min(passes):.4f} max {max(passes):.4f}")
    say(f"setup_s      {statistics.median(setups):.4f} s    median of {len(setups)} process starts")
    say(f"peak_rss_mib {res['peak_rss_mib']:.1f} MiB")
    say(f"checks       {res['attempted']} attempted, {len(res['failed'])} failed "
        f"(fail_ratio {len(res['failed']) / max(res['attempted'], 1):.4g}), "
        f"unexpected {res['unexpected'] or 'none'}, failed {res['failed'] or 'none'}")
    if args.trace:
        say(f"spans of the last traced pass: {res['trace_file']}")
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in res["layers"].items()}
        for name, m in metrics.items():
            say(f"  {name:<32} {m['value']:.6g} {m['unit']}")
    else:
        values = {"run_s": statistics.median(passes), "setup_s": statistics.median(setups),
                  "peak_rss_mib": res["peak_rss_mib"]}
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
    return {
        "correct": not res["unexpected"],
        "attempted": res["attempted"],
        "failed": len(res["failed"]),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="rewrite expected/<workload>.json from this tree's outputs")
    ap.add_argument("--worker", choices=("setup", "run"), help=argparse.SUPPRESS)
    ap.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.worker:
        out = worker_setup(args) if args.worker == "setup" else worker_run(args)
        print(json.dumps(out))
        return 0
    if args.record:
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            worker_record(workload)
        return 0
    if not os.path.isdir(os.path.join(ROOT, "src", "hyperops")):
        print("error: run from the repository root (src/hyperops not found)", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            print(json.dumps(run_workload(args)))
            return 0
        summary = {}
        for workload in WORKLOADS:
            for trace in (0, 1):
                args.workload, args.trace = workload, trace
                summary[f"{workload}/trace{trace}"] = run_workload(args)
        print(json.dumps(summary))
        return 0
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
