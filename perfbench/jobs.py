"""The job list of each workload and the output checks behind `failed`.

A job drives the public surface: `hyperops.cli.main(argv)` in-process with
stdout captured, or, for binary words (which the `push` CLI rejects) and for
the mask layer's library entry points, the library functions directly.  Jobs
look functions up through their modules at call time, so the wrappers of a
traced pass see every call.

A job returns its checks as a dict, check name -> value:

* a string is an exact output (stdout digest with exit code, a SUITE line's
  status and failed-case count, a library result); it must equal the value
  recorded in expected/<workload>.json for the input variant;
* a bool is an invariant (mass, marginals, total variation within 1e-12,
  or JOIN_TV for the join push);
  it fails when False.  The recorded file holds the outcome at the commit
  that recorded it, so a failure recorded there is a known failure.

Jobs flagged `pushes` also get a `<job>.mass` invariant from the probe on
the push functions: every distribution they pushed has mass within 1e-12.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from dataclasses import dataclass
from typing import Callable

TOL = 1e-12
JOIN_TV = 1e-9


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable
    pushes: bool = False


class Context:
    """What a job needs: the hyperops modules, and the tracer of a traced pass."""

    def __init__(self, modules):
        self.ho = modules
        self.tracer = None

    def cli(self, argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        err = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.ho.cli.main(argv)
            except SystemExit as e:  # argparse rejects bad argv this way
                rc = e.code if isinstance(e.code, int) else 2
        text = out.getvalue()
        if self.tracer is not None:
            self.tracer.counts["io.bytes_out"] += len(text.encode())
        return rc, text


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def stdout_check(rc: int, text: str) -> str:
    return f"rc={rc} bytes={len(text.encode())} sha256={digest(text)}"


def _cli_job(name: str, argv: list[str], pushes: bool = False) -> Job:
    def run(ctx):
        rc, text = ctx.cli(argv)
        return {f"{name}.stdout": stdout_check(rc, text)}

    return Job(name, run, pushes)


def _verify_job(name: str, argv: list[str]) -> Job:
    # Status and failed-case count of each SUITE line; case totals are left
    # out on purpose, so dropping a check that always passes is no failure.
    def run(ctx):
        rc, text = ctx.cli(argv)
        checks = {f"{name}.rc": f"rc={rc}"}
        for line in text.splitlines():
            parts = line.split()
            if len(parts) == 4 and parts[0] == "SUITE":
                passed, total = (int(x) for x in parts[3].split("/"))
                checks[f"{name}.{parts[1]}"] = f"{parts[2]} failed={total - passed}"
        return checks

    return Job(name, run, pushes=True)


# ----- exact_big ---------------------------------------------------------------


def _marginals(ctx):
    """Closure and interior pushes of a product law on the 19-face ambient;
    their marginals must equal the derived transform vectors."""
    ho = ctx.ho
    amb = ho.io.read_complex("t2.cx")
    vec = ho.models.resolve_probabilities(amb, ho.io.read_probability("tri.json"))
    base = ho.pushforward.hypergraph_product(amb, vec)
    checks = {}
    for name, prim, transform in (("closure", "Delta", ho.pushforward.closure_transform),
                                  ("interior", "delta", ho.pushforward.interior_transform)):
        pushed = ho.pushforward.push_word(ho.words.Prim(prim), base)
        gap = abs(ho.pushforward.marginals(pushed) - transform(amb, vec)).max()
        checks[f"marginals.t2.{name}"] = bool(gap <= TOL)
    return checks


def _binary_operands(ctx):
    ho = ctx.ho
    amb = ho.io.read_complex("c6.cx")
    a, b = (ho.models.resolve_probabilities(amb, ho.io.read_probability(f)) for f in ("join_a.json", "join_b.json"))
    return amb, a, b, ho.pushforward.hypergraph_product(amb, a), ho.pushforward.hypergraph_product(amb, b)


def _join(ctx):
    """Join word of two independent product laws.  By independence it equals
    the union of the two unary pushes; the TV bound JOIN_TV sits above the
    known mass drift of the binary push (up to 2.2e-11), so only that drift
    is tolerated, not a wrong law."""
    ho = ctx.ho
    pf = ho.pushforward
    *_, da, db = _binary_operands(ctx)
    joined = pf.push_word(ho.expr.parse_expression("Delta + Ext").word, da, db)
    split = pf.push_union(pf.push_word(ho.words.Prim("Delta"), da), pf.push_word(ho.words.Prim("Ext"), db))
    return {"join.c6.tv": bool(pf.total_variation(joined, split) <= JOIN_TV)}


def _union_or_intersection(kind: str):
    def run(ctx):
        pf = ctx.ho.pushforward
        amb, a, b, da, db = _binary_operands(ctx)
        if kind == "union":
            pushed, family = pf.push_union(da, db), pf.union_transform(amb, a, b)
        else:
            pushed, family = pf.push_intersection(da, db), pf.intersection_transform(amb, a, b)
        tv = pf.total_variation(pushed, pf.hypergraph_product(amb, family))
        return {f"{kind}.c6.tv": bool(tv <= TOL)}

    return run


def exact_big(params) -> list[Job]:
    return [
        _cli_job("push.ext3.c10", ["push", "--ambient", "c10.cx", "--model", "phyper",
                                   "--prob", "cycle.json", "--expr", "Ext^3"], pushes=True),
        _cli_job("push.delta.t2", ["push", "--ambient", "t2.cx", "--model", "phyper",
                                   "--prob", "tri.json", "--expr", "Delta"], pushes=True),
        _cli_job("push.intgamma.t2", ["push", "--ambient", "t2.cx", "--model", "pcomplex",
                                      "--prob", "staged.json", "--expr", "Int.gamma"], pushes=True),
        Job("marginals.t2", _marginals, pushes=True),
        Job("join.c6", _join, pushes=True),
        Job("union.c6", _union_or_intersection("union"), pushes=True),
        Job("intersection.c6", _union_or_intersection("intersection"), pushes=True),
    ]


# ----- exact_small -------------------------------------------------------------


def exact_small(params) -> list[Job]:
    s = str(params["cli_seed"])
    jobs = [_verify_job("verify.builtin", ["verify", "--seed", s])]
    for path in params["family"]:
        stem = path.rsplit(".", 1)[0]
        jobs.append(_verify_job(f"verify.{stem}", ["verify", "--ambient", path, "--seed", s]))
    return jobs


# ----- beyond_tables -----------------------------------------------------------


def _side20(ctx):
    """Mask-layer entry points on the 1261-face side-20 triangle."""
    ho = ctx.ho
    amb = ho.io.read_complex("t20.cx")
    checks = {"t20.diameter": str(ho.metric.diameter(amb))}
    for name in ("t20_a", "t20_b"):
        h = ho.io.read_hypergraph(f"{name}.hg", amb)
        p = ho.metric.minimal_powers(h)
        checks[f"{name}.powers"] = f"t={p.t} r={p.r}"
        for expr in ("Int.Delta", "Ext.delta", "Delta.Int", "Int^2", "NbdInv"):
            mask = ho.words.eval_word_mask(ho.expr.parse_expression(expr).word, amb, [h.mask])
            checks[f"{name}.eval.{expr}"] = digest(hex(mask))
    return checks


def beyond_tables(params) -> list[Job]:
    s = str(params["cli_seed"])
    powers = [_cli_job(f"powers.{h}", ["powers", "--file", path, "--ambient", "fig/figure1.cx"])
              for h, path in (("H1", "fig/H1.hg"), ("H2", "fig/H2.hg"), ("H3", "fig/H3.hg"),
                              ("a", "fig_a.hg"), ("b", "fig_b.hg"))]
    return [
        _cli_job("stats.clique", ["stats", "--model", "clique", "--n", "20,40,80", "--r", "2",
                                  "--samples", "1000", "--seed", s]),
        _cli_job("stats.closure", ["stats", "--model", "closure", "--n", "20,40,80,160", "--r", "2",
                                   "--prob", "sparse.json", "--samples", "1000", "--seed", s]),
        _cli_job("sparse.alg1", ["sparse", "--algorithm", "1", "--n", "100", "--r", "2",
                                 "--prob", "sparse.json", "--samples", "6", "--seed", s]),
        _cli_job("sparse.alg2", ["sparse", "--algorithm", "2", "--n", "200", "--r", "2",
                                 "--prob", "sparse.json", "--samples", "12", "--seed", s]),
        _cli_job("figure1", ["figure1", "--out-dir", "fig"]),
        _cli_job("gen.complex", ["gen-complex", "--ambient", "fig/figure1.cx", "--prob", "gen.json",
                                 "--samples", "100", "--seed", s]),
        _cli_job("gen.hyper", ["gen-hyper", "--ambient", "fig/figure1.cx", "--prob", "gen.json",
                               "--samples", "100", "--seed", s]),
        *powers,
        _cli_job("push.mc.t2", ["push", "--ambient", "t2.cx", "--model", "phyper", "--prob", "tri.json",
                                "--expr", "Delta", "--samples", "2000", "--seed", s]),
        Job("side20", _side20),
    ]


WORKLOADS = {
    "exact_big": exact_big,
    "exact_small": exact_small,
    "beyond_tables": beyond_tables,
}
