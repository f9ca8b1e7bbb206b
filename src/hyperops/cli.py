"""Command-line surface.

Subcommands: gen-hyper, gen-complex, push, verify, sparse, stats, figure1,
powers, normalize.  argparse requires --seed of gen-hyper, gen-complex,
sparse and stats, and push needs one with --samples; fixed flags give
byte-identical outputs.  File writes are atomic.  Bad input exits 2 with
one `error:` line: a command returns _fail for a misused flag, and main
alone turns a raised error into that line.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import io as hio
from .expr import parse_expression
from .metric import figure_hypergraphs, minimal_powers
from .models import (
    resolve_probabilities,
    rng_from,
    sample_complex,
    sample_hypergraph_masks,
)
from .operators import TableSet, lattice_size
from .pushforward import (
    _unary_table,
    closed_form_family,
    complex_product,
    hypergraph_product,
    point_mass,
    push_word,
    total_variation,
)
from .sparse import (
    algorithm1_truncated,
    algorithm2_truncated,
    closure_dimension_stats,
    dimension_stats,
    threshold_schedule,
)
from .verify import DEFAULT_SEED, SUITES, iter_standard, run_suite
from .words import Prim, normalize


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _emit(text: str, out: str | None) -> None:
    # the file at --out, written atomically, or stdout
    if out:
        hio.atomic_write(out, text)
    else:
        print(text, end="")


def _count(text: str) -> int:
    # argparse type of every --samples flag
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be a count >= 0, got {n}")
    return n


def _draw_masks(amb, probs, rng, samples: int, as_complex: bool) -> list[int]:
    # Staged draws read a data-dependent stream, one call per draw; product
    # draws come from one whole-run draw.
    if as_complex:
        return [sample_complex(amb, probs, rng).mask for _ in range(samples)]
    return sample_hypergraph_masks(amb, probs, rng, samples)


def cmd_gen(args) -> int:
    amb = hio.read_complex(args.ambient)
    probs = resolve_probabilities(amb, hio.read_probability(args.prob))
    masks = _draw_masks(amb, probs, rng_from(args.seed, args.stream), args.samples,
                        args.command == "gen-complex")
    _emit("".join(hio.format_mask(amb, mask) + "\n" for mask in masks), args.out)
    return 0


def _print_distribution(amb, support: list[int], probs: np.ndarray) -> None:
    # one line per mask of the support, ascending: its probability, its faces
    sys.stdout.writelines(f"{p:.12e}  {hio.format_mask(amb, mask)}\n"
                          for mask, p in zip(support, probs.tolist()))


def cmd_push(args) -> int:
    amb = hio.read_complex(args.ambient)
    word = parse_expression(args.expr).word
    if word.arity() != 1:
        return _fail("push needs a unary expression")
    lattice_size(amb)  # before any draw or allocation

    if args.hyper:
        if args.model or args.prob:
            return _fail("give either --hyper or --model/--prob, not both")
        start = hio.read_hypergraph(args.hyper, amb).mask
        vec = None
    else:
        if not args.model or not args.prob:
            return _fail("need --model and --prob (or --hyper)")
        vec = resolve_probabilities(amb, hio.read_probability(args.prob))

    if args.samples:
        if args.seed is None:
            return _fail("push --samples needs --seed")
        if args.hyper:
            return _fail("Monte Carlo mode needs --model/--prob")
        rng = rng_from(args.seed, args.stream)
        drawn = _draw_masks(amb, vec, rng, args.samples, args.model == "pcomplex")
        # the drawn masks' images through the word's table, counted
        support, counts = np.unique(_unary_table(word, amb)[drawn], return_counts=True)
        _print_distribution(amb, support.tolist(), counts / args.samples)
        return 0
    if args.hyper:
        dist = push_word(word, point_mass(amb, start))
    else:
        base = complex_product(amb, vec) if args.model == "pcomplex" else hypergraph_product(amb, vec)
        dist = push_word(word, base)

    support = dist.support()
    _print_distribution(amb, support, dist.vec[support])

    # closed-form family line for the three primitive transforms of a
    # product draw; informational, the suites assert the true parts
    if not args.hyper and args.model == "phyper":
        reduced = normalize(word)
        if isinstance(reduced, Prim) and reduced.name in ("Delta", "delta", "gamma"):
            family = closed_form_family(reduced.name, amb, vec)
            tv = total_variation(dist, family)
            print(f"TV to closed-form family ({reduced.name}): {tv:.12g}")
    return 0


def cmd_verify(args) -> int:
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    if args.ambient:
        amb = hio.read_complex(args.ambient)
        lattice_size(amb)  # before the first suite line
        tables = TableSet(amb)  # every suite of this run reads the same tables
        results = (run_suite(name, tables, rng_from(args.seed)) for name in names)
    else:
        results = iter_standard(names, seed=args.seed)
    ok = True
    for res in results:
        # each line as soon as its suite returns, so a later suite's error
        # does not swallow it
        print(res.summary_line())
        ok &= res.ok
    return 0 if ok else 1


def _per_dim_base(path: str) -> list[float]:
    # the base vector of the per-dim probability file at path
    pa = hio.read_probability(path)
    if pa.per_dim is None:
        raise ValueError(f"{path} is a per-simplex probability file; sparse and "
                         "closure stats need a per-dim one")
    return list(pa.per_dim)


def cmd_sparse(args) -> int:
    base = _per_dim_base(args.prob)[: args.n]
    rng = rng_from(args.seed, args.stream)
    lines = []
    for _ in range(args.samples):
        if args.algorithm == 1:
            sample = algorithm1_truncated(args.n, base, args.r, rng)
            lines.append(hio.format_layers(sample.hyper_faces) + " | "
                         + hio.format_layers(sample.complex_faces))
        else:
            lines.append(hio.format_layers(algorithm2_truncated(args.n, base, args.r, rng)))
    _emit("".join(line + "\n" for line in lines), args.out)
    return 0


def cmd_stats(args) -> int:
    try:
        n_values = [int(tok) for tok in args.n.split(",") if tok]
    except ValueError:
        n_values = []
    if not n_values or min(n_values) < 1:
        return _fail("give --n as a comma-separated list of positive counts, e.g. 20,40,80")
    if args.samples < 1:
        return _fail("stats needs --samples of at least 1")
    least_r = 1 if args.model == "clique" else 0
    if args.r < least_r:
        return _fail(f"{args.model} stats need --r of at least {least_r}, got {args.r}")
    if args.model == "clique":
        denom = args.denom if args.denom is not None else args.r + 1
        schedule = threshold_schedule(args.coeff, denom)
        rows = dimension_stats(n_values, schedule, args.r, args.samples, args.seed,
                               streams_from=args.stream)
    else:
        if not args.prob:
            return _fail("closure stats need --prob with a per-dim base vector")
        rows = closure_dimension_stats(n_values, _per_dim_base(args.prob), args.r, args.samples, args.seed,
                                       streams_from=args.stream)
    _emit(hio.format_stats_csv(rows), args.out)
    return 0


def cmd_figure1(args) -> int:
    amb, h1, h2, h3 = figure_hypergraphs()
    os.makedirs(args.out_dir, exist_ok=True)
    cx_path = os.path.join(args.out_dir, "figure1.cx")
    hio.write_complex(cx_path, amb)
    print(f"wrote {cx_path}")
    for name, h in (("H1", h1), ("H2", h2), ("H3", h3)):
        path = os.path.join(args.out_dir, f"{name}.hg")
        hio.write_hypergraph(path, h)
        print(f"wrote {path}")
    return 0


def cmd_powers(args) -> int:
    amb = hio.read_complex(args.ambient)
    h = hio.read_hypergraph(args.file, amb)
    p = minimal_powers(h)
    if p.degenerate:
        print("degenerate (empty or full)")
    else:
        print(f"r={p.r} t={p.t}")
    return 0


def cmd_normalize(args) -> int:
    print(str(normalize(parse_expression(args.expr).word)))
    return 0


def _add_sampling_flags(sub):
    sub.add_argument("--seed", type=int, required=True, help="RNG seed")
    sub.add_argument("--stream", type=int, default=0, help="RNG stream id")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hyperops", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for cmd, what in (("gen-hyper", "hypergraphs"), ("gen-complex", "complexes")):
        p = sub.add_parser(cmd, help=f"sample {what} to a file")
        p.add_argument("--ambient", required=True, help="ambient .cx file")
        _add_sampling_flags(p)
        p.add_argument("--prob", required=True, help="probability JSON file")
        p.add_argument("--samples", type=_count, default=1)
        p.add_argument("--out", help="output file (default: stdout)")

    p = sub.add_parser("push", help="push a model or a point mass through an expression")
    p.add_argument("--ambient", required=True)
    p.add_argument("--expr", required=True, help="operator expression, e.g. 'Delta' or 'Ext^2'")
    p.add_argument("--model", choices=("phyper", "pcomplex"))
    p.add_argument("--hyper", help=".hg file for a point-mass start")
    p.add_argument("--samples", type=_count, default=0, help="Monte Carlo sample count (0: exact)")
    # push samples only with --samples, so it checks its own seed
    p.add_argument("--seed", type=int, help="RNG seed (required with --samples)")
    p.add_argument("--stream", type=int, default=0, help="RNG stream id")
    p.add_argument("--prob", help="probability JSON file (with --model)")

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", default="all", choices=(*sorted(SUITES), "all"))
    p.add_argument("--ambient", help="run on this .cx instead of the standard fixtures")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"seed for the sampled checks (default {DEFAULT_SEED})")

    p = sub.add_parser("sparse", help="run a truncated generator")
    p.add_argument("--algorithm", type=int, choices=(1, 2), required=True)
    p.add_argument("--n", type=int, required=True, help="vertex count")
    p.add_argument("--r", type=int, required=True, help="dimension cutoff")
    _add_sampling_flags(p)
    p.add_argument("--prob", required=True, help="per-dim probability JSON file")
    p.add_argument("--samples", type=_count, default=1)
    p.add_argument("--out", help="output file (default: stdout)")

    p = sub.add_parser("stats", help="dimension statistics over a sweep of n")
    p.add_argument("--model", choices=("clique", "closure"), default="clique")
    p.add_argument("--n", required=True, help="comma-separated vertex counts, e.g. 20,40,80")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--coeff", type=float, default=0.5, help="schedule coefficient")
    p.add_argument("--denom", type=float, default=None, help="schedule denominator (default r+1)")
    _add_sampling_flags(p)
    p.add_argument("--prob", help="per-dim probability JSON file (closure model)")
    p.add_argument("--samples", type=_count, default=1000, help="graphs per n (at least 1)")
    p.add_argument("--out", help="CSV output file (default: stdout)")

    p = sub.add_parser("figure1", help="write the 28-vertex triangulated triangle and its three example sub-hypergraphs")
    p.add_argument("--out-dir", default=".")

    p = sub.add_parser("powers", help="minimal vanishing/filling powers of a hypergraph file")
    p.add_argument("--file", required=True, help=".hg file")
    p.add_argument("--ambient", default="figure1.cx")

    p = sub.add_parser("normalize", help="rewrite an expression with the composition relations")
    p.add_argument("--expr", required=True)

    return parser


# Subcommand -> the name of its function, looked up when it runs, so a
# rebinding of cli.cmd_* (a wrapper, a test double) is what the cached
# parser dispatches to.
COMMANDS = {
    "gen-hyper": "cmd_gen",
    "gen-complex": "cmd_gen",
    "push": "cmd_push",
    "verify": "cmd_verify",
    "sparse": "cmd_sparse",
    "stats": "cmd_stats",
    "figure1": "cmd_figure1",
    "powers": "cmd_powers",
    "normalize": "cmd_normalize",
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # one tree per process, built by the first main call rather than at import
    return build_parser()


def main(argv=None) -> int:
    """Run one command.  The one place that turns an error into exit 2 and
    one `error:` line: bad values and files (ValueError, which covers
    ParseError, WordError and FileFormatError), unreadable or unwritable
    paths (OSError) and words nested too deep to evaluate (RecursionError)."""
    args = _parser().parse_args(argv)
    try:
        return globals()[COMMANDS[args.command]](args)
    except BrokenPipeError:
        # downstream closed stdout (e.g. piped into head); point the fd at
        # devnull so the interpreter's exit flush cannot raise again.  First,
        # since it is an OSError.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (OSError, RecursionError, ValueError) as e:
        return _fail(str(e))


if __name__ == "__main__":
    sys.exit(main())
