import os
import random
import shlex
import subprocess
import sys

import numpy as np
import pytest

from hyperops import cli
from hyperops.cli import main
from hyperops.complexes import AmbientComplex, Hypergraph, standard_fixtures
from hyperops.io import (
    FileFormatError,
    atomic_write,
    format_faces,
    format_layers,
    format_mask,
    format_stats_csv,
    read_complex,
    read_hypergraph,
    read_probability,
    write_complex,
    write_hypergraph,
    write_probability,
    write_samples,
    write_stats_csv,
)
from hyperops.expr import parse_expression
from hyperops.metric import figure_hypergraphs, triangulated_triangle
from hyperops.models import (
    ProbabilityAssignment,
    enumerate_subcomplexes,
    enumerate_subhypergraphs,
    resolve_probabilities,
    rng_from,
    sample_complex,
    sample_hypergraph_masks,
)
from hyperops.operators import PRIMITIVE_TABLES, TABLE_LIMIT, lattice_size
from hyperops.pushforward import (
    Distribution,
    complex_product,
    empirical_distribution,
    hypergraph_product,
    point_mass,
    random_exact,
    uniform_distribution,
    verify_transforms,
)
from hyperops.sparse import (
    algorithm1_truncated,
    algorithm2_truncated,
    closure_dimension_stats,
    dimension_stats,
    threshold_schedule,
)
from hyperops.words import eval_word_mask

from oracles import layer_faces, o_sample_complex, o_sample_hypergraph

TRIANGLE = "1\n2\n3\n1 2\n1 3\n2 3\n1 2 3\n"


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_complex_round_trip(tmp_path):
    src = write(tmp_path / "t.cx", TRIANGLE)
    amb = read_complex(src)
    assert amb.num_faces == 7
    out = str(tmp_path / "copy.cx")
    write_complex(out, amb)
    assert open(out, encoding="utf-8").read() == TRIANGLE


def test_complex_file_closes_downward(tmp_path):
    src = write(tmp_path / "t.cx", "1 2 3\n")
    amb = read_complex(src)
    assert amb.num_faces == 7  # closure fills the boundary in


def test_comments_and_blank_lines(tmp_path):
    src = write(tmp_path / "t.cx", "# header\n\n1 2  # an edge\n\n# done\n")
    amb = read_complex(src)
    assert amb.num_faces == 3


def test_parse_errors_carry_position(tmp_path):
    src = write(tmp_path / "bad.cx", "1 2\nx y\n")
    with pytest.raises(FileFormatError, match=r"bad\.cx:2"):
        read_complex(src)
    src = write(tmp_path / "dup.cx", "1 1 2\n")
    with pytest.raises(FileFormatError, match=r"dup\.cx:1"):
        read_complex(src)
    src = write(tmp_path / "empty.cx", "# nothing\n")
    with pytest.raises(FileFormatError, match="no faces"):
        read_complex(src)


def test_hypergraph_round_trip(tmp_path, delta2):
    h = Hypergraph.from_faces(delta2, [(1,), (1, 2), (1, 2, 3)])
    out = str(tmp_path / "h.hg")
    write_hypergraph(out, h)
    assert open(out, encoding="utf-8").read() == "1\n1 2\n1 2 3\n"
    back = read_hypergraph(out, delta2)
    assert back.mask == h.mask


def test_writers_emit_numeric_canonical_bytes(tmp_path):
    # shuffled lines, a repeated face, and labels whose text order (10 < 2)
    # is not their numeric order: both writers put faces by size, then by
    # vertex numbers, each once
    amb = read_complex(write(tmp_path / "t.cx", "10 2\n3\n2 3 10\n2\n10 2\n"))
    out = str(tmp_path / "copy.cx")
    write_complex(out, amb)
    assert open(out, encoding="utf-8").read() == "2\n3\n10\n2 3\n2 10\n3 10\n2 3 10\n"
    h = read_hypergraph(write(tmp_path / "h.hg", "2 3 10\n10\n10 2\n10\n"), amb)
    out = str(tmp_path / "copy.hg")
    write_hypergraph(out, h)
    assert open(out, encoding="utf-8").read() == "10\n2 10\n2 3 10\n"


def test_hypergraph_must_fit_ambient(tmp_path, delta2):
    src = write(tmp_path / "h.hg", "4 5\n")
    with pytest.raises(ValueError):
        read_hypergraph(src, delta2)


def test_write_complex_accepts_closed_hypergraph(tmp_path, delta2):
    closed = Hypergraph.from_faces(delta2, [(1,), (2,), (1, 2)])
    out = str(tmp_path / "sub.cx")
    write_complex(out, closed)
    assert read_complex(out).num_faces == 3
    open_h = Hypergraph.from_faces(delta2, [(1, 2)])
    with pytest.raises(FileFormatError):
        write_complex(out, open_h)


def test_probability_round_trip(tmp_path):
    # the file holds to_json() as it is, and reading it then writing it
    # again reproduces it byte for byte
    cases = [ProbabilityAssignment.from_dims([1.0, 0.5, 0.25]),
             ProbabilityAssignment.from_entries([((1, 2), 0.4)], default=0.1)]
    for i, pa in enumerate(cases):
        first, second = tmp_path / f"{i}a.json", tmp_path / f"{i}b.json"
        write_probability(str(first), pa)
        assert read_probability(str(first)) == pa
        assert first.read_bytes() == pa.to_json().encode()
        write_probability(str(second), read_probability(str(first)))
        assert second.read_bytes() == first.read_bytes()


def test_atomic_write_leaves_no_droppings(tmp_path):
    out = str(tmp_path / "f.txt")
    atomic_write(out, "one\n")
    atomic_write(out, "two\n")
    assert open(out).read() == "two\n"
    assert os.listdir(tmp_path) == ["f.txt"]


def test_format_faces():
    assert format_faces([]) == "-"
    assert format_faces([(2, 3), (1,), (1, 2, 3)]) == "1, 2 3, 1 2 3"


def _layers(faces, r):
    # the faces of dimension <= r as one int64 vertex array per dimension
    return [np.array([f for f in faces if len(f) == d + 1], dtype=np.int64).reshape(-1, d + 1)
            for d in range(r + 1)]


@pytest.mark.parametrize("faces, r", [
    ([], 0),
    ([], 3),
    ([(1,), (5,), (12,)], 0),
    ([(1,), (2,), (1, 2), (1, 2, 3)], 2),
    ([(3,), (2, 3, 4)], 2),  # an empty middle layer
    ([(1, 2), (7, 10)], 3),  # empty layers below and above
    ([(0, 9, 10, 100), (99, 100, 101, 1000)], 3),  # the top layer alone
])
def test_format_layers_matches_format_faces(faces, r):
    assert format_layers(_layers(faces, r)) == format_faces(faces)


def test_format_layers_matches_format_faces_on_random_layers():
    rnd = random.Random(5)
    for _ in range(50):
        r = rnd.randint(0, 3)
        # within a size, sorted tuples come in lexicographic order
        faces = sorted({tuple(sorted(rnd.sample(range(1, 131), d + 1)))
                        for d in range(r + 1) for _ in range(rnd.randint(0, 30))})
        assert format_layers(_layers(faces, r)) == format_faces(faces)


def test_format_mask_matches_format_faces():
    # the cached face text, read in canonical face order, is the
    # (size, vertices) order format_faces sorts into
    for amb in standard_fixtures().values():
        for mask in range(1 << amb.num_faces):
            assert format_mask(amb, mask) == format_faces(amb.faces_of_mask(mask))
    fig = figure_hypergraphs()[0]
    rnd = random.Random(3)
    masks = [0, fig.full_mask] + [rnd.getrandbits(fig.num_faces) for _ in range(50)]
    for mask in masks:
        assert format_mask(fig, mask) == format_faces(fig.faces_of_mask(mask))
    assert format_mask(fig, 0) == "-"


def test_write_samples(tmp_path):
    out = str(tmp_path / "s.txt")
    write_samples(out, [[(1,), (1, 2)], []])
    assert open(out).read() == "1, 1 2\n-\n"


def test_stats_csv_round_trips_floats(tmp_path):
    rows = [
        {
            "n": 20,
            "p1": 0.1 + 0.2,  # not representable cleanly; repr must survive
            "samples": 10,
            "prob_dim_le_r": 0.5,
            "prob_dim_eq_r": 0.25,
            "mean_r_faces": 1.75,
        }
    ]
    out = str(tmp_path / "stats.csv")
    write_stats_csv(out, rows)
    lines = open(out).read().splitlines()
    assert lines[0] == "n,p1,samples,prob_dim_le_r,prob_dim_eq_r,mean_r_faces"
    assert float(lines[1].split(",")[1]) == rows[0]["p1"]


# ----- CLI ------------------------------------------------------------------------


@pytest.fixture
def triangle_cx(tmp_path):
    return write(tmp_path / "t.cx", TRIANGLE)


@pytest.fixture
def half_prob(tmp_path):
    path = str(tmp_path / "p.json")
    write_probability(path, ProbabilityAssignment.from_dims([1.0, 0.5, 0.5]))
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    ["gen-hyper", "--ambient", "{cx}", "--prob", "{prob}"],
    ["gen-complex", "--ambient", "{cx}", "--prob", "{prob}"],
    ["sparse", "--algorithm", "2", "--n", "6", "--r", "1", "--prob", "{prob}"],
    ["stats", "--n", "6", "--r", "1", "--samples", "5"],
], ids=lambda argv: argv[0])
def test_cli_gen_requires_seed(capsys, triangle_cx, half_prob, argv):
    # argparse rejects a sampling command without --seed
    with pytest.raises(SystemExit) as exc:
        main([a.format(cx=triangle_cx, prob=half_prob) for a in argv])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "required: --seed" in err and "Traceback" not in err


def test_cli_gen_hyper_deterministic(capsys, triangle_cx, half_prob):
    argv = (
        "gen-hyper", "--ambient", triangle_cx, "--prob", half_prob,
        "--seed", "5", "--samples", "4",
    )
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert len(out1.splitlines()) == 4
    code3, out3, _ = run_cli(capsys, *argv, "--stream", "1")
    assert code3 == 0 and out3 != out1


def test_cli_gen_complex_closed(capsys, triangle_cx, half_prob, delta2):
    code, out, _ = run_cli(
        capsys, "gen-complex", "--ambient", triangle_cx, "--prob", half_prob,
        "--seed", "6", "--samples", "8",
    )
    assert code == 0
    for line in out.splitlines():
        faces = [] if line == "-" else [
            tuple(int(v) for v in tok.split()) for tok in line.split(", ")
        ]
        mask = delta2.mask_from_faces(faces)
        assert delta2.is_complex_mask(mask)


def test_cli_gen_writes_file(tmp_path, capsys, triangle_cx, half_prob):
    out_path = str(tmp_path / "draws.txt")
    code, out, _ = run_cli(
        capsys, "gen-hyper", "--ambient", triangle_cx, "--prob", half_prob,
        "--seed", "5", "--samples", "2", "--out", out_path,
    )
    assert code == 0 and out == ""
    assert len(open(out_path).read().splitlines()) == 2


@pytest.mark.parametrize("cmd", ["gen-hyper", "gen-complex"])
def test_cli_gen_zero_samples_prints_nothing(capsys, triangle_cx, half_prob, cmd):
    code, out, err = run_cli(
        capsys, cmd, "--ambient", triangle_cx, "--prob", half_prob,
        "--seed", "5", "--samples", "0",
    )
    assert (code, out, err) == (0, "", "")


@pytest.mark.parametrize("cmd", ["gen-hyper", "gen-complex"])
@pytest.mark.parametrize("text", ["{nope", '{"mode": "per-dim", "p": [0.5]}',
                                  '{"mode": "per-dim", "p": [1.5, 0.5, 0.5]}'])
def test_cli_gen_bad_probability_file(tmp_path, capsys, triangle_cx, cmd, text):
    prob = write(tmp_path / "bad.json", text)
    code, out, err = run_cli(
        capsys, cmd, "--ambient", triangle_cx, "--prob", prob, "--seed", "5", "--samples", "3",
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.strip()) > len("error:")


@pytest.mark.parametrize("argv", [
    ["gen-hyper", "--ambient", "{cx}", "--seed", "5"],
    ["gen-complex", "--ambient", "{cx}", "--seed", "5"],
    ["push", "--ambient", "{cx}", "--expr", "Delta", "--model", "phyper"],
    ["sparse", "--algorithm", "2", "--n", "6", "--r", "1", "--seed", "5"],
    ["stats", "--model", "closure", "--n", "6", "--r", "1", "--seed", "5"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("text, names", [
    ('{"mode": "per-dim"}', "'p'"),
    ('{"mode": "per-dim", "p": 0.5}', "'p'"),
    ('{"mode": "per-simplex", "entries": [{"p": 0.5}]}', "'simplex'"),
    ('[{"mode": "per-dim", "p": [0.5]}]', '"mode"'),
    ('{"mode": "per-dim", "p": [null]}', "'p'"),
    ('{"mode": "per-dim", "p": "1"}', "'p'"),
    # a bool is an int to Python and a digit string converts with float(),
    # but neither is a JSON number; vertex labels are integers
    ('{"mode": "per-dim", "p": ["1", "0.5", true]}', "'p'"),
    ('{"mode": "per-dim", "p": [1, 0.5, true]}', "'p'"),
    ('{"mode": "per-dim", "p": [1, 0.5, 1%s]}' % ("0" * 400), "int too large"),
    ('{"mode": "per-simplex", "default": "0.25", "entries": []}', "'default'"),
    ('{"mode": "per-simplex", "entries": [{"simplex": [1], "p": false}]}', "'p'"),
    ('{"mode": "per-simplex", "entries": [{"simplex": [true], "p": 0.5}]}', "'simplex'"),
    ('{"mode": "per-simplex", "entries": [{"simplex": [1.0], "p": 0.5}]}', "'simplex'"),
    # one simplex listed twice, in two vertex orders: no entry may win silently
    ('{"mode": "per-simplex", "entries": [{"simplex": [1, 2], "p": 0.5}, {"simplex": [2, 1], "p": 0.9}]}',
     "simplex [1, 2] twice"),
    # a simplex lists each vertex once: [1, 1, 2] is not read as [1, 2]
    ('{"mode": "per-simplex", "entries": [{"simplex": [1, 1, 2], "p": 0.5}]}',
     "repeated vertex in (1, 1, 2)"),
], ids=["no-p", "scalar-p", "no-simplex", "list", "null-p", "string-p", "string-and-bool-p", "bool-p",
        "huge-int-p", "string-default", "bool-entry-p", "bool-vertex", "float-vertex", "repeated-simplex",
        "repeated-vertex"])
def test_cli_malformed_probability_json(tmp_path, capsys, triangle_cx, argv, text, names):
    # one error line that says which key is wrong
    prob = write(tmp_path / "bad.json", text)
    argv = [a.format(cx=triangle_cx) for a in argv]
    code, out, err = run_cli(capsys, *argv, "--prob", prob)
    assert code == 2 and out == ""
    assert _one_error(err) and "probability JSON" in err and names in err


def test_probability_json_accepts_integers():
    pa = ProbabilityAssignment.from_json('{"mode": "per-dim", "p": [1, 0, 0.5]}')
    assert pa.per_dim == (1.0, 0.0, 0.5)
    pa = ProbabilityAssignment.from_json(
        '{"mode": "per-simplex", "default": 1, "entries": [{"simplex": [2, 1], "p": 0}]}')
    assert (pa.default, pa.entries) == (1.0, (((1, 2), 0.0),))


@pytest.mark.parametrize("argv", [
    ["gen-hyper", "--ambient", "{cx}", "--seed", "1"],
    ["gen-complex", "--ambient", "{cx}", "--seed", "1"],
    ["sparse", "--algorithm", "2", "--n", "10", "--r", "1", "--seed", "1"],
], ids=lambda argv: argv[0])
def test_cli_generators_require_prob(capsys, triangle_cx, argv):
    with pytest.raises(SystemExit) as exc:
        main([a.format(cx=triangle_cx) for a in argv])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "required: --prob" in err and "Traceback" not in err


@pytest.mark.parametrize("cmd, oracle", [("gen-hyper", o_sample_hypergraph),
                                         ("gen-complex", o_sample_complex)])
def test_cli_gen_matches_draw_loop(tmp_path, capsys, cmd, oracle):
    # stdout of the whole-run draw and the cached face text equals one
    # oracle draw at a time printed through format_faces
    amb = figure_hypergraphs()[0]
    cx = str(tmp_path / "fig.cx")
    write_complex(cx, amb)
    prob = str(tmp_path / "p.json")
    pa = ProbabilityAssignment.from_dims([0.75, 0.7, 0.65])
    write_probability(prob, pa)
    amb = read_complex(cx)
    probs = resolve_probabilities(amb, pa)
    rng = rng_from(7, 2)
    want = "".join(format_faces(amb.faces_of_mask(oracle(amb, probs, rng))) + "\n" for _ in range(300))
    code, out, _ = run_cli(capsys, cmd, "--ambient", cx, "--prob", prob,
                           "--seed", "7", "--stream", "2", "--samples", "300")
    assert code == 0
    assert out == want


def test_cli_push_point_mass(tmp_path, capsys, triangle_cx):
    hg = write(tmp_path / "h.hg", "1 2\n")
    code, out, _ = run_cli(
        capsys, "push", "--ambient", triangle_cx, "--expr", "Delta", "--hyper", hg
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1
    prob, faces = lines[0].split("  ", 1)
    assert float(prob) == 1.0
    assert faces == "1, 2, 1 2"


def test_cli_push_exact_gamma_tv_zero(capsys, triangle_cx, half_prob):
    code, out, _ = run_cli(
        capsys, "push", "--ambient", triangle_cx, "--expr", "gamma",
        "--model", "phyper", "--prob", half_prob,
    )
    assert code == 0
    tv_lines = [l for l in out.splitlines() if l.startswith("TV")]
    assert len(tv_lines) == 1
    assert float(tv_lines[0].rsplit(":", 1)[1]) == 0.0


def test_cli_push_closure_tv_reported(capsys, triangle_cx, half_prob):
    code, out, _ = run_cli(
        capsys, "push", "--ambient", triangle_cx, "--expr", "Delta.Delta",
        "--model", "phyper", "--prob", half_prob,
    )
    assert code == 0
    tv_lines = [l for l in out.splitlines() if l.startswith("TV")]
    assert "(Delta)" in tv_lines[0]
    assert float(tv_lines[0].rsplit(":", 1)[1]) > 0.0


@pytest.fixture
def mixed_prob(tmp_path):
    path = str(tmp_path / "mixed.json")
    write_probability(path, ProbabilityAssignment.from_dims([0.7, 0.4, 0.3]))
    return path


@pytest.mark.parametrize("mode", [["--model", "phyper"], ["--model", "pcomplex"],
                                  ["--model", "pcomplex", "--samples", "200", "--seed", "3"]])
@pytest.mark.parametrize("text, chain", [
    ("Ext^3", "(Delta.gamma.delta.gamma)^3"),
    ("Int.gamma", "delta.gamma.Delta.gamma.gamma"),
    ("Ext.Int", "Delta.gamma.delta.gamma.delta.gamma.Delta.gamma"),
    ("Int^2.Delta", "(delta.gamma.Delta.gamma)^2.Delta"),
])
def test_cli_push_ext_int_print_as_their_chains(capsys, triangle_cx, mixed_prob, mode, text, chain):
    # Ext and Int evaluate through their own tables and mask operators;
    # those equal the chains on every mask, so every printed line does too
    outs = []
    for expr in (text, chain):
        code, out, err = run_cli(capsys, "push", "--ambient", triangle_cx, "--expr", expr,
                                 "--prob", mixed_prob, *mode)
        assert code == 0, err
        outs.append(out)
    assert outs[0] == outs[1] and outs[0]


@pytest.mark.parametrize("name, row", [("gamma", "complement"), ("Delta", "closure"),
                                       ("delta", "interior")])
def test_cli_push_tv_line_equals_verify_transforms(capsys, triangle_cx, mixed_prob, name, row):
    code, out, _ = run_cli(capsys, "push", "--ambient", triangle_cx, "--expr", name,
                           "--model", "phyper", "--prob", mixed_prob)
    assert code == 0
    amb = read_complex(triangle_cx)
    tv = verify_transforms(amb, resolve_probabilities(amb, read_probability(mixed_prob)))[row]
    assert out.splitlines()[-1] == f"TV to closed-form family ({name}): {tv:.12g}"


def test_cli_push_monte_carlo(capsys, triangle_cx, half_prob):
    argv = (
        "push", "--ambient", triangle_cx, "--expr", "Delta", "--model", "phyper",
        "--prob", half_prob, "--samples", "200", "--seed", "3",
    )
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    total = sum(float(line.split("  ", 1)[0]) for line in out1.splitlines())
    assert total == pytest.approx(1.0)


PUSH_SAMPLE_AMBIENTS = ["delta1", "delta2", "p3", "sk1d3", "t2"]


@pytest.mark.parametrize("model", ["phyper", "pcomplex"])
@pytest.mark.parametrize("name", PUSH_SAMPLE_AMBIENTS)
def test_cli_push_samples_match_empirical_law_of_images(tmp_path, capsys, mixed_prob, name, model):
    # the oracle draws the same masks, evaluates the word on each drawn
    # mask and prints the support of the empirical vector of the images
    cx = str(tmp_path / "a.cx")
    write_complex(cx, triangulated_triangle(2) if name == "t2" else standard_fixtures()[name])
    amb = read_complex(cx)
    probs = resolve_probabilities(amb, read_probability(mixed_prob))
    for expr in ("Delta", "Int.gamma", "gamma", "Ext^2", "id"):
        word = parse_expression(expr).word
        rng = rng_from(5, 1)
        if model == "pcomplex":
            drawn = [sample_complex(amb, probs, rng).mask for _ in range(300)]
        else:
            drawn = sample_hypergraph_masks(amb, probs, rng, 300)
        vec = empirical_distribution(amb, [eval_word_mask(word, amb, [mask]) for mask in drawn]).vec
        want = "".join(f"{vec[mask]:.12e}  {format_mask(amb, mask)}\n"
                       for mask in np.flatnonzero(vec).tolist())
        code, out, err = run_cli(capsys, "push", "--ambient", cx, "--model", model, "--prob", mixed_prob,
                                 "--expr", expr, "--samples", "300", "--seed", "5", "--stream", "1")
        assert code == 0, err
        assert out == want, (name, model, expr)


def test_cli_push_usage_errors(tmp_path, capsys, triangle_cx, half_prob):
    code, _, err = run_cli(
        capsys, "push", "--ambient", triangle_cx, "--expr", "bogus",
        "--model", "phyper", "--prob", half_prob,
    )
    assert code == 2 and "position" in err
    code, _, err = run_cli(capsys, "push", "--ambient", triangle_cx, "--expr", "Delta")
    assert code == 2
    hg = write(tmp_path / "h.hg", "1\n")
    code, _, err = run_cli(
        capsys, "push", "--ambient", triangle_cx, "--expr", "Delta",
        "--hyper", hg, "--model", "phyper", "--prob", half_prob,
    )
    assert code == 2
    code, _, err = run_cli(
        capsys, "push", "--ambient", triangle_cx,
        "--expr", "Delta /\\ delta", "--model", "phyper", "--prob", half_prob,
    )
    assert code == 2 and "unary" in err
    # push samples only with --samples, so it checks its own --seed
    code, out, err = run_cli(
        capsys, "push", "--ambient", triangle_cx, "--expr", "Delta",
        "--model", "phyper", "--prob", half_prob, "--samples", "5",
    )
    assert code == 2 and out == "" and _one_error(err) and "--seed" in err


def test_cli_push_rejects_ambients_beyond_tables(tmp_path, capsys, half_prob):
    big = write(tmp_path / "big.cx", "1 2 3 4 5\n")  # 31 faces
    assert read_complex(big).num_faces > TABLE_LIMIT
    for extra in ([], ["--samples", "10", "--seed", "1"]):
        code, out, err = run_cli(
            capsys, "push", "--ambient", big, "--expr", "Delta",
            "--model", "phyper", "--prob", half_prob, *extra,
        )
        assert code == 2 and out == "" and "too large" in err


def test_cli_verify_identities_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "identities")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_cli_verify_ambient_override(capsys, triangle_cx):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "identities", "--ambient", triangle_cx
    )
    assert code == 0
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "theorem2", "--ambient", triangle_cx
    )
    assert code == 1  # joint-law transform comparisons fail by design
    assert "FAIL" in out


def test_cli_verify_prints_suites_before_an_error(tmp_path, capsys):
    # a disconnected ambient has no finite diameter, so the powers suite
    # rejects it; the lines of the suites that ran before it are already out
    for text in ("1 2\n1 3\n4 5\n", "1 2 3\n4 5\n6\n"):
        disc = write(tmp_path / "disc.cx", text)
        code, out, err = run_cli(capsys, "verify", "--ambient", disc)
        assert code == 2
        assert [line.split()[:3] for line in out.splitlines()] == [
            ["SUITE", "identities", "PASS"], ["SUITE", "laws", "PASS"]]
        assert _one_error(err) and "disconnected" in err and "powers" in err
        for suite in ("identities", "laws"):
            code, alone, _ = run_cli(capsys, "verify", "--ambient", disc, "--suite", suite)
            assert code == 0 and alone in out
        for suite in ("powers", "theorem1"):
            code, out, err = run_cli(capsys, "verify", "--ambient", disc, "--suite", suite)
            assert code == 2 and out == ""
            assert _one_error(err) and "finite diameter" in err and suite in err


def test_cli_verify_one_vertex_ambient(tmp_path, capsys):
    # two masks, both degenerate: no live mask to sample
    one = write(tmp_path / "one.cx", "1\n")
    code, out, err = run_cli(capsys, "verify", "--ambient", one, "--suite", "powers")
    assert (code, out, err) == (0, "SUITE powers PASS 0/0\n", "")


def _one_error(err):
    lines = [line for line in err.splitlines() if "error:" in line]
    return len(lines) == 1 and "Traceback" not in err


@pytest.mark.parametrize("suite", ["all", "powers", "theorem2", "identities"])
def test_cli_verify_rejects_ambients_beyond_tables(tmp_path, capsys, suite):
    # the 31-face simplex and the 127-face figure: exit 2 before any
    # suite allocates a 2^m table or vector
    big = write(tmp_path / "s5.cx", "1 2 3 4 5\n")
    amb, *_ = figure_hypergraphs()
    fig = str(tmp_path / "figure1.cx")
    write_complex(fig, amb)
    for path in (big, fig):
        assert read_complex(path).num_faces > TABLE_LIMIT
        code, out, err = run_cli(capsys, "verify", "--ambient", path, "--suite", suite)
        assert code == 2 and out == ""
        assert _one_error(err) and "too large" in err


def _exact_builds(amb):
    # every table, exact vector and enumeration of amb
    probs = [0.5] * amb.num_faces
    builds = [lambda: hypergraph_product(amb, 0.5), lambda: point_mass(amb, 0),
              lambda: uniform_distribution(amb), lambda: random_exact(amb, rng_from(1)),
              lambda: empirical_distribution(amb, [0, 1]), lambda: Distribution(amb, [1.0]),
              lambda: complex_product(amb, probs),
              lambda: list(enumerate_subhypergraphs(amb)), lambda: list(enumerate_subcomplexes(amb))]
    return builds + [lambda build=build: build(amb) for build in PRIMITIVE_TABLES.values()]


def test_exact_distributions_check_size_before_allocating():
    # each build stops at the one check with its one message; at 63 faces no
    # 2^63 array could be allocated, so the check comes first
    for amb in (AmbientComplex([(1, 2, 3, 4, 5)]), AmbientComplex([(1, 2, 3, 4, 5, 6)])):
        messages = set()
        for build in _exact_builds(amb):
            with pytest.raises(ValueError, match="too large") as exc:
                build()
            messages.add(str(exc.value))
        with pytest.raises(ValueError) as exc:
            lattice_size(amb)
        assert messages == {str(exc.value)}
        assert f"{amb.num_faces} faces" in str(exc.value) and f"at most {TABLE_LIMIT}" in str(exc.value)


@pytest.mark.parametrize("argv", [
    ["stats", "--model", "clique", "--n", "6", "--r", "2", "--seed", "1", "--samples", "-2"],
    ["stats", "--model", "clique", "--n", "6", "--r", "2", "--seed", "1", "--samples", "x"],
    ["sparse", "--algorithm", "2", "--n", "6", "--r", "1", "--seed", "1", "--samples", "-1"],
    ["gen-hyper", "--ambient", "t.cx", "--seed", "1", "--samples", "-1"],
    ["gen-complex", "--ambient", "t.cx", "--seed", "1", "--samples", "-5"],
    ["push", "--ambient", "t.cx", "--expr", "Delta", "--seed", "1", "--samples", "-3"],
])
def test_cli_negative_sample_counts_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert _one_error(capsys.readouterr().err)


@pytest.mark.parametrize("flag, value", [("--seed", str(1 << 64)), ("--seed", "-1"),
                                         ("--stream", str(1 << 64)), ("--stream", "-1")])
@pytest.mark.parametrize("cmd", ["gen-hyper", "gen-complex", "stats"])
def test_cli_keys_outside_64_bits_are_rejected(capsys, triangle_cx, half_prob, cmd, flag, value):
    head = [cmd, "--n", "6", "--r", "1"] if cmd == "stats" else [cmd, "--ambient", triangle_cx]
    argv = [*head, "--prob", half_prob, "--seed", "1", flag, value]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert _one_error(err) and flag[2:] in err and "2^64" in err


@pytest.mark.parametrize("flag", ["--coeff", "--denom"])
def test_cli_stats_rejects_nan_schedule(capsys, flag):
    code, out, err = run_cli(capsys, "stats", "--n", "6", "--r", "1", "--seed", "1", flag, "nan")
    assert code == 2 and out == ""
    assert _one_error(err) and "coefficient and denominator must be positive" in err


@pytest.mark.parametrize("model", ["clique", "closure"])
@pytest.mark.parametrize("n,samples,flag", [("6", "0", "--samples"), ("0", "5", "--n"), ("8,-3", "5", "--n"),
                                            ("5,abc", "5", "--n"), ("1.5", "5", "--n")])
def test_cli_stats_rejects_empty_runs(capsys, half_prob, model, n, samples, flag):
    code, out, err = run_cli(capsys, "stats", "--model", model, "--n", n, "--r", "1",
                             "--prob", half_prob, "--seed", "1", "--samples", samples)
    assert code == 2 and out == ""
    assert _one_error(err) and flag in err


@pytest.mark.parametrize("model, r", [("clique", "-1"), ("clique", "0"), ("closure", "-1")])
def test_cli_stats_rejects_r_below_its_model(capsys, half_prob, model, r):
    # no --denom: the clique model's default denominator r + 1 would be
    # the first thing to fail, with a message that names neither flag
    code, out, err = run_cli(capsys, "stats", "--model", model, "--n", "5", "--r", r,
                             "--prob", half_prob, "--seed", "1", "--samples", "3")
    assert code == 2 and out == ""
    assert _one_error(err) and "--r" in err and "coefficient" not in err


@pytest.mark.parametrize("model", ["clique", "closure"])
def test_cli_stats_reads_its_stream(tmp_path, capsys, model):
    # row k of `stats --stream s` reads stream s + k, as the library's
    # streams_from does
    prob = str(tmp_path / "low.json")
    base = [1.0, 0.5, 0.1, 0.05]
    write_probability(prob, ProbabilityAssignment.from_dims(base))
    argv = ["stats", "--model", model, "--n", "6,8", "--r", "2", "--prob", prob,
            "--seed", "3", "--samples", "50"]
    outs = {}
    for stream in (0, 5):
        code, outs[stream], err = run_cli(capsys, *argv, "--stream", str(stream))
        assert code == 0, err
    if model == "clique":
        rows = dimension_stats([6, 8], threshold_schedule(0.5, 3), 2, 50, 3, streams_from=5)
    else:
        rows = closure_dimension_stats([6, 8], base, 2, 50, 3, streams_from=5)
    assert outs[5] == format_stats_csv(rows)
    assert outs[5] != outs[0]


def test_cli_stats_closure_beyond_n_matches_clique(capsys, half_prob):
    # r >= n: no r-faces, so dimension <= r surely and == r never
    rows = {}
    for model in ("clique", "closure"):
        code, out, err = run_cli(capsys, "stats", "--model", model, "--n", "3,5", "--r", "5",
                                 "--prob", half_prob, "--seed", "1", "--samples", "20")
        assert code == 0, err
        rows[model] = [line.split(",")[3:] for line in out.splitlines()[1:]]
    assert rows["closure"] == rows["clique"] == [["1.0", "0.0", "0.0"]] * 2


def test_cli_stats_stdout_equals_out_file(tmp_path, capsys, half_prob):
    for model in ("clique", "closure"):
        argv = ["stats", "--model", model, "--n", "5,7", "--r", "1", "--prob", half_prob,
                "--seed", "3", "--samples", "40"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        path = tmp_path / f"{model}.csv"
        code, printed, _ = run_cli(capsys, *argv, "--out", str(path))
        assert code == 0 and printed == ""
        assert path.read_text(encoding="utf-8") == out


def test_cli_verify_unknown_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "bogus"])
    assert exc.value.code == 2 and "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["push", "--ambient", "t.cx", "--expr", "Delta", "--exact"],
    ["verify", "--exhaustive"],
    # --stream has one spelling
    ["gen-hyper", "--ambient", "t.cx", "--prob", "p.json", "--seed", "1", "--streams", "2"],
    ["push", "--ambient", "t.cx", "--expr", "Delta", "--streams", "2"],
])
def test_cli_removed_noop_flags_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


CHAIN_3000 = ".".join(["Delta"] * 3000)
NESTED_3000 = "(" * 3000 + "Delta" + ")" * 3000


@pytest.mark.parametrize("argv", [
    ["gen-hyper", "--ambient", "{dir}", "--prob", "{prob}", "--seed", "1"],
    ["gen-complex", "--ambient", "{cx}", "--prob", "{dir}", "--seed", "1"],
    ["push", "--ambient", "{cx}", "--expr", "Delta", "--hyper", "{dir}"],
    ["gen-hyper", "--ambient", "{cx}", "--prob", "{prob}", "--seed", "1", "--out", "{dir}"],
    ["sparse", "--algorithm", "2", "--n", "6", "--r", "1", "--prob", "{prob}", "--seed", "1", "--out", "{dir}"],
    ["stats", "--n", "6", "--r", "1", "--samples", "5", "--seed", "1", "--out", "{dir}"],
    ["push", "--ambient", "{cx}", "--expr", NESTED_3000, "--model", "phyper", "--prob", "{prob}"],
    ["normalize", "--expr", NESTED_3000],
], ids=["ambient-dir", "prob-dir", "hyper-dir", "gen-out-dir", "sparse-out-dir", "stats-out-dir",
        "push-nested-3000", "normalize-nested-3000"])
def test_cli_bad_input_exits_2_with_one_line(tmp_path, capsys, triangle_cx, half_prob, argv):
    # unreadable paths, unwritable outputs and parentheses nested past the
    # interpreter's recursion limit: one error line, no traceback, no
    # temp file left beside an --out
    folder = tmp_path / "folder"
    folder.mkdir()
    argv = [a.format(cx=triangle_cx, prob=half_prob, dir=folder) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert _one_error(err) and err.count("\n") == 1
    assert not [name for name in os.listdir(tmp_path) if name.startswith(".tmp-")]
    assert os.listdir(folder) == []


def test_cli_600_term_chain_pushes_as_its_normal_form(capsys, triangle_cx, half_prob):
    argv = ["push", "--ambient", triangle_cx, "--model", "phyper", "--prob", half_prob, "--expr"]
    code, out, _ = run_cli(capsys, *argv, ".".join(["Delta"] * 600))
    assert code == 0
    assert (code, out) == run_cli(capsys, *argv, "Delta")[:2]


def test_cli_3000_term_chain_runs_as_its_normal_form(capsys, triangle_cx, half_prob):
    # a '.' chain is one loop in the parser, the walk and the push, so no
    # length reaches the recursion limit
    argv = ["push", "--ambient", triangle_cx, "--model", "phyper", "--prob", half_prob, "--expr"]
    code, out, err = run_cli(capsys, *argv, CHAIN_3000)
    assert code == 0, err
    assert "TV to closed-form family (Delta)" in out
    assert (code, out) == run_cli(capsys, *argv, "Delta")[:2]
    assert run_cli(capsys, "normalize", "--expr", CHAIN_3000)[:2] == (0, "Delta\n")


def test_cli_missing_file(capsys):
    code, _, err = run_cli(
        capsys, "powers", "--file", "nope.hg", "--ambient", "nope.cx"
    )
    assert code == 2 and "nope" in err


def test_cli_figure1_and_powers(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "figure1", "--out-dir", str(tmp_path))
    assert code == 0
    assert sorted(os.listdir(tmp_path)) == ["H1.hg", "H2.hg", "H3.hg", "figure1.cx"]
    want = {"H1": "r=2 t=1", "H2": "r=2 t=2", "H3": "r=1 t=2"}
    for name, expect in want.items():
        code, out, _ = run_cli(
            capsys, "powers",
            "--file", str(tmp_path / f"{name}.hg"),
            "--ambient", str(tmp_path / "figure1.cx"),
        )
        assert code == 0
        assert out.strip() == expect


README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _readme_session() -> list[list[str]]:
    # the README's self-contained session, one argv per line, with
    # backslash continuations joined and comments dropped
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("A self-contained session", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True) for line in lines if line.strip()]


def test_readme_session_runs_as_written(tmp_path, capsys, monkeypatch):
    # the printf lines write the input files; every hyperops line exits 0
    monkeypatch.chdir(tmp_path)
    ran = []
    for argv in _readme_session():
        if argv[0] == "printf":
            _, text, redirect, path = argv
            assert redirect == ">"
            write(tmp_path / path, text.replace("\\n", "\n"))
            continue
        assert argv[0] == "hyperops"
        code, out, err = run_cli(capsys, *argv[1:])
        assert code == 0, (argv, err)
        ran.append(argv[1])
        if argv[1] == "powers":
            assert out == "r=2 t=1\n"
    assert "powers" in ran  # the block was found


def test_cli_powers_degenerate(tmp_path, capsys, triangle_cx):
    hg = write(tmp_path / "all.hg", TRIANGLE)
    code, out, _ = run_cli(capsys, "powers", "--file", hg, "--ambient", triangle_cx)
    assert code == 0 and "degenerate" in out


def test_cli_sparse_output_shapes(capsys, tmp_path, half_prob):
    code, out, _ = run_cli(
        capsys, "sparse", "--algorithm", "1", "--n", "5", "--r", "1",
        "--prob", half_prob, "--seed", "9", "--samples", "3",
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert all(" | " in line for line in lines)
    code, out, _ = run_cli(
        capsys, "sparse", "--algorithm", "2", "--n", "5", "--r", "1",
        "--prob", half_prob, "--seed", "9", "--samples", "3",
        "--out", str(tmp_path / "s.txt"),
    )
    assert code == 0
    assert len(open(tmp_path / "s.txt").read().splitlines()) == 3


@pytest.mark.parametrize("algorithm, n, r, p", [(1, 30, 2, [1.0, 0.2, 0.05]), (2, 30, 2, [1.0, 0.3, 0.5]),
                                                (1, 12, 0, [1.0]), (2, 120, 3, [1.0, 0.1, 0.5, 0.5])])
def test_cli_sparse_prints_format_faces_of_each_draw(capsys, tmp_path, algorithm, n, r, p):
    # stdout equals format_faces of each draw's face tuples, with the two
    # parts of an algorithm-1 draw joined by " | "
    prob = str(tmp_path / "p.json")
    write_probability(prob, ProbabilityAssignment.from_dims(p))
    rng = rng_from(11, 2)
    want = []
    for _ in range(4):
        if algorithm == 1:
            s = algorithm1_truncated(n, p, r, rng)
            parts = (s.hyper_faces, s.complex_faces)
        else:
            parts = (algorithm2_truncated(n, p, r, rng),)
        want.append(" | ".join(format_faces(layer_faces(part, r)) for part in parts) + "\n")
    code, out, err = run_cli(capsys, "sparse", "--algorithm", str(algorithm), "--n", str(n), "--r", str(r),
                             "--prob", prob, "--seed", "11", "--stream", "2", "--samples", "4")
    assert code == 0, err
    assert out == "".join(want)


def test_cli_stats_csv(capsys, tmp_path, half_prob):
    code, out, _ = run_cli(
        capsys, "stats", "--model", "clique", "--n", "6,8", "--r", "2",
        "--samples", "50", "--seed", "4",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("n,p1,samples")
    assert len(lines) == 3
    out_path = str(tmp_path / "c.csv")
    code, _, _ = run_cli(
        capsys, "stats", "--model", "closure", "--n", "6", "--r", "1",
        "--prob", half_prob, "--samples", "50", "--seed", "4", "--out", out_path,
    )
    assert code == 0
    assert len(open(out_path).read().splitlines()) == 2
    code, _, err = run_cli(
        capsys, "stats", "--model", "closure", "--n", "6", "--r", "1",
        "--samples", "50", "--seed", "4",
    )
    assert code == 2 and "prob" in err


def test_cli_normalize(capsys):
    code, out, _ = run_cli(capsys, "normalize", "--expr", "gamma^2")
    assert code == 0 and out.strip() == "id"
    code, out, _ = run_cli(capsys, "normalize", "--expr", "Ext")
    assert code == 0 and out.strip() == "Delta.gamma.delta.gamma"
    code, _, err = run_cli(capsys, "normalize", "--expr", "gamma^")
    assert code == 2


def test_cli_byte_identical_across_processes(tmp_path, triangle_cx, half_prob):
    # determinism must survive process boundaries, not just repeated calls
    argv = [
        sys.executable, "-m", "hyperops", "gen-complex",
        "--ambient", triangle_cx, "--prob", half_prob,
        "--seed", "12", "--samples", "6",
    ]
    first = subprocess.run(argv, capture_output=True, text=True)
    second = subprocess.run(argv, capture_output=True, text=True)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.count("\n") == 6


# ----- one parser per process ----------------------------------------------------


def _exit_and_out(capsys, argv):
    # (exit code, stdout, stderr) of one main call; argparse exits 2 itself
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_calls_on_one_parser_match_calls_made_alone(capsys):
    calls = [["verify", "--suite", "laws", "--seed", "5"], ["verify", "--suite", "laws"],
             ["verify", "--bogus"], ["normalize", "--expr", "Ext^2"]]
    in_sequence = [_exit_and_out(capsys, argv) for argv in calls]
    alone = []
    for argv in calls:
        cli._parser.cache_clear()  # a fresh parser, as in a new process
        alone.append(_exit_and_out(capsys, argv))
    assert in_sequence == alone
    assert [code for code, _, _ in alone] == [0, 0, 2, 0]


def test_cli_dispatches_to_the_current_command_function(capsys, monkeypatch):
    assert main(["normalize", "--expr", "gamma"]) == 0  # the parser is built
    calls = []
    monkeypatch.setattr(cli, "cmd_verify", lambda args: calls.append(args.suite) or 7)
    assert main(["verify", "--suite", "laws"]) == 7
    assert calls == ["laws"]
    assert capsys.readouterr().out == "gamma\n"


def test_cli_builds_its_parser_once(capsys, monkeypatch):
    builds = []
    build = cli.build_parser

    def counted():
        builds.append(1)
        return build()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counted)
    for argv in (["normalize", "--expr", "gamma"], ["verify", "--suite", "laws"],
                 ["normalize", "--expr", "Ext"]):
        assert main(argv) == 0
    assert len(builds) == 1
