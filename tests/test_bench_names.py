"""The names the benchmark looks up in the package must all resolve.

perfbench/instrument.py wraps hyperops functions by name on every pass,
traced or not, and its Instrumented.__enter__ raises KeyError for a name
that is gone; perfbench/jobs.py and perfbench/run.py call more through the
modules (`ho.<module>.<name>`, and `pf.<name>` for ho.pushforward), and
perfbench/test_checks.py reads PRIMITIVE_TABLES.  A rename in src/ would
fail every benchmark worker, so this test reads LAYERS from the instrument
file (compiled from its text, no bytecode written under perfbench/) and
resolves each name as Instrumented does, and reads the names the jobs and
the runner call from those files' text.
"""

import importlib
import re
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
INSTRUMENT = PERFBENCH / "instrument.py"


def _layers():
    namespace = {"__name__": "perfbench_instrument"}
    exec(compile(INSTRUMENT.read_text(encoding="utf-8"), str(INSTRUMENT), "exec"), namespace)
    return namespace["LAYERS"]


LAYERS = _layers()


@pytest.mark.parametrize("module,attr", [(m, a) for m, a, *_ in LAYERS],
                         ids=[f"{m}.{a}" for m, a, *_ in LAYERS])
def test_instrumented_name_resolves(module, attr):
    mod = importlib.import_module(f"hyperops.{module}")
    owner, _, name = attr.rpartition(".")
    owner = getattr(mod, owner) if owner else mod
    assert callable(owner.__dict__[name])


def _called_names():
    text = "".join((PERFBENCH / name).read_text(encoding="utf-8") for name in ("jobs.py", "run.py"))
    found = set(re.findall(r"\bho\.(\w+)\.(\w+)", text))
    found |= {("pushforward", name) for name in re.findall(r"\bpf\.(\w+)", text)}
    return sorted(found)


CALLED = _called_names()


def test_called_names_are_found():
    # the parse itself: a change to how the jobs spell their calls must not
    # leave this test with nothing to check
    assert ("cli", "main") in CALLED and ("pushforward", "push_union") in CALLED


@pytest.mark.parametrize("module,attr", CALLED, ids=[f"{m}.{a}" for m, a in CALLED])
def test_called_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"hyperops.{module}"), attr))


def test_parsed_expression_has_a_word():
    from hyperops.expr import parse_expression
    from hyperops.words import Word

    assert isinstance(parse_expression("Delta + Ext").word, Word)


def test_names_read_by_the_runner():
    from hyperops import kernels, operators

    assert kernels.active_backend() == "numpy"
    assert operators.PRIMITIVE_TABLES["Delta"] is operators.closure_table
