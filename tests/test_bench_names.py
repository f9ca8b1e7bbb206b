"""The names the benchmark looks up in the package must all resolve.

perfbench/instrument.py wraps hyperops functions by name on every pass,
traced or not, and its Instrumented.__enter__ raises KeyError for a name
that is gone; perfbench/run.py and perfbench/test_checks.py read two more.
A rename in src/ would fail every benchmark worker, so this test reads
LAYERS from the instrument file (compiled from its text, no bytecode written
under perfbench/) and resolves each name as Instrumented does.
"""

import importlib
from pathlib import Path

import pytest

INSTRUMENT = Path(__file__).resolve().parents[1] / "perfbench" / "instrument.py"


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


def test_names_read_by_the_runner():
    from hyperops import kernels, operators

    assert kernels.active_backend() == "numpy"
    assert operators.PRIMITIVE_TABLES["Delta"] is operators.closure_table
