"""The functions the benchmark traces by name exist and are public.

``perfbench/run.py`` reads per-layer metrics named
``<module>.<function>.<s|self_s|calls>`` from spans that
``perfbench/tracer.py`` records around blockreg's public functions. A
function renamed, moved or made private would make the traced benchmark
run fail; this test catches that in the ordinary suite instead. The two
files are read with ``ast``, never imported.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPAN_KEYS = ("s", "self_s", "calls")


def _constant(filename: str, name: str):
    tree = ast.parse((PERFBENCH / filename).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name
            for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{filename} assigns no {name}")


def _traced_functions() -> list[str]:
    names = set(_constant("tracer.py", "HOT"))
    for metric in _constant("run.py", "LAYER_METRICS"):
        base, _, key = metric.rpartition(".")
        if key in SPAN_KEYS:
            names.add(base)
    return sorted(names)


def test_traced_names_were_found():
    names = _traced_functions()
    assert "forecaster.forecast_horizon" in names
    assert "evaluation.nrmse" in names


@pytest.mark.parametrize("name", _traced_functions())
def test_traced_name_is_public_function(name):
    module_name, function = name.split(".")
    assert not function.startswith("_"), name
    module = importlib.import_module(f"blockreg.{module_name}")
    fn = getattr(module, function, None)
    assert inspect.isfunction(fn), f"blockreg.{name} is not a function"
    assert fn.__module__ == module.__name__, (
        f"blockreg.{name} is defined in {fn.__module__}"
    )
