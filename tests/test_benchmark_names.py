"""The functions the benchmark traces by name exist and are public.

``perfbench/run.py`` reads per-layer metrics named
``<module>.<function>.<s|self_s|calls>`` from spans that
``perfbench/tracer.py`` records around blockreg's public functions. A
function renamed, moved or made private would make the traced benchmark
run fail; this test catches that in the ordinary suite instead. The two
files are read with ``ast``, never imported.

A traced function that exists but is no longer called through its module
attribute would read 0 in the traced run; ``evaluate`` is therefore run
with counting wrappers rebound the way the tracer rebinds its own. The
tracer's counters also read some arguments of a traced call by name, so
each such name must stay a parameter of its function.
"""

import ast
import functools
import importlib
import inspect
import sys
from collections import Counter
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPAN_KEYS = ("s", "self_s", "calls")


def _assigned(filename: str, name: str) -> ast.expr:
    tree = ast.parse((PERFBENCH / filename).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name
            for target in node.targets
        ):
            return node.value
    raise AssertionError(f"{filename} assigns no {name}")


def _constant(filename: str, name: str):
    return ast.literal_eval(_assigned(filename, name))


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


def _observed_arguments() -> list[tuple[str, str]]:
    """``(function, argument)`` for each ``a["..."]`` an OBSERVERS entry reads.

    Each entry is ``lambda a, r: ...`` over the bound arguments ``a`` of the
    traced call, so every key it reads must be a parameter name.
    """
    observers = _assigned("tracer.py", "OBSERVERS")
    pairs = set()
    for key, observer in zip(observers.keys, observers.values):
        arguments = observer.args.args[0].arg
        for node in ast.walk(observer.body):
            if (
                isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Name)
                and node.value.id == arguments
            ):
                pairs.add((ast.literal_eval(key), ast.literal_eval(node.slice)))
    return sorted(pairs)


def test_observed_arguments_were_found():
    pairs = _observed_arguments()
    assert ("corpus.save_corpus", "path") in pairs
    assert ("corpus.clean", "raw") in pairs


@pytest.mark.parametrize("name,argument", _observed_arguments())
def test_observed_argument_is_a_parameter(name, argument):
    module_name, function = name.split(".")
    fn = getattr(importlib.import_module(f"blockreg.{module_name}"), function)
    assert argument in inspect.signature(fn).parameters, (
        f"perfbench/tracer.py reads a[{argument!r}] but blockreg.{name} "
        "has no such parameter"
    )


def _install_counters(monkeypatch, names) -> Counter:
    """Rebind a counting wrapper over every ``blockreg`` name for each function.

    This is how ``perfbench/tracer.py`` installs its wrappers: a call is
    counted only if it goes through a module attribute, so a function that
    is bypassed (inlined, or called through a private alias) counts 0.
    """
    counts: Counter = Counter()
    for name in names:
        module_name, function = name.split(".")
        original = getattr(importlib.import_module(f"blockreg.{module_name}"), function)

        @functools.wraps(original)
        def wrapper(*args, __name=name, __fn=original, **kwargs):
            counts[__name] += 1
            return __fn(*args, **kwargs)

        for held_by, module in list(sys.modules.items()):
            if held_by != "blockreg" and not held_by.startswith("blockreg."):
                continue
            for attr, obj in list(vars(module).items()):
                if obj is original:
                    monkeypatch.setattr(module, attr, wrapper)
    return counts


@pytest.mark.parametrize("mode", ["one_step", "recursive"])
@pytest.mark.parametrize("kind", ["br", "lr", "sa"])
def test_evaluate_reaches_traced_functions(small_corpus, monkeypatch, kind, mode):
    # one_step br/lr scoring runs the feature pipeline; recursive runs the
    # per-hour forecast.
    from blockreg import evaluate, train_block_regression, train_sa

    if kind == "sa":
        model = train_sa(small_corpus)
        reached = ["baselines.forecast_sa"]
    else:
        model, _ = train_block_regression(
            small_corpus, m=0 if kind == "lr" else 24, w=72 if kind == "lr" else 3,
            train_hours=240,
        )
        reached = ["forecaster.forecast_horizon"]
        if mode == "recursive":
            reached.append("forecaster.forecast_one")
        else:
            reached += ["pipeline.slide_windows", "pipeline.apply_normalization"]
            if kind == "br":
                reached.append("pipeline.seasonal_difference")
    reached.append("evaluation.nrmse")
    counts = _install_counters(monkeypatch, reached)
    evaluate(model, small_corpus, mode=mode)
    for name in reached:
        assert counts[name] >= 1, f"{name} was not reached through its module attribute"


@pytest.mark.parametrize("kind", ["br", "lr", "sa"])
def test_training_reaches_traced_functions(small_corpus, monkeypatch, kind):
    # A batched private helper that bypassed a traced name would make its
    # calls read 0 in the traced benchmark run, which counts as a failure.
    # br/lr training sums lag products and builds no window.
    from blockreg import train_block_regression, train_sa

    if kind == "sa":
        reached = ["baselines.hannan_rissanen", "pipeline.seasonal_difference"]
    else:
        reached = ["pipeline.fit_normalization", "regressor.train_cg"]
        if kind == "br":
            reached.append("pipeline.seasonal_difference")
    counts = _install_counters(monkeypatch, reached)
    if kind == "sa":
        train_sa(small_corpus)
    else:
        train_block_regression(
            small_corpus, m=0 if kind == "lr" else 24, w=72 if kind == "lr" else 3,
            train_hours=240,
        )
    for name in reached:
        assert counts[name] >= 1, f"{name} was not reached through its module attribute"


def test_benchmark_flow_reaches_every_traced_function(small_corpus, monkeypatch, tmp_path):
    """The benchmark's flow, in process, reaches every traced name.

    Each path reaches only some names (training no longer windows, and
    one_step scoring no longer calls `forecast_one`), so a name is kept
    alive by the flow as a whole: set-up through the corpus files, the
    three trainings and their model files, both modes of `evaluate` for
    each kind, a recursive `forecast_fleet` and a `sweep_seasonality`.
    """
    names = _traced_functions()
    counts = _install_counters(monkeypatch, names)
    import blockreg

    raw, corpus = str(tmp_path / "raw.csv"), str(tmp_path / "corpus.csv")
    blockreg.save_corpus(blockreg.synthesize(blockreg.SynthConfig(n_bs=20, seed=1)), raw)
    blockreg.save_corpus(blockreg.clean(blockreg.load_corpus(raw)), corpus)
    t = blockreg.load_corpus(corpus)
    models = {
        "br": blockreg.train_block_regression(t, m=24, w=3, train_hours=240)[0],
        "lr": blockreg.train_block_regression(t, m=0, w=72, train_hours=240)[0],
        "sa": blockreg.train_sa(t),
    }
    for kind, model in models.items():
        path = str(tmp_path / f"{kind}.json")
        blockreg.save_model(model, path)
        model = blockreg.load_model(path)
        for mode in ("one_step", "recursive"):
            blockreg.evaluate(model, t, mode=mode)
    blockreg.forecast_fleet(models["br"], t, 240, 96, "recursive")
    blockreg.sweep_seasonality(t, [12, 24])
    missed = [name for name in names if counts[name] == 0]
    assert not missed, f"not reached through their module attributes: {missed}"
