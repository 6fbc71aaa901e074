"""Mutated model files meet the error contract of `blockreg eval`.

Whatever is done to a br, lr or sa model file, `cli.main(["eval", ...])`
either succeeds or exits 3 with one JSON line on stderr that names the
error and its family, without a traceback and without writing the report;
a finite coefficient whose forecasts overflow exits 4 the same way.
"""

import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockreg import save_corpus
from blockreg.cli import main

from conftest import make_corpus

KINDS = ("br", "lr", "sa")
RAW = "@@raw@@"  # a value written as the JSON text that follows it
TWICE = "@@twice@@"  # a key written as the key it repeats

# JSON texts of a non-finite number, an integer beyond the float or the
# int64 range, or beyond the digits Python converts, and deep nesting.
NON_FINITE = ["NaN", "Infinity", "-Infinity", "1e999", "-1e999"]
HUGE_INTS = [str(2**64), str(10**400), "-" + str(10**400), "9" * 5000]
DEEP = ["[" * d + "]" * d for d in (50, 2000, 100_000)] + [
    '{"a": ' * d + "0" + "}" * d for d in (50, 2000)]
OTHER_TYPES = [None, True, 0, 0.5, "24", [], {}]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A tiny corpus and the JSON document of one model of each kind."""
    ws = tmp_path_factory.mktemp("mutations")
    save_corpus(make_corpus(n_bs=3), str(ws / "corpus.csv"))
    docs = {}
    with redirect_stdout(io.StringIO()):
        for kind in KINDS:
            model = ws / f"{kind}.json"
            assert main(["train", "--kind", kind, "--input", str(ws / "corpus.csv"),
                         "--model", str(model)]) == 0
            docs[kind] = json.loads(model.read_text())
    # An sa file lists the stations it failed to fit too.
    failed = max(docs["sa"]["per_bs"])
    del docs["sa"]["per_bs"][failed]
    docs["sa"]["failed_bs"].append(failed)
    docs["sa"]["params"] -= 5
    return ws, docs


def _nodes(node, path=()):
    """The path of ``node`` and of everything inside it."""
    yield path
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _nodes(child, (*path, key))


def _kind_of(value) -> str:
    return "number" if type(value) in (int, float) else type(value).__name__


@st.composite
def mutated(draw, doc):
    """The JSON text of ``doc`` with one mutation."""
    doc = copy.deepcopy(doc)
    mutation = draw(st.sampled_from(
        ["drop", "retype", "non_finite", "huge_int", "deep", "twice"]))
    if mutation == "drop":
        path = draw(st.sampled_from([p for p in _nodes(doc) if p and type(p[-1]) is str]))
    elif mutation == "twice":
        path = draw(st.sampled_from([p for p in _nodes(doc) if isinstance(
            _at(doc, p), (dict, list)) and _at(doc, p)]))
    else:
        path = draw(st.sampled_from(list(_nodes(doc))))
    raw = None
    if mutation == "drop":
        del _at(doc, path[:-1])[path[-1]]
    elif mutation == "retype":
        current = _kind_of(_at(doc, path))
        doc = _put(doc, path, draw(st.sampled_from(
            [v for v in OTHER_TYPES if _kind_of(v) != current])))
    elif mutation == "twice":
        node = _at(doc, path)
        if isinstance(node, dict):  # a key written twice, such as a station
            key = draw(st.sampled_from(sorted(node)))
            node[TWICE] = draw(st.sampled_from([node[key], node[min(node)]]))
            raw = (TWICE, json.dumps(key))
        else:  # an entry listed twice, such as a failed station
            node.append(node[draw(st.integers(0, len(node) - 1))])
    else:
        text = {"non_finite": NON_FINITE, "huge_int": HUGE_INTS, "deep": DEEP}
        doc = _put(doc, path, RAW)
        raw = (RAW, draw(st.sampled_from(text[mutation])))
    text = json.dumps(doc)
    if raw is not None:
        text = text.replace(json.dumps(raw[0]), raw[1])
    return text


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _put(doc, path, value):
    """``doc`` with the value at ``path`` replaced by ``value``."""
    if not path:
        return value
    _at(doc, path[:-1])[path[-1]] = value
    return doc


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_model_file_meets_the_error_contract(workspace, kind, data):
    ws, docs = workspace
    model, report = ws / f"mutated_{kind}.json", ws / f"report_{kind}.json"
    model.write_text(data.draw(mutated(docs[kind])))
    stderr = io.StringIO()
    with redirect_stderr(stderr), redirect_stdout(io.StringIO()):
        code = main(["eval", "--input", str(ws / "corpus.csv"), "--model", str(model),
                     "--output", str(report)])
    if code == 0:
        assert stderr.getvalue() == ""
        report.unlink()
        return
    lines = stderr.getvalue().splitlines()
    assert len(lines) == 1, lines
    err = json.loads(lines[0])
    # A finite coefficient such as 2**64 can make the forecasts overflow,
    # which is the numerical family's exit code.
    assert (code, err["family"]) in ((3, "DataError"), (4, "NumericalError")), err
    assert err["error"] and not report.exists()
