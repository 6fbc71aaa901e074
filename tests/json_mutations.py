"""One mutation of a JSON document, as the text of a file, for hypothesis.

The mutations are a dropped key, a value of another JSON type, a
non-finite number, a huge int, deep nesting, and a key or list entry given
twice. `run_cli` runs `cli.main` in-process and checks the error contract:
exit 0 with nothing on stderr, or a family exit code with one JSON line on
stderr that names the error and its family, and no output file;
`cli_outcome` also returns what the command printed.
"""

import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import strategies as st

from blockreg.cli import main

RAW = "@@raw@@"  # a value written as the JSON text that follows it
TWICE = "@@twice@@"  # a key written as the key it repeats

# JSON texts of a non-finite number, an integer beyond the float or the
# int64 range, or beyond the digits Python converts, and deep nesting.
NON_FINITE = ["NaN", "Infinity", "-Infinity", "1e999", "-1e999"]
HUGE_INTS = [str(2**64), str(10**400), "-" + str(10**400), "9" * 5000]
DEEP = ["[" * d + "]" * d for d in (50, 2000, 100_000)] + [
    '{"a": ' * d + "0" + "}" * d for d in (50, 2000)]
OTHER_TYPES = [None, True, 0, 0.5, "24", [], {}]


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


def run_cli(argv, outputs, allowed) -> int:
    """Run ``main(argv)`` and check the outcome; return the exit code.

    ``allowed`` maps each exit code other than 0 to the error family it
    reports. A failure must leave none of ``outputs``, which are removed
    before the run.
    """
    return cli_outcome(argv, outputs, allowed)[0]


def cli_outcome(argv, outputs, allowed) -> tuple[int, str, str]:
    """`run_cli`, returning the exit code, stdout and stderr."""
    for path in outputs:
        path.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stderr(stderr), redirect_stdout(stdout):
        code = main(argv)
    if code == 0:
        assert stderr.getvalue() == ""
        return code, stdout.getvalue(), ""
    lines = stderr.getvalue().splitlines()
    assert len(lines) == 1, lines
    err = json.loads(lines[0])
    assert allowed.get(code) == err["family"], (code, err)
    assert err["error"] and not any(path.exists() for path in outputs), err
    return code, stdout.getvalue(), lines[0]
