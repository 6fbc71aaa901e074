"""Mutated command lines meet the error contract of every command.

Whatever flags a command line gives synth, clean, train (br and sa),
forecast, eval or sweep, unknown or repeated, without a value, spelled
``--flag=value``, of the wrong type or an out-of-range int, `cli.main`
either succeeds or exits with its family's code (2 config, 3 data, 4
numerical) and one JSON line on stderr, without a traceback and without
writing an output file.
"""

import io
import json
from contextlib import chdir, redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import blockreg.evaluation
from blockreg import save_corpus
from blockreg.cli import main

from conftest import make_corpus
from json_mutations import run_cli

FAMILIES = {2: "ConfigError", 3: "DataError", 4: "NumericalError"}
# A valid command line of each command, as (flag, value) pairs; "@" stands
# for the workspace directory.
COMMANDS = {
    "synth": [("--config", "@/synth.json"), ("--seed", "5"), ("--output", "@/out")],
    "clean": [("--input", "@/corpus.csv"), ("--output", "@/out")],
    "train_br": [("--input", "@/corpus.csv"), ("--model", "@/out"), ("--kind", "br"),
                 ("--m", "24"), ("--w", "3"), ("--train-hours", "240"),
                 ("--threads", "1")],
    "train_sa": [("--input", "@/corpus.csv"), ("--model", "@/out"), ("--kind", "sa"),
                 ("--m", "24"), ("--ar", "2"), ("--ma", "1")],
    "forecast": [("--input", "@/corpus.csv"), ("--model", "@/br.json"),
                 ("--output", "@/out"), ("--mode", "recursive"),
                 ("--train-hours", "240"), ("--test-hours", "96")],
    "eval": [("--input", "@/corpus.csv"), ("--model", "@/sa.json"),
             ("--output", "@/out"), ("--mode", "one_step"), ("--seed", "7"),
             ("--test-hours", "96")],
    "sweep": [("--input", "@/corpus.csv"), ("--output", "@/out"), ("--w", "3"),
              ("--mode", "one_step"), ("--config", "@/sweep.json")],
}
# Every flag of any command, so that a flag of another command is tried too.
FLAGS = sorted({flag for pairs in COMMANDS.values() for flag, _ in pairs}
               | {"--input", "--model", "--output", "--config"})
# Never a prefix of --help, which prints the help text and exits 0.
UNKNOWN = ["--bogus", "--x", "-x", "--train_hours", "--M", "---m", "--", "junk", "-1"]
OTHER_FILES = ["@/missing.csv", "@", "@/br.json", "@/corpus.csv", "@/out2"]
WRONG_TYPES = ["", "abc", "1.5", "1e3", "0x10", "nan", "inf", "--", "one_step",
               "br", " ", "2 4", "None", "[24]"]
# Out-of-range ints refused before any work. Ints beyond the address space
# only: a large but addressable horizon is legitimate, if slow, work.
OUT_OF_RANGE = ["-1", "0", "-0", str(-2**63), str(2**61), str(2**63), str(2**64),
                str(10**30), "9" * 5000]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A tiny corpus, a br and an sa model trained on it, and config files:
    the workspace, and the bytes of each of its files."""
    ws = tmp_path_factory.mktemp("flag_mutations")
    save_corpus(make_corpus(n_bs=3), str(ws / "corpus.csv"))
    with redirect_stdout(io.StringIO()):
        for kind in ("br", "sa"):
            assert main(["train", "--kind", kind, "--input", str(ws / "corpus.csv"),
                         "--model", str(ws / f"{kind}.json")]) == 0
    (ws / "synth.json").write_text(json.dumps({"n_bs": 3, "n_hours": 48}))
    (ws / "sweep.json").write_text(json.dumps({"seasonalities": [24, 48]}))
    return ws, {path.name: path.read_bytes() for path in ws.iterdir()}


@pytest.fixture()
def workspace(inputs):
    restore(inputs)
    return inputs[0]


def restore(inputs) -> None:
    """Put back the input files, which a mutated output flag may overwrite."""
    ws, files = inputs
    for name, data in files.items():
        (ws / name).write_bytes(data)


@st.composite
def mutated_argv(draw, name):
    """The argv of ``name`` with one to three mutations, as tokens with "@"
    for the workspace."""
    pairs = [list(pair) for pair in COMMANDS[name]]
    for _ in range(draw(st.integers(1, 3))):
        mutation = draw(st.sampled_from(
            ["unknown", "repeat", "no_value", "drop", "equals", "wrong_type",
             "out_of_range", "other_flag"]))
        i = draw(st.integers(0, len(pairs) - 1))
        flag, value = (pairs[i] + [None])[:2]  # an earlier mutation may leave one token
        file_flag = flag in ("--input", "--model", "--output", "--config")
        if mutation == "unknown":
            extra = [draw(st.sampled_from(UNKNOWN))]
            if draw(st.booleans()):
                extra.append(draw(st.sampled_from(["1", "x", ""])))
            pairs.insert(draw(st.integers(0, len(pairs))), extra)
        elif mutation == "repeat":
            again = value if value and draw(st.booleans()) else draw(st.sampled_from(
                OTHER_FILES if file_flag else WRONG_TYPES + OUT_OF_RANGE + ["1", "24"]))
            pairs.insert(draw(st.integers(0, len(pairs))), [flag, again])
        elif mutation == "no_value":
            pairs[i] = [flag]
            if draw(st.booleans()):  # at the end of the line
                pairs.append(pairs.pop(i))
        elif mutation == "drop":
            del pairs[i]
            if not pairs:
                pairs.append([draw(st.sampled_from(FLAGS))])
        elif mutation == "equals" and value is not None:
            pairs[i] = [f"{flag}={value}"]
        elif mutation == "wrong_type" and value is not None:
            pairs[i] = [flag, draw(st.sampled_from(
                OTHER_FILES + WRONG_TYPES if file_flag else WRONG_TYPES))]
        elif mutation == "out_of_range" and value is not None and not file_flag:
            pairs[i] = [flag, draw(st.sampled_from(OUT_OF_RANGE))]
        elif mutation == "other_flag":
            pairs.insert(draw(st.integers(0, len(pairs))), [
                draw(st.sampled_from(FLAGS)),
                draw(st.sampled_from(OUT_OF_RANGE + WRONG_TYPES + OTHER_FILES + ["1"]))])
    return [token for pair in pairs for token in pair]


def argv_of(name: str, tokens: list[str], ws) -> list[str]:
    command = name.split("_")[0]
    return [command, *(token.replace("@", str(ws)) for token in tokens)]


@pytest.mark.parametrize("name", sorted(COMMANDS))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_flags_meet_the_error_contract(inputs, name, data):
    workspace = inputs[0]
    restore(inputs)
    tokens = data.draw(mutated_argv(name))
    # The output names a mutation may give, whose files run_cli removes
    # first; a relative name lands in the workspace, which is the cwd.
    outputs = [workspace / file for file in ("out", "out.matrix", "out2", "out2.matrix",
                                             "missing.csv", "missing.csv.matrix")]
    before = set(workspace.iterdir())
    with chdir(workspace):
        code = run_cli(argv_of(name, tokens, workspace), outputs, FAMILIES)
    made = set(workspace.iterdir()) - before
    assert code == 0 or not made, made  # a failure writes nothing
    for path in made:
        path.unlink()
    event(f"exit {code}")


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_unmutated_flags_succeed(workspace, name):
    tokens = [token for pair in COMMANDS[name] for token in pair]
    assert run_cli(argv_of(name, tokens, workspace), [workspace / "out"], FAMILIES) == 0


def double_dash(argv: list[str]) -> str:
    return next(token for token in argv if token.endswith("=--"))


@pytest.mark.parametrize("argv", [
    ["clean", "--input=--", "--output", "@/out"],  # a traceback
    ["train", "--input", "@/corpus.csv", "--model", "@/out", "--kind=--"],  # trained br
    ["train", "--input", "@/corpus.csv", "--model", "@/out", "--threads=--"],
    ["synth", "--output", "@/out", "--seed=--"],
    ["eval", "--input", "@/corpus.csv", "--model", "@/br.json", "--output", "@/out",
     "--mode=--"],
], ids=lambda argv: argv[0] + " " + double_dash(argv))
def test_flag_equals_double_dash_exits_2(workspace, argv):
    # argparse takes `--flag=--` for an empty list, which no type or choice
    # checks; it ended in a traceback, or trained a br model for --kind.
    out = workspace / "out"
    out.unlink(missing_ok=True)
    stderr = io.StringIO()
    with redirect_stderr(stderr), redirect_stdout(io.StringIO()):
        assert main([token.replace("@", str(workspace)) for token in argv]) == 2
    err = json.loads(stderr.getvalue())
    assert err["error"] == "InvalidConfig"
    flag = double_dash(argv).removesuffix("=--")
    assert f"argument {flag}: expected one argument" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("kind", ["br", "sa"])
@pytest.mark.parametrize("hours", [2**61, 2**64])
def test_recursive_horizon_beyond_the_address_space_exits_2(workspace, kind, hours):
    # Its working matrix cannot exist, so numpy raised ValueError, a traceback.
    out = workspace / "out"
    out.unlink(missing_ok=True)
    argv = ["forecast", "--input", str(workspace / "corpus.csv"), "--model",
            str(workspace / f"{kind}.json"), "--mode", "recursive",
            "--test-hours", str(hours), "--output", str(out)]
    stderr = io.StringIO()
    with redirect_stderr(stderr), redirect_stdout(io.StringIO()):
        assert main(argv) == 2
    err = json.loads(stderr.getvalue())
    assert err["error"] == "InvalidConfig" and "address space" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["forecast", "eval"])
def test_horizon_out_of_memory_exits_2(workspace, command):
    # An addressable horizon too large for memory raised numpy's MemoryError.
    def no_memory(*args):
        raise MemoryError

    out = workspace / "out"
    out.unlink(missing_ok=True)
    argv = [command, "--input", str(workspace / "corpus.csv"), "--model",
            str(workspace / "br.json"), "--output", str(out)]
    stderr = io.StringIO()
    with mock.patch.object(blockreg.evaluation, "forecast_horizon", no_memory), \
            redirect_stderr(stderr), redirect_stdout(io.StringIO()):
        assert main(argv) == 2
    err = json.loads(stderr.getvalue())
    assert err["error"] == "InvalidConfig" and "does not fit in memory" in err["message"]
    assert not out.exists()
