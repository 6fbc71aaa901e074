"""The CLI's settings table, tested in-process.

Every row of ``SETTINGS`` is checked for each command that takes it: the
default, the config-file value, the flag over the file, the type check on
file values, and the default shown in ``--help``. The benchmark's command
lines must still parse.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from blockreg.cli import COMMANDS, SETTINGS, build_parser, main, resolve_settings
from blockreg.corpus import save_corpus
from blockreg.errors import InvalidConfig

from conftest import make_corpus

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
CASES = [(row, command) for row in SETTINGS for command in row[4]]
IDS = [f"{command}-{row[0]}" for row, command in CASES]
FLAGGED = [(row, c) for row, c in CASES if row[3] is not None]
FLAGGED_IDS = [f"{command}-{row[0]}" for row, command in FLAGGED]


def argv(command, *flags, config=None, tmp_path=None):
    files = [x for name in COMMANDS[command][2].split() for x in (f"--{name}", name)]
    extra = []
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        extra = ["--config", str(path)]
    return [command, *files, *map(str, flags), *extra]


def resolve(command, *flags, config=None, tmp_path=None):
    args = build_parser().parse_args(argv(command, *flags, config=config,
                                          tmp_path=tmp_path))
    return resolve_settings(args)


def flag(key):
    return "--" + key.replace("_", "-")


def valid_values(kind, default):
    """A config-file value unlike the default, and a flag value unlike it."""
    if isinstance(kind, tuple):
        return next(c for c in kind if c != default), default
    if kind is list:
        return [12, 36], None
    if kind is float:
        return default + 0.5, None
    return 7, 9


@pytest.mark.parametrize("row,command", CASES, ids=IDS)
def test_default_applies(row, command):
    assert resolve(command)[row[0]] == row[2]


@pytest.mark.parametrize("row,command", CASES, ids=IDS)
def test_file_value_applies(tmp_path, row, command):
    key, kind, default = row[:3]
    value, _ = valid_values(kind, default)
    assert resolve(command, config={key: value}, tmp_path=tmp_path)[key] == value


@pytest.mark.parametrize("row,command", FLAGGED, ids=FLAGGED_IDS)
def test_flag_beats_file(tmp_path, row, command):
    key, kind, default = row[:3]
    value, flag_value = valid_values(kind, default)
    opts = resolve(command, flag(key), flag_value, config={key: value},
                   tmp_path=tmp_path)
    assert opts[key] == flag_value


def _is_valid(kind, value):
    return (kind is float and value == 2.7) or (kind == int | None and value is None)


BAD = [(row, command, bad) for row, command in CASES
       for bad in ("abc", True, 2.7, None, "unlisted") if not _is_valid(row[1], bad)]


@pytest.mark.parametrize("row,command,bad", BAD,
                         ids=[f"{c}-{row[0]}-{bad}" for row, c, bad in BAD])
def test_bad_file_value_rejected(tmp_path, row, command, bad):
    key = row[0]
    with pytest.raises(InvalidConfig, match=key):
        resolve(command, config={key: bad}, tmp_path=tmp_path)


def test_eval_null_seed_is_no_seed(tmp_path):
    assert resolve("eval", config={"seed": None}, tmp_path=tmp_path)["seed"] is None


def test_threads_below_one_rejected(tmp_path):
    with pytest.raises(InvalidConfig, match="threads"):
        resolve("eval", "--threads", 0)
    with pytest.raises(InvalidConfig, match="threads"):
        resolve("train", config={"threads": -1}, tmp_path=tmp_path)


def test_config_key_given_twice_rejected(tmp_path):
    # json.load would keep the second value and drop the first silently.
    path = tmp_path / "cfg.json"
    path.write_text('{"m": 24, "m": 48}')
    args = build_parser().parse_args(
        ["train", "--input", "c.csv", "--model", "m.json", "--config", str(path)])
    with pytest.raises(InvalidConfig, match="key 'm' occurs more than once"):
        resolve_settings(args)


@pytest.mark.parametrize("config", [{"w": 0}, {"kind": "lr", "w": 0}])
def test_zero_width_reaches_training(tmp_path, capsys, config):
    corpus = tmp_path / "c.csv"
    save_corpus(make_corpus(n_bs=3), str(corpus))
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    assert main(["train", "--input", str(corpus), "--model", str(tmp_path / "m.json"),
                 "--config", str(tmp_path / "cfg.json")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InvalidConfig"
    assert "window w must be >= 1, got 0" in err["message"]


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_help_shows_every_default(capsys, command):
    with pytest.raises(SystemExit):
        build_parser().parse_args([command, "--help"])
    text = " ".join(capsys.readouterr().out.split())
    for key, _, default, help_, commands in SETTINGS:
        if command not in commands:
            continue
        if help_ is None:
            assert f"{key} (default {default})" in text
        else:
            shown = "none" if default is None else default
            assert flag(key) in text
            assert f"{help_} (default {shown})" in text


def _perfbench_run(monkeypatch):
    """perfbench/run.py as a module, loaded without running it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))  # for its `tracer` import
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_commands_parse(monkeypatch, tmp_path):
    run = _perfbench_run(monkeypatch)
    parser = build_parser()
    for workload in run.WORKLOADS.values():
        steps = (run.setup_steps(tmp_path, 1)
                 + run.flow_steps(workload, tmp_path, tmp_path / "out"))
        assert len(steps) == 13  # synth, clean and 11 flow commands
        for step in steps:
            assert parser.parse_args(list(step.argv)).command == step.argv[0]
