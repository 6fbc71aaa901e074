"""The process entry `cli.run`: `main`, then `gc.freeze`, then the exit.

The freeze spares the process the interpreter's exit-time collections.
In-process callers of `cli.main` keep normal collection.
"""

import gc
import io
import json
import subprocess
import sys
import tomllib
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import blockreg.cli
from blockreg.cli import main

ROOT = Path(__file__).resolve().parents[1]
# `python -m blockreg` under runpy, printing at exit whether objects were frozen.
FROZEN_AT_EXIT = (
    "import atexit, gc, runpy\n"
    "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
    "runpy.run_module('blockreg', run_name='__main__', alter_sys=True)\n"
)


@pytest.mark.parametrize("argv, code", [
    (["synth", "--output", "{}/c.csv", "--seed", "3"], 0),
    (["synth", "--output", "{}/c.csv", "--seed", "x"], 2),
])
def test_main_leaves_the_collector_as_it_was(tmp_path, argv, code):
    before = gc.get_freeze_count(), gc.isenabled()
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert main([arg.format(tmp_path) for arg in argv]) == code
    assert (gc.get_freeze_count(), gc.isenabled()) == before


def test_run_freezes_after_main_and_exits_with_its_code(monkeypatch):
    calls = []
    monkeypatch.setattr(sys, "argv", ["blockreg", "train", "--m", "5"])
    monkeypatch.setattr(blockreg.cli, "main", lambda argv: calls.append(argv) or 3)
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    with pytest.raises(SystemExit) as exit_:
        blockreg.cli.run()
    assert exit_.value.code == 3
    assert calls == [["train", "--m", "5"], "freeze"]


@pytest.mark.parametrize("seed, code", [("3", 0), ("x", 2)])
def test_python_m_blockreg_freezes_before_it_exits(tmp_path, seed, code):
    r = subprocess.run([sys.executable, "-c", FROZEN_AT_EXIT, "synth", "--output",
                        str(tmp_path / "c.csv"), "--seed", seed],
                       capture_output=True, text=True)
    assert r.returncode == code
    out = r.stdout.splitlines()
    assert out[-1] == "frozen True"
    if code == 0:
        assert out[0].startswith("synth: wrote") and r.stderr == ""
    else:
        [line] = r.stderr.splitlines()
        assert json.loads(line)["error"] == "InvalidConfig"


def test_blockreg_script_is_run():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"blockreg": "blockreg.cli:run"}
