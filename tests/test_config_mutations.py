"""Mutated config files meet the error contract of every command.

Whatever `json_mutations.mutated` does to the ``--config`` file of synth,
train, eval, forecast or sweep, `cli.main` either succeeds or exits with its
family's code (2 config, 3 data, 4 numerical) and one JSON line on stderr,
without a traceback and without writing an output file.
"""

import io
import json
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockreg import save_corpus
from blockreg.cli import main

from conftest import make_corpus
from json_mutations import mutated, run_cli

FAMILIES = {2: "ConfigError", 3: "DataError", 4: "NumericalError"}
# A valid config of each command, with every key the command takes.
CONFIGS = {
    "synth": {"n_bs": 3, "n_hours": 48, "seed": 5, "daily_profile_amplitude": 1.5,
              "day_intensity_std": 0.25, "noise_std": 0.05, "burst_probability": 0.05},
    "train_br": {"kind": "br", "m": 24, "w": 3, "ar": 2, "ma": 1,
                 "train_hours": 240, "threads": 1},
    "train_sa": {"kind": "sa", "m": 24, "ar": 2, "ma": 1,
                 "train_hours": 240, "threads": 1},
    "eval": {"train_hours": 240, "test_hours": 96, "mode": "recursive", "seed": 7,
             "threads": 1},
    "forecast": {"train_hours": 240, "test_hours": 96, "mode": "one_step",
                 "threads": 1},
    "sweep": {"w": 3, "train_hours": 240, "test_hours": 96, "mode": "one_step",
              "seasonalities": [24, 48], "threads": 1},
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A tiny corpus and a br model trained on it."""
    ws = tmp_path_factory.mktemp("config_mutations")
    save_corpus(make_corpus(n_bs=3), str(ws / "corpus.csv"))
    with redirect_stdout(io.StringIO()):
        assert main(["train", "--input", str(ws / "corpus.csv"),
                     "--model", str(ws / "br.json")]) == 0
    return ws


def command(name: str, ws, config):
    """The argv of ``name`` with ``config``, and the files it writes."""
    out = ws / f"out_{name}"
    corpus, model = str(ws / "corpus.csv"), str(ws / "br.json")
    if name == "synth":
        return (["synth", "--output", str(out)],
                [out, out.with_name(out.name + ".matrix")])
    if name.startswith("train"):
        return ["train", "--input", corpus, "--model", str(out)], [out]
    files = ["--input", corpus] + (["--model", model] if name != "sweep" else [])
    return [name, *files, "--output", str(out)], [out]


@pytest.mark.parametrize("name", sorted(CONFIGS))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_config_file_meets_the_error_contract(workspace, name, data):
    config = workspace / f"config_{name}.json"
    config.write_text(data.draw(mutated(CONFIGS[name])))
    argv, outputs = command(name, workspace, config)
    run_cli([*argv, "--config", str(config)], outputs, FAMILIES)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_unmutated_configs_succeed(workspace, name):
    config = workspace / f"config_{name}.json"
    config.write_text(json.dumps(CONFIGS[name]))
    argv, outputs = command(name, workspace, config)
    assert run_cli([*argv, "--config", str(config)], outputs, FAMILIES) == 0
