"""Mutated model files meet the error contract of `blockreg eval`.

Whatever `json_mutations.mutated` does to a br, lr or sa model file,
`cli.main(["eval", ...])` either succeeds or exits 3 with one JSON line on
stderr that names the error and its family, without a traceback and without
writing the report; a finite coefficient whose forecasts overflow exits 4
the same way.
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

KINDS = ("br", "lr", "sa")


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


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_model_file_meets_the_error_contract(workspace, kind, data):
    ws, docs = workspace
    model, report = ws / f"mutated_{kind}.json", ws / f"report_{kind}.json"
    model.write_text(data.draw(mutated(docs[kind])))
    # A finite coefficient such as 2**64 can make the forecasts overflow,
    # which is the numerical family's exit code.
    run_cli(["eval", "--input", str(ws / "corpus.csv"), "--model", str(model),
             "--output", str(report)], [report], {3: "DataError", 4: "NumericalError"})
