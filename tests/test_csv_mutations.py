"""Mutated corpus CSVs meet the error contract of every command that reads one.

Whatever `mutated_csv` does to the input CSV of clean, train, eval,
forecast or sweep, `cli.main` either succeeds or exits with its family's
code (2 config, 3 data, 4 numerical) and one JSON line on stderr, without a
traceback and without writing an output file. The mutations are a cut line,
a missing or extra field, a blank line, a non-UTF-8 byte, a BOM, another
header, a duplicate record, a hole in a station's hours, a bad hour and an
odd volume; and, each still a valid corpus, two rows swapped and a CRLF
line end. A sidecar left over from another CSV changes nothing: with it,
a command prints and writes what it does with no sidecar at all.
"""

import io
import json
from contextlib import redirect_stdout

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from blockreg import corpus_to_csv, save_corpus
from blockreg.cli import main

from conftest import make_corpus
from json_mutations import cli_outcome

FAMILIES = {2: "ConfigError", 3: "DataError", 4: "NumericalError"}
# Each command's argv after --input; "@" stands for the workspace directory.
COMMANDS = {
    "clean": ["--output", "@/out"],
    "train": ["--model", "@/out"],
    "eval": ["--model", "@/sa.json", "--mode", "recursive", "--output", "@/out"],
    "forecast": ["--model", "@/br.json", "--output", "@/out"],
    "sweep": ["--config", "@/sweep.json", "--output", "@/out"],
}
HEADERS = ["", "bs_id,hour", "bs_id,hour,volume,extra", "hour,bs_id,volume",
           "BS_ID,HOUR,VOLUME", "bs_id, hour, volume", '"bs_id",hour,volume']
HOURS = ["", "x", "1.5", "-1", "+3", " 3", "3 ", "1e3", "0x10", "٣", "3٣",
         str(2**63), "9" * 30]
VOLUMES = ["", "nan", "NaN", "inf", "-inf", "Infinity", "-1.0", "-0.0", "1e999",
           "-1e999", "1e308", "1e-400", " 1.0", "1_0", "NA", "na", "0x1p3", "1,0",
           "0", "7", "2.50", "1e2"]
MUTATIONS = ["cut", "drop_field", "extra_field", "blank", "non_utf8", "bom",
             "header", "duplicate", "hole", "hour", "volume", "swap", "crlf"]


@st.composite
def mutated_csv(draw, text: str) -> bytes:
    """The bytes of the corpus CSV ``text`` with one mutation."""
    header, *rows = text.split("\n")[:-1]
    mutation = draw(st.sampled_from(MUTATIONS))
    event(mutation)
    i = draw(st.integers(0, len(rows) - 1))
    fields = rows[i].split(",")
    if mutation == "cut":
        rows[i] = rows[i][:draw(st.integers(0, len(rows[i]) - 1))]
    elif mutation == "drop_field":
        del fields[draw(st.integers(0, 2))]
        rows[i] = ",".join(fields)
    elif mutation == "extra_field":
        fields.insert(draw(st.integers(0, 3)), draw(st.sampled_from(["", "1.0", "a"])))
        rows[i] = ",".join(fields)
    elif mutation == "blank":
        rows.insert(i, draw(st.sampled_from(["", "\r", " "])))
    elif mutation == "header":
        header = draw(st.sampled_from(HEADERS))
    elif mutation == "duplicate":
        rows.insert(draw(st.integers(0, len(rows))), rows[i])
    elif mutation == "hole":
        del rows[i]
    elif mutation == "swap":
        j = draw(st.integers(0, len(rows) - 1))
        rows[i], rows[j] = rows[j], rows[i]
    elif mutation == "crlf":
        rows[i] += "\r"
    elif mutation in ("hour", "volume"):
        fields[1 if mutation == "hour" else 2] = draw(
            st.sampled_from(HOURS if mutation == "hour" else VOLUMES))
        rows[i] = ",".join(fields)
    data = "\n".join([header, *rows, ""]).encode()
    if mutation == "bom":
        data = b"\xef\xbb\xbf" + data
    elif mutation == "non_utf8":
        at = draw(st.integers(0, len(data)))
        byte = draw(st.sampled_from([b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80"]))
        data = data[:at] + byte + data[at:]
    return data


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A tiny corpus with its sidecar, another corpus's sidecar, br and sa
    models trained on the corpus, and a sweep config."""
    ws = tmp_path_factory.mktemp("csv_mutations")
    t = make_corpus(n_bs=3)
    save_corpus(t, str(ws / "corpus.csv"))
    save_corpus(make_corpus(n_bs=3, seed=2), str(ws / "other.csv"))
    with redirect_stdout(io.StringIO()):
        for kind in ("br", "sa"):
            assert main(["train", "--kind", kind, "--input", str(ws / "corpus.csv"),
                         "--model", str(ws / f"{kind}.json")]) == 0
    (ws / "sweep.json").write_text(json.dumps({"seasonalities": [24, 48]}))
    return ws, corpus_to_csv(t)


@pytest.mark.parametrize("name", sorted(COMMANDS))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_csv_meets_the_error_contract(workspace, name, data):
    ws, text = workspace
    src, out = ws / "input.csv", ws / "out"
    side = src.with_name(src.name + ".matrix")
    src.write_bytes(data.draw(mutated_csv(text)))
    leftover = data.draw(st.sampled_from(["none", "corpus", "other"]))
    side.unlink(missing_ok=True)
    if leftover != "none":
        side.write_bytes((ws / f"{leftover}.csv.matrix").read_bytes())
    argv = [name, "--input", str(src),
            *(arg.replace("@", str(ws)) for arg in COMMANDS[name])]
    outputs = [out, out.with_name(out.name + ".matrix")]
    results = []
    for _ in range(1 if leftover == "none" else 2):
        outcome = cli_outcome(argv, outputs, FAMILIES)
        results.append((outcome, [p.read_bytes() for p in outputs if p.exists()]))
        side.unlink(missing_ok=True)
    event(f"exit {results[0][0][0]}")
    assert results[0] == results[-1]
    assert not list(ws.glob("*.tmp"))
