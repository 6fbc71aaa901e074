"""`forecast` copies each station's ``bs_id,hour,actual`` text from the corpus.

Whatever the model, the mode, the horizon and the state of the corpus CSV
and its sidecar, `blockreg forecast` must write the very bytes, or fail
with the very error, that today's path gives: `load_corpus`, `load_model`,
`forecast_fleet`, then `cli._forecast_csv`. The copy is kept only when the
one pass over the CSV finds the digest that the sidecar gives; a CSV that
changes after the sidecar is read is loaded and rendered instead.
"""

import io
import json
import shutil
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

import blockreg.cli
import blockreg.corpus
import blockreg.sidecar
from blockreg import TrafficMatrix, corpus_to_csv, load_corpus, save_corpus
from blockreg.baselines import SaModel, train_sa
from blockreg.cli import _forecast_csv, main
from blockreg.errors import BlockregError
from blockreg.evaluation import forecast_fleet
from blockreg.forecaster import train_block_regression
from blockreg.modelio import atomic_write_text, load_model, save_model

from conftest import make_corpus

# Sorted, and not all ASCII: the copy must give back any bs_id's bytes.
IDS = ["a", "b", "z0", "é", "ü"]
# The history a forecast reads: m + w for br (24 + 3) and lr (0 + 6), s + ar for sa.
NEED = {"br": 27, "lr": 6, "sa": 26}


def sidecar(path: Path) -> Path:
    return path.with_name(path.name + ".matrix")


def flip(path: Path, offset: int) -> None:
    data = bytearray(path.read_bytes())
    data[offset] ^= 0x01
    path.write_bytes(bytes(data))


@pytest.fixture(scope="module")
def models(tmp_path_factory):
    """The br and lr model files and the sa model, trained on a corpus with
    the ids IDS."""
    t = make_corpus(n_bs=len(IDS), n_hours=336)
    t = TrafficMatrix(list(IDS), t.values, 0)
    ws = tmp_path_factory.mktemp("forecast_models")
    paths = {"sa": train_sa(t)}
    for kind, m, w in (("br", 24, 3), ("lr", 0, 6)):
        model, _ = train_block_regression(t, m=m, w=w, train_hours=240)
        save_model(model, str(ws / f"{kind}.json"))
        paths[kind] = ws / f"{kind}.json"
    return paths


# After the sidecar is read, or part way through the pass over the CSV:
# None leaves the corpus alone, so the lines are copied. A changed CSV makes
# forecast load and render it; a changed sidecar alone does not, since the
# read has taken its matrix.
DEFECTS = {
    None: lambda src, other: None,
    "csv_edited": lambda src, other: flip(src, src.stat().st_size - 2),
    "csv_row_appended": lambda src, other: src.write_bytes(
        src.read_bytes() + b"a,0,1.0\n"),
    # The CSV of another corpus with the same ids, under the old sidecar.
    "csv_replaced": lambda src, other: src.write_bytes(corpus_to_csv(other).encode()),
    # Another corpus with the same ids, and its own sidecar.
    "other_corpus": lambda src, other: save_corpus(other, str(src)),
    "sidecar_edited": lambda src, other: flip(sidecar(src), sidecar(src).stat().st_size - 1),
    "sidecar_deleted": lambda src, other: sidecar(src).unlink(),
}
CSV_CHANGED = {"csv_edited", "csv_row_appended", "csv_replaced", "other_corpus"}


@st.composite
def cases(draw):
    kind = draw(st.sampled_from(["br", "lr", "sa"]))
    ids = draw(st.lists(st.sampled_from(IDS), min_size=1, max_size=5, unique=True))
    n_hours = draw(st.integers(NEED[kind] + 1, NEED[kind] + 14))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.lognormal(3.0, 2.0, (len(ids), n_hours))
    # Odd volumes that the CSV still spells as repr does; a NaN or an
    # infinity makes forecast_fleet refuse the corpus.
    odd = st.sampled_from([0.0, -0.0, 5e-324, 1e22, 0.1, -2.5, np.nan, 1e300])
    for i, j, v in draw(st.lists(st.tuples(
            st.integers(0, len(ids) - 1), st.integers(0, n_hours - 1), odd), max_size=3)):
        values[i, j] = v
    t = TrafficMatrix(sorted(ids), values, draw(st.integers(0, 50)))
    # Too little history and a start past the end are refused either way.
    start = draw(st.integers(NEED[kind], n_hours - 1)
                 | st.sampled_from([NEED[kind] - 1, n_hours, n_hours + 1]))
    # Mostly a horizon within the corpus, so that there are actuals to copy.
    k = draw(st.integers(1, max(1, n_hours - start)) | st.integers(1, 8))
    failed = draw(st.sets(st.sampled_from(IDS))) if kind == "sa" else set()
    return dict(
        kind=kind, t=t, start=start, k=k, failed=failed,
        mode=draw(st.sampled_from(["one_step", "recursive"])),
        # Parsed: no sidecar at all. Stale: the CSV of another corpus under
        # the sidecar of this one, from the start; the sidecar's matrix may
        # hold a NaN that the CSV does not.
        corpus=draw(st.sampled_from(["sidecar"] * 4 + ["parsed", "stale"])),
        defect=draw(st.none() | st.sampled_from(list(DEFECTS))),
        when=draw(st.sampled_from(["after_read", "mid_pass"])),
        read_bytes=draw(st.sampled_from([1, 7, 64, blockreg.sidecar.READ_BYTES])),
    )


def todays_path(src: Path, model: Path, start: int, k: int, mode: str, out: Path):
    """The forecast CSV bytes that load_corpus, load_model, forecast_fleet
    and _forecast_csv give, or the error that they raise."""
    try:
        fs = forecast_fleet(load_model(str(model)), load_corpus(str(src)), start, k, mode)
        atomic_write_text(str(out), _forecast_csv(fs))
    except BlockregError as exc:
        return type(exc).__name__, str(exc)
    return out.read_bytes()


def cli_forecast(argv: list[str], out: Path):
    """What `blockreg forecast` gives: the output bytes, or the error."""
    stderr = io.StringIO()
    with redirect_stderr(stderr), redirect_stdout(io.StringIO()):
        code = main(argv)
    if code == 0:
        assert stderr.getvalue() == ""
        return out.read_bytes()
    assert not out.exists()
    err = json.loads(stderr.getvalue())
    return err["error"], err["message"]


@settings(max_examples=300, deadline=None)
@given(case=cases())
def test_forecast_gives_the_rendered_bytes(tmp_path_factory, models, case):
    t, defect = case["t"], case["defect"]
    start, k, mode = case["start"], case["k"], case["mode"]
    ws = tmp_path_factory.mktemp("forecast_copy")
    src, out, before, expected = (ws / n for n in ("src.csv", "out.csv", "b", "e"))
    other = TrafficMatrix(t.bs_ids, np.where(np.isfinite(t.values), t.values * 3 + 1, 7.0),
                          t.start_hour)
    assume(case["corpus"] != "stale" or not np.array_equal(t.values, other.values))
    assume(case["corpus"] != "parsed" or not defect or not defect.startswith("sidecar"))
    model = models[case["kind"]]
    if case["kind"] == "sa":
        sa, failed = model, case["failed"]
        model = ws / "sa.json"
        save_model(SaModel({bs: c for bs, c in sa.per_bs.items() if bs not in failed},
                           sa.seasonality, sa.ar_order, sa.ma_order, sorted(failed)),
                   str(model))
    save_corpus(t, str(src))
    if case["corpus"] == "parsed":
        sidecar(src).unlink()
    elif case["corpus"] == "stale":
        src.write_bytes(corpus_to_csv(other).encode())
    before.mkdir()
    for path in (src, sidecar(src)):
        if path.exists():
            shutil.copy(path, before / path.name)

    read, lines, broken = blockreg.sidecar.read, blockreg.corpus._csv_lines, []

    def breaks():
        if not broken:  # once, not again in a fallback load
            broken.append(True)
            DEFECTS[defect](src, other)

    def read_then_break(path):
        result = read(path)
        if case["when"] == "after_read":
            breaks()
        return result

    def break_mid_pass(*args):
        for n, item in enumerate(lines(*args)):
            yield item
            if n == 0:
                breaks()

    render = mock.Mock(wraps=_forecast_csv)
    argv = ["forecast", "--input", str(src), "--model", str(model), "--mode", mode,
            "--train-hours", str(start), "--test-hours", str(k), "--output", str(out)]
    with mock.patch.object(blockreg.sidecar, "READ_BYTES", case["read_bytes"]), \
            mock.patch.object(blockreg.sidecar, "read", read_then_break), \
            mock.patch.object(blockreg.corpus, "_csv_lines", break_mid_pass), \
            mock.patch.object(blockreg.cli, "_forecast_csv", render):
        result = cli_forecast(argv, out)
    assert not list(ws.glob("*.tmp"))

    # The outcome of today's path on the corpus as it is now; or, for a
    # change made part way through the pass, on the corpus as it was before.
    now = todays_path(src, model, start, k, mode, expected)
    if result != now:
        assert case["when"] == "mid_pass" and broken
        for path in (src, sidecar(src)):
            path.unlink(missing_ok=True)
            if (before / path.name).exists():
                shutil.copy(before / path.name, path)
        assert result == todays_path(src, model, start, k, mode, expected)
    if not isinstance(result, bytes):
        event(f"error {result[0]}")
        return
    event("rendered" if render.called else "copied")
    # A clean corpus whose sidecar vouches for its CSV has every line of a
    # horizon within the corpus copied, none rendered.
    copied = case["corpus"] == "sidecar" and start + k <= t.n_hours
    if copied and defect not in CSV_CHANGED:
        assert not render.called
    lines = result.decode().splitlines()
    assert lines[0] == "bs_id,hour,actual,forecast,mode"


def count_digests(monkeypatch) -> list:
    """The digests taken from now on, each with the bytes fed to it."""
    fed, digest = [], blockreg.sidecar.digest

    class Counting:
        def __init__(self, data=b""):
            self.hash, self.fed = digest(data), len(data)
            fed.append(self)

        def update(self, data):
            self.hash.update(data)
            self.fed += len(memoryview(data).cast("B"))

        def hexdigest(self):
            return self.hash.hexdigest()

    monkeypatch.setattr(blockreg.sidecar, "digest", Counting)
    return fed


@pytest.mark.parametrize("mode", ["one_step", "recursive"])
def test_forecast_digests_the_csv_once(tmp_path, models, monkeypatch, mode):
    # The sidecar read checks the matrix; the pass that copies the actuals
    # is the one read of the CSV, and digests it once.
    t = make_corpus(n_bs=4, n_hours=336)
    src, out = tmp_path / "c.csv", tmp_path / "fc.csv"
    save_corpus(t, str(src))
    fed = count_digests(monkeypatch)
    monkeypatch.setattr(blockreg.cli, "_forecast_csv", None)  # copy, never render
    argv = ["forecast", "--input", str(src), "--model", str(models["br"]),
            "--mode", mode, "--output", str(out)]
    with redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    assert [d.fed for d in fed].count(src.stat().st_size) == 1
    assert len(fed) == 2  # the matrix's and the CSV's


def test_forecast_past_the_corpus_end_reads_the_sidecar_once(tmp_path, models,
                                                             monkeypatch):
    # A recursive horizon past the corpus end has no actuals to copy: the
    # matrix of the one sidecar read is rendered once the CSV's digest is
    # checked, not read and digested again by load_corpus.
    t = make_corpus(n_bs=4, n_hours=336)
    src, out = tmp_path / "c.csv", tmp_path / "fc.csv"
    save_corpus(t, str(src))
    fs = forecast_fleet(load_model(str(models["br"])), load_corpus(str(src)), 300, 96,
                        "recursive")
    expected = "".join(_forecast_csv(fs)).encode()
    fed = count_digests(monkeypatch)
    read = mock.Mock(wraps=blockreg.sidecar.read)
    monkeypatch.setattr(blockreg.sidecar, "read", read)
    argv = ["forecast", "--input", str(src), "--model", str(models["br"]),
            "--mode", "recursive", "--train-hours", "300", "--output", str(out)]
    with redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    assert read.call_count == 1
    assert [d.fed for d in fed].count(src.stat().st_size) == 1
    assert len(fed) == 2  # the matrix's and the CSV's
    assert out.read_bytes() == expected
