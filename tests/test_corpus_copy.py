"""`save_corpus(t, path, source=...)` copies station blocks from ``source``.

The copy must give the very CSV and sidecar bytes that rendering ``t``
gives. It is taken only when the source's sidecar holds every row of
``t``; with any other source, even one that changes after ``t`` was
loaded from it, the CSV is rendered.
"""

from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import blockreg.corpus
import blockreg.sidecar
from blockreg import TrafficMatrix, clean, corpus_to_csv, load_corpus, save_corpus
from blockreg.cli import main
from blockreg.corpus import CHUNK_BYTES
from blockreg.errors import EmptyCorpus

from conftest import make_corpus


def sidecar(path: Path) -> Path:
    return path.with_name(path.name + ".matrix")


def flip(path: Path, offset: int) -> None:
    data = bytearray(path.read_bytes())
    data[offset] ^= 0x01
    path.write_bytes(bytes(data))


# NaN, negative values, -0.0 and subnormals come from st.floats; NaNs of
# another sign or payload are written as NA all the same.
ODD_NANS = np.array([0xFFF8000000000000, 0x7FF0000000000001], dtype=np.uint64)
volumes = st.floats(allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, 1e-310, *ODD_NANS.view(np.float64).tolist()])

# After ``t`` is loaded from the source, before it is saved: None leaves the
# source alone, so the blocks are copied; every other entry makes the save
# render the CSV.
DEFECTS = {
    None: lambda src, other: None,
    "csv_edited": lambda src, other: flip(src, src.stat().st_size - 2),
    "csv_row_appended": lambda src, other: src.write_bytes(
        src.read_bytes() + b"a,0,1.0\n"),
    "sidecar_edited": lambda src, other: flip(sidecar(src), sidecar(src).stat().st_size - 1),
    "sidecar_deleted": lambda src, other: sidecar(src).unlink(),
    # The CSV of another corpus with the same ids, under the old sidecar.
    "sidecar_stale": lambda src, other: src.write_bytes(corpus_to_csv(other).encode()),
    # Another corpus with the same ids, and its own sidecar.
    "other_corpus": lambda src, other: save_corpus(other, str(src)),
    "no_sidecar": lambda src, other: (sidecar(src).unlink(),
                                      src.write_bytes(corpus_to_csv(other).encode())),
}


@st.composite
def copies(draw):
    """A source corpus, the corpus to save from it and a defect."""
    ids = draw(st.lists(st.sampled_from(["b", "a", "c", "é", "a0", "z"]),
                        min_size=1, max_size=5, unique=True))
    n_hours = draw(st.integers(1, 5))
    rows = draw(st.lists(
        st.lists(volumes, min_size=n_hours, max_size=n_hours),
        min_size=len(ids), max_size=len(ids),
    ))
    values = np.array(rows, dtype=float).reshape(len(ids), n_hours)
    t = TrafficMatrix(ids, values, draw(st.integers(0, 50)))
    # Rows kept in any order, so their ids need sorting; or what clean keeps.
    subset = draw(st.lists(st.sampled_from(range(len(ids))), min_size=1, unique=True))
    cleaned, shift = draw(st.booleans()), draw(st.sampled_from([0, 0, 0, 1]))
    return t, subset, cleaned, shift, draw(st.sampled_from(list(DEFECTS)))


@settings(max_examples=300, deadline=None)
@given(copies(), st.sampled_from([1, 7, 64, CHUNK_BYTES]), st.sampled_from([1, 2, 8192]))
def test_copy_gives_the_rendered_bytes(tmp_path_factory, case, chunk_bytes, row_piece):
    t, subset, cleaned, shift, defect = case
    directory = tmp_path_factory.mktemp("copy")
    src, copied, rendered = (directory / name for name in ("src.csv", "c.csv", "r.csv"))
    with mock.patch.object(blockreg.corpus, "CHUNK_BYTES", chunk_bytes), \
            mock.patch.object(blockreg.sidecar, "ROW_PIECE", row_piece):
        save_corpus(t, str(src))
        raw = load_corpus(str(src))
        kept = TrafficMatrix([t.bs_ids[i] for i in subset], t.values[subset], t.start_hour)
        if cleaned:
            try:
                kept = clean(raw)
            except EmptyCorpus:
                pass
        kept.start_hour += shift  # not the rows of the source's hours
        other = TrafficMatrix(t.bs_ids, np.full_like(t.values, 12345.0), t.start_hour)
        assume(defect is None or not np.array_equal(t.values, other.values))
        DEFECTS[defect](src, other)
        render = mock.Mock(wraps=blockreg.corpus._csv_piece)
        with mock.patch.object(blockreg.corpus, "_csv_piece", render):
            save_corpus(kept, str(copied), source=str(src))
        assert render.called == (defect is not None or shift != 0)
        save_corpus(kept, str(rendered))
    assert copied.read_bytes() == rendered.read_bytes()
    assert sidecar(copied).read_bytes() == sidecar(rendered).read_bytes()
    assert not list(directory.glob("*.tmp"))


@pytest.mark.parametrize("drop", [False, True], ids=["all_kept", "some_dropped"])
def test_clean_in_place(tmp_path, drop, monkeypatch, capsys):
    t = make_corpus(n_bs=30, n_hours=48)
    if drop:
        t.values[::4, 7] = np.nan
        t.values[1, 0] = -1.0
    raw = tmp_path / "raw.csv"
    save_corpus(t, str(raw))
    corpus, fresh = tmp_path / "corpus.csv", tmp_path / "fresh.csv"
    for name in ("raw.csv", "raw.csv.matrix"):
        (tmp_path / name.replace("raw", "corpus")).write_bytes((tmp_path / name).read_bytes())
    assert main(["clean", "--input", str(raw), "--output", str(fresh)]) == 0
    assert main(["clean", "--input", str(corpus), "--output", str(corpus)]) == 0
    assert corpus.read_bytes() == fresh.read_bytes()
    assert sidecar(corpus).read_bytes() == sidecar(fresh).read_bytes()
    out = capsys.readouterr().out.splitlines()
    assert out[1] == out[0].replace(str(fresh), str(corpus))
    assert out[0].startswith(f"clean: kept {clean(t).n_bs}/30 stations")

    monkeypatch.setattr(blockreg.corpus, "_read_chunks", None)  # no parse
    assert np.array_equal(load_corpus(str(corpus)).values, load_corpus(str(fresh)).values)


class CountingDigest:
    """A sidecar digest that counts the bytes fed to it; every one made is
    kept in ``made``."""

    made: list = []

    def __init__(self, data=b""):
        self.hash, self.fed = REAL_DIGEST(data), len(data)
        CountingDigest.made.append(self)

    def update(self, data):
        self.hash.update(data)
        self.fed += len(memoryview(data).cast("B"))

    def hexdigest(self):
        return self.hash.hexdigest()


REAL_DIGEST = blockreg.sidecar.digest


@pytest.mark.parametrize("drop", [False, True], ids=["all_kept", "some_dropped"])
def test_clean_digests_each_csv_once_per_check(tmp_path, drop, monkeypatch):
    # The load checks the source CSV against its sidecar, and the copy
    # checks it again as it reads it. A copy of every station is then the
    # source, so its digest is not taken a third time; a copy that leaves
    # stations out is digested as it is written.
    t = make_corpus(n_bs=30, n_hours=48)
    if drop:
        t.values[::4, 7] = np.nan
    raw, corpus = tmp_path / "raw.csv", tmp_path / "corpus.csv"
    save_corpus(t, str(raw))
    monkeypatch.setattr(CountingDigest, "made", [])
    monkeypatch.setattr(blockreg.sidecar, "digest", CountingDigest)
    assert main(["clean", "--input", str(raw), "--output", str(corpus)]) == 0
    fed = [d.fed for d in CountingDigest.made]
    assert fed.count(raw.stat().st_size) == 2
    if drop:
        assert fed.count(corpus.stat().st_size) == 1
    monkeypatch.undo()
    assert corpus.read_bytes() == corpus_to_csv(clean(t)).encode()
    monkeypatch.setattr(blockreg.corpus, "_read_chunks", None)  # the sidecar serves
    assert load_corpus(str(corpus)).values.tobytes() == clean(t).values.tobytes()


def test_corpus_to_csv_golden_bytes():
    # save_corpus copies the blocks of a CSV whose sidecar holds their rows,
    # trusting that corpus_to_csv would write the same bytes. Changing the
    # bytes below therefore requires bumping sidecar.VERSION, and then this
    # test, so that no older sidecar is used.
    values = np.array([[np.nan, -0.0, 1e-300], [1e22, 0.1, 2.0]])
    t = TrafficMatrix(["b", "a"], values, start_hour=7)
    assert corpus_to_csv(t) == (
        "bs_id,hour,volume\n"
        "a,7,1e+22\n"
        "a,8,0.1\n"
        "a,9,2.0\n"
        "b,7,NA\n"
        "b,8,-0.0\n"
        "b,9,1e-300\n"
    )
    assert blockreg.sidecar.VERSION == 1
