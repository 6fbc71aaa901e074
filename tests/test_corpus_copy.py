"""`clean_file(source, path)` copies the kept station blocks from ``source``.

The copy must give the very CSV and sidecar bytes, or the error, that
loading, cleaning and saving the source gives. It is kept only when the
pass that copies the CSV finds the digest that the source's sidecar gives;
a CSV that changes after the sidecar is read is loaded and rendered instead.
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
from blockreg.corpus import CHUNK_BYTES, clean_file, station_lines
from blockreg.errors import DataError

from conftest import make_corpus


def sidecar(path: Path) -> Path:
    return path.with_name(path.name + ".matrix")


def flip(path: Path, offset: int) -> None:
    data = bytearray(path.read_bytes())
    data[offset] ^= 0x01
    path.write_bytes(bytes(data))


# -0.0 and subnormals are kept by clean; NaN, NaNs of another sign or
# payload (written as NA all the same) and negative volumes drop a station.
ODD_NANS = np.array([0xFFF8000000000000, 0x7FF0000000000001], dtype=np.uint64)
volumes = st.floats(min_value=0.0, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, 1e-310])
faults = st.sampled_from([np.nan, *ODD_NANS.view(np.float64).tolist(), -5e-324, -2.5])

# After the source's sidecar is read, before its blocks are copied: None
# leaves the source alone, so the blocks are copied. A changed CSV makes
# clean_file load, clean and render it; a changed sidecar alone does not,
# since the read has taken its matrix.
DEFECTS = {
    None: lambda src, other: None,
    "csv_edited": lambda src, other: flip(src, src.stat().st_size - 2),
    "csv_row_appended": lambda src, other: src.write_bytes(
        src.read_bytes() + b"a,0,1.0\n"),
    # The CSV of another corpus with the same ids, under the old sidecar.
    "csv_replaced": lambda src, other: src.write_bytes(corpus_to_csv(other).encode()),
    # Another corpus with the same ids, and its own sidecar.
    "other_corpus": lambda src, other: save_corpus(other, str(src)),
    "no_sidecar": lambda src, other: (sidecar(src).unlink(),
                                      src.write_bytes(corpus_to_csv(other).encode())),
    "sidecar_edited": lambda src, other: flip(sidecar(src), sidecar(src).stat().st_size - 1),
    "sidecar_deleted": lambda src, other: sidecar(src).unlink(),
}
CSV_CHANGED = {"csv_edited", "csv_row_appended", "csv_replaced", "other_corpus",
               "no_sidecar"}


@st.composite
def sources(draw):
    """A raw corpus, whether its sidecar is gone before the read, and a
    defect."""
    ids = draw(st.lists(st.sampled_from(["b", "a", "c", "é", "a0", "z"]),
                        min_size=1, max_size=5, unique=True))
    n_hours = draw(st.integers(1, 5))
    rows = draw(st.lists(
        st.lists(volumes, min_size=n_hours, max_size=n_hours),
        min_size=len(ids), max_size=len(ids),
    ))
    values = np.array(rows, dtype=float).reshape(len(ids), n_hours)
    for i, j, fault in draw(st.lists(st.tuples(
            st.integers(0, len(ids) - 1), st.integers(0, n_hours - 1), faults),
            max_size=4)):
        values[i, j] = fault
    t = TrafficMatrix(ids, values, draw(st.integers(0, 50)))
    parsed, defect = draw(st.booleans()), draw(st.sampled_from(list(DEFECTS)))
    assume(not parsed or not defect or defect.startswith("csv"))
    return t, parsed, defect


def saved_clean(src: Path, out: Path):
    """What loading, cleaning and saving ``src`` gives: the CSV and sidecar
    bytes, or the error."""
    try:
        save_corpus(clean(load_corpus(str(src))), str(out))
    except DataError as exc:
        return type(exc), str(exc)
    return out.read_bytes(), sidecar(out).read_bytes()


@settings(max_examples=300, deadline=None)
@given(sources(), st.sampled_from([1, 7, 64, CHUNK_BYTES]))
def test_clean_file_gives_the_rendered_bytes(tmp_path_factory, case, chunk_bytes):
    t, parsed, defect = case
    directory = tmp_path_factory.mktemp("copy")
    src, copied, rendered = (directory / name for name in ("src.csv", "c.csv", "r.csv"))
    # Clean; where t has stations that clean drops, the stale sidecar holds
    # them, so a copy that trusted it would give the wrong bytes.
    other = TrafficMatrix(t.bs_ids, np.full_like(t.values, 12345.0), t.start_hour)
    assume(defect is None or not np.array_equal(t.values, other.values))
    piece, read, broken = blockreg.corpus._csv_piece, blockreg.sidecar.read, []

    def read_then_break(path):
        result = read(path)
        if not broken:  # the first read only, not that of a fallback load
            broken.append(path)
            with mock.patch.object(blockreg.corpus, "_csv_piece", piece):
                DEFECTS[defect](src, other)
        return result

    render = mock.Mock(wraps=piece)
    with mock.patch.object(blockreg.corpus, "CHUNK_BYTES", chunk_bytes), \
            mock.patch.object(blockreg.sidecar, "READ_BYTES", chunk_bytes):
        save_corpus(t, str(src))
        if parsed:
            sidecar(src).unlink()
        with mock.patch.object(blockreg.sidecar, "read", read_then_break), \
                mock.patch.object(blockreg.corpus, "_csv_piece", render):
            try:
                clean_file(str(src), str(copied))
                result = copied.read_bytes(), sidecar(copied).read_bytes()
            except DataError as exc:
                assert not copied.exists() and not sidecar(copied).exists()
                result = type(exc), str(exc)
        assert render.called == (parsed or defect in CSV_CHANGED) or (
            type(result[0]) is type)
        assert result == saved_clean(src, rendered)
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


def test_clean_keeping_every_station_copies_the_source_read_by_read(tmp_path, monkeypatch):
    # The sidecar vouches for every line of a copy that keeps every
    # station, header included, so clean copies the source in whole reads:
    # it opens the CSV once, and neither splits the reads into lines nor
    # renders a line. The sidecar is the one save_corpus writes.
    t = make_corpus(n_bs=30, n_hours=48)
    src, copied, saved = (tmp_path / name for name in ("src.csv", "c.csv", "s.csv"))
    save_corpus(t, str(src))
    save_corpus(t, str(saved))
    opened = []

    def counting_open(path, *args, **kwargs):
        opened.append(str(path))
        return open(path, *args, **kwargs)

    monkeypatch.setattr(blockreg.corpus, "open", counting_open, raising=False)
    monkeypatch.setattr(blockreg.corpus, "_csv_lines", None)
    monkeypatch.setattr(blockreg.corpus, "_csv_piece", None)
    monkeypatch.setattr(blockreg.sidecar, "READ_BYTES", 1000)  # many reads
    raw, kept = clean_file(str(src), str(copied))
    assert kept.n_bs == raw.n_bs == 30
    assert opened == [str(src)]
    assert copied.read_bytes() == src.read_bytes()
    assert sidecar(copied).read_bytes() == sidecar(saved).read_bytes()
    assert not list(tmp_path.glob("*.tmp"))


class CountingDigest:
    """A sidecar digest that counts the bytes fed to it; every one made is
    kept in ``made``."""

    made: list = []

    def __init__(self, algorithm, data=b""):
        self.hash, self.fed = REAL_DIGEST(algorithm, data), len(data)
        CountingDigest.made.append(self)

    def update(self, data):
        self.hash.update(data)
        self.fed += len(memoryview(data).cast("B"))

    def hexdigest(self):
        return self.hash.hexdigest()


REAL_DIGEST = blockreg.sidecar.digest


def matrix_fed(t: TrafficMatrix) -> int:
    """The bytes fed to the matrix digest of ``t``'s sidecar."""
    ids = sorted(t.bs_ids)
    return len(blockreg.sidecar._body(t.start_hour, t.n_hours, ids)) + t.values.nbytes


@pytest.mark.parametrize("drop", [False, True], ids=["all_kept", "some_dropped"])
def test_clean_digests_each_csv_once_per_check(tmp_path, drop, monkeypatch):
    # The read checks the source's matrix against its sidecar, and the copy
    # checks the CSV as it reads it, once. A copy of every station is the
    # source, so neither its CSV nor its matrix is digested again; a copy
    # that leaves stations out is digested as it is written, and the
    # sidecar written digests the kept matrix once.
    t = make_corpus(n_bs=30, n_hours=48)
    if drop:
        t.values[::4, 7] = np.nan
    raw, corpus = tmp_path / "raw.csv", tmp_path / "corpus.csv"
    save_corpus(t, str(raw))
    monkeypatch.setattr(CountingDigest, "made", [])
    monkeypatch.setattr(blockreg.sidecar, "digest", CountingDigest)
    assert main(["clean", "--input", str(raw), "--output", str(corpus)]) == 0
    fed = [d.fed for d in CountingDigest.made]
    assert fed.count(raw.stat().st_size) == 1
    if drop:
        assert fed.count(matrix_fed(t)) == 1
        assert fed.count(corpus.stat().st_size) == 1
        assert fed.count(matrix_fed(clean(t))) == 1
    else:
        assert fed.count(matrix_fed(t)) == 1
        assert sidecar(corpus).read_bytes() == sidecar(raw).read_bytes()
    monkeypatch.undo()
    assert corpus.read_bytes() == corpus_to_csv(clean(t)).encode()
    monkeypatch.setattr(blockreg.corpus, "_read_chunks", None)  # the sidecar serves
    assert load_corpus(str(corpus)).values.tobytes() == clean(t).values.tobytes()


@st.composite
def line_ranges(draw):
    """A corpus, an increasing subset of its stations and lines ``lo < hi``."""
    ids = draw(st.lists(st.sampled_from(["b", "a", "c", "é", "a0", "z"]),
                        min_size=1, max_size=5, unique=True))
    n_hours = draw(st.integers(1, 6))
    odd = st.sampled_from([np.nan, -0.0, 1e-300, 1e22, 0.1, 2.0])
    values = np.array(draw(st.lists(odd | st.floats(0.0, 1e6), min_size=len(ids) * n_hours,
                                    max_size=len(ids) * n_hours))).reshape(len(ids), n_hours)
    t = TrafficMatrix(ids, values, draw(st.integers(0, 50)))
    stations = sorted(draw(st.sets(st.integers(0, len(ids) - 1), min_size=1)))
    lo = draw(st.integers(0, n_hours - 1))
    return t, stations, lo, draw(st.integers(lo + 1, n_hours))


def joined(lines) -> dict[int, bytes]:
    """The pieces of ``station_lines`` joined, by station number."""
    text: dict[int, bytes] = {}
    for r, piece in lines:
        text[r] = text.get(r, b"") + bytes(piece)
    return text


@settings(max_examples=300, deadline=None)
@given(line_ranges(), st.sampled_from([1, 7, 64, blockreg.sidecar.READ_BYTES]),
       st.sampled_from([1, 300, 1000, CHUNK_BYTES]), st.data())
def test_station_lines_copies_what_it_renders(tmp_path_factory, case, read_bytes,
                                              chunk_bytes, data):
    t, stations, lo, hi = case
    src = tmp_path_factory.mktemp("lines") / "src.csv"
    with mock.patch.object(blockreg.sidecar, "READ_BYTES", read_bytes), \
            mock.patch.object(blockreg.corpus, "CHUNK_BYTES", chunk_bytes):
        save_corpus(t, str(src))
        header, values = blockreg.sidecar.read(str(src))
        loaded = TrafficMatrix(header["bs_ids"], values, header["start_hour"])
        rendered = joined(station_lines(loaded, stations, lo, hi))
        with mock.patch.object(CountingDigest, "made", []), \
                mock.patch.object(blockreg.sidecar, "digest", CountingDigest):
            copied = joined(station_lines(loaded, stations, lo, hi, (str(src), header)))
            assert [d.fed for d in CountingDigest.made] == [src.stat().st_size]
        # Each station's lines as corpus_to_csv writes them.
        csv = corpus_to_csv(t).encode().splitlines(keepends=True)
        n = t.n_hours
        assert rendered == {r: b"".join(csv[1 + k * n + lo:1 + k * n + hi])
                            for r, k in enumerate(stations)}
        assert copied == rendered
        # A CSV edited after the read: the copy runs to its end, then fails.
        flip(src, data.draw(st.integers(0, src.stat().st_size - 1)))
        lines = station_lines(loaded, stations, lo, hi, (str(src), header))
        with pytest.raises(blockreg.corpus._StaleSource):
            for _ in lines:
                pass


def test_corpus_to_csv_golden_bytes():
    # clean_file copies the blocks, and forecast the horizon lines, of a CSV
    # whose sidecar vouches for it, trusting that corpus_to_csv would write
    # the same bytes. Changing the
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
