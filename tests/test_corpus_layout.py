"""The reader's path for files in the layout that ``save_corpus`` writes.

Such a file (one block per station, bs_ids increasing, every block the
same hours in order, no blank lines) is read keeping only its volumes.
On such files the reader must agree bit for bit with ``corpus_oracle``.
A file with one perturbation leaves that path part way through; it must
then give what the general path alone gives (the same matrix, or the
same error class and message, line included), and be read only once.
Each case runs with ``CHUNK_BYTES`` at 64 and at its default.
"""

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import blockreg.corpus
from blockreg import TrafficMatrix, corpus_to_csv, load_corpus
from blockreg.errors import DataError

import corpus_oracle
from test_corpus_io import assert_same_matrix

CHUNKS = [64, blockreg.corpus.CHUNK_BYTES]

station_ids = st.one_of(
    st.sampled_from(["a", "a0", "b", "bs_0001", "é"]),
    st.text(st.characters(blacklist_characters=',"\r\n', blacklist_categories=("Cs",)),
            min_size=1, max_size=4),
)
volumes = st.one_of(
    st.floats(allow_infinity=False),  # NaN is written as NA
    st.sampled_from([0.0, -0.0, 5e-324, 1.5]),
)


@st.composite
def corpora(draw) -> TrafficMatrix:
    ids = draw(st.lists(station_ids, min_size=1, max_size=4, unique=True))
    n_hours = draw(st.integers(1, 12))
    start = draw(st.one_of(
        st.integers(90, 99),  # hours cross 99 -> 100
        st.sampled_from([0, 1, 2**63 - 12]),
        st.integers(0, 10**6),
    ))
    values = draw(st.lists(volumes, min_size=len(ids) * n_hours,
                           max_size=len(ids) * n_hours))
    return TrafficMatrix(
        bs_ids=ids,
        values=np.array(values, dtype=float).reshape(len(ids), n_hours),
        start_hour=start,
    )


def write(tmp_path_factory, text: str):
    path = tmp_path_factory.mktemp("layout") / "c.csv"
    path.write_bytes(text.encode("utf-8"))
    return path


def read(path, general_only=False):
    """The matrix the reader returns, or the error it raises.

    With ``general_only`` the layout path declines every chunk, so the
    whole file takes the general path.
    """
    declined = (
        mock.patch.object(blockreg.corpus._Layout, "take", return_value=False)
        if general_only else contextlib.nullcontext()
    )
    try:
        with declined:
            return load_corpus(str(path))
    except DataError as exc:
        return exc


def assert_same_outcome(got, expected) -> None:
    assert type(got) is type(expected)
    if isinstance(expected, DataError):
        assert str(got) == str(expected)
    else:
        assert_same_matrix(got, expected)


@pytest.mark.parametrize("chunk_bytes", CHUNKS)
@settings(max_examples=80, deadline=None)
@given(t=corpora())
@example(t=TrafficMatrix(["a"], np.array([[1.0]]), 0))  # one station, one hour
@example(t=TrafficMatrix(["a"], np.array([[1.0, np.nan, -2.5]]), 98))
@example(t=TrafficMatrix(["b", "a0", "a"], np.full((3, 4), np.nan), 99))
@example(t=TrafficMatrix(["a", "b"], np.array([[1.0], [2.0]]), 7))  # one hour
def test_layout_matches_oracle(tmp_path_factory, chunk_bytes, t):
    path = write(tmp_path_factory, corpus_to_csv(t))
    # The general path would hand its rows over through columns().
    handed_over = mock.patch.object(
        blockreg.corpus._Layout, "columns", side_effect=AssertionError("handed over")
    )
    with mock.patch.object(blockreg.corpus, "CHUNK_BYTES", chunk_bytes), handed_over:
        got = load_corpus(str(path))
    assert_same_matrix(got, corpus_oracle.load_corpus(str(path)))


def perturb(kind: str, rows: list[str], at: int, n_hours: int) -> tuple[list[str], str]:
    """``rows`` with one perturbation of ``kind`` near row ``at``, and the
    line ending to join them with."""
    rows = list(rows)
    i = at % (len(rows) - 1)  # a row with a row after it
    bs, hour, volume = rows[i].split(",")
    if kind == "swapped_rows":
        rows[i], rows[i + 1] = rows[i + 1], rows[i]
    elif kind == "dropped_middle_row":
        del rows[1 + at % (len(rows) - 2)]
    elif kind == "dropped_last_row":
        del rows[-1]
    elif kind == "duplicate_row":
        rows.insert(i + 1, rows[i])
    elif kind == "blank_line":
        rows.insert(i + 1, "")
    elif kind == "hour_007":
        rows[i] = f"{bs},00{hour},{volume}"
    elif kind == "stations_out_of_order":
        blocks = [rows[j:j + n_hours] for j in range(0, len(rows), n_hours)]
        j = at % (len(blocks) - 1)
        blocks[j], blocks[j + 1] = blocks[j + 1], blocks[j]
        rows = [row for block in blocks for row in block]
    elif kind == "bad_volume_after_three_chunks":
        offsets = np.cumsum([len(row.encode()) + 1 for row in rows])
        j = min(int(np.searchsorted(offsets, 3 * 64)) + 1, len(rows) - 1)
        bs, hour, _ = rows[j].split(",")
        rows[j] = f"{bs},{hour},oops"
    return rows, "\r\n" if kind == "crlf" else "\n"


PERTURBATIONS = (
    "swapped_rows", "dropped_middle_row", "dropped_last_row", "duplicate_row",
    "blank_line", "hour_007", "crlf", "stations_out_of_order",
    "bad_volume_after_three_chunks",
)


@pytest.mark.parametrize("chunk_bytes", CHUNKS)
@pytest.mark.parametrize("kind", PERTURBATIONS)
@settings(max_examples=25, deadline=None)
@given(t=corpora(), at=st.integers(0, 10**6))
def test_perturbed_layout_matches_general_path(
    tmp_path_factory, chunk_bytes, kind, t, at
):
    assume(t.values.size >= 3)
    assume(kind != "stations_out_of_order" or t.n_bs >= 2)
    header, *rows = corpus_to_csv(t).split("\n")[:-1]
    rows, ending = perturb(kind, rows, at, t.n_hours)
    path = write(tmp_path_factory, ending.join([header, *rows]) + ending)
    with mock.patch.object(blockreg.corpus, "CHUNK_BYTES", chunk_bytes):
        assert_same_outcome(read(path), read(path, general_only=True))


def test_huge_first_hour_matches_general_path(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text(f"bs_id,hour,volume\na,{'9' * 5000},1.0\n")
    assert_same_outcome(read(path), read(path, general_only=True))
    assert "bad hour" in str(read(path))


def test_hours_past_int64_match_general_path(tmp_path):
    path = tmp_path / "c.csv"
    top = 2**63 - 1
    path.write_text(f"bs_id,hour,volume\na,{top},1.0\na,{top + 1},2.0\n")
    assert_same_outcome(read(path), read(path, general_only=True))
    assert "bad hour" in str(read(path))


class CountingFile:
    """A text file that counts the characters read from it."""

    def __init__(self, fh):
        self.fh, self.chars = fh, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def readline(self):
        line = self.fh.readline()
        self.chars += len(line)
        return line

    def readlines(self, hint):
        lines = self.fh.readlines(hint)
        self.chars += sum(map(len, lines))
        return lines


@pytest.mark.parametrize("chunk_bytes", CHUNKS)
def test_file_broken_at_last_row_is_read_once(tmp_path, monkeypatch, chunk_bytes):
    monkeypatch.setattr(blockreg.corpus, "CHUNK_BYTES", chunk_bytes)
    values = np.arange(60, dtype=float).reshape(3, 20)
    text = corpus_to_csv(TrafficMatrix(["a", "b", "c"], values, 5))
    text = text[: text.rindex("c,24,")]  # the last row is missing
    path = tmp_path / "c.csv"
    path.write_text(text)
    opened = []

    def counting_open(*args, **kwargs):
        opened.append(CountingFile(open(*args, **kwargs)))
        return opened[-1]

    monkeypatch.setattr(blockreg.corpus, "open", counting_open, raising=False)
    t = load_corpus(str(path))
    assert len(opened) == 1 and opened[0].chars == len(text)
    assert np.isnan(t.values[2, -1]) and t.values[2, -2] == 58.0
    monkeypatch.undo()
    assert_same_matrix(t, corpus_oracle.load_corpus(str(path)))


def test_rows_handed_over_keep_their_line_numbers(tmp_path, monkeypatch):
    # The first chunk holds a blank line, the second breaks the layout: the
    # general path must get every row with the line number it has in the file.
    monkeypatch.setattr(blockreg.corpus, "CHUNK_BYTES", 16)
    path = tmp_path / "c.csv"
    path.write_text("bs_id,hour,volume\na,0,1.0\n\na,1,2.0\nb,1,3.0\nb,0,4.0\n")
    with open(path, encoding="utf-8", newline="") as fh:
        matrix, chunks, problem = blockreg.corpus._read_chunks(fh, str(path), {})
    assert matrix is None and problem is None
    assert np.concatenate([c[3] for c in chunks]).tolist() == [2, 4, 5, 6]
