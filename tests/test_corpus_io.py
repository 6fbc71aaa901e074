"""Column-wise corpus CSV reader and writer against ``corpus_oracle``.

On valid corpora the reader must match the row-at-a-time oracle bit for
bit; on a corpus with defects it must raise the same class with the same
message, naming the first bad line. The writer must produce the oracle's
bytes. Each reader case also runs with ``CHUNK_BYTES`` cut to 64, so rows,
stations and defects fall into late chunks.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blockreg.corpus
from blockreg import TrafficMatrix, clean, corpus_to_csv, load_corpus, save_corpus
from blockreg.errors import DataError, EmptyCorpus, InconsistentHours, ParseError

import corpus_oracle

HEADER = "bs_id,hour,volume"
ID_CHARS = list("abcxyz019_- ") + ["é", "ß", "站"]
VOLUME_FORMS = ("{!r}", "{:.3f}", "{:.2e}", "{:.4E}", "{:g}")
ENDINGS = ("\n", "\r\n", "\r")


@pytest.fixture(params=[None, 64], ids=["default_chunks", "64_byte_chunks"])
def chunk_bytes(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(blockreg.corpus, "CHUNK_BYTES", request.param)
    return request.param


def random_rows(rng) -> list[str]:
    """Data rows of a valid corpus, shuffled, with absent and NA records.

    Station 0 has a record for every hour, so the span is always filled.
    """
    n_bs = int(rng.integers(1, 7))
    n_hours = int(rng.integers(1, 30))
    start = int(rng.choice([0, 5, 1000, 2**40]))
    ids = set()
    while len(ids) < n_bs:
        ids.add("".join(rng.choice(ID_CHARS, int(rng.integers(1, 6)))))
    rows = []
    for i, bs in enumerate(sorted(ids, key=lambda _: rng.random())):
        for hour in range(start, start + n_hours):
            if i and rng.random() < 0.2:
                continue  # absent record
            if rng.random() < 0.1:
                vol = "NA"
            else:
                value = float(rng.lognormal(0.0, 3.0) * rng.choice([1.0, -1.0]))
                if rng.random() < 0.05:
                    value = -0.0
                vol = str(rng.choice(VOLUME_FORMS)).format(value)
            hour_s = str(hour) if rng.random() < 0.9 else f"00{hour}"
            rows.append(f"{bs},{hour_s},{vol}")
    rng.shuffle(rows)
    return rows


def write_corpus(path, rows, rng) -> None:
    """Join rows with one random line ending, adding blank lines at random."""
    ending = str(rng.choice(ENDINGS))
    lines = [HEADER]
    for row in rows:
        if rng.random() < 0.05:
            lines.append("")
        lines.append(row)
    text = ending.join(lines)
    if rng.random() < 0.8:
        text += ending
    path.write_bytes(text.encode("utf-8"))


def assert_same_matrix(a: TrafficMatrix, b: TrafficMatrix) -> None:
    assert a.bs_ids == b.bs_ids
    assert a.start_hour == b.start_hour
    assert a.values.shape == b.values.shape
    nan = np.isnan(a.values)
    np.testing.assert_array_equal(nan, np.isnan(b.values))
    assert np.array_equal(a.values[~nan].view(np.int64), b.values[~nan].view(np.int64))


def assert_same_error(path) -> None:
    with pytest.raises(DataError) as expected:
        corpus_oracle.load_corpus(str(path))
    with pytest.raises(DataError) as got:
        load_corpus(str(path))
    assert type(got.value) is type(expected.value)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("seed", range(30))
def test_reader_matches_oracle_on_valid_corpora(tmp_path, chunk_bytes, seed):
    rng = np.random.default_rng(seed)
    path = tmp_path / "c.csv"
    write_corpus(path, random_rows(rng), rng)
    assert_same_matrix(load_corpus(str(path)), corpus_oracle.load_corpus(str(path)))


def inject(rows, rng, kind) -> None:
    """Replace or insert one row so that it carries one defect of ``kind``."""
    at = int(rng.integers(0, len(rows)))
    bs, hour, vol = (rows[at].split(",") + ["", ""])[:3]
    if kind == "duplicate":
        at = int(rng.integers(at, len(rows))) + 1
        rows.insert(at, f"{bs},{hour},{float(rng.random())!r}")
        return
    rows[at] = {
        "too_few_fields": f"{bs},{hour}",
        "too_many_fields": f"{bs},{hour},{vol},1",
        "empty_bs_id": f",{hour},{vol}",
        "bad_hour": f"{bs},{rng.choice(['x', '1.5', '', '1e3'])},{vol}",
        "negative_hour": f"{bs},-{int(rng.integers(1, 9))},{vol}",
        "bad_volume": f"{bs},{hour},{rng.choice(['oops', '', '1.0.0', 'N/A'])}",
        "non_finite_volume":
            f"{bs},{hour},{rng.choice(['inf', '-inf', 'nan', '1e999'])}",
    }[kind]


DEFECTS = (
    "too_few_fields", "too_many_fields", "empty_bs_id", "bad_hour",
    "negative_hour", "bad_volume", "non_finite_volume", "duplicate",
)


@pytest.mark.parametrize("kind", DEFECTS)
@pytest.mark.parametrize("seed", range(4))
def test_reader_matches_oracle_on_one_defect(tmp_path, chunk_bytes, kind, seed):
    rng = np.random.default_rng(seed)
    rows = random_rows(rng)
    inject(rows, rng, kind)
    path = tmp_path / "c.csv"
    write_corpus(path, rows, rng)
    assert_same_error(path)


@pytest.mark.parametrize("seed", range(20))
def test_reader_reports_the_first_of_several_defects(tmp_path, chunk_bytes, seed):
    rng = np.random.default_rng(100 + seed)
    rows = random_rows(rng)
    for kind in rng.choice(DEFECTS, 2):
        inject(rows, rng, str(kind))
    path = tmp_path / "c.csv"
    write_corpus(path, rows, rng)
    assert_same_error(path)


def test_no_data_rows_matches_oracle(tmp_path, chunk_bytes):
    path = tmp_path / "c.csv"
    for text in (HEADER + "\n", HEADER, HEADER + "\n\n\r\n\n", ""):
        path.write_text(text, newline="")
        assert_same_error(path)


def random_matrix(rng) -> TrafficMatrix:
    n_bs, n_hours = int(rng.integers(0, 6)), int(rng.integers(0, 9))
    shape = (n_bs, n_hours)
    values = rng.lognormal(0.0, 5.0, shape) * rng.choice([1, -1], shape)
    values[rng.random(shape) < 0.1] = np.nan
    values[rng.random(shape) < 0.05] = -0.0
    values[rng.random(shape) < 0.05] = 5e-324
    ids = [f"s{rng.integers(0, 10**6)}_{i}" for i in range(n_bs)]
    rng.shuffle(ids)
    start = int(rng.integers(0, 10**9))
    return TrafficMatrix(bs_ids=ids, values=values, start_hour=start)


@pytest.mark.parametrize("seed", range(20))
def test_writer_matches_oracle_bytes(seed):
    t = random_matrix(np.random.default_rng(seed))
    assert corpus_to_csv(t) == corpus_oracle.corpus_to_csv(t)


@pytest.mark.parametrize("dtype", [np.int64, np.float32])
def test_writer_matches_oracle_bytes_for_other_dtypes(dtype):
    values = np.array([[1, 2, 3], [40, 50, 60]], dtype=dtype) / dtype(3)
    t = TrafficMatrix(bs_ids=["b", "a"], values=values.astype(dtype), start_hour=2)
    assert corpus_to_csv(t) == corpus_oracle.corpus_to_csv(t)


def test_station_first_seen_in_late_chunk(tmp_path, monkeypatch):
    monkeypatch.setattr(blockreg.corpus, "CHUNK_BYTES", 64)
    rows = [f"b,{h},{h}.5" for h in range(20)] + ["a,3,7.0"]
    path = tmp_path / "c.csv"
    path.write_text("\n".join([HEADER, *rows]) + "\n")
    t = load_corpus(str(path))
    assert t.bs_ids == ["a", "b"]
    assert t.values[0, 3] == 7.0 and np.isnan(t.values[0, 2])
    assert_same_matrix(t, corpus_oracle.load_corpus(str(path)))


def test_duplicate_split_across_chunks(tmp_path, monkeypatch):
    monkeypatch.setattr(blockreg.corpus, "CHUNK_BYTES", 64)
    rows = [f"a,{h},1.0" for h in range(20)] + ["a,2,9.0"] + ["a,20,1.0"]
    path = tmp_path / "c.csv"
    path.write_text("\n".join([HEADER, *rows]) + "\n")
    with pytest.raises(InconsistentHours, match="line 22: duplicate record for a hour 2$"):
        load_corpus(str(path))
    assert_same_error(path)


def test_error_line_number_in_late_chunk(tmp_path, monkeypatch):
    monkeypatch.setattr(blockreg.corpus, "CHUNK_BYTES", 64)
    rows = [f"a,{h},1.0" for h in range(30)]
    rows[25] = "a,25,oops"
    path = tmp_path / "c.csv"
    path.write_text("\r\n".join([HEADER, "", *rows]) + "\r\n")
    with pytest.raises(ParseError, match="line 28: bad volume 'oops'"):
        load_corpus(str(path))
    assert_same_error(path)


def test_first_duplicate_in_file_order_is_reported(tmp_path, chunk_bytes):
    # The second duplicate pair sorts first by (bs_id, hour).
    rows = ["a,5,1.0", "a,5,2.0", "a,0,1.0", "a,0,2.0"]
    path = tmp_path / "c.csv"
    path.write_text("\n".join([HEADER, *rows]) + "\n")
    with pytest.raises(InconsistentHours, match="line 3: duplicate record for a hour 5"):
        load_corpus(str(path))
    assert_same_error(path)


def test_duplicate_before_bad_line_in_later_chunk_wins(tmp_path, monkeypatch):
    monkeypatch.setattr(blockreg.corpus, "CHUNK_BYTES", 64)
    rows = [f"a,{h},1.0" for h in range(30)]
    rows[12] = "a,3,2.0"
    rows[27] = "a,x,1.0"
    path = tmp_path / "c.csv"
    path.write_text("\n".join([HEADER, *rows]) + "\n")
    with pytest.raises(InconsistentHours, match="line 14: duplicate"):
        load_corpus(str(path))
    assert_same_error(path)


bs_ids = st.text(
    st.characters(blacklist_characters=',"\r\n', blacklist_categories=("Cs",)),
    min_size=1, max_size=6,
)
volumes = st.floats(allow_infinity=False)  # NaN is written as NA


@st.composite
def matrices(draw):
    ids = draw(st.lists(bs_ids, min_size=1, max_size=5, unique=True))
    n_hours = draw(st.integers(1, 6))
    rows = draw(st.lists(
        st.lists(volumes, min_size=n_hours, max_size=n_hours),
        min_size=len(ids), max_size=len(ids),
    ))
    start = draw(st.integers(0, 2**63 - n_hours))
    values = np.array(rows, dtype=float)
    return TrafficMatrix(bs_ids=ids, values=values, start_hour=start)


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_csv_round_trip_property(tmp_path_factory, t):
    # Through the sidecar save_corpus writes, then through the parser.
    path = tmp_path_factory.mktemp("rt") / "c.csv"
    save_corpus(t, str(path))
    order = sorted(range(t.n_bs), key=t.bs_ids.__getitem__)
    expect = TrafficMatrix(
        bs_ids=[t.bs_ids[i] for i in order],
        values=t.values[order],
        start_hour=t.start_hour,
    )
    assert_same_matrix(load_corpus(str(path)), expect)
    path.with_name("c.csv.matrix").unlink()
    assert_same_matrix(load_corpus(str(path)), expect)


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_clean_idempotent_property(t):
    try:
        once = clean(t)
    except EmptyCorpus:
        return
    twice = clean(once)
    assert_same_matrix(twice, once)
    assert all(math.isfinite(v) and v >= 0 for v in once.values.ravel())


# Spellings float() and numpy's string cast must read alike: exponent
# overflow and underflow, signed and spelled-out non-finite values, bare
# points and signs, leading zeros, and forms both must reject.
VOLUME_SPELLINGS = [
    "1e400", "-1e400", "-nan", "+nan", "NaN", "infinity", "-Infinity", "inF",
    "4.9e-325", "2.4703282292062328e-324", "1.7976931348623159e308", "5.",
    ".5", "+.5e-3", "00012", "-0", "1E5", "0.1", "1e", "0x10", "nan(1)",
    "1d5", "", ".", "+", "e5", "1e+", "--1", "1.2.3", "inf1", "NA",
]


def float_bits(parse, s: str) -> bytes | None:
    """The float64 bytes ``parse`` reads from ``s``, or None if it rejects it."""
    try:
        return np.float64(parse(s)).tobytes()
    except ValueError:
        return None


def assert_parsers_agree(s: str):
    assert blockreg.corpus._is_plain(s)
    by_float = float_bits(float, s)
    by_numpy = float_bits(lambda v: np.array([v], dtype=np.float64)[0], s)
    assert by_numpy == by_float, s
    parsed = blockreg.corpus._parse_volumes([s])
    if s == "NA":
        assert np.isnan(parsed).all()
    elif by_float is None or not math.isfinite(float(s)):
        assert parsed is None, s
    else:
        assert parsed.tobytes() == by_float, s


@pytest.mark.parametrize("s", VOLUME_SPELLINGS)
def test_volume_parser_agrees_with_float(s):
    assert_parsers_agree(s)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.floats().map(repr),
    st.floats().map(lambda v: f"{v:.17e}".upper()),
    st.text("0123456789.eE+-infatyINFATY", max_size=12),
))
def test_volume_parser_agrees_with_float_property(s):
    assert_parsers_agree(s)
