"""The matrix sidecar that `save_corpus` writes and `load_corpus` reads.

Whatever is at the sidecar path, `load_corpus` must return exactly what
parsing the CSV returns, or raise exactly what it raises: a sidecar is used
only when it was written along with the very bytes of the CSV.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blockreg.corpus
from blockreg import TrafficMatrix, corpus_to_csv, load_corpus, save_corpus
from blockreg.errors import (
    DataError,
    EmptyCorpus,
    InconsistentHours,
    InvalidBsId,
    ParseError,
)

from conftest import make_corpus


def sidecar(path: Path) -> Path:
    return path.with_name(path.name + ".matrix")


def outcome(path: Path):
    """What load_corpus gives: the matrix as bytes and fields, or the error."""
    try:
        t = load_corpus(str(path))
    except DataError as exc:
        return type(exc), str(exc)
    v = t.values
    return v.tobytes(), v.dtype, v.shape, v.flags.writeable, t.bs_ids, t.start_hour


def parsed_outcome(path: Path):
    """The outcome with the sidecar moved aside, so the CSV is parsed."""
    aside = path.with_name("aside")
    if sidecar(path).exists():
        sidecar(path).rename(aside)
    try:
        return outcome(path)
    finally:
        if aside.exists():
            aside.rename(sidecar(path))


@pytest.fixture()
def saved(tmp_path) -> Path:
    path = tmp_path / "c.csv"
    save_corpus(make_corpus(n_bs=5, n_hours=48), str(path))
    assert sidecar(path).exists()
    return path


def test_load_uses_the_sidecar(saved, monkeypatch):
    expected = parsed_outcome(saved)

    def no_parse(*args):
        raise AssertionError("the CSV was parsed")

    monkeypatch.setattr(blockreg.corpus, "_read_chunks", no_parse)
    assert outcome(saved) == expected


def test_load_writes_nothing(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("bs_id,hour,volume\na,0,1.0\n")
    load_corpus(str(path))
    assert [p.name for p in tmp_path.iterdir()] == ["c.csv"]


# NaN, -0.0 and subnormals included; a NaN of any sign or payload reads
# back as the one NaN that NA parses to.
ODD_NANS = np.array([0xFFF8000000000000, 0x7FF0000000000001], dtype=np.uint64)
volumes = st.floats(allow_infinity=False) | st.sampled_from(
    ODD_NANS.view(np.float64).tolist())


@st.composite
def saveable(draw):
    """Matrices with bs_ids and volumes a corpus CSV can hold; save_corpus
    refuses those whose CSV would not load back."""
    ids = draw(st.lists(st.sampled_from(["b", "a", "c", "é", "a0"]), max_size=4))
    n_hours = draw(st.integers(0, 4))
    rows = draw(st.lists(
        st.lists(volumes, min_size=n_hours, max_size=n_hours),
        min_size=len(ids), max_size=len(ids),
    ))
    start = draw(st.one_of(
        st.integers(0, 50), st.integers(-3, -1),
        st.integers(2**63 - 5, 2**63 + 2),
    ))
    values = np.array(rows, dtype=float).reshape(len(ids), n_hours)
    return TrafficMatrix(bs_ids=ids, values=values, start_hour=start)


@settings(max_examples=200, deadline=None)
@given(saveable())
def test_sidecar_equals_parse_property(tmp_path_factory, t):
    directory = tmp_path_factory.mktemp("sc")
    path = directory / "c.csv"
    try:
        save_corpus(t, str(path))
    except DataError:
        # A save is refused, writing nothing, exactly when the CSV would
        # not load.
        assert list(directory.iterdir()) == []
        path.write_text(corpus_to_csv(t), encoding="utf-8")
        with pytest.raises(DataError):
            load_corpus(str(path))
        return
    assert sidecar(path).exists()
    parsed = parsed_outcome(path)
    assert type(parsed[0]) is bytes
    assert outcome(path) == parsed


def test_sidecar_is_written_only_for_matrices_that_round_trip(tmp_path):
    # Any other matrix is refused before a file is touched: the CSV and
    # sidecar of an earlier save stay as they were.
    path = tmp_path / "c.csv"
    ok = TrafficMatrix(["b", "a"], np.array([[1.0, np.nan], [-0.0, 5e-324]]), 3)
    save_corpus(ok, str(path))
    before = path.read_bytes(), sidecar(path).read_bytes()
    for bad, error in (
        (TrafficMatrix([], np.ones((0, 2)), 0), EmptyCorpus),  # no station
        (TrafficMatrix(["a"], np.ones((1, 0)), 0), EmptyCorpus),  # no hour
        (TrafficMatrix(["a", "b", "a"], np.ones((3, 2)), 0), InvalidBsId),
        (TrafficMatrix(["a"], np.ones((1, 2)), -1), InconsistentHours),
        (TrafficMatrix(["a"], np.ones((1, 2)), 2**63 - 1), InconsistentHours),
    ):
        with pytest.raises(error):
            save_corpus(bad, str(path))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.csv", "c.csv.matrix"]
        assert (path.read_bytes(), sidecar(path).read_bytes()) == before
    back = load_corpus(str(path))
    assert back.bs_ids == ["a", "b"]
    assert np.array_equal(back.values, ok.values[::-1], equal_nan=True)


def test_unwritable_sidecar_is_skipped(tmp_path):
    path = tmp_path / "c.csv"
    sidecar(path).mkdir()
    t = make_corpus(n_bs=3, n_hours=24)
    save_corpus(t, str(path))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.csv", "c.csv.matrix"]
    assert np.array_equal(load_corpus(str(path)).values, t.values)


def flip(path: Path, offset: int) -> None:
    data = bytearray(path.read_bytes())
    data[offset] ^= 0x01
    path.write_bytes(bytes(data))


def edit_header(path: Path, change) -> None:
    header, _, payload = sidecar(path).read_bytes().partition(b"\n")
    doc = json.loads(header)
    change(doc)
    sidecar(path).write_bytes(json.dumps(doc).encode() + b"\n" + payload)


def swap_csv(path: Path) -> None:
    """Put another valid corpus, with a sidecar of its own, in place of the CSV."""
    other = path.with_name("other.csv")
    save_corpus(make_corpus(n_bs=5, n_hours=48, seed=2), str(other))
    other.replace(path)


DEFECTS = {
    # CSV edits: the same size, and appended.
    "csv_last_digit": lambda p: flip(p, p.stat().st_size - 2),
    "csv_bit_flip": lambda p: flip(p, p.stat().st_size // 2),
    "csv_appended_row": lambda p: p.write_bytes(p.read_bytes() + b"bs_0000,48,1.0\n"),
    "csv_appended_blank": lambda p: p.write_bytes(p.read_bytes() + b"\n"),
    "csv_appended_byte": lambda p: p.write_bytes(p.read_bytes() + b"x"),
    "csv_swapped": lambda p: swap_csv(p),
    # Sidecar defects.
    "truncated": lambda p: sidecar(p).write_bytes(sidecar(p).read_bytes()[:-1]),
    "extended": lambda p: sidecar(p).write_bytes(sidecar(p).read_bytes() + b"\0"),
    "payload_bit_flip": lambda p: flip(sidecar(p), sidecar(p).stat().st_size - 3),
    "header_bit_flip": lambda p: flip(sidecar(p), 2),
    "header_not_json": lambda p: sidecar(p).write_bytes(b"{\n" + bytes(100)),
    "header_not_utf8": lambda p: sidecar(p).write_bytes(b"\xff\xfe\n"),
    "header_too_deep": lambda p: sidecar(p).write_bytes(b"[" * 100_000 + b"\n"),
    "no_header_line": lambda p: sidecar(p).write_bytes(b"x" * 1_000_000),
    "empty": lambda p: sidecar(p).write_bytes(b""),
    "header_list": lambda p: sidecar(p).write_bytes(b"[]\n"),
    "other_version": lambda p: edit_header(p, lambda d: d.update(version=2)),
    "renamed_station": lambda p: edit_header(
        p, lambda d: d["bs_ids"].__setitem__(0, "bs_9999")),
    "shifted_start": lambda p: edit_header(p, lambda d: d.update(start_hour=1)),
    "float_start": lambda p: edit_header(p, lambda d: d.update(start_hour=0.0)),
    "string_hours": lambda p: edit_header(p, lambda d: d.update(n_hours="48")),
    "huge_shape": lambda p: edit_header(p, lambda d: d.update(n_hours=2**62)),
    "ids_not_strings": lambda p: edit_header(p, lambda d: d.update(bs_ids=[1] * 5)),
    "fewer_ids": lambda p: edit_header(p, lambda d: d["bs_ids"].pop()),
    "no_matrix_digest": lambda p: edit_header(p, lambda d: d.pop("matrix_blake2b")),
    "directory": lambda p: sidecar(p).unlink() or sidecar(p).mkdir(),
}


@pytest.mark.parametrize("defect", sorted(DEFECTS))
def test_defective_sidecar_or_csv_gives_the_parse(saved, defect):
    DEFECTS[defect](saved)
    assert outcome(saved) == parsed_outcome(saved)


def test_sidecar_without_csv_raises_cannot_open(saved):
    saved.unlink()
    with pytest.raises(ParseError, match="cannot open"):
        load_corpus(str(saved))


def test_sidecar_is_deterministic(tmp_path):
    t = make_corpus(n_bs=4, n_hours=30)
    save_corpus(t, str(tmp_path / "a.csv"))
    save_corpus(t, str(tmp_path / "b.csv"))
    a = sidecar(tmp_path / "a.csv").read_bytes()
    assert a == sidecar(tmp_path / "b.csv").read_bytes()
    assert len(a) == a.index(b"\n") + 1 + t.values.nbytes


def test_corpus_io_does_not_load_openssl(tmp_path):
    # hashlib would load OpenSSL's libcrypto, several MB of RSS per command.
    src = str(Path(blockreg.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import blockreg.cli\n"
        "from blockreg import TrafficMatrix, load_corpus, save_corpus\n"
        "t = TrafficMatrix(['a', 'b'], np.arange(6.0).reshape(2, 3), 0)\n"
        "save_corpus(t, sys.argv[1])\n"
        "blockreg.corpus._read_chunks = None  # the load must not parse\n"
        "assert np.array_equal(load_corpus(sys.argv[1]).values, t.values)\n"
        "print('_hashlib' in sys.modules, 'hashlib' in sys.modules)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    r = subprocess.run([sys.executable, "-c", code, str(tmp_path / "c.csv")],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["False", "False"]
    assert sidecar(tmp_path / "c.csv").exists()
