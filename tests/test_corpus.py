"""Corpus generation, cleaning, and CSV round-trip behavior."""

import math
import re
import warnings

import numpy as np
import pytest

from blockreg import (
    InvalidConfig,
    ParseError,
    SynthConfig,
    TrafficMatrix,
    UncleanCorpus,
    clean,
    corpus_to_csv,
    load_corpus,
    save_corpus,
    synthesize,
)
from blockreg.errors import (
    EmptyCorpus,
    InconsistentHours,
    InfiniteVolume,
    InvalidBsId,
    Overflow,
)

import synth_oracle
from conftest import make_corpus, periodic_corpus


def test_synthesize_shape_and_ids():
    t = make_corpus(n_bs=7, n_hours=48)
    assert t.n_bs == 7
    assert t.n_hours == 48
    assert t.start_hour == 0
    assert t.bs_ids == [f"bs_{i:04d}" for i in range(7)]
    assert len(set(t.bs_ids)) == 7


def test_synthesize_positive_and_clean():
    t = make_corpus()
    assert np.all(t.values > 0)
    t.require_clean()


def test_synthesize_deterministic():
    a = synthesize(SynthConfig(n_bs=10, n_hours=60, seed=42))
    b = synthesize(SynthConfig(n_bs=10, n_hours=60, seed=42))
    np.testing.assert_array_equal(a.values, b.values)
    c = synthesize(SynthConfig(n_bs=10, n_hours=60, seed=43))
    assert not np.array_equal(a.values, c.values)


def test_synthesize_periodic_when_noise_free():
    t = periodic_corpus(n_bs=6, n_hours=96)
    np.testing.assert_allclose(t.values[:, 24:], t.values[:, :-24], rtol=0, atol=0)


def test_synthesize_scale_spread():
    # stations must differ in magnitude by orders, not percents
    t = make_corpus(n_bs=100)
    means = t.values.mean(axis=1)
    assert means.max() / means.min() > 20


@pytest.mark.parametrize("setting", [
    {"daily_profile_amplitude": 1e308},
    {"noise_std": 1e308},
    {"day_intensity_std": 1e300},
])
def test_synthesize_overflow_raises(setting):
    cfg = SynthConfig(n_bs=3, n_hours=48, **setting)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Overflow, match="overflow"):
            synthesize(cfg)


@pytest.mark.parametrize("setting", [
    {}, {"burst_probability": 0.0}, {"noise_std": 0.0},
])
@pytest.mark.parametrize("n_bs", [1, 2000])
@pytest.mark.parametrize("n_hours", [24, 50, 336, 2160])
def test_synthesize_matches_oracle(n_hours, n_bs, setting):
    cfg = SynthConfig(n_bs=n_bs, n_hours=n_hours, seed=7, **setting)
    got, want = synthesize(cfg), synth_oracle.synthesize(cfg)
    assert got.bs_ids == want.bs_ids
    assert got.values.tobytes() == want.values.tobytes()


@pytest.mark.parametrize("setting", [
    {"daily_profile_amplitude": 1e308},
    {"noise_std": 1e308},
    {"day_intensity_std": 1e300},
])
def test_synthesize_overflow_matches_oracle(setting):
    cfg = SynthConfig(n_bs=3, n_hours=48, **setting)
    with pytest.raises(Overflow) as got:
        synthesize(cfg)
    with pytest.raises(Overflow) as want:
        synth_oracle.synthesize(cfg)
    assert str(got.value) == str(want.value)


def test_synth_config_validation():
    with pytest.raises(InvalidConfig):
        SynthConfig(n_bs=0).validate()
    with pytest.raises(InvalidConfig):
        SynthConfig(n_hours=10).validate()
    with pytest.raises(InvalidConfig):
        SynthConfig(noise_std=-0.1).validate()
    with pytest.raises(InvalidConfig):
        SynthConfig(burst_probability=1.5).validate()
    with pytest.raises(InvalidConfig):
        SynthConfig(seed=-1).validate()


def test_csv_round_trip_exact(tmp_path):
    t = make_corpus(n_bs=5, n_hours=30)
    path = tmp_path / "c.csv"
    save_corpus(t, str(path))
    back = load_corpus(str(path))
    assert back.bs_ids == t.bs_ids
    assert back.start_hour == 0
    np.testing.assert_array_equal(back.values, t.values)


def test_csv_nan_round_trip(tmp_path):
    t = make_corpus(n_bs=3, n_hours=24)
    t.values[1, 4] = math.nan
    path = tmp_path / "c.csv"
    save_corpus(t, str(path))
    assert ",NA" in path.read_text()
    back = load_corpus(str(path))
    assert math.isnan(back.values[1, 4])
    with pytest.raises(UncleanCorpus):
        back.require_clean()


def test_load_missing_records_become_nan(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text(
        "bs_id,hour,volume\n"
        "a,5,1.0\na,6,2.0\na,7,3.0\n"
        "b,5,4.0\nb,7,6.0\n"  # hour 6 absent for b
    )
    t = load_corpus(str(path))
    assert t.bs_ids == ["a", "b"]
    assert t.start_hour == 5
    assert t.n_hours == 3
    assert math.isnan(t.values[1, 1])
    assert t.values[0, 2] == 3.0


def test_load_sorts_bs_ids(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("bs_id,hour,volume\nzz,0,1.0\naa,0,2.0\nmm,0,3.0\n")
    t = load_corpus(str(path))
    assert t.bs_ids == ["aa", "mm", "zz"]
    assert list(t.values[:, 0]) == [2.0, 3.0, 1.0]


def test_load_rejects_bad_header(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("station,hour,vol\na,0,1.0\n")
    with pytest.raises(ParseError, match="line 1"):
        load_corpus(str(path))


def test_load_rejects_bad_rows(tmp_path):
    cases = [
        ("bs_id,hour,volume\na,x,1.0\n", "line 2"),
        ("bs_id,hour,volume\na,0,oops\n", "line 2"),
        ("bs_id,hour,volume\na,0\n", "line 2"),
        ("bs_id,hour,volume\na,-3,1.0\n", "negative hour"),
        ("bs_id,hour,volume\n,0,1.0\n", "empty bs_id"),
        ("bs_id,hour,volume\na,0,inf\n", "non-finite"),
        ("bs_id,hour,volume\n", "no data"),
        ('bs_id,hour,volume\n"b,c",0,2.0\n', "line 2: a field contains"),
        ('bs_id,hour,volume\na,0,1.0\n"a",1,2.0\n', "line 3: a field contains"),
        ("bs_id,hour,volume\na,0,1.0\na,1,\"2\"\n", "line 3: a field contains"),
        ("bs_id,hour,volume\na, 1 ,1.0\n", "line 2: bad hour ' 1 '"),
        ("bs_id,hour,volume\na,+1,1.0\n", "bad hour '\\+1'"),
        ("bs_id,hour,volume\na,-0,1.0\n", "bad hour '-0'"),
        ("bs_id,hour,volume\na,\u0661,1.0\n", "bad hour"),
        ("bs_id,hour,volume\na,99999999999999999999,1.0\n", "bad hour"),
        ("bs_id,hour,volume\na,9223372036854775808,1.0\n", "bad hour"),
        ("bs_id,hour,volume\na,1,1_0.5\n", "line 2: bad volume '1_0.5'"),
        ("bs_id,hour,volume\na,1, 2.0\n", "bad volume"),
        ("bs_id,hour,volume\na,1,2.0\t\n", "bad volume"),
    ]
    path = tmp_path / "c.csv"
    for text, needle in cases:
        path.write_text(text)
        with pytest.raises(ParseError, match=needle):
            load_corpus(str(path))


def test_load_rejects_non_utf8(tmp_path):
    path = tmp_path / "c.csv"
    path.write_bytes(b"bs_id,hour,volume\na,0,1.0\xff\n")
    with pytest.raises(ParseError, match="not UTF-8"):
        load_corpus(str(path))


def test_load_accepts_crlf_line_endings(tmp_path):
    path = tmp_path / "c.csv"
    path.write_bytes(
        b"bs_id,hour,volume\r\nb,0,1.5\r\na,0,NA\r\nb,1,2.5\r\na,1,3.0\r\n"
    )
    t = load_corpus(str(path))
    assert t.bs_ids == ["a", "b"]
    np.testing.assert_array_equal(t.values, [[np.nan, 3.0], [1.5, 2.5]])


def test_load_skips_blank_lines(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("bs_id,hour,volume\n\na,0,1.0\n\n\na,1,2.0\n\na,2,x\n")
    with pytest.raises(ParseError, match="line 8: bad volume"):
        load_corpus(str(path))
    path.write_text("bs_id,hour,volume\n\na,0,1.0\n\n\na,1,2.0\n\n")
    t = load_corpus(str(path))
    np.testing.assert_array_equal(t.values, [[1.0, 2.0]])


def test_load_accepts_hours_up_to_int64_max(tmp_path):
    top = 2**63 - 1
    path = tmp_path / "c.csv"
    path.write_text(f"bs_id,hour,volume\na,{top - 1},1.0\na,{top},2.0\n")
    t = load_corpus(str(path))
    assert t.start_hour == top - 1
    np.testing.assert_array_equal(t.values, [[1.0, 2.0]])


def test_load_rejects_span_no_station_fills(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("bs_id,hour,volume\na,0,1.0\na,1000000000000,2.0\n")
    with pytest.raises(InconsistentHours, match="no station has a record"):
        load_corpus(str(path))
    # Every station has a gap, so clean could keep nothing.
    path.write_text("bs_id,hour,volume\na,0,1.0\na,1,1.0\nb,1,1.0\nb,2,1.0\n")
    with pytest.raises(InconsistentHours, match="0..2"):
        load_corpus(str(path))
    # A duplicate record is reported before the span.
    path.write_text("bs_id,hour,volume\na,0,1.0\na,9,1.0\na,0,2.0\n")
    with pytest.raises(InconsistentHours, match="line 4: duplicate"):
        load_corpus(str(path))


@pytest.mark.parametrize("bs_id", ["", "b,c", 'a"b', "a\rb", "a\nb"])
def test_save_corpus_refuses_unwritable_bs_id(tmp_path, bs_id):
    t = TrafficMatrix(bs_ids=["ok", bs_id], values=np.ones((2, 3)), start_hour=0)
    path = tmp_path / "c.csv"
    with pytest.raises(InvalidBsId, match=re.escape(repr(bs_id))):
        save_corpus(t, str(path))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("volume", [math.inf, -math.inf])
def test_save_corpus_refuses_infinite_volume(tmp_path, volume):
    values = np.ones((2, 3))
    values[1, 2] = volume
    values[0, 1] = np.nan  # NA is writable
    t = TrafficMatrix(bs_ids=["a", "b"], values=values, start_hour=5)
    path = tmp_path / "c.csv"
    with pytest.raises(InfiniteVolume, match=re.escape(f"b hour 7: volume {volume!r}")):
        save_corpus(t, str(path))
    assert list(tmp_path.iterdir()) == []


def test_load_rejects_duplicate_record(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("bs_id,hour,volume\na,0,1.0\na,0,2.0\n")
    with pytest.raises(InconsistentHours):
        load_corpus(str(path))


def test_load_missing_file():
    with pytest.raises(ParseError, match="cannot open"):
        load_corpus("/nonexistent/path.csv")


def test_clean_drops_faulty_rows_whole():
    t = make_corpus(n_bs=4, n_hours=24)
    t.values[1, 3] = math.nan
    t.values[3, 0] = -2.0
    kept = clean(t)
    assert kept.bs_ids == [t.bs_ids[0], t.bs_ids[2]]
    np.testing.assert_array_equal(kept.values[0], t.values[0])
    np.testing.assert_array_equal(kept.values[1], t.values[2])
    kept.require_clean()


def test_clean_empty_results():
    t = make_corpus(n_bs=2, n_hours=24)
    t.values[:] = math.nan
    with pytest.raises(EmptyCorpus):
        clean(t)
    with pytest.raises(EmptyCorpus):
        clean(TrafficMatrix(bs_ids=[], values=np.empty((0, 6)), start_hour=0))


def test_corpus_to_csv_sorted_by_station_then_hour():
    t = TrafficMatrix(
        bs_ids=["b", "a"],
        values=np.array([[1.0, 2.0], [3.0, 4.0]]),
        start_hour=7,
    )
    lines = corpus_to_csv(t).splitlines()
    assert lines[0] == "bs_id,hour,volume"
    assert lines[1:] == ["a,7,3.0", "a,8,4.0", "b,7,1.0", "b,8,2.0"]


def test_save_corpus_atomic_no_leftovers(tmp_path):
    t = make_corpus(n_bs=2, n_hours=24)
    path = tmp_path / "c.csv"
    save_corpus(t, str(path))
    save_corpus(t, str(path))  # overwrite fine
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.csv", "c.csv.matrix"]
