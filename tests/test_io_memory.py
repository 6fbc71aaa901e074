"""Corpus I/O, generation, cleaning, forecasts and scoring hold about the matrix.

Each I/O bound is the matrix bytes plus a fixed number of ``CHUNK_BYTES``,
measured with ``tracemalloc`` as the peak above what was allocated before
the call. The corpus writer holds at most 512 hours of one station's rows
at a time; `clean_file` holds the read and the cleaned matrix (the read
itself when no station is dropped) and, copying from its source CSV, one
read of it; the forecast writer holds one station block, and `forecast`,
copying the actuals from the CSV, the matrix, the forecasts and one read.
The parser holds one chunk at a time, as lines, rows and fields, and each
short Python string takes several times its characters,
hence its larger slack; a load through the sidecar holds the matrix and
one digest read. The CSV text of these matrices is over three times the
matrix, so building it whole breaks every bound. The other bounds are
multiples of the matrix.
"""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import blockreg.cli
import blockreg.corpus
from blockreg import (
    SynthConfig,
    clean,
    fit_normalization,
    load_corpus,
    pipeline,
    save_corpus,
    sidecar,
    synthesize,
)
from blockreg.baselines import forecast_sa, train_sa
from blockreg.cli import _forecast_csv
from blockreg.corpus import CHUNK_BYTES, TrafficMatrix, clean_file, station_lines
from blockreg.evaluation import Split, evaluate
from blockreg.forecaster import ForecastSeries, forecast_horizon, train_block_regression
from blockreg.cli import main
from blockreg.modelio import atomic_write_text, save_model
from blockreg.pipeline import DifferencedMatrix
from flow_diff import LAUNCHER

READ_SLACK = 16 * CHUNK_BYTES
WRITE_SLACK = 4 * CHUNK_BYTES


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak bytes it allocated above those before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return result, peak


# Many short station blocks, and blocks longer than many chunks.
@pytest.mark.parametrize("n_bs, n_hours", [(300, 336), (3000, 24), (4, 20000)])
def test_save_and_load_corpus_bounded(tmp_path, monkeypatch, n_bs, n_hours):
    t = synthesize(SynthConfig(n_bs=n_bs, n_hours=n_hours, seed=3))
    path = tmp_path / "c.csv"
    _, peak = traced_peak(save_corpus, t, str(path))
    assert path.stat().st_size > 3 * t.values.nbytes
    assert peak < t.values.nbytes + WRITE_SLACK
    back, peak = traced_peak(load_corpus, str(path))  # through the sidecar
    assert np.array_equal(back.values, t.values)
    assert peak < t.values.nbytes + READ_SLACK
    with monkeypatch.context() as patch:
        patch.setattr(blockreg.corpus, "_csv_piece", None)  # copy, never render
        _, peak = traced_peak(clean_file, str(path), str(tmp_path / "d.csv"))
    assert (tmp_path / "d.csv").read_bytes() == path.read_bytes()
    # A read through the sidecar, the kept rows that clean makes of it (here
    # the read itself: every station is kept), and one read of the CSV.
    assert peak < 2 * t.values.nbytes + 2 * sidecar.READ_BYTES + READ_SLACK
    path.with_name("c.csv.matrix").unlink()
    back, peak = traced_peak(load_corpus, str(path))  # through the parser
    assert np.array_equal(back.values, t.values)
    assert peak < t.values.nbytes + READ_SLACK


def test_clean_keeping_every_station_holds_the_matrix_and_a_read(tmp_path):
    # The sidecar's matrix, which the cleaned corpus shares, and one read of
    # the source CSV, copied as it is: no second matrix, no newline mask.
    t = synthesize(SynthConfig(n_bs=2000, n_hours=336, seed=3))
    path = tmp_path / "c.csv"
    save_corpus(t, str(path))
    (raw, kept), peak = traced_peak(clean_file, str(path), str(tmp_path / "d.csv"))
    assert kept.n_bs == raw.n_bs
    assert (tmp_path / "d.csv").read_bytes() == path.read_bytes()
    assert peak < t.values.nbytes + 2 * sidecar.READ_BYTES + READ_SLACK


@pytest.mark.parametrize("step", ["load_corpus", "clean_file"])
def test_stale_sidecar_parses_without_its_matrix(tmp_path, step):
    # The CSV changed after its sidecar was written, so the sidecar's matrix,
    # read first, fails the digest pass and the CSV is parsed. The parse
    # must not run while the sidecar's matrix is still held: that would be a
    # second matrix (about 2.4x the matrix).
    t = synthesize(SynthConfig(n_bs=1000, n_hours=336, seed=3))
    path = tmp_path / "c.csv"
    save_corpus(t, str(path))
    data = bytearray(path.read_bytes())
    data[-2] = ord("1") if data[-2] != ord("1") else ord("2")  # a digit of the last volume
    path.write_bytes(bytes(data))
    if step == "load_corpus":
        back, peak = traced_peak(load_corpus, str(path))
    else:
        (back, _), peak = traced_peak(clean_file, str(path), str(tmp_path / "d.csv"))
        assert (tmp_path / "d.csv").read_bytes() == bytes(data)
    assert back.values[-1, -1] != t.values[-1, -1]  # the parse, not the sidecar
    assert peak < 1.6 * t.values.nbytes


def test_save_corpus_builds_no_mask_of_the_matrix(tmp_path):
    # An infinity check through np.isinf(values) would take one byte per entry.
    t = synthesize(SynthConfig(n_bs=2000, n_hours=336, seed=3))
    _, peak = traced_peak(save_corpus, t, str(tmp_path / "c.csv"))
    assert peak < t.values.size


def peak_rss(cwd, *argv) -> int:
    """The own peak RSS in bytes of ``python *argv``, which must exit 0.

    A child's ru_maxrss counts the memory of the process it was forked
    from, so the command is started by a small launcher, not by pytest.
    """
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    r = subprocess.run([sys.executable, "-c", LAUNCHER, sys.executable, *argv],
                       cwd=cwd, env=env, capture_output=True, text=True, check=True)
    code, kib = map(int, r.stdout.split())
    assert code == 0, argv
    return kib * 1024  # ru_maxrss is in KiB on Linux


def test_clean_peaks_below_synth(tmp_path):
    # clean of a corpus with no bad station holds the loaded matrix only, as
    # its result shares it; synth holds one matrix and one noise block, and
    # imports numpy.random (without OpenSSL). At the benchmark's wide size
    # clean must stay clear of synth, so that clean does not set the
    # benchmark's peak RSS.
    (tmp_path / "cfg.json").write_text('{"n_bs": 2000}')
    synth_peak = peak_rss(tmp_path, "-m", "blockreg", "synth", "--config", "cfg.json",
                          "--output", "raw.csv")
    clean_peak = peak_rss(tmp_path, "-m", "blockreg", "clean", "--input", "raw.csv",
                          "--output", "c.csv")
    assert clean_peak < synth_peak - 2**20


def test_synth_without_openssl_peaks_lower(tmp_path):
    # synth imports numpy.random with _hashlib marked absent, so OpenSSL's
    # libcrypto (about 3 MB) is never loaded; a process that holds it
    # already, here through hashlib, runs synth as before. Both write the
    # same bytes.
    peaks = {}
    for name, first in (("fresh", ""), ("openssl", "import hashlib\n")):
        code = first + "from blockreg.cli import run\nrun()\n"
        peaks[name] = peak_rss(tmp_path, "-c", code, "synth", "--seed", "1",
                               "--output", f"{name}.csv")
    for suffix in (".csv", ".csv.matrix"):
        fresh = (tmp_path / f"fresh{suffix}").read_bytes()
        assert fresh == (tmp_path / f"openssl{suffix}").read_bytes()
    assert peaks["fresh"] < peaks["openssl"] - 2 * 2**20


def test_forecast_csv_write_bounded(tmp_path):
    rng = np.random.default_rng(0)
    n, k = 300, 168
    fs = ForecastSeries(
        bs_ids=[f"bs_{i:04d}" for i in range(n)],
        hours=np.arange(240, 240 + k),
        forecast=rng.lognormal(size=(n, k)),
        actual=rng.lognormal(size=(n, k)),
        mode="recursive",
    )
    # The actuals rendered as the corpus CSV writes them, one station at a time.
    lines = station_lines(TrafficMatrix(fs.bs_ids, fs.actual, 240), range(n), 0, k)
    path = tmp_path / "fc.csv"
    _, peak = traced_peak(atomic_write_text, str(path), _forecast_csv(fs, lines))
    assert path.stat().st_size > 4 * fs.forecast.nbytes
    assert peak < fs.forecast.nbytes + WRITE_SLACK
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + n * k
    last = f"{float(fs.actual[-1, -1])!r},{float(fs.forecast[-1, -1])!r}"
    assert lines[-1] == f"bs_0299,407,{last},recursive"


@pytest.mark.parametrize("mode", ["one_step", "recursive"])
def test_forecast_sa_bounded(mode):
    # One working matrix plus the (n, k) forecasts and actuals: no copy of
    # the corpus when every station is fitted, and no whole-history buffers.
    t = synthesize(SynthConfig(n_bs=300, n_hours=336, seed=3))
    model = train_sa(t)
    assert not model.failed_bs
    fs, peak = traced_peak(forecast_sa, model, t, 240, 96, mode)
    assert fs.forecast.shape == (300, 96)
    assert peak < 2 * t.values.nbytes


def test_one_step_forecasts_do_not_copy_the_corpus():
    # one_step reads the corpus in place: what is left is the (n, k)
    # forecasts and actuals and the per-hour vectors, well under the matrix.
    # br/lr scoring holds a block of windows instead; see the next test.
    t = synthesize(SynthConfig(n_bs=300, n_hours=336, seed=3))
    fs, peak = traced_peak(forecast_sa, train_sa(t), t, 240, 96, "one_step")
    assert fs.forecast.shape == (300, 96)
    assert peak < 0.8 * t.values.nbytes
    assert t.values.flags.writeable


# One one_step block's windows and their normalized copy take at most
# CHUNK_BYTES; with the windows' provenance, the block's difference and its
# forecasts, the block holds under this many bytes.
ONE_STEP_BLOCK = 3 * pipeline.CHUNK_BYTES


@pytest.mark.parametrize("m,w", [(24, 3), (0, 72)], ids=["br", "lr"])
def test_one_step_scoring_holds_one_block(m, w):
    # The (n, k) forecasts and one block of stations' windows: never a copy
    # of the corpus, which here is over three times that.
    t = synthesize(SynthConfig(n_bs=2000, n_hours=1000, seed=3))
    model, _ = train_block_regression(t, m=m, w=w, train_hours=240)
    fs, peak = traced_peak(forecast_horizon, model, t, 240, 96, "one_step")
    bound = fs.forecast.nbytes + ONE_STEP_BLOCK
    assert 3 * bound < t.values.nbytes
    assert peak < bound, f"peak {peak / 2**20:.2f} MiB"
    assert t.values.flags.writeable


def test_synthesize_bounded():
    # The matrix and one block of noise rows, never a second matrix.
    cfg = SynthConfig(n_bs=2000, n_hours=336)
    t, peak = traced_peak(synthesize, cfg)
    assert peak < 1.8 * t.values.nbytes


def test_lr_recursive_horizon_holds_one_feature_array_per_hour():
    # Each hour's (n, w) features are normalized in the one array that the
    # subtraction makes. A second such array, freed with the first, would
    # hand the memory back to the OS, to be faulted in again every hour.
    t = synthesize(SynthConfig(n_bs=2000, n_hours=336, seed=3))
    model, _ = train_block_regression(t, m=0, w=72, train_hours=240)
    fs, peak = traced_peak(forecast_horizon, model, t, 240, 96, "recursive")
    features = t.n_bs * model.window_w * 8
    working = t.n_bs * (model.window_w + 96) * 8
    assert (peak - fs.forecast.nbytes - working) / features < 1.5


@pytest.mark.parametrize("w", [3, 72, 119])
def test_fit_normalization_holds_one_row_block(w):
    # One block of rows in the buffer, numpy's reduction buffer and a few
    # vectors over the columns; a (N, P) temporary of a window column,
    # 2.7 MB at w = 72, breaks the bound.
    d = DifferencedMatrix(0, np.random.default_rng(1).normal(size=(2000, 240)))
    _, peak = traced_peak(fit_normalization, d, w)
    assert peak < pipeline.CHUNK_BYTES + np.getbufsize() * 8 + 16 * d.n_cols * 8


def test_apply_normalization_holds_its_results():
    # Each result is normalized in the array its subtraction makes; a
    # second (n, w) temporary, 1.15 MB here, breaks the bound.
    rng = np.random.default_rng(1)
    f = pipeline.FeatureSet(x=rng.normal(size=(2000, 72)), y=rng.normal(size=2000),
                            provenance=np.zeros((2000, 2), dtype=np.int64), window_w=72)
    s = pipeline.NormalizationStats(rng.normal(size=72), rng.random(72) + 0.5, 0.3, 1.7)
    out, peak = traced_peak(pipeline.apply_normalization, f, s)
    assert np.array_equal(out.x, (f.x - s.mu_x) / s.sigma_x)
    assert np.array_equal(out.y, (f.y - s.mu_y) / s.sigma_y)
    assert peak < f.x.nbytes + f.y.nbytes + CHUNK_BYTES


@pytest.fixture(scope="module")
def scored():
    t = synthesize(SynthConfig(n_bs=300, n_hours=336, seed=3))
    models = {"br": train_block_regression(t, m=24, w=3, train_hours=240)[0],
              "lr": train_block_regression(t, m=0, w=72, train_hours=240)[0],
              "sa": train_sa(t)}
    return t, models


@pytest.mark.parametrize("mode, bound", [("one_step", 0.9), ("recursive", 1.4)])
@pytest.mark.parametrize("kind", ["br", "lr", "sa"])
def test_evaluate_bounded(scored, kind, mode, bound):
    # Scoring reads the test window in place and squares the errors in
    # place; a recursive forecast holds the m + w hours before the horizon
    # and the horizon, not the history. What is left is a few (n, k)
    # arrays, and lr's (n, w) features.
    # br/lr one_step scoring also holds one block of windows.
    t, models = scored
    report, peak = traced_peak(evaluate, models[kind], t, Split(), mode)
    assert len(report.per_bs) == 300
    block = ONE_STEP_BLOCK if kind != "sa" and mode == "one_step" else 0
    assert peak < bound * t.values.nbytes + block


@pytest.mark.parametrize("mode", ["one_step", "recursive"])
@pytest.mark.parametrize("kind", ["br", "lr", "sa"])
def test_forecast_command_bounded(scored, tmp_path, monkeypatch, kind, mode):
    # The sidecar's matrix, the forecasts, and one read of the CSV with its
    # newline mask: never the CSV's text, which is over three times the
    # matrix, nor a second matrix. A recursive horizon also holds its
    # working matrix, the m + w hours before it and the horizon; a br/lr
    # one_step horizon, one block of windows.
    t, models = scored
    corpus, model = str(tmp_path / "c.csv"), str(tmp_path / "model.json")
    save_corpus(t, corpus)
    save_model(models[kind], model)
    monkeypatch.setattr(blockreg.corpus, "_csv_piece", None)  # copy, never render
    argv = ["forecast", "--input", corpus, "--model", model, "--mode", mode,
            "--output", str(tmp_path / "fc.csv")]
    code, peak = traced_peak(main, argv)
    assert code == 0
    forecast = t.n_bs * 96 * 8
    need = {"br": 27, "lr": 72, "sa": 0}[kind] if mode == "recursive" else 0
    working = t.n_bs * (need + 96) * 8 if need else 0
    if kind != "sa" and mode == "one_step":
        working = ONE_STEP_BLOCK
    bound = t.values.nbytes + forecast + working + 2 * sidecar.READ_BYTES + READ_SLACK
    assert peak < bound


def test_clean_keeping_every_station_copies_nothing():
    # The result shares the loaded matrix, and the row check builds no mask.
    t = synthesize(SynthConfig(n_bs=300, n_hours=336, seed=3))
    kept, peak = traced_peak(clean, t)
    assert kept.n_bs == t.n_bs
    assert peak < 0.1 * t.values.nbytes


def test_clean_bounded():
    t = synthesize(SynthConfig(n_bs=2000, n_hours=336))
    values = t.values.copy()
    values[::3, 5] = np.nan
    kept, peak = traced_peak(clean, TrafficMatrix(t.bs_ids, values))
    assert kept.n_bs == 1333
    assert peak < 1.2 * kept.values.nbytes
