"""Corpus I/O, generation, cleaning, forecasts and scoring hold about the matrix.

Each I/O bound is the matrix bytes plus a fixed number of ``CHUNK_BYTES``,
measured with ``tracemalloc`` as the peak above what was allocated before
the call. The corpus writer holds at most 512 hours of one station's rows
at a time, or, copying from a source CSV, one read of it and a piece of
a sidecar row; the forecast writer holds one station block. The parser holds
one chunk at a time, as lines, rows and fields, and each short Python
string takes several times its characters, hence its larger slack; a load
through the sidecar holds the matrix and one digest read. The
CSV text of these matrices is over three times the matrix, so building it
whole breaks every bound. The other bounds are multiples of the matrix.
"""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import blockreg.corpus
from blockreg import SynthConfig, clean, load_corpus, save_corpus, synthesize
from blockreg.baselines import forecast_sa, train_sa
from blockreg.cli import _forecast_csv
from blockreg.corpus import CHUNK_BYTES, TrafficMatrix
from blockreg.evaluation import Split, evaluate
from blockreg.forecaster import ForecastSeries, forecast_horizon, train_block_regression
from blockreg.modelio import atomic_write_text

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
        _, peak = traced_peak(save_corpus, back, str(tmp_path / "d.csv"), str(path))
    assert (tmp_path / "d.csv").read_bytes() == path.read_bytes()
    assert peak < t.values.nbytes + WRITE_SLACK
    path.with_name("c.csv.matrix").unlink()
    back, peak = traced_peak(load_corpus, str(path))  # through the parser
    assert np.array_equal(back.values, t.values)
    assert peak < t.values.nbytes + READ_SLACK


def test_save_corpus_builds_no_mask_of_the_matrix(tmp_path):
    # An infinity check through np.isinf(values) would take one byte per entry.
    t = synthesize(SynthConfig(n_bs=2000, n_hours=336, seed=3))
    _, peak = traced_peak(save_corpus, t, str(tmp_path / "c.csv"))
    assert peak < t.values.size


# A child's ru_maxrss counts the memory of the process it was forked
# from, so each command is started by this small launcher, not by pytest.
LAUNCHER = (
    "import os, subprocess, sys\n"
    "child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
    "_, status, usage = os.wait4(child.pid, 0)\n"
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
)


def test_clean_peaks_below_synth(tmp_path):
    # clean holds the loaded corpus and its kept rows, two matrices; synth
    # holds one matrix and one noise block, but imports numpy.random. At
    # the benchmark's wide size clean must stay clear of synth, so that its
    # second matrix does not set the benchmark's peak RSS.
    (tmp_path / "cfg.json").write_text('{"n_bs": 2000}')
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    peaks = []
    for argv in (("synth", "--config", "cfg.json", "--output", "raw.csv"),
                 ("clean", "--input", "raw.csv", "--output", "c.csv")):
        r = subprocess.run(
            [sys.executable, "-c", LAUNCHER, sys.executable, "-m", "blockreg", *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True, check=True)
        code, kib = map(int, r.stdout.split())
        assert code == 0, argv
        peaks.append(kib * 1024)  # ru_maxrss is in KiB on Linux
    synth_peak, clean_peak = peaks
    assert clean_peak < synth_peak - 2**20


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
    path = tmp_path / "fc.csv"
    _, peak = traced_peak(atomic_write_text, str(path), _forecast_csv(fs))
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
    t = synthesize(SynthConfig(n_bs=300, n_hours=336, seed=3))
    sa = train_sa(t)
    br, _ = train_block_regression(t, m=24, w=3, train_hours=240)
    for forecast, model in ((forecast_sa, sa), (forecast_horizon, br)):
        fs, peak = traced_peak(forecast, model, t, 240, 96, "one_step")
        assert fs.forecast.shape == (300, 96)
        assert peak < 0.8 * t.values.nbytes, forecast.__name__
    assert t.values.flags.writeable


def test_synthesize_bounded():
    # The matrix and one block of noise rows, never a second matrix.
    cfg = SynthConfig(n_bs=2000, n_hours=336)
    t, peak = traced_peak(synthesize, cfg)
    assert peak < 1.8 * t.values.nbytes


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
    t, models = scored
    report, peak = traced_peak(evaluate, models[kind], t, Split(), mode)
    assert len(report.per_bs) == 300
    assert peak < bound * t.values.nbytes


def test_clean_bounded():
    t = synthesize(SynthConfig(n_bs=2000, n_hours=336))
    values = t.values.copy()
    values[::3, 5] = np.nan
    kept, peak = traced_peak(clean, TrafficMatrix(t.bs_ids, values))
    assert kept.n_bs == 1333
    assert peak < 1.2 * kept.values.nbytes
