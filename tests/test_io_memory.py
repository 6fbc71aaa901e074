"""Corpus I/O, generation, cleaning and SA forecasts hold about the matrix.

Each I/O bound is the matrix bytes plus a fixed number of ``CHUNK_BYTES``,
measured with ``tracemalloc`` as the peak above what was allocated before
the call. The corpus writer holds at most 512 hours of one station's rows
at a time, and the forecast writer one station block. The parser holds
one chunk at a time, as lines, rows and fields, and each short Python
string takes several times its characters, hence its larger slack; a load
through the sidecar holds the matrix and one digest read. The
CSV text of these matrices is over three times the matrix, so building it
whole breaks every bound. The other bounds are multiples of the matrix.
"""

import tracemalloc

import numpy as np
import pytest

from blockreg import SynthConfig, clean, load_corpus, save_corpus, synthesize
from blockreg.baselines import forecast_sa, train_sa
from blockreg.cli import _forecast_csv
from blockreg.corpus import CHUNK_BYTES, TrafficMatrix
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
def test_save_and_load_corpus_bounded(tmp_path, n_bs, n_hours):
    t = synthesize(SynthConfig(n_bs=n_bs, n_hours=n_hours, seed=3))
    path = tmp_path / "c.csv"
    _, peak = traced_peak(save_corpus, t, str(path))
    assert path.stat().st_size > 3 * t.values.nbytes
    assert peak < t.values.nbytes + WRITE_SLACK
    back, peak = traced_peak(load_corpus, str(path))  # through the sidecar
    assert np.array_equal(back.values, t.values)
    assert peak < t.values.nbytes + READ_SLACK
    path.with_name("c.csv.matrix").unlink()
    back, peak = traced_peak(load_corpus, str(path))  # through the parser
    assert np.array_equal(back.values, t.values)
    assert peak < t.values.nbytes + READ_SLACK


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
    cfg = SynthConfig(n_bs=2000, n_hours=336)
    t, peak = traced_peak(synthesize, cfg)
    assert peak < 3 * t.values.nbytes


def test_clean_bounded():
    t = synthesize(SynthConfig(n_bs=2000, n_hours=336))
    values = t.values.copy()
    values[::3, 5] = np.nan
    kept, peak = traced_peak(clean, TrafficMatrix(t.bs_ids, values))
    assert kept.n_bs == 1333
    assert peak < 1.2 * kept.values.nbytes
