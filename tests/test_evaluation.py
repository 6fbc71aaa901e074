"""NRMSE scoring, report assembly, and the seasonality sweep."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockreg import (
    Split,
    evaluate,
    forecast_fleet,
    histogram,
    nrmse,
    report_csv,
    report_doc,
    sweep_csv,
    sweep_doc,
    sweep_seasonality,
    train_block_regression,
    train_lr,
    train_sa,
)
from blockreg.errors import (
    InvalidConfig,
    LengthMismatch,
    Overflow,
    UncleanCorpus,
    ZeroMeanActual,
)

from conftest import make_corpus
from sa_oracle import without


def test_nrmse_perfect_forecast():
    a = np.array([3.0, 5.0, 7.0])
    assert nrmse(a, a.copy()) == 0.0


def test_nrmse_arithmetic_case():
    # rmse = 1, mean = 2
    assert nrmse(np.array([2.0, 2.0]), np.array([1.0, 3.0])) == pytest.approx(0.5)


def test_nrmse_scale_invariance(rng):
    a = rng.uniform(1.0, 10.0, 50)
    f = a + rng.normal(0, 0.5, 50)
    base = nrmse(a, f)
    for c in (1e-6, 3.7, 1e6):
        assert abs(nrmse(c * a, c * f) - base) <= 1e-12 * max(1.0, base)


def test_nrmse_errors():
    with pytest.raises(LengthMismatch):
        nrmse(np.zeros(3), np.zeros(4))
    with pytest.raises(LengthMismatch):
        nrmse(np.zeros(0), np.zeros(0))
    with pytest.raises(ZeroMeanActual):
        nrmse(np.array([-1.0, 1.0]), np.array([0.0, 0.0]))


def scores_oracle(fs) -> tuple[dict[str, float], int]:
    """Per-station loop that `evaluate` replaced: scores and zero-mean count."""
    per_bs, zero_mean = {}, 0
    for bs, actual, forecast in zip(fs.bs_ids, fs.actual, fs.forecast):
        try:
            per_bs[bs] = nrmse(actual, forecast)
        except ZeroMeanActual:
            zero_mean += 1
    return per_bs, zero_mean


def row_pairs(k: int):
    """1 to 5 rows of k (actual, forecast) values; k > 128 takes numpy's
    blocked summation."""
    row = st.lists(st.floats(-1e6, 1e6), min_size=k, max_size=k)
    return st.lists(st.tuples(row, row), min_size=1, max_size=5)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 300).flatmap(row_pairs))
def test_nrmse_rows_match_one_row_at_a_time(rows):
    actual = np.array([a for a, _ in rows])
    forecast = np.array([f for _, f in rows])
    if not all(np.mean(a) != 0.0 for a in actual):
        with pytest.raises(ZeroMeanActual):
            nrmse(actual, forecast)
        return
    try:
        expected = [nrmse(a, f) for a, f in zip(actual, forecast)]
    except Overflow:
        with pytest.raises(Overflow):
            nrmse(actual, forecast)
        return
    # Bit for bit, also on a strided view of a wider matrix.
    wide = np.zeros((len(rows), 2 * actual.shape[1]))
    wide[:, 1::2] = actual
    for a in (actual, wide[:, 1::2]):
        assert nrmse(a, forecast).tolist() == expected


def test_nrmse_rows_errors():
    # Only 1-D and 2-D arrays with a non-empty last axis are scored.
    for shape in ((), (2, 2, 3), (2, 0)):
        with pytest.raises(LengthMismatch):
            nrmse(np.ones(shape), np.ones(shape))
    with pytest.raises(Overflow, match="NRMSE is inf"), np.errstate(over="ignore"):
        nrmse(np.ones((2, 2)), np.array([[1.0, 1.0], [1e300, -1e300]]))


@pytest.mark.parametrize("mode", ["one_step", "recursive"])
@pytest.mark.parametrize("kind", ["br", "lr", "sa"])
def test_evaluate_scores_match_per_station_loop(kind, mode):
    t = make_corpus(n_bs=12)
    t.values[[3, 7], 240:] = 0.0  # silent stations in the test window
    if kind == "sa":
        model = without(train_sa(t, train_hours=240), [t.bs_ids[0]])
        model.failed_bs.append(t.bs_ids[0])
    else:
        model, _ = train_block_regression(
            t, m=0 if kind == "lr" else 24, w=72 if kind == "lr" else 3,
            train_hours=240)
    report = evaluate(model, t, mode=mode)
    per_bs, zero_mean = scores_oracle(forecast_fleet(model, t, 240, 96, mode))
    assert list(report.per_bs.items()) == list(per_bs.items())
    assert report.excluded_count == zero_mean + (kind == "sa") == 2 + (kind == "sa")
    assert report.average == float(np.mean(list(per_bs.values())))


def test_histogram_bins():
    bins = histogram([0.0, 0.05, 0.1, 0.15, 0.95, 1.0, 2.5])
    assert len(bins) == 11
    assert [b.count for b in bins] == [2, 2, 0, 0, 0, 0, 0, 0, 0, 1, 2]
    assert bins[0].lower == 0.0 and bins[0].upper == 0.1
    assert bins[10].lower == 1.0 and bins[10].upper is None
    assert sum(b.count for b in bins) == 7


def test_histogram_boundary_placement():
    # representable boundaries must land in the right-hand bin
    for k in range(1, 10):
        bins = histogram([k / 10])
        assert bins[k].count == 1, f"boundary {k / 10}"


def test_histogram_empty():
    assert sum(b.count for b in histogram([])) == 0


@pytest.mark.parametrize("bad", [-0.5, float("nan")], ids=["negative", "nan"])
def test_histogram_rejects_negative_and_nan(bad):
    with pytest.raises(InvalidConfig, match=f"got {bad!r}$"):
        histogram([0.3, bad, -2.0])


def eval_setup(n_bs=10):
    t = make_corpus(n_bs=n_bs)
    model, _ = train_block_regression(t, m=24, w=3, train_hours=240)
    return t, model


def test_evaluate_report_contents():
    t, model = eval_setup()
    report = evaluate(model, t, seed=5)
    assert set(report.per_bs) == set(t.bs_ids)
    assert report.average == pytest.approx(
        float(np.mean(list(report.per_bs.values())))
    )
    assert report.excluded_count == 0
    assert report.config == {
        "kind": "br", "m": 24, "w": 3,
        "train_hours": 240, "test_hours": 96,
        "mode": "one_step", "seed": 5,
    }
    assert sum(b.count for b in report.histogram) == t.n_bs


def test_evaluate_zero_mean_station_excluded():
    t, model = eval_setup()
    t.values[4, 240:] = 0.0  # silent station in the test window
    report = evaluate(model, t)
    assert report.excluded_count == 1
    assert t.bs_ids[4] not in report.per_bs
    assert len(report.per_bs) == t.n_bs - 1


def test_evaluate_negative_mean_station_excluded():
    # Finite negative volumes pass require_clean. Scored, such a station
    # would get a negative NRMSE, lower the average and fall in the open bin.
    t = make_corpus(n_bs=5)
    t.values[0] *= -1.0
    model, _ = train_block_regression(t, m=24, w=3, train_hours=240)
    report = evaluate(model, t)
    assert t.bs_ids[0] not in report.per_bs
    assert report.excluded_count == 1
    assert sum(b.count for b in report.histogram) == len(report.per_bs) == 4
    assert min(report.per_bs.values()) > 0


def test_evaluate_sa_failed_stations_counted():
    t = make_corpus(n_bs=6)
    model = without(train_sa(t, train_hours=240), [t.bs_ids[0]])
    model.failed_bs.append(t.bs_ids[0])
    report = evaluate(model, t)
    assert report.excluded_count == 1
    assert t.bs_ids[0] not in report.per_bs
    assert report.config["kind"] == "sa"
    assert report.config["seasonality"] == 24


def test_evaluate_rejects_unclean():
    t, model = eval_setup(n_bs=4)
    t.values[0, 0] = np.nan
    with pytest.raises(UncleanCorpus):
        evaluate(model, t)


TRAINERS = {
    "br": lambda t: train_block_regression(t, m=24, w=3, train_hours=240)[0],
    "lr": lambda t: train_lr(t, train_hours=240),
    "sa": lambda t: train_sa(t, train_hours=240),
}


@pytest.mark.parametrize("hour", [230, 250], ids=["history", "horizon"])
@pytest.mark.parametrize("mode", ["one_step", "recursive"])
@pytest.mark.parametrize("kind", sorted(TRAINERS))
def test_forecast_fleet_rejects_unclean(kind, mode, hour):
    t = make_corpus(n_bs=5)
    model = TRAINERS[kind](t)
    t.values[2, hour] = np.nan
    with pytest.raises(UncleanCorpus):
        forecast_fleet(model, t, 240, 96, mode)


def test_evaluate_validation():
    t, model = eval_setup(n_bs=4)
    with pytest.raises(InvalidConfig):
        evaluate(model, t, mode="sideways")
    with pytest.raises(InvalidConfig):
        evaluate(model, t, split=Split(train_hours=300, test_hours=96))
    with pytest.raises(InvalidConfig):
        evaluate(model, t, split=Split(train_hours=0, test_hours=10))
    with pytest.raises(InvalidConfig):
        evaluate("not a model", t)


def test_split_validate():
    Split(240, 96).validate(336)
    with pytest.raises(InvalidConfig):
        Split(241, 96).validate(336)
    with pytest.raises(InvalidConfig):
        Split(240, 0).validate(336)


def test_sweep_grid_validation(small_corpus):
    with pytest.raises(InvalidConfig):
        sweep_seasonality(small_corpus, [])
    with pytest.raises(InvalidConfig):
        sweep_seasonality(small_corpus, [24, 24])
    with pytest.raises(InvalidConfig):
        sweep_seasonality(small_corpus, [48, 24])
    with pytest.raises(InvalidConfig):
        sweep_seasonality(small_corpus, [0, 24])


@pytest.mark.parametrize("kw", [
    {"w": 0},
    {"mode": "bogus"},
    {"split": Split(240, 0)},
    {"split": Split(400, 96)},
])
def test_sweep_checks_settings_before_any_lag(small_corpus, kw):
    # These fail at every lag, so they are the caller's error, not points.
    with pytest.raises(InvalidConfig):
        sweep_seasonality(small_corpus, [24, 48], **kw)


def test_sweep_scores_each_lag():
    t = make_corpus(n_bs=8)
    result = sweep_seasonality(t, [12, 24, 48])
    assert [p.seasonality_m for p in result.points] == [12, 24, 48]
    assert all(p.average_nrmse is not None for p in result.points)
    assert result.best_m() == min(
        result.points, key=lambda p: p.average_nrmse
    ).seasonality_m


def test_sweep_failed_point_recorded():
    t = make_corpus(n_bs=5)
    # m=238 leaves 2 differenced columns in a 240-hour window, too few for w=3
    result = sweep_seasonality(t, [24, 238])
    good, bad = result.points
    assert good.average_nrmse is not None and good.error is None
    assert bad.average_nrmse is None
    assert "WindowTooLarge" in bad.error
    assert result.best_m() == 24


def test_report_doc_layout():
    t, model = eval_setup(n_bs=5)
    doc = report_doc(evaluate(model, t))
    assert list(doc) == ["config", "average", "excluded_count", "per_bs",
                         "histogram"]
    assert list(doc["per_bs"]) == sorted(doc["per_bs"])
    assert len(doc["histogram"]) == 11
    assert doc["histogram"][10]["upper"] is None


def test_report_csv_round_trip():
    t, model = eval_setup(n_bs=5)
    report = evaluate(model, t)
    lines = report_csv(report).splitlines()
    assert lines[0] == "bs_id,nrmse"
    assert len(lines) == 6
    bs, value = lines[1].split(",")
    assert float(value) == report.per_bs[bs]


def test_sweep_doc_and_csv():
    t = make_corpus(n_bs=5)
    result = sweep_seasonality(t, [24, 238])
    docs = sweep_doc(result)
    assert set(docs[0]) == {"m", "average_nrmse"}  # no error key when clean
    assert "error" in docs[1] and docs[1]["average_nrmse"] is None
    lines = sweep_csv(result).splitlines()
    assert lines[0] == "m,average_nrmse"
    assert lines[2] == "238,"
