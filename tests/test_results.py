"""The README's Results: why br's recursive forecasts trail its one-step ones.

On the paper-size corpus the generator's day factor is a random walk, so
br's recursive error grows with the horizon; without that walk br
recursive scores as seasonal naive does. Seasonal naive is an `sa` model
with no AR or MA term and zero intercepts.
"""

import numpy as np

from blockreg import (
    SaCoefficients,
    SaModel,
    evaluate,
    forecast_fleet,
    load_model,
    nrmse,
    save_model,
    train_block_regression,
)

from conftest import make_corpus


def per_day_nrmse(model, t) -> list[float]:
    """Average NRMSE of each day of the recursive test horizon (240..335)."""
    fs = forecast_fleet(model, t, 240, 96, "recursive")
    days = []
    for d in range(4):
        day = slice(24 * d, 24 * (d + 1))
        actual, forecast = fs.actual[:, day], fs.forecast[:, day]
        scored = actual.mean(axis=1) > 0
        days.append(float(nrmse(actual[scored], forecast[scored], rows=True).mean()))
    return days


def seasonal_naive(t, tmp_path) -> SaModel:
    zero = SaCoefficients(phi=np.zeros(0), psi=np.zeros(0), intercept=0.0, sigma2=1.0)
    model = SaModel({bs: zero for bs in t.bs_ids}, seasonality=24, ar_order=0, ma_order=0)
    save_model(model, str(tmp_path / "naive.json"))
    return load_model(str(tmp_path / "naive.json"))


def test_br_recursive_error_grows_day_by_day():
    t = make_corpus(n_bs=200, seed=1)
    model, _ = train_block_regression(t, m=24, w=3, train_hours=240)
    days = per_day_nrmse(model, t)
    assert all(a < b for a, b in zip(days, days[1:])), days


def test_br_recursive_matches_seasonal_naive_without_the_day_walk(tmp_path):
    t = make_corpus(n_bs=200, seed=1, day_intensity_std=0.0)
    model, _ = train_block_regression(t, m=24, w=3, train_hours=240)
    br = evaluate(model, t, mode="recursive").average
    naive = evaluate(seasonal_naive(t, tmp_path), t, mode="recursive").average
    assert abs(br / naive - 1) < 0.05, (br, naive)
