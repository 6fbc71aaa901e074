"""Per-station forecast loops, kept as the reference for the fleet forecasts.

These are the one-station, one-hour-at-a-time implementations that
``forecast_horizon`` and ``forecast_sa`` replaced. They take a station id
and return that station's k forecasts as a 1-D array; validation is left to
the fleet functions. `one_step_loop` is the fleet's one_step loop over the
hours that ``forecast_horizon`` ran before it scored a block of stations
through the feature pipeline. `forecast_csv` is the reference for the
forecast CSV that the `forecast` command writes.
"""

from itertools import repeat

import numpy as np

from blockreg import forecast_one
from sa_oracle import station


def block_forecast_one(model, history):
    """Forecast the hour after a 1-D ``history`` with scalar arithmetic."""
    m, w = model.seasonality_m, model.window_w
    hist = np.asarray(history, dtype=float)[-(m + w):]
    lags = hist[m:m + w] - hist[:w] if m > 0 else hist[-w:]
    xhat = (lags - model.stats.mu_x) / model.stats.sigma_x
    z = model.theta0 + float(model.theta @ xhat)
    value = model.stats.mu_y + z * model.stats.sigma_y
    if m > 0:
        value += float(hist[w])
    return float(value)


def block_forecast(model, t, bs, start, k, mode):
    """One station's br/lr forecasts for k hours from column ``start``."""
    need = model.seasonality_m + model.window_w
    series = t.values[t.bs_ids.index(bs)]
    forecast = np.empty(k)
    if mode == "one_step":
        for j in range(k):
            l = start + j
            forecast[j] = block_forecast_one(model, series[l - need:l])
    else:
        working = series[:start].astype(float).copy()
        for j in range(k):
            value = block_forecast_one(model, working[-need:])
            forecast[j] = value
            working = np.append(working, value)
    return forecast


def sa_forecast(model, t, bs, start, k, mode):
    """One station's ARMA forecasts for k hours from column ``start``."""
    coef = station(model, bs)
    s, ar, ma = model.seasonality, model.ar_order, model.ma_order
    series = t.values[t.bs_ids.index(bs)].astype(float)
    base = start - s  # index of the first horizon hour on the differenced scale
    nz = base + k
    z = np.zeros(nz)
    e = np.zeros(nz)
    limit = min(nz, t.n_hours - s) if mode == "one_step" else min(nz, base)
    z[:limit] = series[s:s + limit] - series[:limit]

    working = series[:start].copy()
    forecast = np.empty(k)
    for tt in range(ar, nz):
        zhat = coef.intercept
        for j in range(1, ar + 1):
            zhat += coef.phi[j - 1] * z[tt - j]
        for j in range(1, ma + 1):
            if tt - j >= 0:
                zhat += coef.psi[j - 1] * e[tt - j]
        if tt < base:
            e[tt] = z[tt] - zhat
            continue
        step = tt - base
        if mode == "one_step":
            e[tt] = z[tt] - zhat
            prior = series[start + step - s]
        else:
            z[tt] = zhat
            e[tt] = 0.0
            prior = working[start + step - s]
        value = zhat + float(prior)
        forecast[step] = value
        if mode == "recursive":
            working = np.append(working, value)
    return forecast


def fleet_forecast_one(model, history):
    """The fleet forecast for the hour after an (n, L) ``history``, with
    the subtraction and the division each making an (n, w) array."""
    m, w = model.seasonality_m, model.window_w
    hist = np.asarray(history, dtype=float)[..., -(m + w):]
    lags = hist[..., m:m + w] - hist[..., :w] if m > 0 else hist[..., -w:]
    xhat = np.subtract(lags, model.stats.mu_x, order="C") / model.stats.sigma_x
    z = model.theta0 + np.einsum("...j,j->...", xhat, model.theta)
    value = model.stats.mu_y + z * model.stats.sigma_y
    if m > 0:
        value = value + hist[..., w]
    return value


def fleet_forecast(model, t, start, k, mode):
    """Every station's br/lr forecasts for k hours from column ``start``,
    one `fleet_forecast_one` per hour, as an (n, k) array."""
    need = model.seasonality_m + model.window_w
    if mode == "one_step":
        working = t.values[:, start - need:start + k]
    else:
        working = np.empty((t.n_bs, need + k))
        working[:, :need] = t.values[:, start - need:start]
    forecast = np.empty((t.n_bs, k))
    for j in range(k):
        forecast[:, j] = fleet_forecast_one(model, working[:, j:j + need])
        if mode == "recursive":
            working[:, need + j] = forecast[:, j]
    return forecast


def one_step_loop(model, t, start, k):
    """Every station's one_step br/lr forecasts for k hours from column
    ``start``, one `forecast_one` per hour over a read-only view of the
    corpus, as an (n, k) array."""
    need = model.seasonality_m + model.window_w
    working = t.values[:, start - need:start + k]
    working.flags.writeable = False
    forecast = np.empty((t.n_bs, k))
    for j in range(k):
        forecast[:, j] = forecast_one(model, working[:, j:j + need])
    return forecast


def forecast_csv(fs):
    """The forecast CSV of a `ForecastSeries`: the header line, then one
    block of lines per station, each actual written by ``repr``."""
    yield "bs_id,hour,actual,forecast,mode\n"
    hours = list(map(str, fs.hours.tolist()))
    for i, bs in enumerate(fs.bs_ids):
        actual = repeat("") if fs.actual is None else map(repr, fs.actual[i].tolist())
        forecast = map(repr, fs.forecast[i].tolist())
        rows = zip(repeat(bs), hours, actual, forecast, repeat(fs.mode))
        yield "\n".join(map(",".join, rows)) + "\n"
