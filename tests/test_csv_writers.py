"""The corpus and forecast CSV writers against their row-at-a-time oracles.

`corpus_to_csv` renders each piece of a station's lines through one bytes
format whose bs_id field is filled in by a replace, every "%" of the id
doubled; `cli._forecast_csv` makes each station's copied or rendered lines
the format of its forecast texts, doubling every "%" too. Both must give,
byte for byte, what `corpus_oracle.corpus_to_csv` and
`forecast_oracle.forecast_csv` write with ``repr`` and string joins: for
any id the schema holds, ids with "%" or a NUL among them, any float, any
start hour, and stations that span several pieces.
"""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import blockreg.corpus
import blockreg.sidecar
from blockreg import TrafficMatrix, corpus_to_csv, save_corpus
from blockreg.cli import _forecast_csv
from blockreg.corpus import CHUNK_BYTES, station_lines
from blockreg.forecaster import MODES, ForecastSeries

import corpus_oracle
from forecast_oracle import forecast_csv
from test_corpus_io import bs_ids

# Ids that a format would read as conversions, or that test the placeholder
# and the encoding of the bs_id field.
ODD_IDS = ["%", "%%", "%s", "%d", "%b%", "\0", "a\0b", "é", "ü%s", "日本", "%\0"]
ids = bs_ids | st.sampled_from(ODD_IDS)
# NaN, signed zeros, subnormals, and magnitudes on both sides of the range
# where orjson's notation is that of repr.
ODD_VOLUMES = [np.nan, 0.0, -0.0, 5e-324, -2.5e-320, 1e-5, -9.9e-5, 1e-4, 1e16,
               -1e16, 9.999999999999998e15, 1e300, 0.1, 2.0]
# One hour a piece, two, three, and the default.
CHUNKS = [128, 256, 384, CHUNK_BYTES]


@st.composite
def corpora(draw, volumes):
    """A corpus of 1-5 stations and 1-8 hours, its ids sorted."""
    names = sorted(draw(st.lists(ids, min_size=1, max_size=5, unique=True)))
    n_hours = draw(st.integers(1, 8))
    values = draw(st.lists(volumes | st.sampled_from(ODD_VOLUMES),
                           min_size=len(names) * n_hours, max_size=len(names) * n_hours))
    start = draw(st.integers(0, 50) | st.just(2**63 - n_hours)
                 | st.integers(0, 2**63 - n_hours))
    return TrafficMatrix(names, np.array(values, dtype=float).reshape(len(names), -1), start)


@settings(max_examples=300, deadline=None)
@given(corpora(st.floats(allow_infinity=False)), st.sampled_from(CHUNKS))
@example(TrafficMatrix(["%s", "a%d", "b%%", "dé"], np.array([[1.0, np.nan]] * 4), 7),
         128)
def test_corpus_to_csv_matches_the_oracle(t, chunk_bytes):
    shuffled = TrafficMatrix(t.bs_ids[::-1], t.values[::-1], t.start_hour)
    with mock.patch.object(blockreg.corpus, "CHUNK_BYTES", chunk_bytes):
        assert corpus_to_csv(shuffled) == corpus_oracle.corpus_to_csv(shuffled)


@settings(max_examples=200, deadline=None)
@given(corpora(st.floats(allow_nan=False, allow_infinity=False)), st.sampled_from(CHUNKS),
       st.sampled_from(["copy", "render", "no_actuals"]), st.sampled_from(MODES),
       st.data())
def test_forecast_csv_matches_the_oracle(tmp_path_factory, t, chunk_bytes, path,
                                         mode, data):
    # A clean corpus: forecast_fleet refuses NaN, and the oracle writes actuals by repr.
    t.values[np.isnan(t.values)] = 1.0
    stations = sorted(data.draw(st.sets(st.integers(0, t.n_bs - 1), min_size=1)))
    lo = data.draw(st.integers(0, t.n_hours - 1))
    hi = data.draw(st.integers(lo + 1, t.n_hours))
    forecast = data.draw(st.lists(st.floats() | st.sampled_from(ODD_VOLUMES),
                                  min_size=len(stations) * (hi - lo),
                                  max_size=len(stations) * (hi - lo)))
    fs = ForecastSeries(
        bs_ids=[t.bs_ids[i] for i in stations],
        hours=t.start_hour + lo + np.arange(hi - lo),  # as forecast_fleet builds them
        forecast=np.array(forecast, dtype=float).reshape(len(stations), -1),
        actual=None if path == "no_actuals" else t.values[stations, lo:hi],
        mode=mode,
    )
    with mock.patch.object(blockreg.corpus, "CHUNK_BYTES", chunk_bytes), \
            mock.patch.object(blockreg.sidecar, "READ_BYTES", chunk_bytes):
        lines = None
        if path == "render":
            lines = station_lines(t, stations, lo, hi)
        elif path == "copy":
            src = str(tmp_path_factory.mktemp("forecast_text") / "c.csv")
            save_corpus(t, src)
            header, values = blockreg.sidecar.read(src)
            loaded = TrafficMatrix(header["bs_ids"], values, header["start_hour"])
            lines = station_lines(loaded, stations, lo, hi, (src, header))
        text = b"".join(p if isinstance(p, bytes) else p.encode()
                        for p in _forecast_csv(fs, lines))
    assert text == "".join(forecast_csv(fs)).encode()
