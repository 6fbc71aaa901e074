"""Per-base-station hourly traffic matrices: load, clean, synthesize, save.

A corpus is a matrix with one row per base station and one column per hour.
Between loading and cleaning, entries may be missing (NaN) or negative;
every other stage requires a cleaned matrix.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    EmptyCorpus,
    InconsistentHours,
    InvalidConfig,
    ParseError,
    UncleanCorpus,
    UnknownBs,
)

CSV_HEADER = ["bs_id", "hour", "volume"]

# Spread of the per-station lognormal volume scale. Internal constant, not a
# SynthConfig field: it controls how unevenly traffic is distributed over the
# fleet, which the generator keeps fixed.
SCALE_SIGMA = 1.2


@dataclass
class TrafficMatrix:
    """Hourly traffic volumes for a fleet of base stations.

    Attributes
    ----------
    bs_ids : list of str
        Unique station identifiers; row i of ``values`` belongs to
        ``bs_ids[i]``.
    values : ndarray, shape (N, L)
        Traffic volumes. NaN marks a missing record until `clean` runs.
    start_hour : int
        Absolute hour index of column 0.
    """

    bs_ids: list[str]
    values: np.ndarray
    start_hour: int = 0

    @property
    def n_bs(self) -> int:
        return len(self.bs_ids)

    @property
    def n_hours(self) -> int:
        return self.values.shape[1]

    def bs_index(self, bs_id: str) -> int:
        try:
            return self.bs_ids.index(bs_id)
        except ValueError:
            raise UnknownBs(f"base station {bs_id!r} not in corpus") from None

    def require_clean(self) -> None:
        """Raise UncleanCorpus if any entry is missing.

        Only finiteness is required here: the pipeline also ingests
        differenced matrices, whose entries are legitimately negative.
        Negative raw volumes are a data-validity problem and are handled
        by `clean`, not by this gate.
        """
        if not np.all(np.isfinite(self.values)):
            raise UncleanCorpus(
                "corpus contains missing entries; run clean first"
            )


@dataclass(frozen=True)
class SynthConfig:
    """Parameters of the synthetic corpus generator.

    All randomness flows from ``seed``; an identical config yields a
    bit-identical matrix.
    """

    n_bs: int = 200
    n_hours: int = 336
    seed: int = 1
    daily_profile_amplitude: float = 1.5
    day_intensity_std: float = 0.25
    noise_std: float = 0.05
    burst_probability: float = 0.05

    def validate(self) -> None:
        if self.n_bs < 1:
            raise InvalidConfig(f"n_bs must be >= 1, got {self.n_bs}")
        if self.n_hours < 24:
            raise InvalidConfig(f"n_hours must be >= 24, got {self.n_hours}")
        if not 0 <= self.seed < 2**64:
            raise InvalidConfig("seed must fit in 64 unsigned bits")
        if self.daily_profile_amplitude < 0:
            raise InvalidConfig("daily_profile_amplitude must be >= 0")
        if self.day_intensity_std < 0:
            raise InvalidConfig("day_intensity_std must be >= 0")
        if self.noise_std < 0:
            raise InvalidConfig("noise_std must be >= 0")
        if not 0.0 <= self.burst_probability <= 1.0:
            raise InvalidConfig("burst_probability must be in [0, 1]")

    @classmethod
    def from_dict(cls, doc: dict) -> "SynthConfig":
        """Build from a JSON document; unknown keys are rejected.

        Integer fields take a real int only (never a bool); float fields
        take a finite int or float, stored as a float. Anything else
        raises InvalidConfig.
        """
        # Every field's default has the field's type.
        types = {f.name: type(f.default) for f in fields(cls)}
        unknown = set(doc) - set(types)
        if unknown:
            raise InvalidConfig(f"unknown SynthConfig fields: {sorted(unknown)}")
        values = {}
        for key, value in doc.items():
            ok = isinstance(value, (int, float)) and not isinstance(value, bool)
            if types[key] is int:
                ok = ok and isinstance(value, int)
            elif ok:
                try:
                    value = float(value)
                except OverflowError:  # an int beyond the float range
                    value = math.inf
                ok = math.isfinite(value)
            if not ok:
                kind = "an integer" if types[key] is int else "a finite number"
                raise InvalidConfig(f"{key} must be {kind}, got {doc[key]!r}")
            values[key] = value
        cfg = cls(**values)
        cfg.validate()
        return cfg


def synthesize(cfg: SynthConfig) -> TrafficMatrix:
    """Generate a deterministic synthetic traffic corpus.

    Each station's series is per-BS scale x smooth 24-hour profile x per-day
    intensity factor x hourly noise, with optional localized bursts late in
    the series. The profile is a smooth bimodal daily curve (night trough,
    two daytime peaks) whose peak mix, positions, and widths vary by station;
    larger stations lean toward the midday peak.

    With ``noise_std = day_intensity_std = burst_probability = 0`` every row
    is exactly 24-periodic.
    """
    cfg.validate()
    n_bs, n_hours = cfg.n_bs, cfg.n_hours
    rng = np.random.default_rng(cfg.seed)
    hod = np.arange(n_hours) % 24
    n_days = -(-n_hours // 24)

    scales = np.exp(rng.normal(0.0, SCALE_SIGMA, n_bs))
    # Peak mix correlated with scale rank: big stations midday, small evening.
    rank = scales.argsort().argsort() / max(n_bs - 1, 1)
    wmix = np.clip(rank + rng.uniform(-0.25, 0.25, n_bs), 0.0, 1.0)
    c1 = rng.uniform(9.0, 13.0, n_bs)
    c2 = rng.uniform(17.0, 22.0, n_bs)
    s1 = rng.uniform(2.0, 4.0, n_bs)
    s2 = rng.uniform(2.0, 4.0, n_bs)

    amp = cfg.daily_profile_amplitude
    profile = np.empty((n_bs, n_hours))
    for i in range(n_bs):
        bump1 = np.exp(-0.5 * ((hod - c1[i]) / s1[i]) ** 2)
        bump2 = np.exp(-0.5 * ((hod - c2[i]) / s2[i]) ** 2)
        profile[i] = 0.22 + amp * (wmix[i] * bump1 + (1.0 - wmix[i]) * bump2)

    steps = rng.normal(0.0, 1.0, (n_bs, n_days)) * cfg.day_intensity_std
    fday = np.exp(np.cumsum(steps, axis=1))
    fhour = np.repeat(fday, 24, axis=1)[:, :n_hours]
    noise = np.exp(rng.normal(0.0, 1.0, (n_bs, n_hours)) * cfg.noise_std)
    values = scales[:, None] * profile * fhour * noise

    # Bursts only in the last quarter so they fall inside a standard
    # train/test split's test period.
    u = rng.random(n_bs)
    for i in range(n_bs):
        if u[i] < cfg.burst_probability:
            lo = int(n_hours * 0.75)
            start = int(rng.integers(lo, max(lo + 1, n_hours - 8)))
            dur = int(rng.integers(12, 37))
            factor = float(rng.uniform(2.0, 5.0))
            values[i, start:start + dur] *= factor

    width = max(4, len(str(n_bs - 1)))
    bs_ids = [f"bs_{i:0{width}d}" for i in range(n_bs)]
    return TrafficMatrix(bs_ids=bs_ids, values=values, start_hour=0)


def clean(raw: TrafficMatrix) -> TrafficMatrix:
    """Drop every station row containing a missing or negative entry.

    Surviving rows are kept bit-for-bit unchanged, in their original order.
    """
    if raw.n_bs < 1:
        raise EmptyCorpus("corpus has no rows")
    v = raw.values
    ok = np.all(np.isfinite(v) & (v >= 0), axis=1)
    if not ok.any():
        raise EmptyCorpus("every row contains a missing or negative entry")
    keep = np.flatnonzero(ok)
    return TrafficMatrix(
        bs_ids=[raw.bs_ids[i] for i in keep],
        values=v[keep].copy(),
        start_hour=raw.start_hour,
    )


def load_corpus(path: str) -> TrafficMatrix:
    """Read a traffic corpus from a ``bs_id,hour,volume`` CSV file.

    Returns an uncleaned matrix: absent (bs, hour) records become NaN and
    negative volumes are kept. Rows come out sorted by bs_id; columns span
    the minimum to maximum hour present in the file.
    """
    records: dict[tuple[str, int], float] = {}
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise ParseError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_HEADER:
            raise ParseError(
                f"{path}: line 1: expected header {','.join(CSV_HEADER)!r}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise ParseError(f"{path}: line {lineno}: expected 3 fields")
            bs_id, hour_s, vol_s = row
            if not bs_id:
                raise ParseError(f"{path}: line {lineno}: empty bs_id")
            try:
                hour = int(hour_s)
            except ValueError:
                raise ParseError(
                    f"{path}: line {lineno}: bad hour {hour_s!r}"
                ) from None
            if hour < 0:
                raise ParseError(f"{path}: line {lineno}: negative hour {hour}")
            if vol_s == "NA":
                volume = math.nan
            else:
                try:
                    volume = float(vol_s)
                except ValueError:
                    raise ParseError(
                        f"{path}: line {lineno}: bad volume {vol_s!r}"
                    ) from None
                if not math.isfinite(volume):
                    raise ParseError(
                        f"{path}: line {lineno}: non-finite volume {vol_s!r}"
                    )
            key = (bs_id, hour)
            if key in records:
                raise InconsistentHours(
                    f"{path}: line {lineno}: duplicate record for {bs_id} hour {hour}"
                )
            records[key] = volume
    if not records:
        raise ParseError(f"{path}: no data rows")

    bs_ids = sorted({bs for bs, _ in records})
    hours = [h for _, h in records]
    start, stop = min(hours), max(hours)
    values = np.full((len(bs_ids), stop - start + 1), np.nan)
    index = {bs: i for i, bs in enumerate(bs_ids)}
    for (bs, hour), volume in records.items():
        values[index[bs], hour - start] = volume
    return TrafficMatrix(bs_ids=bs_ids, values=values, start_hour=start)


def corpus_to_csv(t: TrafficMatrix) -> str:
    """Render a corpus in the load_corpus schema, rows sorted by (bs_id, hour)."""
    lines = [",".join(CSV_HEADER)]
    order = sorted(range(t.n_bs), key=lambda i: t.bs_ids[i])
    for i in order:
        row = t.values[i]
        for j in range(t.n_hours):
            v = row[j]
            vol = "NA" if math.isnan(v) else repr(float(v))
            lines.append(f"{t.bs_ids[i]},{t.start_hour + j},{vol}")
    return "\n".join(lines) + "\n"


def save_corpus(t: TrafficMatrix, path: str) -> None:
    """Write a corpus CSV atomically; round-trips exactly through load_corpus."""
    from .modelio import atomic_write_text

    atomic_write_text(path, corpus_to_csv(t))
