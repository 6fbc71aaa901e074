"""Per-base-station hourly traffic matrices: load, clean, synthesize, save.

A corpus is a matrix with one row per base station and one column per hour.
Between loading and cleaning, entries may be missing (NaN) or negative;
every other stage requires a cleaned matrix.
"""

from __future__ import annotations

import math
import re
from array import array
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import sidecar
from .errors import (
    BlockregError,
    EmptyCorpus,
    InconsistentHours,
    InfiniteVolume,
    InvalidBsId,
    InvalidConfig,
    Overflow,
    ParseError,
    UncleanCorpus,
)

CSV_HEADER = ["bs_id", "hour", "volume"]

# load_corpus reads and parses this many characters of whole lines at a
# time. A chunk's strings take several times the memory of its parsed
# columns, so chunks stay small and each is dropped before the next is read.
CHUNK_BYTES = 64 * 1024

_INT64_MAX = 2**63 - 1
# Characters that would break a bs_id field of the unquoted CSV.
_UNWRITABLE_ID = re.compile('[,"\r\n]')

# Spread of the per-station lognormal volume scale. Internal constant, not a
# SynthConfig field: it controls how unevenly traffic is distributed over the
# fleet, which the generator keeps fixed.
SCALE_SIGMA = 1.2

# synthesize draws its hourly noise this many bytes of rows at a time, and
# at least one row, so it never holds a second matrix-sized array.
NOISE_BLOCK_BYTES = 512 * 1024


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

    def require_clean(self) -> None:
        """Raise UncleanCorpus if any entry is missing.

        Only finiteness is required here: the pipeline also ingests
        differenced matrices, whose entries are legitimately negative.
        Negative raw volumes are a data-validity problem and are handled
        by `clean`, not by this gate. A NaN makes the minimum NaN and an
        infinity the minimum or maximum, so no mask of the matrix is built.
        """
        v = self.values
        if v.size and not (np.isfinite(v.min()) and np.isfinite(v.max())):
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
        if self.n_bs * self.n_hours * 8 > np.iinfo(np.intp).max:
            raise InvalidConfig(
                f"a {self.n_bs} x {self.n_hours} matrix exceeds the address space")
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


def synthesize(cfg: SynthConfig) -> TrafficMatrix:
    """Generate a deterministic synthetic traffic corpus.

    Each station's series is per-BS scale x smooth 24-hour profile x per-day
    intensity factor x hourly noise, with optional localized bursts late in
    the series. The profile is a smooth bimodal daily curve (night trough,
    two daytime peaks) whose peak mix, positions, and widths vary by station;
    larger stations lean toward the midday peak.

    With ``noise_std = day_intensity_std = burst_probability = 0`` every row
    is exactly 24-periodic. Raises Overflow when settings near the float
    range make a volume infinite or undefined, and InvalidConfig when the
    matrix does not fit in memory.
    """
    cfg.validate()
    try:
        return _synthesize(cfg)
    except MemoryError:
        raise InvalidConfig(
            f"a {cfg.n_bs} x {cfg.n_hours} corpus ({8 * cfg.n_bs * cfg.n_hours} "
            "bytes) does not fit in memory") from None


# Settings near the float range overflow to inf or nan; _synthesize checks
# its result and raises Overflow instead of letting numpy warn.
@np.errstate(over="ignore", invalid="ignore")
def _synthesize(cfg: SynthConfig) -> TrafficMatrix:
    n_bs, n_hours = cfg.n_bs, cfg.n_hours
    rng = np.random.default_rng(cfg.seed)
    n_days = -(-n_hours // 24)

    scales = np.exp(rng.normal(0.0, SCALE_SIGMA, n_bs))
    # Peak mix correlated with scale rank: big stations midday, small evening.
    rank = scales.argsort().argsort() / max(n_bs - 1, 1)
    wmix = np.clip(rank + rng.uniform(-0.25, 0.25, n_bs), 0.0, 1.0)
    c1 = rng.uniform(9.0, 13.0, n_bs)
    c2 = rng.uniform(17.0, 22.0, n_bs)
    s1 = rng.uniform(2.0, 4.0, n_bs)
    s2 = rng.uniform(2.0, 4.0, n_bs)

    # Each station's profile at each hour of day, then spread over the hours.
    hours = np.arange(24)
    bump1 = np.exp(-0.5 * ((hours - c1[:, None]) / s1[:, None]) ** 2)
    bump2 = np.exp(-0.5 * ((hours - c2[:, None]) / s2[:, None]) ** 2)
    mix = wmix[:, None]
    amp = cfg.daily_profile_amplitude
    profile = 0.22 + amp * (mix * bump1 + (1.0 - mix) * bump2)
    del bump1, bump2
    values = profile[:, np.arange(n_hours) % 24]

    # values = scale x profile x day factor x noise, multiplied in place in
    # that order; the day factor one day of columns at a time, the noise
    # one block of rows at a time. The generator fills each draw in C
    # order, so the blocks take the stream of one (n_bs, n_hours) draw.
    steps = rng.normal(0.0, 1.0, (n_bs, n_days)) * cfg.day_intensity_std
    fday = np.exp(np.cumsum(steps, axis=1))
    values *= scales[:, None]
    for d in range(n_days):
        values[:, 24 * d:24 * (d + 1)] *= fday[:, d:d + 1]
    rows = max(1, NOISE_BLOCK_BYTES // (8 * n_hours))
    for lo in range(0, n_bs, rows):
        noise = rng.normal(0.0, 1.0, (min(rows, n_bs - lo), n_hours))
        noise *= cfg.noise_std
        values[lo:lo + rows] *= np.exp(noise, out=noise)

    # Bursts only in the last quarter so they fall inside a standard
    # train/test split's test period.
    u = rng.random(n_bs)
    lo = int(n_hours * 0.75)
    for i in np.flatnonzero(u < cfg.burst_probability).tolist():
        start = int(rng.integers(lo, max(lo + 1, n_hours - 8)))
        dur = int(rng.integers(12, 37))
        factor = float(rng.uniform(2.0, 5.0))
        values[i, start:start + dur] *= factor
    # A NaN makes the minimum NaN and an infinity the maximum, so no mask
    # of the matrix is built.
    if not (np.isfinite(values.min()) and np.isfinite(values.max())):
        raise Overflow(
            "synthetic volumes overflow the float range; lower "
            "daily_profile_amplitude, day_intensity_std or noise_std"
        )

    width = max(4, len(str(n_bs - 1)))
    bs_ids = [f"bs_{i:0{width}d}" for i in range(n_bs)]
    return TrafficMatrix(bs_ids=bs_ids, values=values, start_hour=0)


def clean(raw: TrafficMatrix) -> TrafficMatrix:
    """Drop every station row containing a missing or negative entry.

    Surviving rows are kept bit-for-bit unchanged, in their original order.
    When no row is dropped, the result shares ``raw``'s matrix. A NaN makes
    a row's minimum NaN and an infinity its minimum or maximum, so no mask
    of the matrix is built.
    """
    if raw.n_bs < 1:
        raise EmptyCorpus("corpus has no rows")
    v = raw.values
    ok = (v.min(axis=1, initial=0.0) >= 0) & np.isfinite(v.max(axis=1, initial=0.0))
    if not ok.any():
        raise EmptyCorpus("every row contains a missing or negative entry")
    keep = np.flatnonzero(ok)
    return TrafficMatrix(
        bs_ids=[raw.bs_ids[i] for i in keep],
        values=v if len(keep) == len(v) else v[keep],
        start_hour=raw.start_hour,
    )


def load_corpus(path: str) -> TrafficMatrix:
    """Read a traffic corpus from a ``bs_id,hour,volume`` CSV file.

    Returns an uncleaned matrix: absent (bs, hour) records become NaN and
    negative volumes are kept. Rows come out sorted by bs_id; columns span
    the minimum to maximum hour present in the file, and some station must
    have a record for every hour of that span.

    If ``path`` has a sidecar that `save_corpus` wrote along with these
    very bytes (see `sidecar`), its matrix is returned unparsed; otherwise
    the CSV is parsed (see `_parse`).
    """
    return with_sidecar(path, lambda t, header: t if header is None else None)


def _parse(path: str) -> TrafficMatrix:
    """The corpus that the CSV at ``path`` holds, parsed as `load_corpus`
    describes.

    The file is read in chunks of whole lines, each parsed by `_parse_rows`
    into numpy columns (station code, hour, volume), and a chunk's strings
    are dropped before the next chunk is read. While the parsed rows keep
    the layout that `save_corpus` writes (see `_Layout`), only their
    volumes are kept, and the matrix is a reshape of them. From the first
    chunk that breaks the layout on, every column is kept, with the line
    numbers, after the columns of the rows read so far. A defect raises
    ParseError (InconsistentHours for a duplicate record or an unfilled
    span) naming the first bad line in file order.
    """
    # "\n" + bs_id -> code, in order of first appearance (see _parse_rows)
    ids: dict[str, int] = {}
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise ParseError(f"cannot open {path}: {exc}") from exc
    with fh:
        try:
            matrix, chunks, problem = _read_chunks(fh, path, ids)
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text: {exc}") from None
    if matrix is not None:
        return matrix
    if not chunks:
        raise ParseError(problem or f"{path}: no data rows")

    codes, hours, volumes, linenos = map(np.concatenate, zip(*chunks))
    del chunks  # free the per-chunk columns before the matrix is allocated
    names = [key[1:] for key in ids]
    _check_duplicates(path, names, codes, hours, linenos)
    if problem:
        raise ParseError(problem)
    start, stop = int(hours.min()), int(hours.max())
    span = stop - start + 1
    most = int(np.bincount(codes).max())
    if most < span:
        raise InconsistentHours(
            f"{path}: no station has a record for every hour {start}..{stop} "
            f"({span} hours; the most any station has is {most})"
        )
    order = sorted(range(len(names)), key=names.__getitem__)
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    values = np.full((len(order), span), np.nan)
    values[rank[codes], hours - start] = volumes
    return TrafficMatrix(
        bs_ids=[names[i] for i in order], values=values, start_hour=start
    )


def _read_chunks(fh, path: str, ids: dict[str, int]):
    """Check the header, then parse the rows chunk by chunk.

    Returns ``(matrix, chunks, problem)``. ``matrix`` is the corpus if the
    whole file keeps the `_Layout`; otherwise it is None, ``chunks`` holds
    the ``(codes, hours, volumes, line numbers)`` columns and ``problem``
    the message for the first bad row, or None if there is none. After a
    bad row the columns hold only the rows before it: a duplicate among
    them comes earlier in the file, so it is reported first.
    """
    header = ",".join(CSV_HEADER)
    if fh.readline().rstrip("\r\n") != header:
        raise ParseError(f"{path}: line 1: expected header {header!r}")
    layout = _Layout()
    chunks = []
    lineno = 2
    while lines := fh.readlines(CHUNK_BYTES):
        rows, linenos = _data_rows(lines, lineno)
        lineno += len(lines)
        del lines  # the rows are a copy
        if layout is not None:
            if layout.take(rows, linenos):
                continue
            if layout.rows:
                chunks.append(layout.columns(ids))
            layout = None
        if not rows:
            continue
        columns = _parse_rows(rows, ids)
        if columns is None:
            problems = enumerate(map(_row_problem, rows))
            bad, why = next((i, why) for i, why in problems if why)
            if bad:
                chunks.append((*_parse_rows(rows[:bad], ids), linenos[:bad]))
            return None, chunks, f"{path}: line {linenos[bad]}: {why}"
        chunks.append((*columns, linenos))
    if layout is not None and (matrix := layout.matrix()) is not None:
        return matrix, [], None
    if layout is not None and layout.rows:
        chunks.append(layout.columns(ids))
    return None, chunks, None


class _Layout:
    """The rows read so far of a file in the layout `save_corpus` writes.

    The layout is judged on the columns `_parse_rows` gives: no blank line,
    one block of rows per station, bs_ids strictly increasing, and in each
    block the hours ``start .. start + span - 1`` in order, whatever their
    spelling. The first row sets ``start``, and the first row of the
    second station sets ``span``. Such rows hold no duplicate record, so
    only their volumes are kept.
    """

    def __init__(self):
        self.names: list[str] = []  # "\n" + bs_id, as in _parse_rows
        self.start = 0
        self.span: int | None = None  # until a second station starts
        self.rows = 0
        self.volumes = array("d")

    def take(self, rows: list[str], linenos: np.ndarray) -> bool:
        """Keep the rows of a chunk if they continue the layout, and return
        True; else return False and change nothing."""
        n, done = len(rows), self.rows
        # The line numbers run on from the header only if no line was blank.
        if not n or linenos[-1] != done + n + 1:
            return False
        # Code 0 is the station the chunk may continue, so that the work per
        # chunk does not grow with the number of stations read so far.
        last = self.names[-1:]
        ids = dict.fromkeys(last, 0)
        columns = _parse_rows(rows, ids)
        if columns is None:
            return False
        codes, hours, volumes = columns
        start = self.start if done else int(hours[0])
        span = self.span
        if span is None and codes.any():
            span = done + int(np.argmax(codes != 0))  # the second station
        block = span or done + n  # until then all rows are in the first block
        r = np.arange(done, done + n)  # the rows' places among all rows
        stations = list(ids)
        if not (
            np.array_equal(codes, r // block - (len(self.names) - len(last)))
            and np.array_equal(hours, r % block + start)
            and all(map(str.__lt__, stations, stations[1:]))
        ):
            return False
        self.volumes.frombytes(volumes.tobytes())
        self.names += stations[len(last):]
        self.start, self.span, self.rows = start, span, done + n
        return True

    def matrix(self) -> TrafficMatrix | None:
        """The corpus, or None unless the rows end with a whole block."""
        if not self.rows or self.rows != len(self.names) * (self.span or self.rows):
            return None
        values = np.frombuffer(self.volumes, dtype=np.float64)
        return TrafficMatrix(
            bs_ids=[key[1:] for key in self.names],
            values=values.reshape(len(self.names), -1),
            start_hour=self.start,
        )

    def columns(self, ids: dict[str, int]):
        """The rows as the general reader's first ``(codes, hours, volumes,
        line numbers)`` columns; fills the empty ``ids``."""
        ids.update(zip(self.names, range(len(self.names))))
        r = np.arange(self.rows)
        block = self.span or self.rows
        volumes = np.frombuffer(self.volumes, dtype=np.float64)
        return r // block, r % block + self.start, volumes, r + 2


def _data_rows(lines: list[str], first: int) -> tuple[list[str], np.ndarray]:
    """Strip the line ends of a chunk and drop blank lines.

    Returns the remaining rows and their 1-based line numbers; ``first`` is
    the line number of ``lines[0]``.
    """
    text = "".join(lines)
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    # A final line end would leave one more, empty, string.
    rows = text.split("\n")[: len(lines)]
    linenos = np.arange(first, first + len(rows))
    if "" in rows:
        keep = [i for i, row in enumerate(rows) if row]
        rows, linenos = [rows[i] for i in keep], linenos[keep]
    return rows, linenos


def _parse_rows(rows: list[str], ids: dict[str, int]):
    """Parse rows into ``(codes, hours, volumes)`` columns, or return None.

    None means some row is bad; `_row_problem` then says which and why.
    The checks run on whole columns; new bs_ids are added to ``ids`` only
    when every row is good. ``ids`` is keyed by ``"\\n" + bs_id``.
    """
    fields = _split_fields(rows)
    if fields is None:
        return None
    bs, hours_s, volumes_s = fields
    if "\n" in bs or not _is_digits("".join(hours_s)):
        return None
    volumes = _parse_volumes(volumes_s)
    if volumes is None:
        return None
    try:
        hours = np.array(hours_s, dtype=np.int64)
    except (ValueError, OverflowError):
        return None
    for key in dict.fromkeys(bs):
        ids.setdefault(key, len(ids))
    codes = np.fromiter(map(ids.__getitem__, bs), dtype=np.int64, count=len(bs))
    return codes, hours, volumes


def _split_fields(rows: list[str]):
    """The ``(bs_id, hour, volume)`` field columns of rows, or None.

    None means some row has a quote or a field count other than three.
    Each bs_id keeps a leading "\\n" marker. With 3n fields, a check that
    rejects a "\\n" in every hour and volume puts the n markers all in the
    bs_id column, so every row has exactly three fields.
    """
    text = "\n" + ",\n".join(rows)
    if '"' in text:
        return None
    fields = text.split(",")
    if len(fields) != 3 * len(rows):
        return None
    return fields[0::3], fields[1::3], fields[2::3]


def _parse_volumes(volumes_s: list[str]) -> np.ndarray | None:
    """Volume fields as floats, NA as NaN; None if any is bad or not finite."""
    if not _is_plain("".join(volumes_s)):
        return None
    na = volumes_s.count("NA")
    if na:
        volumes_s = ["nan" if v == "NA" else v for v in volumes_s]
    try:
        volumes = np.array(volumes_s, dtype=np.float64)
    except ValueError:
        return None
    # Each NA is a NaN, so the counts agree only if every other is finite.
    if np.count_nonzero(np.isfinite(volumes)) != len(volumes) - na:
        return None
    return volumes


def _is_digits(s: str) -> bool:
    return s.isascii() and s.isdigit()


def _is_plain(s: str) -> bool:
    """True if ``s`` is printable ASCII without spaces or underscores.

    float() would skip surrounding whitespace and digit-group underscores,
    so a volume field may hold neither.
    """
    return s.isascii() and s.isprintable() and " " not in s and "_" not in s


def _row_problem(row: str) -> str | None:
    """Why one non-blank row is invalid, or None if it is valid."""
    if '"' in row:
        return "a field contains '\"'; quoting is not supported"
    fields = row.split(",")
    if len(fields) != 3:
        return "expected 3 fields"
    bs_id, hour_s, vol_s = fields
    if not bs_id:
        return "empty bs_id"
    try:
        hour = int(hour_s) if _is_digits(hour_s.removeprefix("-")) else None
    except ValueError:  # more digits than int() converts
        hour = None
    if hour is not None and hour < 0:
        return f"negative hour {hour}"
    if hour is None or hour > _INT64_MAX or hour_s.startswith("-"):
        return f"bad hour {hour_s!r}"
    if vol_s == "NA":
        return None
    if not _is_plain(vol_s):
        return f"bad volume {vol_s!r}"
    try:
        volume = float(vol_s)
    except ValueError:
        return f"bad volume {vol_s!r}"
    if not math.isfinite(volume):
        return f"non-finite volume {vol_s!r}"
    return None


def _check_duplicates(path, names, codes, hours, linenos) -> None:
    """Raise InconsistentHours at the first line repeating a (bs_id, hour).

    ``names[code]`` is the bs_id of a code. The sort is stable, so within a
    run of equal keys the rows stay in file order.
    """
    order = np.lexsort((hours, codes))
    c, h = codes[order], hours[order]
    repeats = order[1:][(c[1:] == c[:-1]) & (h[1:] == h[:-1])]
    if repeats.size:
        first = repeats[np.argmin(linenos[repeats])]
        raise InconsistentHours(
            f"{path}: line {linenos[first]}: duplicate record for "
            f"{names[codes[first]]} hour {hours[first]}"
        )


def corpus_to_csv(t: TrafficMatrix) -> str:
    """Render a corpus in the load_corpus schema, rows sorted by (bs_id, hour).

    Raises InvalidBsId for a bs_id the schema cannot hold: an empty one, or
    one with a comma, a quote or a line break; and InfiniteVolume for an
    infinite volume, which load_corpus would reject. NaN is written as NA.
    """
    return b"".join(_csv_blocks(t)).decode()


def _csv_blocks(t: TrafficMatrix) -> Iterator[bytes]:
    """The bytes of `corpus_to_csv`: the header line, then each station's
    lines (see `station_lines`). The checks run on the whole corpus before
    this returns."""
    for bs_id in t.bs_ids:
        if not bs_id or _UNWRITABLE_ID.search(bs_id):
            raise InvalidBsId(f"bs_id {bs_id!r} cannot be written to a corpus CSV")
    values = np.asarray(t.values, dtype=float)
    # fmin and fmax skip NaN, so only an infinite volume makes an extreme
    # infinite; only then are the rows scanned, each with its own mask.
    extremes = [f.reduce(values, axis=None) for f in (np.fmin, np.fmax) if values.size]
    if np.isinf(extremes).any():
        for i, row in enumerate(values):
            infinite = np.flatnonzero(np.isinf(row))
            if infinite.size:
                j = int(infinite[0])
                raise InfiniteVolume(
                    f"{t.bs_ids[i]} hour {t.start_hour + j}: volume "
                    f"{float(row[j])!r} cannot be written to a corpus CSV"
                )
    order = sorted(range(t.n_bs), key=t.bs_ids.__getitem__)
    return _with_header(station_lines(t, order, 0, t.n_hours))


def _with_header(lines: Iterator[tuple[int, bytes | memoryview]]) -> Iterator[bytes]:
    """The CSV header line, then the pieces of ``lines``."""
    return chain([(",".join(CSV_HEADER) + "\n").encode()], (piece for _, piece in lines))


def station_lines(t: TrafficMatrix, stations, lo: int, hi: int,
                  source: tuple[str, dict] | None = None
                  ) -> Iterator[tuple[int, bytes | memoryview]]:
    """Lines ``lo .. hi - 1`` of the block of each of ``stations`` (rows of
    ``t``), as `corpus_to_csv` writes them: pieces of bytes, each with the
    number of its station in ``stations``.

    With ``source = (path, header)``, where ``header`` is that of the
    sidecar of the CSV at ``path`` and ``t`` holds its matrix, the pieces
    are copied from the CSV in the one pass that digests it (`_csv_lines`),
    and ``stations`` must increase: in the CSV that `save_corpus` writes,
    station block k is lines ``1 + k * n_hours`` through ``(k + 1) *
    n_hours``. Otherwise they are rendered, at most ``CHUNK_BYTES // 128``
    hours a piece, so the text held at a time does not grow with the rows.
    """
    if source is not None:
        starts = 1 + np.asarray(stations, dtype=np.int64) * t.n_hours + lo
        return _csv_lines(*source, starts, starts + (hi - lo))
    piece = max(1, CHUNK_BYTES // 128)
    # Each piece's lines, hours filled in, built once as one bytes format:
    # the bs_id field is a NUL, which each station's piece replaces, and
    # each volume field a %s.
    cuts = range(lo, hi, piece)
    start = t.start_hour
    forms = [b"\0,%d,%%s\n" * len(hours) % tuple(hours)
             for hours in (range(start + j, start + min(j + piece, hi)) for j in cuts)]
    return ((r, _csv_piece(forms[k], t.bs_ids[i], t.values[i, j:min(j + piece, hi)]))
            for r, i in enumerate(stations) for k, j in enumerate(cuts))


def _csv_piece(form: bytes, bs_id: str, row: np.ndarray) -> bytes:
    """The lines of ``form`` (see `station_lines`) for ``bs_id`` and the
    volumes ``row``, NaN as NA. A "%" of the bs_id is doubled, so that
    the format gives it back as it is."""
    return form.replace(b"\0", bs_id.encode().replace(b"%", b"%%")) % tuple(
        _float_reprs(row, b"NA"))


def _float_reprs(row: np.ndarray, nan: bytes = b"nan") -> list[bytes]:
    """``repr`` of each float of the 1-D ``row`` as float64 (so "1.0",
    never "1", for an integer array), in UTF-8, NaN as ``nan``, from
    orjson's shortest round-trip formatter. Its digits are those of
    `repr`, and so is its notation for zero and for 1e-4 <= |x| < 1e16;
    every other value, NaN and the infinities (which it writes as null)
    among them, takes `repr` or ``nan`` one at a time. A row whose
    extremes lie in that range is not scanned value by value."""
    import orjson  # only the commands that render float text load it

    row = np.ascontiguousarray(row, dtype=np.float64)
    if not row.size:
        return []
    texts = orjson.dumps(row, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].split(b",")
    if 1e-4 <= row.min() and row.max() < 1e16:  # false for a NaN
        return texts
    size = np.abs(row)
    for j in np.flatnonzero(~((size >= 1e-4) & (size < 1e16)) & (row != 0)).tolist():
        x = float(row[j])
        texts[j] = repr(x).encode() if x == x else nan
    return texts


def save_corpus(t: TrafficMatrix, path: str) -> None:
    """Write a corpus CSV atomically, a piece of a row at a time, then its
    sidecar (see `sidecar`), which lets `load_corpus` skip the parser.

    Refuses, before any file is touched, what `corpus_to_csv` refuses and
    every other corpus whose CSV would not load back: EmptyCorpus for no
    station or no hour, InvalidBsId for a repeated bs_id and
    InconsistentHours for hours outside 0..2**63 - 1.
    """
    if t.n_bs < 1 or t.n_hours < 1:
        raise EmptyCorpus(f"{t.n_bs} stations x {t.n_hours} hours: no rows to write")
    ids = sorted(t.bs_ids)
    repeated = [a for a, b in zip(ids, ids[1:]) if a == b]
    if repeated:
        raise InvalidBsId(f"bs_id {repeated[0]!r} occurs more than once in the corpus")
    last = t.start_hour + t.n_hours - 1
    if t.start_hour < 0 or last > _INT64_MAX:
        raise InconsistentHours(f"hours {t.start_hour}..{last} reach outside 0..2**63-1")
    _save(path, t, _csv_blocks(t))  # checks the rest before any file is touched


def _save(path: str, t: TrafficMatrix, pieces: Iterator[bytes]) -> None:
    """Write ``pieces``, the CSV of ``t``, atomically to ``path``, digesting
    them as they go, then its sidecar."""
    from .modelio import atomic_write_text

    algorithm = sidecar.algorithm(t.n_bs * t.n_hours)
    csv_digest = sidecar.digest(algorithm)

    def fed():
        for piece in pieces:
            csv_digest.update(piece)
            yield piece

    atomic_write_text(path, fed())
    sidecar.save(path, t, algorithm, csv_digest.hexdigest())


def clean_file(source: str, path: str) -> tuple[TrafficMatrix, TrafficMatrix]:
    """`clean` the corpus CSV at ``source`` and save the result to ``path``
    as `save_corpus` does; returns the loaded and the cleaned corpus.

    With a sidecar at ``source`` (see `with_sidecar`), the kept station
    blocks are copied from the CSV in the one pass that checks its digest,
    instead of rendered again: the sidecar vouches that the CSV is what
    `corpus_to_csv` writes for its matrix. When every station is kept, the
    copy is the source itself, header line included, copied read by read
    (`_csv_reads`). Neither path takes `save_corpus`'s refusals, which
    cannot fire: the corpus loaded from a CSV, whose ids and hours the
    schema bounds, and `clean` keeps a station.
    """
    from .modelio import atomic_write_text

    def write(raw: TrafficMatrix, header: dict | None):
        t = clean(raw)
        if header is not None and t.n_bs == raw.n_bs:
            # The copy's digest is the source's, which the pass checks; its
            # sidecar holds the matrix whose digest the read checked.
            atomic_write_text(path, _csv_reads(source, header))
            sidecar.save(path, t, *sidecar.digests(header))
            return raw, t
        # Both are in bs_id order, the order of the source's station blocks.
        ids = set(t.bs_ids)
        kept = np.flatnonzero([bs_id in ids for bs_id in raw.bs_ids])
        source_csv = None if header is None else (source, header)
        _save(path, t, _with_header(station_lines(raw, kept, 0, raw.n_hours, source_csv)))
        return raw, t

    return with_sidecar(source, write)


def with_sidecar(path: str, write):
    """``write(t, header)`` on the matrix and header that the sidecar of the
    CSV at ``path`` holds (see `sidecar.read`); else ``write(t, None)`` on
    that matrix once the CSV's digest is checked; else ``write(_parse(path),
    None)``.

    Until the CSV's digest is checked, the matrix is unverified: ``write``
    checks it by reading the CSV through `_csv_reads` once (`station_lines`
    with a source, or `_csv_reads` itself), or returns None before it reads
    the CSV. If it raises a BlockregError or finds the CSV changed before
    that pass completes, whatever it wrote must be discarded. Unless it gave
    a result, a pass of `_csv_lines` over no lines checks the CSV's digest;
    once it has, the error stands. So the sidecar is read once and no step
    that failed runs again on the same matrix. The parse runs without the
    sidecar's matrix.
    """
    cached = sidecar.read(path)
    if cached is not None:
        header, values = cached
        t = TrafficMatrix(header["bs_ids"], values, header["start_hour"])
        try:
            result, error = write(t, header), None
        except (BlockregError, _StaleSource) as exc:
            result, error = None, exc
        if result is not None:
            return result
        try:
            next(_csv_lines(path, header, (), ()), None)  # yields nothing: digests
        except _StaleSource:
            pass
        else:
            if isinstance(error, BlockregError):
                raise error
            return write(t, None)
        del cached, values, t, error
    return write(_parse(path), None)


class _StaleSource(Exception):
    """The CSV to copy from is not the one its sidecar was written with."""


def _csv_reads(path: str, header: dict) -> Iterator[bytes]:
    """The CSV at ``path`` in reads of ``sidecar.READ_BYTES``, digested as
    they go. After the last read, raises _StaleSource unless the whole CSV
    has the digest of the sidecar ``header``; so does a read that fails.
    """
    algorithm, csv_hex, _ = sidecar.digests(header)
    source_digest = sidecar.digest(algorithm)
    try:
        with open(path, "rb") as fh:
            while chunk := fh.read(sidecar.READ_BYTES):
                source_digest.update(chunk)
                yield chunk
    except OSError:
        raise _StaleSource from None
    if source_digest.hexdigest() != csv_hex:
        raise _StaleSource


def _csv_lines(path: str, header: dict, starts: np.ndarray,
               stops: np.ndarray) -> Iterator[tuple[int, memoryview]]:
    """Pieces of lines ``starts[r] .. stops[r] - 1`` of the CSV at ``path``,
    each with its ``r``, from the one pass of `_csv_reads` over it. Lines
    count from 0, the header line, and each range starts at or after the
    stop of the one before; once the last range is copied, the reads are
    only digested. Raises what `_csv_reads` raises.
    """
    # Line l starts after the l-th newline, counting from 1; even edges
    # start a range, odd ones end it.
    edges = np.column_stack([starts, stops]).ravel()
    lines, i = 0, int(np.searchsorted(edges, 0, side="right"))  # at the next read
    for chunk in _csv_reads(path, header):
        if i == len(edges):  # past the last range
            continue
        ends = np.flatnonzero(np.frombuffer(chunk, dtype=np.uint8) == 10)
        j = int(np.searchsorted(edges, lines + len(ends), side="right"))
        cuts = (ends[edges[i:j] - lines - 1] + 1).tolist()
        view, pos = memoryview(chunk), [0, *cuts, len(chunk)]
        for n, (a, b) in enumerate(zip(pos, pos[1:]), i):
            if n % 2 and a < b:  # between a start and its stop
                yield n // 2, view[a:b]
        lines, i = lines + len(ends), j
