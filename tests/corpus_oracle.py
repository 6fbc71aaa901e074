"""Row-at-a-time corpus CSV reader and writer, kept as the reference.

These are the implementations that the column-wise ``load_corpus`` and
``corpus_to_csv`` replaced. On input both readers accept they must agree
bit for bit, and on input the oracle rejects they must raise the same
class with the same message. The oracle accepts a few inputs the new
reader rejects on purpose (quoted fields, whitespace or ``_`` in numbers,
hours outside int64, a span no station fills).
"""

import csv
import math

import numpy as np

from blockreg.corpus import CSV_HEADER, TrafficMatrix
from blockreg.errors import InconsistentHours, ParseError


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
