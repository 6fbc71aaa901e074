"""The matrix sidecar of a corpus CSV: its parsed matrix, stored next to it.

`corpus.save_corpus` writes ``<csv>.matrix`` after every CSV it writes,
and `corpus.load_corpus` returns its matrix instead of parsing the CSV when
the sidecar was written along with the very bytes the CSV now holds. The file
is one JSON header line, then the ``(N, n_hours)`` matrix as little-endian
float64, rows in bs_id order. The header holds the format version, the
blake2b digest of the CSV, the blake2b digest of the matrix (`_body`
followed by the volumes), ``start_hour``, ``n_hours`` and ``bs_ids``.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterator
from typing import TYPE_CHECKING

# Not hashlib, which loads OpenSSL's libcrypto: about 3.6 MB of RSS per command.
from _blake2 import blake2b

import numpy as np

from .errors import InvalidConfig

if TYPE_CHECKING:
    from .corpus import TrafficMatrix

SUFFIX = ".matrix"
VERSION = 1
# load digests the CSV in reads of this many bytes.
READ_BYTES = 256 * 1024


def digest(data: bytes = b"") -> blake2b:
    """A new blake2b hash object, as the sidecar's digests are taken."""
    return blake2b(data, digest_size=32)


def save(path: str, t: TrafficMatrix, csv_hex: str) -> None:
    """Write the sidecar of the CSV at ``path``, whose bytes have the digest
    ``csv_hex`` and parse to ``t`` with its rows sorted by bs_id.

    A sidecar that cannot be written is skipped: the CSV is already there.
    """
    from .modelio import atomic_write_text

    try:
        atomic_write_text(path + SUFFIX, _pieces(t, csv_hex))
    except InvalidConfig:
        pass


def load(path: str) -> tuple[list[str], np.ndarray, int] | None:
    """``(bs_ids, values, start_hour)`` from the sidecar of the CSV at
    ``path``, or None if it cannot be used.

    It is used only if the CSV's digest equals the header's
    ``csv_blake2b``, the file size fits the header, and the digest of the
    matrix equals ``matrix_blake2b``. Any other sidecar, or one that cannot
    be read, gives None.
    """
    try:
        with open(path + SUFFIX, "rb") as side, open(path, "rb") as fh:
            # JSON spells a character in at most 6 bytes and each bs_id fills
            # a CSV row, so a longer line is not a header `save` wrote.
            line = side.readline(6 * os.fstat(fh.fileno()).st_size + 1024)
            header = json.loads(line)
            if not (
                line.endswith(b"\n")
                and isinstance(header, dict)
                and header.get("version") == VERSION
                and header.get("csv_blake2b") == _file_digest(fh)
            ):
                return None
            start, n_hours = header.get("start_hour"), header.get("n_hours")
            bs_ids = header.get("bs_ids")
            if not (
                type(start) is int
                and start >= 0
                and type(n_hours) is int
                and n_hours >= 1
                and type(bs_ids) is list
                and bs_ids
                and all(type(bs) is str for bs in bs_ids)
            ):
                return None
            nbytes = 8 * len(bs_ids) * n_hours
            if os.fstat(side.fileno()).st_size != len(line) + nbytes:
                return None
            values = np.empty((len(bs_ids), n_hours), dtype="<f8")
            if side.readinto(values) != nbytes:
                return None
    except (OSError, ValueError, RecursionError):  # ValueError: bad UTF-8 or JSON
        return None
    matrix_digest = digest(_body(start, n_hours, bs_ids))
    matrix_digest.update(values)
    if matrix_digest.hexdigest() != header.get("matrix_blake2b"):
        return None
    return bs_ids, values.astype(np.float64, copy=False), start


def _body(start_hour: int, n_hours: int, bs_ids: list[str]) -> bytes:
    """The bytes the matrix digest covers ahead of the volumes."""
    return json.dumps([start_hour, n_hours, bs_ids], ensure_ascii=False).encode()


def _rows(t: TrafficMatrix, order: list[int]) -> Iterator[np.ndarray]:
    """The rows of ``order`` as the CSV parser reads them back: little-endian
    float64, every NaN the one NaN that NA parses to."""
    values = np.asarray(t.values, dtype="<f8")
    for i in order:
        row = values[i]
        nan = np.isnan(row)
        if nan.any():
            row = np.where(nan, np.nan, row)
        yield np.ascontiguousarray(row, dtype="<f8")


def _pieces(t: TrafficMatrix, csv_hex: str) -> Iterator[str | np.ndarray]:
    """The header line, then the rows, of the sidecar."""
    order = sorted(range(t.n_bs), key=t.bs_ids.__getitem__)
    bs_ids = [t.bs_ids[i] for i in order]
    start = int(t.start_hour)
    matrix_digest = digest(_body(start, t.n_hours, bs_ids))
    for row in _rows(t, order):
        matrix_digest.update(row)
    header = {
        "version": VERSION,
        "csv_blake2b": csv_hex,
        "matrix_blake2b": matrix_digest.hexdigest(),
        "start_hour": start,
        "n_hours": t.n_hours,
        "bs_ids": bs_ids,
    }
    yield json.dumps(header, ensure_ascii=False) + "\n"
    yield from _rows(t, order)


def _file_digest(fh) -> str:
    """The blake2b hex digest of the rest of a binary file."""
    file_digest = digest()
    buffer = bytearray(READ_BYTES)
    view = memoryview(buffer)
    while n := fh.readinto(buffer):
        file_digest.update(view[:n])
    return file_digest.hexdigest()
