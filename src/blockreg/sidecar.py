"""The matrix sidecar of a corpus CSV: its parsed matrix, stored next to it.

`corpus.save_corpus` and `corpus.clean_file` write ``<csv>.matrix`` after
every CSV they write, and `corpus.load_corpus` returns its matrix instead of
parsing the CSV when the sidecar was written along with the very bytes the
CSV now holds. The file is one JSON header line, then the ``(N, n_hours)``
matrix as little-endian float64, rows in bs_id order. The header holds the
format version, the blake2b digest of the CSV, the blake2b digest of the
matrix (`_body` followed by the volumes), ``start_hour``, ``n_hours`` and
``bs_ids``.

A load reads the header and the matrix (`read`), then checks the CSV's
digest (`load`, `vouches`). `corpus.clean_file` and the `forecast`
command check it instead in the one pass that copies text from the CSV
(`corpus._csv_lines`): `clean` copies the kept station blocks, and
`forecast` each station's ``bs_id,hour,actual`` lines of the horizon,
taking them for what `corpus.corpus_to_csv` writes for the matrix. So a
sidecar also vouches that its CSV is what `corpus_to_csv` renders for its
matrix, and ``VERSION`` pins those bytes: a change to the bytes
`corpus_to_csv` writes for any matrix must bump ``VERSION``, which leaves
every older sidecar unused.
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
# load, and the pass that copies from the CSV, read it this many bytes at a time.
READ_BYTES = 256 * 1024


def digest(data: bytes = b"") -> blake2b:
    """A new blake2b hash object, as the sidecar's digests are taken."""
    return blake2b(data, digest_size=32)


def save(path: str, t: TrafficMatrix, csv_hex: str, matrix_hex: str | None = None) -> None:
    """Write the sidecar of the CSV at ``path``, whose bytes have the digest
    ``csv_hex`` and parse to ``t`` with its rows sorted by bs_id.

    ``matrix_hex`` is the matrix digest of ``t`` if a `read` of a sidecar
    holding ``t`` has verified it; then the rows are in bs_id order, and the
    header takes it and the matrix follows whole, neither digested nor
    copied again. A sidecar that cannot be written is skipped: the CSV is
    already there.
    """
    from .modelio import atomic_write_text

    if matrix_hex is None:
        pieces = _pieces(t, csv_hex)
    else:
        header = _header_line(csv_hex, matrix_hex, int(t.start_hour), t.n_hours, t.bs_ids)
        pieces = [header, np.asarray(t.values, dtype="<f8")]
    try:
        atomic_write_text(path + SUFFIX, pieces)
    except InvalidConfig:
        pass


def read(path: str) -> tuple[dict, np.ndarray] | None:
    """The header and the matrix of the sidecar of the CSV at ``path``, or
    None if it cannot be used.

    It is used only if its header is valid (see `_header`) and the digest
    of the matrix equals ``matrix_blake2b``. Any other sidecar, or one that
    cannot be read, gives None. The CSV's own digest is not checked here:
    `load` checks it, and so does the pass that copies the CSV's text
    (`corpus._csv_lines`). Until then the matrix is unverified.
    """
    try:
        with open(path + SUFFIX, "rb") as side:
            header = _header(side, os.stat(path).st_size)
            if header is None:
                return None
            bs_ids, n_hours = header["bs_ids"], header["n_hours"]
            values = np.empty((len(bs_ids), n_hours), dtype="<f8")
            if side.readinto(values) != values.nbytes:
                return None
        matrix_digest = digest(_body(header["start_hour"], n_hours, bs_ids))
    except (OSError, ValueError, RecursionError):  # ValueError: bad UTF-8 or JSON
        return None
    matrix_digest.update(values)
    if matrix_digest.hexdigest() != header["matrix_blake2b"]:
        return None
    return header, values.astype(np.float64, copy=False)


def load(path: str) -> tuple[dict, np.ndarray] | None:
    """`read`, if the CSV at ``path`` is the one it `vouches` for; else None."""
    cached = read(path)
    return cached if cached is not None and vouches(path, cached[0]) else None


def vouches(path: str, header: dict) -> bool:
    """True if the digest of the CSV at ``path`` equals ``header``'s
    ``csv_blake2b``, which makes the matrix `read` gave with it verified."""
    try:
        with open(path, "rb") as fh:
            return _file_digest(fh) == header["csv_blake2b"]
    except OSError:
        return False


def _header(side, csv_size: int) -> dict | None:
    """The header of the open sidecar ``side`` of a CSV of ``csv_size``
    bytes, read up to the matrix, or None unless it has this version, a
    digest of each kind, a shape and bs_ids, and the file size fits it.

    Raises ValueError or RecursionError for a line that is not JSON.
    """
    # JSON spells a character in at most 6 bytes and each bs_id fills a
    # CSV row, so a longer line is not a header `save` wrote.
    line = side.readline(6 * csv_size + 1024)
    header = json.loads(line)
    if not (
        line.endswith(b"\n")
        and isinstance(header, dict)
        and header.get("version") == VERSION
    ):
        return None
    start, n_hours = header.get("start_hour"), header.get("n_hours")
    bs_ids = header.get("bs_ids")
    if not (
        type(header.get("csv_blake2b")) is str
        and type(header.get("matrix_blake2b")) is str
        and type(start) is int
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
    return header


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
    yield _header_line(csv_hex, matrix_digest.hexdigest(), start, t.n_hours, bs_ids)
    yield from _rows(t, order)


def _header_line(csv_hex: str, matrix_hex: str, start: int, n_hours: int,
                 bs_ids: list[str]) -> str:
    header = {
        "version": VERSION,
        "csv_blake2b": csv_hex,
        "matrix_blake2b": matrix_hex,
        "start_hour": start,
        "n_hours": n_hours,
        "bs_ids": bs_ids,
    }
    return json.dumps(header, ensure_ascii=False) + "\n"


def _file_digest(fh) -> str:
    """The blake2b hex digest of the rest of a binary file."""
    file_digest = digest()
    buffer = bytearray(READ_BYTES)
    view = memoryview(buffer)
    while n := fh.readinto(buffer):
        file_digest.update(view[:n])
    return file_digest.hexdigest()
