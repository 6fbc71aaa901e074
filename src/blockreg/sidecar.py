"""The matrix sidecar of a corpus CSV: its parsed matrix, stored next to it.

`corpus.save_corpus` and `corpus.clean_file` write ``<csv>.matrix`` after
every CSV they write, and every read of a corpus CSV
(`corpus.with_sidecar`) uses its matrix instead of parsing the CSV when the
sidecar was written along with the very bytes the CSV now holds. The file
is one JSON header line, then the ``(N, n_hours)`` matrix as little-endian
float64, rows in bs_id order. The header holds the format version, the
digest of the CSV, the digest of the matrix (`_body` followed by the
volumes), ``start_hour``, ``n_hours`` and ``bs_ids``. Both digests are
blake2b (keys ``csv_blake2b`` and ``matrix_blake2b``) for a corpus of fewer
than `SHA256_CELLS` matrix entries, and SHA-256 (``csv_sha256`` and
``matrix_sha256``) from there on (see `algorithm`); a read accepts either
pair at any size.

A read takes the header and the matrix (`read`), then checks the CSV's
digest in the one pass over the CSV (`corpus._csv_reads`). Every file
derived from a corpus takes its lines from `corpus.station_lines`, which
copies them from the CSV in that pass instead of rendering them again
(a `clean` that keeps every station writes the reads themselves),
taking them for what `corpus.corpus_to_csv` writes for the matrix. So a
sidecar also vouches that its CSV is what `corpus_to_csv` renders for
its matrix, and
``VERSION`` pins those bytes: a change to the bytes `corpus_to_csv` writes
for any matrix must bump ``VERSION``, which leaves every older sidecar
unused.
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
# The pass over a corpus CSV (`corpus._csv_reads`) reads it this many bytes at a time.
READ_BYTES = 256 * 1024
# Corpora of at least this many matrix entries (a 4 MiB matrix, a CSV of
# about 16 MB) get SHA-256 digests. On a CPU with SHA extensions, OpenSSL
# takes them about 2.9 times as fast as blake2b, which pays for loading its
# libcrypto (about 3.3 ms and 3.6 MB of RSS); smaller corpora keep blake2b
# and load no OpenSSL. Without SHA extensions SHA-256 is the slower one,
# and every sidecar is still checked in full.
SHA256_CELLS = 2**19
ALGORITHMS = ("blake2b", "sha256")


def algorithm(cells: int) -> str:
    """The digest algorithm of the sidecar of a corpus of ``cells`` matrix
    entries: blake2b below `SHA256_CELLS`, or without OpenSSL; else sha256."""
    return "sha256" if cells >= SHA256_CELLS and _openssl_sha256() else "blake2b"


def digest(name: str, data: bytes = b""):
    """A new hash object of the algorithm ``name`` (one of `ALGORITHMS`), as
    the sidecar's digests are taken. SHA-256 is OpenSSL's, or without OpenSSL
    CPython's own, for a sidecar that a CPython with OpenSSL wrote."""
    if name == "blake2b":
        return blake2b(data, digest_size=32)
    sha256 = _openssl_sha256()
    if sha256 is None:
        try:
            from _sha2 import sha256  # CPython 3.12 on
        except ImportError:
            from _sha256 import sha256
    return sha256(data)


def _openssl_sha256():
    """OpenSSL's SHA-256, or None for a CPython built without OpenSSL. Not
    `hashlib.sha256`: `synth` imports hashlib (through numpy.random) with
    ``_hashlib`` marked absent, which leaves it CPython's slower SHA-256."""
    try:
        from _hashlib import openssl_sha256
    except ImportError:
        return None
    return openssl_sha256


def digests(header: dict) -> tuple[str, str, str]:
    """The algorithm, the CSV digest and the matrix digest of a sidecar
    ``header`` that `read` accepted."""
    name = next(name for name in ALGORITHMS if f"csv_{name}" in header)
    return name, header[f"csv_{name}"], header[f"matrix_{name}"]


def save(path: str, t: TrafficMatrix, name: str, csv_hex: str,
         matrix_hex: str | None = None) -> None:
    """Write the sidecar of the CSV at ``path``, whose bytes have the digest
    ``csv_hex`` by the algorithm ``name`` and parse to ``t`` with its rows
    sorted by bs_id.

    ``matrix_hex`` is the matrix digest of ``t`` if a `read` of a sidecar
    holding ``t`` has verified it; then the rows are in bs_id order, and the
    header takes it and the matrix follows whole, neither digested nor
    copied again. A sidecar that cannot be written is skipped: the CSV is
    already there.
    """
    from .modelio import atomic_write_text

    if matrix_hex is None:
        pieces = _pieces(t, name, csv_hex)
    else:
        header = _header_line(name, csv_hex, matrix_hex, int(t.start_hour), t.n_hours,
                              t.bs_ids)
        pieces = [header, np.asarray(t.values, dtype="<f8")]
    try:
        atomic_write_text(path + SUFFIX, pieces)
    except InvalidConfig:
        pass


def read(path: str) -> tuple[dict, np.ndarray] | None:
    """The header and the matrix of the sidecar of the CSV at ``path``, or
    None if it cannot be used.

    It is used only if its header is valid (see `_header`) and the digest
    of the matrix equals the header's (see `digests`). Any other sidecar,
    or one that cannot be read, gives None. The CSV's own digest is not checked here,
    but in the pass over the CSV (`corpus._csv_reads`); until then the
    matrix is unverified.
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
        name, _, matrix_hex = digests(header)
        matrix_digest = digest(name, _body(header["start_hour"], n_hours, bs_ids))
    except (OSError, ValueError, RecursionError):  # ValueError: bad UTF-8 or JSON
        return None
    matrix_digest.update(values)
    if matrix_digest.hexdigest() != matrix_hex:
        return None
    return header, values.astype(np.float64, copy=False)


def _header(side, csv_size: int) -> dict | None:
    """The header of the open sidecar ``side`` of a CSV of ``csv_size``
    bytes, read up to the matrix, or None unless it has this version, the
    CSV and the matrix digest of one algorithm of `ALGORITHMS` and of no
    other, a shape and bs_ids, and the file size fits it.

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
    keyed = [name for name in ALGORITHMS
             if f"csv_{name}" in header or f"matrix_{name}" in header]
    if not (
        len(keyed) == 1
        and type(header.get(f"csv_{keyed[0]}")) is str
        and type(header.get(f"matrix_{keyed[0]}")) is str
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


def _pieces(t: TrafficMatrix, name: str, csv_hex: str) -> Iterator[str | np.ndarray]:
    """The header line, then the rows, of the sidecar."""
    order = sorted(range(t.n_bs), key=t.bs_ids.__getitem__)
    bs_ids = [t.bs_ids[i] for i in order]
    start = int(t.start_hour)
    matrix_digest = digest(name, _body(start, t.n_hours, bs_ids))
    for row in _rows(t, order):
        matrix_digest.update(row)
    yield _header_line(name, csv_hex, matrix_digest.hexdigest(), start, t.n_hours, bs_ids)
    yield from _rows(t, order)


def _header_line(name: str, csv_hex: str, matrix_hex: str, start: int, n_hours: int,
                 bs_ids: list[str]) -> str:
    header = {
        "version": VERSION,
        f"csv_{name}": csv_hex,
        f"matrix_{name}": matrix_hex,
        "start_hour": start,
        "n_hours": n_hours,
        "bs_ids": bs_ids,
    }
    return json.dumps(header, ensure_ascii=False) + "\n"
