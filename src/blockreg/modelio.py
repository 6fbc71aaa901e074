"""Model file serialization and atomic file writing.

All three model kinds share one JSON container distinguished by a ``kind``
field ("br", "lr", "sa"; a missing kind means "br"). Every file carries
``format_version`` and a ``params`` count. Serialization is deterministic:
identical models produce byte-identical files.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections.abc import Iterable

import numpy as np

from .baselines import SaCoefficients, SaModel
from .errors import BlockregError, InvalidConfig, Overflow, ParseError, typed_value
from .pipeline import NormalizationStats
from .regressor import BlockModel

FORMAT_VERSION = 1


def atomic_write_text(path: str, text: str | Iterable[str | bytes]) -> None:
    """Write ``text``, or its pieces in turn, to a temp file in the target
    directory, then rename it to ``path``.

    A str piece is written as UTF-8; any other piece is a bytes-like object
    written as it is. A path that cannot be written raises InvalidConfig;
    that or any error raised by the pieces leaves no temp file and the
    target as it was.
    """
    pieces = [text] if isinstance(text, str) else text
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.writelines(
                    p.encode("utf-8") if isinstance(p, str) else p for p in pieces
                )
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise InvalidConfig(f"cannot write {path}: {exc}") from exc


def load_json(path: str, error: type[BlockregError], what: str) -> dict:
    """The JSON object in the UTF-8 file ``path``; any failure raises ``error``.

    ``what`` names the file when it holds something other than an object,
    and an object that gives a key twice is invalid JSON here, rather than
    one of its values being dropped.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise error(f"cannot open {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad UTF-8, bad JSON, too deep
        raise error(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{path}: {what} must be a JSON object")
    return doc


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """The JSON object of ``pairs``; a repeated key raises ValueError."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        seen = set()
        key = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise ValueError(f"key {key!r} occurs more than once in an object")
    return doc


def dump_json(doc) -> str:
    """Deterministic JSON rendering used for every file this package writes.

    A non-finite number, which JSON cannot hold, raises Overflow.
    """
    try:
        return json.dumps(doc, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:  # "Out of range float values are not JSON compliant"
        raise Overflow(f"a number overflows the float range: {exc}") from exc


def _floats(a: np.ndarray) -> list[float]:
    return [float(v) for v in np.asarray(a).ravel()]


def model_doc(model) -> dict:
    """Model as a JSON-ready document."""
    if isinstance(model, BlockModel):
        return {
            "format_version": FORMAT_VERSION,
            "kind": model.kind,
            "theta0": model.theta0,
            "theta": _floats(model.theta),
            "mu_x": _floats(model.stats.mu_x),
            "sigma_x": _floats(model.stats.sigma_x),
            "mu_y": model.stats.mu_y,
            "sigma_y": model.stats.sigma_y,
            "m": model.seasonality_m,
            "w": model.window_w,
            "params": model.n_params,
        }
    if isinstance(model, SaModel):
        c = model.coef
        return {
            "format_version": FORMAT_VERSION,
            "kind": "sa",
            "seasonality": model.seasonality,
            "ar": model.ar_order,
            "ma": model.ma_order,
            "per_bs": {
                bs: {
                    "phi": _floats(c.phi[i]),
                    "psi": _floats(c.psi[i]),
                    "intercept": float(c.intercept[i]),
                    "sigma2": float(c.sigma2[i]),
                }
                for bs, i in sorted(zip(model.bs_ids, range(len(model.bs_ids))))
            },
            "failed_bs": sorted(model.failed_bs),
            "params": model.n_params,
        }
    raise InvalidConfig(f"cannot serialize model of type {type(model).__name__}")


def save_model(model, path: str) -> None:
    atomic_write_text(path, dump_json(model_doc(model)))


def _field(doc: dict, key: str, kind, where: str, low: int | None = None):
    """Field ``key`` of ``doc`` checked by `typed_value`, and >= ``low`` if given."""
    if key not in doc:
        raise ParseError(f"{where}: missing model field {key!r}")
    try:
        value = typed_value(key, doc[key], kind)
    except InvalidConfig as exc:
        raise ParseError(f"{where}: model field {exc}") from exc
    if low is not None and value < low:
        raise ParseError(
            f"{where}: model field {key!r} must be an integer >= {low}, got {value}"
        )
    return np.asarray(value) if kind == list[float] else value


def _block_model(doc: dict, kind: str, path: str) -> BlockModel:
    m = _field(doc, "m", int, path, low=0)
    if kind == "lr" and m != 0:
        raise ParseError(f"{path}: an lr model has m = 0, got m={m}")
    w = _field(doc, "w", int, path, low=1)
    theta = _field(doc, "theta", list[float], path)
    stats = NormalizationStats(
        mu_x=_field(doc, "mu_x", list[float], path),
        sigma_x=_field(doc, "sigma_x", list[float], path),
        mu_y=_field(doc, "mu_y", float, path),
        sigma_y=_field(doc, "sigma_y", float, path),
    )
    if theta.shape != (w,) or stats.mu_x.shape != (w,) or stats.sigma_x.shape != (w,):
        raise ParseError(f"{path}: model arrays inconsistent with w={w}")
    if np.any(stats.sigma_x <= 0) or stats.sigma_y <= 0:
        raise ParseError(f"{path}: normalization sigmas must be > 0")
    return BlockModel(
        theta0=_field(doc, "theta0", float, path),
        theta=theta,
        stats=stats,
        seasonality_m=m,
        window_w=w,
    )


def _sa_model(doc: dict, path: str) -> SaModel:
    per_bs_doc = doc.get("per_bs")
    if not isinstance(per_bs_doc, dict):
        raise ParseError(f"{path}: per_bs must be an object")
    ar = _field(doc, "ar", int, path, low=0)
    ma = _field(doc, "ma", int, path, low=0)
    rows = []
    for bs, c in per_bs_doc.items():
        where = f"{path}: station {bs}"
        if not isinstance(c, dict):
            raise ParseError(f"{where}: coefficients must be an object")
        phi = _field(c, "phi", list[float], where)
        psi = _field(c, "psi", list[float], where)
        if phi.shape != (ar,) or psi.shape != (ma,):
            raise ParseError(f"{where}: coefficient lengths "
                             f"inconsistent with ar={ar}, ma={ma}")
        sigma2 = _field(c, "sigma2", float, where)
        if sigma2 < 0:
            raise ParseError(f"{where}: sigma2 must be >= 0")
        rows.append((phi, psi, _field(c, "intercept", float, where), sigma2))
    failed_bs = doc.get("failed_bs", [])
    if not isinstance(failed_bs, list) or not all(
        isinstance(bs, str) for bs in failed_bs
    ):
        raise ParseError(f"{path}: failed_bs must be a list of station ids")
    if len(set(failed_bs)) != len(failed_bs):
        raise ParseError(f"{path}: failed_bs lists a station more than once")
    both = sorted(per_bs_doc.keys() & set(failed_bs))
    if both:
        raise ParseError(f"{path}: station {both[0]} is in both per_bs and failed_bs")
    phi, psi, intercept, sigma2 = (np.array([r[j] for r in rows], dtype=float)
                                   for j in range(4))
    return SaModel(
        bs_ids=list(per_bs_doc),
        coef=SaCoefficients(phi.reshape(len(rows), ar), psi.reshape(len(rows), ma),
                            intercept, sigma2),
        seasonality=_field(doc, "seasonality", int, path, low=1),
        ar_order=ar,
        ma_order=ma,
        failed_bs=failed_bs,
    )


def load_model(path: str):
    """Load a model file; returns a BlockModel (kind br or lr) or an SaModel.

    Every field is checked: a missing, mistyped or non-finite value, a
    non-positive normalization sigma, a ``params`` other than the model's
    parameter count, and an sa station that is both fitted and failed, or
    failed twice, raise ParseError.
    """
    doc = load_json(path, ParseError, "model file")
    version = _field(doc, "format_version", int, path)
    if version != FORMAT_VERSION:
        raise ParseError(
            f"{path}: unsupported format_version {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    kind = doc.get("kind", "br")
    if kind in ("br", "lr"):
        model = _block_model(doc, kind, path)
    elif kind == "sa":
        model = _sa_model(doc, path)
    else:
        raise ParseError(f"{path}: unknown model kind {kind!r}")
    params = _field(doc, "params", int, path)
    if params != model.n_params:
        raise ParseError(
            f"{path}: model field 'params' is {params}, but the model has "
            f"{model.n_params} parameters"
        )
    return model
