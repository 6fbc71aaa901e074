"""Command-line interface wiring corpus, pipeline, training, and evaluation.

Subcommands: synth, clean, train, forecast, eval, sweep. One table,
`SETTINGS`, defines every setting with its type, default, help text and
the commands that take it; the flags, the config-file keys and the type
checks are all built from it. Precedence is command-line flag over JSON
config file over the table's default.

Every output file is written atomically (temp file + rename) and every
command is a pure function of its inputs and flags, so repeated runs
produce byte-identical files. `synth` and `clean` also write the corpus
matrix next to the CSV (`<output>.matrix`), which later loads of that CSV
read instead of parsing it. Errors print one machine-readable JSON line
to stderr and exit with the family code: configuration 2, data 3,
numerical 4. `run` is the process entry (`blockreg`, `python -m
blockreg`); `main` is the same command for in-process callers.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import reprlib
import sys
from collections.abc import Iterator
from dataclasses import fields
from itertools import groupby
from operator import itemgetter

import numpy as np

from .baselines import train_sa
from .corpus import (
    SynthConfig,
    _float_reprs,
    clean_file,
    load_corpus,
    save_corpus,
    station_lines,
    synthesize,
    with_sidecar,
)
from .errors import BlockregError, InvalidConfig, typed_value
from .evaluation import (
    Split,
    evaluate,
    forecast_fleet,
    report_csv,
    report_doc,
    sweep_csv,
    sweep_doc,
    sweep_seasonality,
)
from .forecaster import MODES, train_block_regression
from .modelio import atomic_write_text, dump_json, load_json, load_model, save_model
from .sidecar import SUFFIX

RUNS = ("forecast", "eval", "sweep")
FORECAST_HEADER = "bs_id,hour,actual,forecast,mode\n"
# (key, type or choices, default, help, commands). The flag of a key is
# --key with "_" as "-"; a row without help is a config-file key only.
# Types are those `typed_value` checks; range checks stay in the library.
SETTINGS = [
    *((f.name, type(f.default), f.default, {"seed": "RNG seed"}.get(f.name),
       ("synth",)) for f in fields(SynthConfig)),
    ("kind", ("br", "lr", "sa"), "br", "model kind", ("train",)),
    ("m", int, 24, "differencing lag, or seasonal lag for sa", ("train",)),
    ("w", int, None, "window width; 3 (72 for lr) if none", ("train", "sweep")),
    ("ar", int, 2, "sa AR order", ("train",)),
    ("ma", int, 1, "sa MA order", ("train",)),
    ("train_hours", int, 240, "hours to train on; the horizon follows",
     ("train", *RUNS)),
    ("test_hours", int, 96, "test or forecast horizon in hours", RUNS),
    ("mode", MODES, "one_step", "forecast mode", RUNS),
    ("seed", int | None, None, "recorded in the report config", ("eval",)),
    ("seasonalities", list, [24, 48, 72, 96, 120, 144, 168], None, ("sweep",)),
    ("threads", int, 1, "checked, never changes results; no command starts "
     "threads, and BLAS threads follow OPENBLAS_NUM_THREADS", ("train", *RUNS)),
]


def resolve_settings(args) -> dict:
    """Every setting of ``args.command``: flag, else config file, else default.

    A flag is typed by argparse; a config-file value is checked by
    `typed_value`, and an unknown key is an error.
    """
    rows = [row for row in SETTINGS if args.command in row[4]]
    path = getattr(args, "config", None)
    doc = {}
    if path is not None:
        doc = load_json(path, InvalidConfig, "config")
        unknown = set(doc) - {row[0] for row in rows}
        if unknown:
            raise InvalidConfig(
                f"{path}: unknown config keys for {args.command}: {sorted(unknown)}"
            )
    opts = {}
    for key, kind, default, _, _ in rows:
        flag = getattr(args, key, None)
        if flag is not None:
            opts[key] = flag
        elif key in doc:
            opts[key] = typed_value(key, doc[key], kind)
        else:
            opts[key] = default
    # Execution is sequential, so the setting never changes results; it has
    # no library function to check it.
    if "threads" in opts and opts["threads"] < 1:
        raise InvalidConfig(f"--threads must be >= 1, got {opts['threads']}")
    return opts


def _width(opts: dict) -> int:
    """The window width setting, or its default: 3, or 72 for lr."""
    if opts["w"] is not None:
        return opts["w"]
    return 72 if opts.get("kind") == "lr" else 3


def _cmd_synth(args, opts: dict) -> int:
    if "numpy.random" not in sys.modules and "_hashlib" not in sys.modules:
        # numpy.random imports hashlib and hmac (through secrets), which load
        # OpenSSL's libcrypto, about 3 MB of RSS, though only a large corpus's
        # sidecar takes a digest from it (`sidecar.algorithm`). With _hashlib
        # marked absent they use CPython's builtin hashes, as on a CPython
        # built without OpenSSL; the RNG stream does not use them.
        sys.modules["_hashlib"] = None
        try:
            import numpy.random  # noqa: F401
        finally:
            del sys.modules["_hashlib"]
    t = synthesize(SynthConfig(**opts))
    save_corpus(t, args.output)
    print(f"synth: wrote {args.output} ({t.n_bs} stations x {t.n_hours} hours)")
    return 0


def _cmd_clean(args, opts: dict) -> int:
    raw, cleaned = clean_file(args.input, args.output)
    print(f"clean: kept {cleaned.n_bs}/{raw.n_bs} stations -> {args.output}")
    return 0


def _cmd_train(args, opts: dict) -> int:
    t = load_corpus(args.input)
    kind, m, train_hours = opts["kind"], opts["m"], opts["train_hours"]
    if kind == "sa":
        model = train_sa(t, ar=opts["ar"], ma=opts["ma"], s=m, train_hours=train_hours)
        detail = f"failed={len(model.failed_bs)}"
    else:
        # lr is the br pipeline without differencing.
        model, diag = train_block_regression(
            t, m=0 if kind == "lr" else m, w=_width(opts), train_hours=train_hours
        )
        kind = model.kind  # lr too for br with m = 0
        detail = (f"iterations={diag.iterations} converged={str(diag.converged).lower()} "
                  f"samples={diag.n_samples}")
    save_model(model, args.model)
    print(f"train: {kind} model with {model.n_params} parameters ({detail}) -> {args.model}")
    return 0


def _forecast_csv(fs, lines) -> Iterator[str | bytes]:
    """The forecast CSV: the header line, then one block of lines per station.

    ``lines`` gives each station's ``bs_id,hour,actual`` lines of the
    horizon, in pieces numbered by row of ``fs`` (see
    `corpus.station_lines`); None, past the corpus end, leaves the actual
    column empty. Each station's lines, every "%" doubled and each line end
    made the format of the rest of the line, take its forecast texts.
    """
    yield FORECAST_HEADER
    if lines is None:
        # The hours' lines, built once; each station's bs_id replaces the NUL.
        form = b"\0,%d,\n" * len(fs.hours) % tuple(fs.hours.tolist())
        lines = ((i, form.replace(b"\0", bs.encode())) for i, bs in enumerate(fs.bs_ids))
    end = b",%s," + fs.mode.encode() + b"\n"
    for i, pieces in groupby(lines, key=itemgetter(0)):
        text = b"".join(piece for _, piece in pieces)
        yield text.replace(b"%", b"%%").replace(b"\n", end) % tuple(
            _float_reprs(fs.forecast[i]))


def _cmd_forecast(args, opts: dict) -> int:
    start, k, mode = opts["train_hours"], opts["test_hours"], opts["mode"]

    def write(t, header):
        if header is not None and start + k > t.n_hours:
            return None  # no actuals to copy: render, before any read of the CSV
        # load_corpus sorts stations by id, so the rows come out sorted too.
        fs = forecast_fleet(load_model(args.model), t, start, k, mode)
        lines = None
        if fs.actual is not None:
            index = dict(zip(t.bs_ids, range(t.n_bs)))
            stations = [index[bs] for bs in fs.bs_ids]
            source = None if header is None else (args.input, header)
            lines = station_lines(t, stations, start, start + k, source)
        atomic_write_text(args.output, _forecast_csv(fs, lines))
        return fs

    fs = with_sidecar(args.input, write)
    print(
        f"forecast: {len(fs.bs_ids)} stations x {opts['test_hours']} hours "
        f"({opts['mode']}) -> {args.output}"
    )
    return 0


def _write_result(path: str, result, csv, doc) -> None:
    """Write ``csv(result)`` to a ``.csv`` path, else the JSON of ``doc(result)``."""
    atomic_write_text(path, csv(result) if path.endswith(".csv") else dump_json(doc(result)))


def _cmd_eval(args, opts: dict) -> int:
    t = load_corpus(args.input)
    model = load_model(args.model)
    split = Split(opts["train_hours"], opts["test_hours"])
    report = evaluate(model, t, split, opts["mode"], opts["seed"])
    _write_result(args.output, report, report_csv, report_doc)
    print(
        f"eval: average_nrmse={report.average:.6f} "
        f"excluded={report.excluded_count} stations={len(report.per_bs)} "
        f"-> {args.output}"
    )
    return 0


def _cmd_sweep(args, opts: dict) -> int:
    t = load_corpus(args.input)
    split = Split(opts["train_hours"], opts["test_hours"])
    grid = opts["seasonalities"]
    result = sweep_seasonality(t, grid, _width(opts), split, opts["mode"])
    best = result.best_m()  # raises, before any write, when no point scored
    best_value = next(
        p.average_nrmse for p in result.points if p.seasonality_m == best
    )
    _write_result(args.output, result, sweep_csv, sweep_doc)
    print(f"sweep: best_m={best} average_nrmse={best_value:.6f} -> {args.output}")
    return 0


def _check_output(args) -> None:
    """Raise InvalidConfig if the file that a command writes from a corpus
    (train's model, every other output) is that corpus's CSV or sidecar,
    which it would replace. clean may write its input in place, and a
    missing input is left to the command to report."""
    if args.command in ("synth", "clean") or not os.path.exists(args.input):
        return
    flag = "model" if args.command == "train" else "output"
    written = getattr(args, flag)
    for path in (args.input, args.input + SUFFIX):
        try:
            same = os.path.samefile(written, path)
        except OSError:  # one of them does not exist
            same = os.path.realpath(written) == os.path.realpath(path)
        if same:
            raise InvalidConfig(f"--{flag} {written} would overwrite the input corpus ({path})")


COMMANDS = {  # command: (help, function, required file flags)
    "synth": ("generate a synthetic corpus", _cmd_synth, "output"),
    "clean": ("drop stations with missing or negative hours", _cmd_clean,
              "input output"),
    "train": ("train a model on the first train-hours", _cmd_train, "input model"),
    "forecast": ("write per-station forecasts as CSV", _cmd_forecast,
                 "input model output"),
    "eval": ("score a model; writes a report (JSON or .csv)", _cmd_eval,
             "input model output"),
    "sweep": ("train and score one br model per seasonality", _cmd_sweep,
              "input output"),
}
FILES = {"input": "input corpus CSV", "model": "model JSON path",
         "output": "output file path"}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise InvalidConfig, so that
    they print the same JSON line as every other error; its subcommand
    parsers are of this class too. A flag must be spelled in full."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message: str):
        raise InvalidConfig(f"{self.prog}: {message}")

    def parse_known_args(self, args=None, namespace=None):
        parsed, extras = super().parse_known_args(args, namespace)
        for key, value in vars(parsed).items():
            # argparse takes `--flag=--` for an empty list of values,
            # unchecked by the flag's type and choices.
            if isinstance(value, list):
                self.error(f"argument --{key.replace('_', '-')}: expected one argument")
        return parsed, extras


def _int_flag(text: str) -> int:
    """The value of an int flag: ASCII digits with an optional sign and
    nothing else, as strict as a JSON int in a config file. int() alone
    would also take surrounding spaces, "_" between digits and the
    digits of other scripts."""
    try:
        if re.fullmatch(r"[+-]?[0-9]+", text):
            return int(text)
    except ValueError:  # more digits than int() converts
        pass
    raise argparse.ArgumentTypeError(f"expected an integer, got {reprlib.repr(text)}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="blockreg",
        description=(
            "Short-term mobile traffic forecasting: a shared linear model "
            "over seasonally differenced traffic, with undifferenced linear "
            "regression and per-station seasonal ARIMA baselines."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, func, files) in COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        p.set_defaults(func=func)
        for name in files.split():
            p.add_argument(f"--{name}", required=True, help=FILES[name])
        rows = [row for row in SETTINGS if command in row[4]]
        if not rows:
            continue
        only = [f"{key} (default {default})" for key, _, default, help_, _ in rows
                if help_ is None]
        p.add_argument("--config", help="JSON config file" + (
            f"; also sets {', '.join(only)}" if only else ""))
        for key, kind, default, help_, _ in rows:
            if help_ is None:
                continue
            # Every flag with help is a choice or an int.
            typing = {"choices": kind} if isinstance(kind, tuple) else {"type": _int_flag}
            shown = "none" if default is None else default
            p.add_argument(f"--{key.replace('_', '-')}", dest=key, **typing,
                           help=f"{help_} (default {shown})")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_output(args)
        # Outputs are checked for non-finite numbers, which raise Overflow,
        # so numpy's floating-point warnings would only repeat that on stderr.
        with np.errstate(all="ignore"):
            return args.func(args, resolve_settings(args))
    except BlockregError as exc:
        line = {
            "error": type(exc).__name__,
            "family": _family_name(exc),
            "message": str(exc),
        }
        print(json.dumps(line), file=sys.stderr)
        return exc.exit_code


def _family_name(exc: BlockregError) -> str:
    from .errors import ConfigError, DataError, NumericalError

    for family in (ConfigError, DataError, NumericalError):
        if isinstance(exc, family):
            return family.__name__
    return "BlockregError"


def run() -> None:
    """The process entry: `main` on the command line, then exit with its code.

    Before the exit, `gc.freeze` moves every object alive into the
    permanent generation, which the interpreter's exit-time collections
    skip: they would only walk and free the reference cycles that the
    imports built. Streams are still flushed and atexit handlers still
    run; every output file is closed before `main` returns.
    """
    code = main(sys.argv[1:])
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
