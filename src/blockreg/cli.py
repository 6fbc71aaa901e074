"""Command-line interface wiring corpus, pipeline, training, and evaluation.

Subcommands: synth, clean, train, forecast, eval, sweep. Configuration
precedence is command-line flags over a JSON config file over built-in
defaults; the defaults reproduce the reference experiment configuration
(m=24, w=3 for br, w=72 for lr, ar=2, ma=1, split 240/96, one_step).

Every output file is written atomically (temp file + rename) and every
command is a pure function of its inputs and flags, so repeated runs
produce byte-identical files. Errors print one machine-readable JSON line
to stderr and exit with the family code: configuration 2, data 3,
numerical 4.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import repeat

from .baselines import train_sa
from .corpus import SynthConfig, clean, load_corpus, save_corpus, synthesize
from .errors import BlockregError, InvalidConfig, ParseError
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
from .forecaster import train_block_regression
from .modelio import atomic_write_text, dump_json, load_model, save_model

DEFAULT_SWEEP_GRID = [24, 48, 72, 96, 120, 144, 168]

# Config-file keys each command accepts (synth takes SynthConfig fields).
COMMAND_KEYS = {
    "synth": {f for f in SynthConfig.__dataclass_fields__},
    "clean": set(),
    "train": {"kind", "m", "w", "ar", "ma", "train_hours", "threads"},
    "forecast": {"train_hours", "test_hours", "mode", "threads"},
    "eval": {"train_hours", "test_hours", "mode", "seed", "threads"},
    "sweep": {"w", "train_hours", "test_hours", "mode", "threads", "seasonalities"},
}


def _load_config_file(path: str | None, command: str) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot open config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: config must be a JSON object")
    unknown = set(doc) - COMMAND_KEYS[command]
    if unknown:
        raise InvalidConfig(
            f"{path}: unknown config keys for {command}: {sorted(unknown)}"
        )
    return doc


def _setting(args, config: dict, key: str, default):
    """Flag value if given, else config-file value, else default."""
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in config:
        return config[key]
    return default


def _int_setting(args, config: dict, key: str, default: int) -> int:
    """Integer setting from a flag, the config file, or the default.

    Only a real int is accepted: a bool, float, string or null from the
    config file is an error, never coerced.
    """
    return _as_int(key, _setting(args, config, key, default))


def _as_int(key: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidConfig(f"{key} must be an integer, got {value!r}")
    return value


def _check_threads(args, config: dict) -> int:
    threads = _int_setting(args, config, "threads", 1)
    if threads < 1:
        raise InvalidConfig(f"--threads must be >= 1, got {threads}")
    # Execution is sequential; the flag caps parallelism and never changes
    # results, so accepting any positive value keeps outputs identical.
    return threads


def _cmd_synth(args) -> int:
    config = _load_config_file(args.config, "synth")
    if args.seed is not None:
        config = dict(config, seed=args.seed)
    cfg = SynthConfig.from_dict(config)
    t = synthesize(cfg)
    save_corpus(t, args.output)
    print(f"synth: wrote {args.output} ({t.n_bs} stations x {t.n_hours} hours)")
    return 0


def _cmd_clean(args) -> int:
    raw = load_corpus(args.input)
    cleaned = clean(raw)
    save_corpus(cleaned, args.output)
    print(f"clean: kept {cleaned.n_bs}/{raw.n_bs} stations -> {args.output}")
    return 0


def _cmd_train(args) -> int:
    config = _load_config_file(args.config, "train")
    kind = _setting(args, config, "kind", "br")
    if kind not in ("br", "lr", "sa"):
        raise InvalidConfig(f"--kind must be br, lr, or sa, got {kind!r}")
    m = _int_setting(args, config, "m", 24)
    w = _int_setting(args, config, "w", 72 if kind == "lr" else 3)
    ar = _int_setting(args, config, "ar", 2)
    ma = _int_setting(args, config, "ma", 1)
    train_hours = _int_setting(args, config, "train_hours", 240)
    _check_threads(args, config)

    t = load_corpus(args.input)
    t.require_clean()
    if kind == "sa":
        model = train_sa(t, ar=ar, ma=ma, s=m, train_hours=train_hours)
        save_model(model, args.model)
        print(
            f"train: sa model with {model.n_params} parameters "
            f"(failed={len(model.failed_bs)}) -> {args.model}"
        )
        return 0
    # lr is the br pipeline without differencing.
    model, diag = train_block_regression(
        t, m=0 if kind == "lr" else m, w=w, train_hours=train_hours
    )
    save_model(model, args.model)
    print(
        f"train: {model.kind} model with {model.n_params} parameters "
        f"(iterations={diag.iterations} converged={str(diag.converged).lower()} "
        f"samples={diag.n_samples}) -> {args.model}"
    )
    return 0


def _forecast_csv(fs) -> str:
    blocks = ["bs_id,hour,actual,forecast,mode"]
    hours = list(map(str, fs.hours.tolist()))
    for i, bs in enumerate(fs.bs_ids):  # forecast_fleet guarantees k >= 1
        actual = repeat("") if fs.actual is None else map(repr, fs.actual[i].tolist())
        forecast = map(repr, fs.forecast[i].tolist())
        rows = zip(repeat(bs), hours, actual, forecast, repeat(fs.mode))
        blocks.append("\n".join(map(",".join, rows)))
    return "\n".join(blocks) + "\n"


def _cmd_forecast(args) -> int:
    config = _load_config_file(args.config, "forecast")
    train_hours = _int_setting(args, config, "train_hours", 240)
    test_hours = _int_setting(args, config, "test_hours", 96)
    mode = _setting(args, config, "mode", "one_step")
    _check_threads(args, config)

    t = load_corpus(args.input)
    t.require_clean()
    model = load_model(args.model)
    # load_corpus sorts stations by id, so the rows come out sorted too.
    fs = forecast_fleet(model, t, train_hours, test_hours, mode)
    atomic_write_text(args.output, _forecast_csv(fs))
    print(
        f"forecast: {len(fs.bs_ids)} stations x {test_hours} hours "
        f"({mode}) -> {args.output}"
    )
    return 0


def _cmd_eval(args) -> int:
    config = _load_config_file(args.config, "eval")
    split = Split(
        train_hours=_int_setting(args, config, "train_hours", 240),
        test_hours=_int_setting(args, config, "test_hours", 96),
    )
    mode = _setting(args, config, "mode", "one_step")
    seed = _setting(args, config, "seed", None)
    if seed is not None:
        seed = _as_int("seed", seed)
    _check_threads(args, config)

    t = load_corpus(args.input)
    model = load_model(args.model)
    report = evaluate(model, t, split=split, mode=mode, seed=seed)
    if args.output.endswith(".csv"):
        atomic_write_text(args.output, report_csv(report))
    else:
        atomic_write_text(args.output, dump_json(report_doc(report)))
    print(
        f"eval: average_nrmse={report.average:.6f} "
        f"excluded={report.excluded_count} stations={len(report.per_bs)} "
        f"-> {args.output}"
    )
    return 0


def _cmd_sweep(args) -> int:
    config = _load_config_file(args.config, "sweep")
    split = Split(
        train_hours=_int_setting(args, config, "train_hours", 240),
        test_hours=_int_setting(args, config, "test_hours", 96),
    )
    w = _int_setting(args, config, "w", 3)
    mode = _setting(args, config, "mode", "one_step")
    grid = config.get("seasonalities", DEFAULT_SWEEP_GRID)
    if not isinstance(grid, list):
        raise InvalidConfig(f"seasonalities must be a list, got {grid!r}")
    grid = [_as_int("seasonalities", m) for m in grid]
    _check_threads(args, config)

    t = load_corpus(args.input)
    result = sweep_seasonality(t, grid, w=w, split=split, mode=mode)
    if args.output.endswith(".csv"):
        atomic_write_text(args.output, sweep_csv(result))
    else:
        atomic_write_text(args.output, dump_json(sweep_doc(result)))
    best = result.best_m()
    best_value = next(
        p.average_nrmse for p in result.points if p.seasonality_m == best
    )
    print(f"sweep: best_m={best} average_nrmse={best_value:.6f} -> {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockreg",
        description=(
            "Short-term mobile traffic forecasting: a shared linear model "
            "over seasonally differenced traffic, with undifferenced linear "
            "regression and per-station seasonal ARIMA baselines."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, model=False, output=True, input_=True):
        if input_:
            p.add_argument("--input", required=True, help="input corpus CSV")
        if model:
            p.add_argument("--model", required=True, help="model JSON path")
        if output:
            p.add_argument("--output", required=True, help="output file path")
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--threads", type=int, default=None,
                       help="parallelism cap; results are independent of it (default 1)")

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--output", required=True, help="corpus CSV to write")
    p.add_argument("--config", default=None,
                   help="SynthConfig JSON (defaults: 200 stations, 336 hours)")
    p.add_argument("--seed", type=int, default=None, help="RNG seed (default 1)")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("clean", help="drop stations with missing or negative hours")
    add_common(p, input_=True, output=True)
    p.set_defaults(func=_cmd_clean)

    p = sub.add_parser("train", help="train a model on the first train-hours")
    add_common(p, model=True, output=False)
    p.add_argument("--kind", default=None, choices=["br", "lr", "sa"],
                   help="model kind (default br)")
    p.add_argument("--m", type=int, default=None,
                   help="differencing lag, or seasonal lag for sa (default 24)")
    p.add_argument("--w", type=int, default=None,
                   help="window width (default 3 for br, 72 for lr)")
    p.add_argument("--ar", type=int, default=None, help="sa AR order (default 2)")
    p.add_argument("--ma", type=int, default=None, help="sa MA order (default 1)")
    p.add_argument("--train-hours", dest="train_hours", type=int, default=None,
                   help="training range in hours (default 240)")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("forecast", help="write per-station forecasts as CSV")
    add_common(p, model=True)
    p.add_argument("--train-hours", dest="train_hours", type=int, default=None,
                   help="horizon starts after this many hours (default 240)")
    p.add_argument("--test-hours", dest="test_hours", type=int, default=None,
                   help="horizon length in hours (default 96)")
    p.add_argument("--mode", default=None, choices=["one_step", "recursive"],
                   help="forecast mode (default one_step)")
    p.set_defaults(func=_cmd_forecast)

    p = sub.add_parser("eval", help="score a model; writes a report (JSON or .csv)")
    add_common(p, model=True)
    p.add_argument("--train-hours", dest="train_hours", type=int, default=None,
                   help="training range in hours (default 240)")
    p.add_argument("--test-hours", dest="test_hours", type=int, default=None,
                   help="scored horizon in hours (default 96)")
    p.add_argument("--mode", default=None, choices=["one_step", "recursive"],
                   help="forecast mode (default one_step)")
    p.add_argument("--seed", type=int, default=None,
                   help="recorded in the report config (default none)")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep", help="train and score one br model per seasonality")
    add_common(p)
    p.add_argument("--w", type=int, default=None, help="window width (default 3)")
    p.add_argument("--train-hours", dest="train_hours", type=int, default=None,
                   help="training range in hours (default 240)")
    p.add_argument("--test-hours", dest="test_hours", type=int, default=None,
                   help="scored horizon in hours (default 96)")
    p.add_argument("--mode", default=None, choices=["one_step", "recursive"],
                   help="forecast mode (default one_step)")
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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


if __name__ == "__main__":
    sys.exit(main())
