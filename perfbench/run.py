"""Benchmark of the blockreg CLI flow, end to end and per module.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper --seed 1 --seconds 40 --trace 0

Each workload is a closed loop: this process runs one ``blockreg``
subcommand per child process and starts the next only after the previous
one has exited. Set-up (``synth`` + ``clean``) is repeated on several
corpora drawn from ``--seed``; the flow after set-up (train, eval,
forecast, sweep) is repeated while another flow fits in ``--seconds``, and
its timings are reported as medians over repeats, each command rescaled by
a reference program timed just before and just after it (see
``REFERENCE``).

``--trace 0`` reports the end-to-end metrics of untraced runs.
``--trace 1`` runs one untraced pass and one traced pass over the same
corpus, checks that both wrote byte-identical files, and reports per-module
metrics from the spans recorded by ``traced_cli.py``.

Every output file is checked; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from tracer import MODULES, summarize, top_level_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Whole-run budget; a run that has not finished by then is abandoned.
DEADLINE_S = 170
# Corpus j of a run is synthesized with seed + j * CORPUS_SEED_STRIDE.
CORPUS_SEED_STRIDE = 7919
KINDS = ("br", "lr", "sa")
# Parameters per model file at the CLI defaults: br w=3, lr w=72, and
# ar + ma + 2 per fitted station for sa.
PARAMS = {"br": 4, "lr": 73}
SA_PARAMS_PER_STATION = 5
SWEEP_POINTS = 7
IMPORT_REPEATS = 5
# Each command runs on one thread, as the CLI's --threads 1 default says.
# BLAS helper threads would otherwise contend for the second core and make
# wall times swing by about 15% from one flow to the next on 2 cores.
ONE_THREAD = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
# The speed of a shared 2-core host drifts by up to 2x over minutes, and
# by 15-25% between the commands of one flow, far more than any bound.
# Untraced runs therefore run this fixed program, which does not use
# blockreg, before every command and once after the last command of each
# set-up and flow. Each command's wall time is multiplied by REFERENCE_S /
# (mean of the reference runs just before and just after it), so times read
# as on a host where the reference takes REFERENCE_S. Replayed on 78
# recorded paper flows, this cut the spread of the flow time from one flow
# to the next to 5-7%, against 9-17% when a whole flow was scaled by the
# median of its reference runs. Raw wall times are printed per flow.
REFERENCE_S = 0.14
REFERENCE = (
    "s = 0\n"
    "for i in range(300000): s += i % 7\n"
    "rows = [f'bs_{i % 50:04d},{i},{i * 0.37!r}' for i in range(20000)]\n"
    "v = [float(r.split(',')[2]) for r in rows]\n"
)


# Per-layer metrics read from spans and counters, in report order.
LAYER_METRICS = (
    "corpus.load_corpus.s", "corpus.load_corpus.calls",
    "corpus.load_corpus.rows", "corpus.save_corpus.s",
    "corpus.save_corpus.bytes", "corpus.clean.s", "corpus.clean.dropped",
    "corpus.synthesize.s",
    "pipeline.seasonal_difference.s", "pipeline.slide_windows.s",
    "pipeline.fit_normalization.s", "pipeline.apply_normalization.s",
    "pipeline.samples", "pipeline.bytes_materialized",
    "regressor.train_cg.s", "regressor.train_cg.calls",
    "regressor.cg_iterations", "regressor.cg_unconverged",
    "forecaster.train_block_regression.self_s",
    "forecaster.forecast_horizon.s", "forecaster.forecast_horizon.self_s",
    "forecaster.forecast_horizon.calls", "forecaster.forecast_one.calls",
    "baselines.train_sa.s", "baselines.hannan_rissanen.s",
    "baselines.hannan_rissanen.calls", "baselines.sa_failed",
    "baselines.forecast_sa.s", "baselines.forecast_sa.calls",
    "evaluation.evaluate.s", "evaluation.evaluate.self_s",
    "evaluation.nrmse.calls", "evaluation.excluded",
    "evaluation.sweep_seasonality.s",
    "modelio.save_model.s", "modelio.load_model.s",
    "modelio.atomic_write_text.s", "modelio.bytes_written",
)
# Counters of failures, exclusions and dropped stations: 0 at the seed
# commit and a valid reading. Every other per-layer metric must be recorded
# and above 0, or the run is not correct: a function that was renamed or
# moved, or an observer key with a typo, would otherwise read 0 unnoticed.
ZERO_OK = frozenset({
    "corpus.clean.dropped", "regressor.cg_unconverged",
    "baselines.sa_failed", "evaluation.excluded",
})


@dataclass(frozen=True)
class Workload:
    n_bs: int
    n_hours: int
    train_hours: int
    test_hours: int
    corpora: int  # corpora set up per run; setup_s is the median over them
    quality_flows: int  # first flows, one per corpus, that give nrmse_*
    # Runs of the train commands per untraced flow; train_s is their mean.
    # A wide run makes one flow, and the noise of one run of its three
    # train commands alone spread train_s by 0.12-0.22 over ten seeds.
    train_runs: int


WORKLOADS = {
    "paper": Workload(200, 336, 240, 96, 4, 4, 1),
    "wide": Workload(2000, 336, 240, 96, 2, 1, 2),
}


@dataclass(frozen=True)
class Step:
    name: str
    phase: str  # setup, train, eval or sweep
    argv: tuple[str, ...]
    output: Path


@dataclass
class Outcome:
    wall_s: float
    rss_mb: float
    trace: Path | None
    stations: int  # station count of the corpus the step read or wrote


class Overrun(Exception):
    pass


def _alarm(signum, frame):
    raise Overrun(f"run exceeded {DEADLINE_S} s")


def setup_steps(d: Path, seed: int) -> list[Step]:
    raw, corpus = d / "raw.csv", d / "corpus.csv"
    return [
        Step("synth", "setup",
             ("synth", "--config", str(d / "synth.json"), "--seed", str(seed),
              "--output", str(raw)), raw),
        Step("clean", "setup",
             ("clean", "--input", str(raw), "--output", str(corpus)), corpus),
    ]


def flow_steps(w: Workload, d: Path, out: Path) -> list[Step]:
    corpus = str(d / "corpus.csv")
    split = ("--train-hours", str(w.train_hours))
    horizon = split + ("--test-hours", str(w.test_hours))
    forecast, sweep = out / "forecast_br_recursive.csv", out / "sweep.json"
    steps = [
        Step(f"train_{k}", "train",
             ("train", "--kind", k, "--input", corpus,
              "--model", str(out / f"{k}.json")) + split, out / f"{k}.json")
        for k in KINDS
    ]
    for k in KINDS:
        for mode in ("one_step", "recursive"):
            report = out / f"report_{k}_{mode}.json"
            steps.append(Step(
                f"eval_{k}_{mode}", "eval",
                ("eval", "--input", corpus, "--model", str(out / f"{k}.json"),
                 "--mode", mode, "--output", str(report)) + horizon, report))
    steps.append(Step(
        "forecast_br_recursive", "eval",
        ("forecast", "--input", corpus, "--model", str(out / "br.json"),
         "--mode", "recursive", "--output", str(forecast)) + horizon,
        forecast))
    steps.append(Step(
        "sweep", "sweep",
        ("sweep", "--input", corpus, "--output", str(sweep)) + horizon, sweep))
    return steps


def count_stations(path: Path) -> int:
    with open(path, encoding="utf-8") as fh:
        next(fh, None)
        return len({line.split(",", 1)[0] for line in fh})


def check_output(step: Step, w: Workload, stations: int) -> str | None:
    """Problem with the file a successful command wrote, or None."""
    command = step.argv[0]
    if command == "synth":
        return None
    if command == "clean":
        return None if stations >= 1 else "corpus has no stations"
    if command == "forecast":
        with open(step.output, encoding="utf-8") as fh:
            lines = sum(1 for _ in fh)
        expected = 1 + stations * w.test_hours
        return None if lines == expected else f"{lines} lines, expected {expected}"
    with open(step.output, encoding="utf-8") as fh:
        doc = json.load(fh)
    if command == "train":
        kind = doc["kind"]
        if kind == "sa":
            fitted = len(doc["per_bs"])
            if fitted + len(doc["failed_bs"]) != stations:
                return f"sa model covers {fitted} + failed, not {stations} stations"
            expected = SA_PARAMS_PER_STATION * fitted
        else:
            expected = PARAMS[kind]
        return None if doc["params"] == expected else (
            f"params {doc['params']}, expected {expected}")
    if command == "eval":
        if not math.isfinite(doc["average"]):
            return f"average {doc['average']} is not finite"
        scored = doc["excluded_count"] + len(doc["per_bs"])
        return None if scored == stations else (
            f"excluded + scored = {scored}, corpus has {stations} stations")
    if command == "sweep":
        values = [p["average_nrmse"] for p in doc]
        ok = len(values) == SWEEP_POINTS and all(
            v is not None and math.isfinite(v) for v in values)
        return None if ok else f"sweep points {values}"
    return f"no check for command {command!r}"


@dataclass
class Runner:
    """Runs commands one at a time, checks what they write, counts failures.

    ``problems`` holds one line per failed command and per per-layer metric
    that reads wrong; a run with any problem is not correct.
    """

    env: dict
    logs: Path
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    # When a list, REFERENCE runs before every command, and wherever
    # ``reference`` is called; its wall times are appended here.
    reference_walls: list[float] | None = None

    def spawn(self, cmd: list[str], tag: str) -> tuple[int, float, float]:
        """Exit code, wall seconds and peak RSS (MB) of one child process."""
        with open(self.logs / f"{tag}.out", "wb") as out, \
                open(self.logs / f"{tag}.err", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env,
                                    cwd=ROOT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -signal.SIGKILL
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped above
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def reference(self, tag: str) -> None:
        code, wall, _ = self.spawn([sys.executable, "-c", REFERENCE], tag)
        if code != 0:
            raise RuntimeError("the reference program failed")
        self.reference_walls.append(wall)

    def run(self, step: Step, w: Workload, key: str, stations: int,
            trace_dir: Path | None = None) -> Outcome:
        """Run one step; ``key`` names the corpus, for determinism checks."""
        self.attempted += 1
        tag = f"{self.attempted:04d}_{step.name}"
        if trace_dir is None:
            trace = None
            cmd = [sys.executable, "-m", "blockreg", *step.argv]
        else:
            trace = trace_dir / f"{tag}.json"
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(trace),
                   *step.argv]
        if self.reference_walls is not None:
            self.reference(f"{tag}_reference")
        code, wall, rss = self.spawn(cmd, tag)
        problem = None
        if code != 0:
            err = (self.logs / f"{tag}.err").read_text(errors="replace")
            problem = f"exit code {code}: {err.strip()[-300:]}"
        else:
            try:
                if step.name == "clean":
                    stations = count_stations(step.output)
                problem = check_output(step, w, stations)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problem = f"unreadable output: {type(exc).__name__}: {exc}"
            if problem is None:
                problem = self.check_repeatable(step, key)
        if problem is not None:
            self.failed += 1
            self.problems.append(f"{step.name} ({key}): {problem}")
        return Outcome(wall, rss, trace, stations)

    def check_repeatable(self, step: Step, key: str) -> str | None:
        """Same corpus and command must give the same bytes, traced or not."""
        digest = hashlib.sha256(step.output.read_bytes()).hexdigest()
        earlier = self.digests.setdefault((key, step.name), digest)
        return None if digest == earlier else "output differs from an earlier run"


def prepare_corpus(runner: Runner, w: Workload, d: Path, seed: int,
                   trace_dir: Path | None = None) -> tuple[int, list]:
    """Synthesize and clean one corpus; returns its station count and steps."""
    d.mkdir(parents=True)
    (d / "synth.json").write_text(
        json.dumps({"n_bs": w.n_bs, "n_hours": w.n_hours}), encoding="utf-8")
    done = []
    for step in setup_steps(d, seed):
        done.append((step, runner.run(step, w, str(seed), 0, trace_dir)))
    return done[-1][1].stations, done


def run_flow(runner: Runner, w: Workload, d: Path, out: Path, seed: int,
             stations: int, trace_dir: Path | None = None,
             train_runs: int = 1) -> list:
    """Run the flow's steps, the train steps ``train_runs`` times over."""
    out.mkdir(parents=True, exist_ok=True)
    steps = flow_steps(w, d, out)
    train = [step for step in steps if step.phase == "train"]
    return [
        (step, runner.run(step, w, str(seed), stations, trace_dir))
        for step in train * (train_runs - 1) + steps
    ]


def report_average(path: Path) -> float | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return float(json.load(fh)["average"])
    except (OSError, ValueError, KeyError, TypeError):
        return None


def rescaled(walls: list[float], refs: list[float]) -> list[float]:
    """Wall times as on a host where REFERENCE takes REFERENCE_S.

    ``refs[i]`` ran just before command ``i`` and ``refs[i + 1]`` just after.
    """
    return [wall * 2 * REFERENCE_S / (before + after)
            for wall, before, after in zip(walls, refs, refs[1:])]


def untraced_metrics(runner: Runner, w: Workload, work: Path, seed: int,
                     seconds: float) -> dict:
    """Set up every corpus, then repeat the flow while another one fits.

    The first ``quality_flows`` flows always run; after them a flow starts
    only if the run, set-up included, is expected to end within ``seconds``.
    """
    started = time.perf_counter()
    limit = min(seconds, DEADLINE_S - 30)
    runner.reference_walls = refs = []
    setup_walls, corpora, rss = [], [], []
    for j in range(w.corpora):
        corpus_seed = seed + j * CORPUS_SEED_STRIDE
        d = work / f"corpus{j}"
        first_ref = len(refs)
        stations, done = prepare_corpus(runner, w, d, corpus_seed)
        runner.reference(f"setup{j}_reference_after")
        setup_walls.append(sum(rescaled([o.wall_s for _, o in done],
                                        refs[first_ref:])))
        rss += [o.rss_mb for _, o in done]
        corpora.append((d, corpus_seed, stations))

    flows, quality, durations = [], {k: [] for k in KINDS}, []
    while True:
        i = len(flows)
        if i >= w.quality_flows:
            expected = statistics.median(durations)
            if time.perf_counter() - started + expected > limit:
                break
        d, corpus_seed, stations = corpora[i % len(corpora)]
        flow_started, first_ref = time.perf_counter(), len(refs)
        done = run_flow(runner, w, d, d / "out", corpus_seed, stations,
                        train_runs=w.train_runs)
        runner.reference(f"flow{i}_reference_after")
        durations.append(time.perf_counter() - flow_started)
        times = rescaled([o.wall_s for _, o in done], refs[first_ref:])
        phases = Counter()
        for (step, outcome), t in zip(done, times):
            phases[step.phase] += t
            rss.append(outcome.rss_mb)
        phases["train"] /= w.train_runs
        phases["flow"] = sum(phases.values())
        flows.append(phases)
        print("flow walls: " + json.dumps({
            "commands": [[step.name, round(o.wall_s, 4)] for step, o in done],
            "references": [round(r, 4) for r in refs[first_ref:]],
        }), flush=True)
        if i < w.quality_flows:
            for k in KINDS:
                quality[k].append(report_average(d / "out" / f"report_{k}_one_step.json"))

    metrics = {
        "setup_s": statistics.median(setup_walls),
        "flow_s": statistics.median(f["flow"] for f in flows),
        "train_s": statistics.median(f["train"] for f in flows),
        "eval_s": statistics.median(f["eval"] for f in flows),
    }
    metrics["peak_rss_mb"] = max(rss)
    for k in KINDS:
        values = quality[k]
        metrics[f"nrmse_{k}"] = (
            statistics.median(values) if None not in values else None)
    metrics["ops_ok_ratio"] = 1.0 - runner.failed / runner.attempted
    print(f"setups: {len(setup_walls)}; flows: {len(flows)}; "
          f"run: {time.perf_counter() - started:.1f} s; "
          f"reference runs: {len(refs)}", flush=True)
    return metrics


def import_seconds(runner: Runner) -> float:
    walls = []
    for i in range(IMPORT_REPEATS):
        code, wall, _ = runner.spawn(
            [sys.executable, "-c", "import blockreg.cli"], f"import{i}")
        if code != 0:
            raise RuntimeError("python -c 'import blockreg.cli' failed")
        walls.append(wall)
    return statistics.median(walls)


def traced_metrics(runner: Runner, w: Workload, work: Path, seed: int) -> dict:
    passes = {}
    for mode in ("untraced", "traced"):
        trace_dir = None
        if mode == "traced":
            trace_dir = work / "spans"
            trace_dir.mkdir(parents=True)
        d = work / mode
        stations, done = prepare_corpus(runner, w, d, seed, trace_dir)
        done += run_flow(runner, w, d, d / "out", seed, stations, trace_dir)
        passes[mode] = done

    metrics = {"cli.import_s": import_seconds(runner)}
    for step, outcome in passes["untraced"]:
        metrics[f"cli.{step.name}.wall_s"] = outcome.wall_s
        metrics[f"cli.{step.name}.peak_rss_mb"] = outcome.rss_mb

    spans: dict[str, dict] = {}
    counters: Counter = Counter()
    module_self: Counter = Counter()
    covered = traced_wall = flow_wall = 0.0
    coverage_by_step = {}
    for step, outcome in passes["traced"]:
        with open(outcome.trace, encoding="utf-8") as fh:
            doc = json.load(fh)
        summary = summarize(doc["spans"])
        for name, entry in summary.items():
            total = spans.setdefault(name, Counter())
            total.update(entry)
            if step.phase != "setup":
                module_self[name.split(".", 1)[0]] += entry["self_s"]
        counters.update(doc["counters"])
        top = top_level_seconds(doc["spans"])
        coverage_by_step[step.name] = top / outcome.wall_s
        covered += top
        traced_wall += outcome.wall_s
        if step.phase != "setup":
            flow_wall += outcome.wall_s

    layers, problems = layer_metrics(spans, counters)
    metrics.update(layers)
    metrics.update({
        "trace.overhead_s": traced_wall - sum(
            o.wall_s for _, o in passes["untraced"]),
        "trace.coverage": covered / traced_wall,
    })
    for module in MODULES:
        metrics[f"share.{module}"] = module_self[module] / flow_wall
        if not module_self[module]:
            problems.append(f"share.{module}: no span in the flow commands")
    runner.problems += [f"per-layer metric {p}" for p in problems]
    print("trace coverage by command: " + json.dumps(
        {k: round(v, 4) for k, v in coverage_by_step.items()}), flush=True)
    return metrics


def layer_metrics(spans: dict, counters) -> tuple[dict, list[str]]:
    """LAYER_METRICS values, and a problem for each one that reads wrong.

    "<module>.<function>.<s|self_s|calls>" reads a span summary; any other
    name is a counter. A metric with no span or counter behind it reads 0
    and is a problem; so is a 0 for a metric not in ZERO_OK.
    """
    values, problems = {}, []
    for name in LAYER_METRICS:
        base, _, key = name.rpartition(".")
        if base in spans and key in ("s", "self_s", "calls"):
            values[name] = spans[base][key]
        elif name in counters:
            values[name] = counters[name]
        else:
            values[name] = 0
            problems.append(f"{name}: never recorded")
            continue
        if values[name] == 0 and name not in ZERO_OK:
            problems.append(f"{name}: reads 0")
    return values, problems


def unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if "bytes" in name:
        return "bytes"
    if name.startswith(("nrmse_", "share.")) or name in (
            "ops_ok_ratio", "trace.coverage"):
        return "ratio"
    return "count"


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind in ("Unified", "Data"):
            sizes[f"l{level}"] = size
    return sizes


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    cpu_model, mem_total = "unknown", "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                mem_total = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": _git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu_model": cpu_model,
        **_cache_sizes(),
        "mem_total": mem_total,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


@contextlib.contextmanager
def workspace():
    """A Runner and a scratch directory inside the checkout, removed after."""
    work = WORK / f"run{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "logs").mkdir(parents=True)
    path = str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", "")
    env = dict(os.environ, PYTHONPATH=path.rstrip(os.pathsep), **ONE_THREAD)
    try:
        yield Runner(env=env, logs=work / "logs"), work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "blockreg" / "cli.py").is_file():
        print(f"perfbench: no blockreg sources under {SRC}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(DEADLINE_S)
    try:
        with workspace() as (runner, work):
            print("environment: " + json.dumps(environment(args)), flush=True)
            if args.trace:
                metrics = traced_metrics(runner, w, work, args.seed)
            else:
                metrics = untraced_metrics(runner, w, work, args.seed,
                                           args.seconds)
    except Overrun as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)

    for problem in runner.problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    width = max(len(name) for name in metrics)
    for name, value in metrics.items():
        print(f"{name:<{width}}  {value!s:>24}  {unit(name)}")
    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": value, "unit": unit(name)}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
