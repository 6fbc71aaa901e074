"""Self-test of the benchmark's tracer and output checks.

Usage (from the repository root): python3 perfbench/selftest.py

1. Self time: ``summarize`` on a hand-built span tree gives the expected
   inclusive and self seconds.
2. Rebinding: after ``Tracer.install`` every ``blockreg`` module that held
   a measured function holds its wrapper instead.
3. No effect on results: a small corpus (40 stations x 336 hours) goes
   through the full flow once untraced and once traced; every corpus,
   model, report, forecast and sweep file must be byte-identical. A file
   altered afterwards must be reported as different, so the comparison
   cannot pass vacuously. Every per-layer metric must be recorded.
4. Per-layer metrics: a span or counter that was never recorded, or a 0
   outside ``run.ZERO_OK``, is reported as a problem.
5. BENCHMARK.json lists exactly the metrics the benchmark reports.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run
from tracer import HOT, summarize, top_level_seconds

SMALL = run.Workload(40, 336, 240, 96, 1, 1, 2)


def check_self_time() -> None:
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1],
             ["b", 5.0, 6.0, 0]]
    got = summarize(spans)
    assert got["a"] == {"calls": 1, "s": 10.0, "self_s": 6.0}, got["a"]
    assert got["b"] == {"calls": 2, "s": 4.0, "self_s": 3.0}, got["b"]
    assert got["c"] == {"calls": 1, "s": 1.0, "self_s": 1.0}, got["c"]
    assert top_level_seconds(spans) == 10.0


def check_rebinding() -> None:
    # Run in a child so the wrappers never touch this process's modules.
    code = (
        "import sys; sys.path.insert(0, 'perfbench'); from tracer import Tracer\n"
        "import blockreg.cli as c, blockreg.corpus as k, blockreg.evaluation as e\n"
        "import blockreg.forecaster as f\n"
        "originals = [c.load_corpus, e.forecast_horizon, f.forecast_one]\n"
        "n = Tracer().install()\n"
        "assert n > 30, n\n"
        "assert c.load_corpus is k.load_corpus is not originals[0]\n"
        "assert c.load_corpus.__wrapped__ is originals[0]\n"
        "assert e.forecast_horizon is f.forecast_horizon is not originals[1]\n"
        "assert f.forecast_one.__wrapped__ is originals[2]\n"
    )
    with run.workspace() as (runner, _):
        subprocess.run([sys.executable, "-c", code], env=runner.env,
                       cwd=run.ROOT, check=True)


def check_traced_outputs_identical() -> None:
    with run.workspace() as (runner, work):
        metrics = run.traced_metrics(runner, SMALL, work, seed=5)
        assert not runner.problems, runner.problems
        steps = {name for _, name in runner.digests}
        assert len(steps) == 2 + len(run.flow_steps(SMALL, work, work)), steps
        assert metrics["forecaster.forecast_one.calls"] > 0
        # Alter one traced output: the comparison must notice.
        step = next(s for s in run.flow_steps(SMALL, work / "traced",
                                              work / "traced" / "out")
                    if s.name == "eval_br_one_step")
        step.output.write_text(step.output.read_text() + " ")
        assert runner.check_repeatable(step, "5") is not None


def check_layer_metrics() -> None:
    spans, counters = {}, {}
    for name in run.LAYER_METRICS:
        base, _, key = name.rpartition(".")
        if key in ("s", "self_s", "calls") and base not in HOT:
            spans[base] = {"calls": 1, "s": 1.0, "self_s": 1.0}
        else:
            counters[name] = 1
    values, problems = run.layer_metrics(spans, counters)
    assert not problems and list(values) == list(run.LAYER_METRICS), problems
    # A renamed function: its span is gone.
    del spans["corpus.load_corpus"]
    # An observer that records 0 where 0 is not a valid reading, and one
    # that is never called.
    counters.update({"corpus.load_corpus.rows": 0, "regressor.cg_unconverged": 0})
    del counters["pipeline.samples"]
    _, problems = run.layer_metrics(spans, counters)
    assert problems == [
        "corpus.load_corpus.s: never recorded",
        "corpus.load_corpus.calls: never recorded",
        "corpus.load_corpus.rows: reads 0",
        "pipeline.samples: never recorded",
    ], problems


def check_benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    with run.workspace() as (runner, work):
        traced = run.traced_metrics(runner, SMALL, work / "t", seed=7)
        untraced = run.untraced_metrics(runner, SMALL, work / "u", seed=7,
                                        seconds=0)
    assert [m["name"] for m in spec["end_to_end"]] == list(untraced)
    assert [m["name"] for m in spec["per_layer"]] == list(traced)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["unit"] == run.unit(m["name"]), m
    assert [w["name"] for w in spec["workloads"]] == ["paper", "wide"]


def main() -> int:
    checks = [check_self_time, check_rebinding, check_traced_outputs_identical,
              check_layer_metrics, check_benchmark_json]
    failed = 0
    for check in checks:
        try:
            check()
        except (AssertionError, subprocess.CalledProcessError) as exc:
            failed += 1
            print(f"FAIL {check.__name__}: {exc!r}")
        else:
            print(f"ok   {check.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
