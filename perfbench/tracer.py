"""In-memory span tracer that wraps blockreg's public functions from outside.

The wrappers are installed by rebinding names: every ``blockreg`` module
that holds a public function under some name (for example ``cli`` holds
``load_corpus`` from ``corpus``) gets the wrapper under that name, so calls
made through any import path are seen. Nothing under ``src/`` is edited.

Functions called millions of times per command (``HOT``) get a call counter
only; a span on each of them would cost more than the work it measures.
Spans are kept in memory and written once, when the command exits.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import Counter

# Layers measured by the benchmark, in the order they are reported.
MODULES = (
    "cli",
    "corpus",
    "pipeline",
    "regressor",
    "forecaster",
    "baselines",
    "evaluation",
    "modelio",
)

# Per-call inner functions: counted, never spanned.
HOT = {"forecaster.forecast_one", "evaluation.nrmse"}


def _nbytes(*arrays) -> int:
    return sum(int(a.nbytes) for a in arrays)


# Counters derived from a call's bound arguments and result, per span name.
# ``bytes_materialized`` is computed from the ``nbytes`` of returned arrays;
# ``bytes`` and ``bytes_written`` are file sizes after the write.
OBSERVERS = {
    "corpus.load_corpus": lambda a, r: {"corpus.load_corpus.rows": r.values.size},
    "corpus.save_corpus": lambda a, r: {
        "corpus.save_corpus.bytes": os.path.getsize(a["path"])
    },
    "corpus.clean": lambda a, r: {"corpus.clean.dropped": a["raw"].n_bs - r.n_bs},
    "pipeline.seasonal_difference": lambda a, r: {
        "pipeline.bytes_materialized": _nbytes(r.values)
    },
    "pipeline.slide_windows": lambda a, r: {
        "pipeline.samples": r.n_samples,
        "pipeline.bytes_materialized": _nbytes(r.x, r.y, r.provenance),
    },
    "pipeline.apply_normalization": lambda a, r: {
        "pipeline.bytes_materialized": _nbytes(r.x, r.y)
    },
    "regressor.train_cg": lambda a, r: {
        "regressor.cg_iterations": r[1].iterations,
        "regressor.cg_unconverged": int(not r[1].converged),
    },
    "baselines.train_sa": lambda a, r: {"baselines.sa_failed": len(r.failed_bs)},
    "evaluation.evaluate": lambda a, r: {"evaluation.excluded": r.excluded_count},
    "modelio.atomic_write_text": lambda a, r: {
        "modelio.bytes_written": os.path.getsize(a["path"])
    },
}


class Tracer:
    """Spans as ``[name, start, end, parent_index]`` plus named counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def spanned(self, name: str, fn):
        observe = OBSERVERS.get(name)
        signature = inspect.signature(fn) if observe else None
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if observe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counters.update(observe(bound.arguments, result))
            return result

        return wrapper

    def counted(self, name: str, fn):
        counters = self.counters
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> int:
        """Wrap every public function of the measured modules; return the count.

        Each wrapper replaces the original under every name, in every
        ``blockreg`` module, that refers to it.
        """
        import blockreg.cli  # noqa: F401  (imports every measured module)

        wrappers = {}
        for short in MODULES:
            module = sys.modules["blockreg." + short]
            for attr, obj in vars(module).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__
                ):
                    continue
                name = f"{short}.{attr}"
                wrap = self.counted if name in HOT else self.spanned
                wrappers[id(obj)] = (obj, wrap(name, obj))
        for module_name, module in list(sys.modules.items()):
            if module_name != "blockreg" and not module_name.startswith("blockreg."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
        return len(wrappers)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": dict(self.counters)}, fh)


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds ``s`` and ``self_s``.

    Self time is a span's duration minus the durations of its direct
    children; children never outlive their parent in a single-threaded
    call stack, so this equals the uncovered part of the interval.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, _) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start - child[i]
    return out


def top_level_seconds(spans: list[list]) -> float:
    """Wall time covered by spans that have no parent."""
    return sum(end - start for _, start, end, parent in spans if parent < 0)
