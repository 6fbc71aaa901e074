"""Compare the files of the CLI flow under two versions of blockreg.

    python tests/flow_diff.py OLD_SRC NEW_SRC [--synth-config FILE]

Runs the whole flow once with ``PYTHONPATH=OLD_SRC`` and once with
``PYTHONPATH=NEW_SRC``, each in its own temporary directory: synth
``--seed 1``, a text edit that gives two stations the ids ``bs_0001%s``
and ``bs_0002é`` (`ODD_IDS`, so that every file written from the corpus,
copied or rendered, holds an id that a format string would misread and
one that is not ASCII), clean, train br/lr/sa, eval each model in both
modes to .json and .csv, forecast each model in both modes, and sweep to
.json and .csv.
That is 25 files, and the two corpus sidecars (``<csv>.matrix``). Then a
copy of the synth CSV with an NA or a negative volume in a few stations
(`DIRTY`, the same text edit on both sides) is saved with its sidecar and
cleaned, so that clean copies the kept station blocks of its source and
leaves the others out. Each model then forecasts, in both modes, the
cleaned ``dropped.csv`` and ``bare.csv``, a copy of ``corpus.csv`` without
its sidecar, so that forecast copies a subset of stations and renders
without a sidecar too. Last come the fallbacks (`STALE`): ``stale.csv``, a
copy of ``corpus.csv`` and its sidecar whose CSV is edited afterwards, and
``damaged.csv``, a copy whose sidecar is cut short. Each is cleaned, and
forecast by each model in both modes. Each model also forecasts
``corpus.csv`` and ``bare.csv`` recursively from hour 300, a horizon past
the corpus end of the default 336 hours, which has no actuals to copy.
``sa_failed.json`` (`SA_FAILED`) is
``sa.json`` with one station moved to ``failed_bs``; it is evaluated in both
modes to .json and .csv, and forecasts ``corpus.csv`` and ``dropped.csv`` in
both modes, so the sa model has a corpus station it did not fit. For each
file it prints
"identical", or, when the text around the numbers agrees, the largest
relative difference among the file's numbers and the largest difference
over the file's largest number. For a sidecar whose header line differs,
it names the header keys that differ, on either side, and says whether
the float64 matrix after the header is identical. Under each eval JSON report and sweep file
that is not identical it also prints the old and the new average NRMSE: a
report's ``average``, and each sweep point's ``average_nrmse`` by its m,
with their relative difference, so that a change by rounding can say how
far NRMSE moved. Then it prints each blockreg command's own
peak RSS (``ru_maxrss``, MiB), old against new: every command is started
by `LAUNCHER`, a small process, because a child's ``ru_maxrss`` counts the
memory of the process it was forked from. Last comes one line with the
count of lines in the ``.py`` files of each side's ``blockreg`` package,
old, new and net. A ``--synth-config`` JSON file goes to synth, for
example ``{"n_bs": 2000}`` for a wide fleet.

Exits 0 when every command of both flows exited 0, else 1. Uses only the
standard library and numpy.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

KINDS = ("br", "lr", "sa")
MODES = ("one_step", "recursive")
NUMBER = re.compile(
    r"[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|inf(?:inity)?|nan)",
    re.IGNORECASE,
)


# Renames two stations of raw.csv in place, keeping the bs_id order: one id
# holds "%s", which a format string would read as a conversion, and one a
# letter that UTF-8 spells in two bytes. Then saves it with its sidecar; the
# save must give back the edited text.
ODD_IDS = """
from blockreg.corpus import load_corpus, save_corpus
with open("raw.csv", encoding="utf-8", newline="") as fh:
    text = fh.read()
for old, new in (("bs_0001,", "bs_0001%s,"), ("bs_0002,", "bs_0002\\u00e9,")):
    assert "\\n" + old in text
    text = text.replace("\\n" + old, "\\n" + new)
with open("raw.csv", "w", encoding="utf-8", newline="") as fh:
    fh.write(text)
save_corpus(load_corpus("raw.csv"), "raw.csv")
with open("raw.csv", encoding="utf-8", newline="") as fh:
    assert fh.read() == text, "the save changed the edited CSV"
"""

# Writes dirty.csv: raw.csv with the volume of every 4001st row, from the
# 18th on, made NA or negative in turn, then saves it with its sidecar. The
# save must give back the edited text: a negative volume is written as "-"
# and the volume, NA as NA.
DIRTY = """
from blockreg.corpus import load_corpus, save_corpus
with open("raw.csv", encoding="utf-8") as fh:
    lines = fh.read().split("\\n")
for n, i in enumerate(range(18, len(lines) - 1, 4001)):
    bs_id, hour, volume = lines[i].split(",")
    lines[i] = ",".join((bs_id, hour, "-" + volume if n % 2 else "NA"))
text = "\\n".join(lines)
with open("dirty.csv", "w", encoding="utf-8", newline="") as fh:
    fh.write(text)
save_corpus(load_corpus("dirty.csv"), "dirty.csv")
with open("dirty.csv", encoding="utf-8", newline="") as fh:
    assert fh.read() == text, "the save changed the edited CSV"
"""

# Writes bare.csv, a copy of corpus.csv without a sidecar, which every load
# parses.
BARE = """
import shutil
shutil.copyfile("corpus.csv", "bare.csv")
"""

# Writes stale.csv, corpus.csv with its sidecar and then one volume edited
# (a digit appended, which keeps it a number), and damaged.csv, corpus.csv
# with its sidecar less its last byte.
STALE = """
import shutil
for name in ("stale", "damaged"):
    shutil.copyfile("corpus.csv", name + ".csv")
    shutil.copyfile("corpus.csv.matrix", name + ".csv.matrix")
with open("stale.csv", encoding="utf-8", newline="") as fh:
    lines = fh.read().split("\\n")
lines[18] += "1"
with open("stale.csv", "w", encoding="utf-8", newline="") as fh:
    fh.write("\\n".join(lines))
with open("damaged.csv.matrix", "r+b") as fh:
    fh.truncate(fh.seek(0, 2) - 1)
"""


# Writes sa_failed.json: sa.json with its second station moved from per_bs
# to failed_bs, which every corpus of the flow keeps, and params lowered by
# that station's ar + ma + 2 = 5.
SA_FAILED = """
import json
with open("sa.json", encoding="utf-8") as fh:
    doc = json.load(fh)
bs = sorted(doc["per_bs"])[1]
del doc["per_bs"][bs]
doc["failed_bs"] = sorted(doc["failed_bs"] + [bs])
doc["params"] -= 5
with open("sa_failed.json", "w", encoding="utf-8") as fh:
    fh.write(json.dumps(doc, indent=2) + "\\n")
"""


def flow(synth_config: str | None) -> list[tuple[list[str], list[str]]]:
    """The arguments of each python command of the flow, with the files it
    writes."""
    steps = [(["synth", "--seed", "1", "--output", "raw.csv"]
              + (["--config", synth_config] if synth_config else []),
              ["raw.csv", "raw.csv.matrix"]),
             (["-c", ODD_IDS], []),
             (["clean", "--input", "raw.csv", "--output", "corpus.csv"],
              ["corpus.csv", "corpus.csv.matrix"])]
    for kind in KINDS:
        steps.append((["train", "--kind", kind, "--input", "corpus.csv",
                       "--model", f"{kind}.json"], [f"{kind}.json"]))
    for kind in KINDS:
        for mode in MODES:
            for ext in ("json", "csv"):
                out = f"eval_{kind}_{mode}.{ext}"
                steps.append((["eval", "--input", "corpus.csv", "--model",
                               f"{kind}.json", "--mode", mode, "--output", out], [out]))
            out = f"forecast_{kind}_{mode}.csv"
            steps.append((["forecast", "--input", "corpus.csv", "--model",
                           f"{kind}.json", "--mode", mode, "--output", out], [out]))
    for ext in ("json", "csv"):
        steps.append((["sweep", "--input", "corpus.csv", "--output", f"sweep.{ext}"],
                      [f"sweep.{ext}"]))
    steps.append((["-c", DIRTY], ["dirty.csv", "dirty.csv.matrix"]))
    steps.append((["clean", "--input", "dirty.csv", "--output", "dropped.csv"],
                  ["dropped.csv", "dropped.csv.matrix"]))
    steps.append((["-c", BARE], []))
    steps.append((["-c", STALE], ["stale.csv", "stale.csv.matrix", "damaged.csv",
                                  "damaged.csv.matrix"]))
    for corpus in ("stale", "damaged"):
        steps.append((["clean", "--input", f"{corpus}.csv", "--output",
                       f"{corpus}_clean.csv"],
                      [f"{corpus}_clean.csv", f"{corpus}_clean.csv.matrix"]))
    for corpus in ("dropped", "bare", "stale", "damaged"):
        for kind in KINDS:
            for mode in MODES:
                out = f"forecast_{corpus}_{kind}_{mode}.csv"
                steps.append((["forecast", "--input", f"{corpus}.csv", "--model",
                               f"{kind}.json", "--mode", mode, "--output", out], [out]))
    # A recursive horizon past the corpus end (300 + 96 > 336 hours) has no
    # actuals: corpus.csv takes the digest pass, then renders; bare.csv parses.
    for corpus in ("corpus", "bare"):
        for kind in KINDS:
            out = f"forecast_past_end_{corpus}_{kind}.csv"
            steps.append((["forecast", "--input", f"{corpus}.csv", "--model",
                           f"{kind}.json", "--mode", "recursive", "--train-hours", "300",
                           "--output", out], [out]))
    steps.append((["-c", SA_FAILED], ["sa_failed.json"]))
    for mode in MODES:
        for ext in ("json", "csv"):
            out = f"eval_sa_failed_{mode}.{ext}"
            steps.append((["eval", "--input", "corpus.csv", "--model", "sa_failed.json",
                           "--mode", mode, "--output", out], [out]))
        for corpus in ("corpus", "dropped"):
            out = f"forecast_{corpus}_sa_failed_{mode}.csv"
            steps.append((["forecast", "--input", f"{corpus}.csv", "--model",
                           "sa_failed.json", "--mode", mode, "--output", out], [out]))
    return [(argv if argv[0] == "-c" else ["-m", "blockreg", *argv], written)
            for argv, written in steps]


# Runs the command in its arguments and prints its exit code and its own
# ru_maxrss (KiB on Linux); the command's stderr passes through.
LAUNCHER = (
    "import os, subprocess, sys\n"
    "child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
    "_, status, usage = os.wait4(child.pid, 0)\n"
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
)


def run_flow(src: str, work: Path, steps) -> tuple[bool, list[int]]:
    """Whether every step exited 0, and each step's peak RSS in KiB."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    ok, peaks = True, []
    for argv, _ in steps:
        done = subprocess.run([sys.executable, "-c", LAUNCHER, sys.executable, *argv],
                              cwd=work, env=env, capture_output=True, text=True)
        code, kib = map(int, done.stdout.split())
        if code != 0:
            print(f"{src}: {' '.join(argv)[:80]} exited {code}: "
                  f"{done.stderr.strip()}", file=sys.stderr)
            ok = False
        peaks.append(kib)
    return ok, peaks


def split_numbers(text: str) -> tuple[list[str], np.ndarray]:
    """The text between the numbers, and the numbers."""
    return NUMBER.split(text), np.array([float(v) for v in NUMBER.findall(text)])


def differences(a: np.ndarray, b: np.ndarray) -> str:
    """The largest relative difference of two equal-length number lists, and
    the largest difference over the largest magnitude in the file. A number
    that is rounding noise about zero, such as the intercept of a model on
    standardized data, has a large first figure and a tiny second one."""
    if a.shape != b.shape:
        return "differs (count of numbers)"
    scale = np.maximum(np.abs(a), np.abs(b))
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    with np.errstate(invalid="ignore", divide="ignore"):
        diff = np.where(same, 0.0, np.abs(a - b))
        rel = np.where(same, 0.0, diff / scale)
    top = np.nanmax(scale, initial=0.0)
    return "max relative difference {:.3g} ({:.3g} of the largest number)".format(
        rel.max(initial=0.0), diff.max(initial=0.0) / top if top else 0.0)


def compare(old: Path, new: Path) -> str:
    if not old.exists() or not new.exists():
        return "missing on the " + ("old" if not old.exists() else "new") + " side"
    a, b = old.read_bytes(), new.read_bytes()
    if a == b:
        return "identical"
    if old.suffix == ".matrix":  # one JSON header line, then float64 volumes
        head_a, _, body_a = a.partition(b"\n")
        head_b, _, body_b = b.partition(b"\n")
        if body_a == body_b:
            matrix = "identical"
        elif len(body_a) % 8 or len(body_b) % 8:  # a sidecar cut short
            matrix = "differs (not whole float64s)"
        else:
            matrix = differences(np.frombuffer(body_a, "<f8"), np.frombuffer(body_b, "<f8"))
        if head_a == head_b:
            return matrix
        doc_a, doc_b = json.loads(head_a), json.loads(head_b)
        keys = [k for k in {**doc_a, **doc_b} if k not in doc_a or k not in doc_b
                or doc_a[k] != doc_b[k]]
        return f"differs (sidecar header keys {', '.join(keys)}; matrix {matrix})"
    text_a, nums_a = split_numbers(a.decode())
    text_b, nums_b = split_numbers(b.decode())
    if text_a != text_b:
        return "differs (text around the numbers)"
    return differences(nums_a, nums_b)


def averages(path: Path) -> list[tuple[str, float | None]]:
    """The average NRMSEs in an eval JSON report (its ``average``) or a sweep
    file (each point's ``average_nrmse``, None for a point with no score)."""
    if path.name.startswith("sweep."):
        with path.open(encoding="utf-8", newline="") as fh:
            points = json.load(fh) if path.suffix == ".json" else list(csv.DictReader(fh))
        return [(f"m={p['m']} average_nrmse", float(p["average_nrmse"])
                 if p["average_nrmse"] not in (None, "") else None) for p in points]
    if path.name.startswith("eval_") and path.suffix == ".json":
        return [("average", json.loads(path.read_text(encoding="utf-8"))["average"])]
    return []


def average_lines(old: Path, new: Path) -> list[str]:
    """One line per average of ``averages``: old, new and relative difference."""
    lines = []
    for (label, a), (_, b) in zip(averages(old), averages(new)):
        line = f"{label}: old {a}, new {b}"
        if a is not None and b is not None and a != b:
            line += f" (relative difference {abs(a - b) / max(abs(a), abs(b)):.3g})"
        lines.append(line)
    return lines


def package_lines(src: str) -> int:
    """Lines in the ``.py`` files of the ``blockreg`` package under ``src``."""
    return sum(len(path.read_text(encoding="utf-8").splitlines())
               for path in Path(src, "blockreg").glob("*.py"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--synth-config")
    args = parser.parse_args(argv)
    config = os.path.abspath(args.synth_config) if args.synth_config else None
    steps = flow(config)
    with tempfile.TemporaryDirectory() as tmp:
        old, new = Path(tmp, "old"), Path(tmp, "new")
        old.mkdir()
        new.mkdir()
        ok_old, peaks_old = run_flow(args.old_src, old, steps)
        ok_new, peaks_new = run_flow(args.new_src, new, steps)
        files = [f for _, written in steps for f in written]
        width = max(map(len, files))
        for name in files:
            result = compare(old / name, new / name)
            print(f"{name:<{width}}  {result}")
            if result != "identical" and not result.startswith("missing"):
                for line in average_lines(old / name, new / name):
                    print(f"{'':<{width}}    {line}")
    commands = [(" ".join(argv[2:]), a, b) for (argv, _), a, b
                in zip(steps, peaks_old, peaks_new) if argv[0] == "-m"]
    width = max(len(c) for c, _, _ in commands)
    print(f"\n{'peak RSS (MiB)':<{width}}  {'old':>7}  {'new':>7}")
    for command, a, b in commands:
        print(f"{command:<{width}}  {a / 1024:7.2f}  {b / 1024:7.2f}")
    old_lines, new_lines = package_lines(args.old_src), package_lines(args.new_src)
    print(f"\nblockreg .py lines: old {old_lines}, new {new_lines}, "
          f"net {new_lines - old_lines:+d}")
    return 0 if ok_old and ok_new else 1


if __name__ == "__main__":
    sys.exit(main())
