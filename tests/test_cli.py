"""CLI behavior through real subprocess invocations."""

import hashlib
import hmac
import json
import os
import subprocess
import sys

import pytest

from blockreg import SynthConfig, TrafficMatrix, save_corpus, synthesize

SMALL = {"n_bs": 12, "n_hours": 336, "seed": 1}


def run(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "blockreg", *map(str, args)],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Corpus plus one trained model of each kind, built once."""
    ws = tmp_path_factory.mktemp("cli")
    cfg = ws / "synth.json"
    cfg.write_text(json.dumps(SMALL))
    assert run("synth", "--output", ws / "corpus.csv", "--config", cfg).returncode == 0
    for kind in ("br", "lr", "sa"):
        r = run("train", "--input", ws / "corpus.csv",
                "--model", ws / f"{kind}.json", "--kind", kind)
        assert r.returncode == 0, r.stderr
    return ws


def test_synth_writes_deterministic_corpus(tmp_path):
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps(SMALL))
    a = run("synth", "--output", tmp_path / "a.csv", "--config", cfg)
    b = run("synth", "--output", tmp_path / "b.csv", "--config", cfg)
    assert a.returncode == 0 and b.returncode == 0
    assert "12 stations x 336 hours" in a.stdout
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_synth_seed_flag_overrides_config(tmp_path):
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps(SMALL))
    run("synth", "--output", tmp_path / "a.csv", "--config", cfg)
    run("synth", "--output", tmp_path / "b.csv", "--config", cfg, "--seed", 2)
    assert (tmp_path / "a.csv").read_bytes() != (tmp_path / "b.csv").read_bytes()


def test_clean_drops_faulty_station(workspace, tmp_path):
    dirty = tmp_path / "dirty.csv"
    text = (workspace / "corpus.csv").read_text().splitlines()
    first_data = text[1].split(",")[0]
    patched = [text[0]] + [
        f"{first_data},0,NA" if ln.startswith(f"{first_data},0,") else ln
        for ln in text[1:]
    ]
    dirty.write_text("\n".join(patched) + "\n")
    r = run("clean", "--input", dirty, "--output", tmp_path / "clean.csv")
    assert r.returncode == 0
    assert "kept 11/12" in r.stdout


def test_train_br_parameter_count(workspace):
    doc = json.loads((workspace / "br.json").read_text())
    assert doc["kind"] == "br"
    assert doc["params"] == 4
    assert len(doc["theta"]) == 3
    assert doc["m"] == 24


def test_train_lr_parameter_count(workspace):
    doc = json.loads((workspace / "lr.json").read_text())
    assert doc["params"] == 73
    assert doc["m"] == 0


def test_train_sa_parameter_count(workspace):
    doc = json.loads((workspace / "sa.json").read_text())
    assert doc["params"] == 5 * 12
    assert doc["failed_bs"] == []


def test_eval_report_and_threads_determinism(workspace, tmp_path):
    args = ("eval", "--input", workspace / "corpus.csv",
            "--model", workspace / "br.json")
    r1 = run(*args, "--output", tmp_path / "r1.json", "--seed", 9)
    r2 = run(*args, "--output", tmp_path / "r2.json", "--seed", 9)
    r3 = run(*args, "--output", tmp_path / "r3.json", "--seed", 9,
             "--threads", 6)
    assert r1.returncode == 0, r1.stderr
    b1 = (tmp_path / "r1.json").read_bytes()
    assert b1 == (tmp_path / "r2.json").read_bytes()
    assert b1 == (tmp_path / "r3.json").read_bytes()
    doc = json.loads(b1)
    assert doc["config"]["seed"] == 9
    assert "threads" not in doc["config"]
    assert len(doc["per_bs"]) == 12


def test_eval_csv_output(workspace, tmp_path):
    out = tmp_path / "report.csv"
    r = run("eval", "--input", workspace / "corpus.csv",
            "--model", workspace / "lr.json", "--output", out)
    assert r.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "bs_id,nrmse"
    assert len(lines) == 13


def test_eval_config_file_precedence(workspace, tmp_path):
    cfg = tmp_path / "eval.json"
    cfg.write_text(json.dumps({"train_hours": 200, "test_hours": 48}))
    out = tmp_path / "r.json"
    run("eval", "--input", workspace / "corpus.csv",
        "--model", workspace / "br.json", "--output", out, "--config", cfg)
    doc = json.loads(out.read_text())
    assert doc["config"]["train_hours"] == 200  # from file
    run("eval", "--input", workspace / "corpus.csv",
        "--model", workspace / "br.json", "--output", out, "--config", cfg,
        "--train-hours", 216)
    doc = json.loads(out.read_text())
    assert doc["config"]["train_hours"] == 216  # flag wins
    assert doc["config"]["test_hours"] == 48


def test_forecast_csv_layout(workspace, tmp_path):
    out = tmp_path / "fc.csv"
    r = run("forecast", "--input", workspace / "corpus.csv",
            "--model", workspace / "br.json", "--output", out,
            "--test-hours", 10)
    assert r.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "bs_id,hour,actual,forecast,mode"
    assert len(lines) == 1 + 12 * 10
    bs_id, hour, actual, forecast, mode = lines[1].split(",")
    assert hour == "240"
    assert mode == "one_step"
    float(actual), float(forecast)


def test_forecast_recursive_mode(workspace, tmp_path):
    out = tmp_path / "fc.csv"
    r = run("forecast", "--input", workspace / "corpus.csv",
            "--model", workspace / "sa.json", "--output", out,
            "--mode", "recursive", "--test-hours", 5)
    assert r.returncode == 0
    assert ",recursive" in out.read_text()


def test_sweep_grid_from_config(workspace, tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"seasonalities": [12, 24]}))
    out = tmp_path / "sweep.json.out"
    r = run("sweep", "--input", workspace / "corpus.csv", "--output", out,
            "--config", cfg)
    assert r.returncode == 0
    doc = json.loads(out.read_text())
    assert [p["m"] for p in doc] == [12, 24]
    assert "best_m=" in r.stdout


def test_sweep_default_grid_has_seven_points(workspace, tmp_path):
    out = tmp_path / "sweep.json"
    r = run("sweep", "--input", workspace / "corpus.csv", "--output", out)
    assert r.returncode == 0
    assert len(json.loads(out.read_text())) == 7


def test_commands_do_not_load_openssl(workspace, tmp_path):
    # hashlib would load OpenSSL's libcrypto, several MB of RSS per command.
    # synth is left out: it keeps OpenSSL out only in a process that has
    # not imported numpy.random yet; test_synth_does_not_load_openssl
    # checks it in one.
    corpus = workspace / "corpus.csv"
    commands = [
        ("clean", "--input", corpus, "--output", tmp_path / "clean.csv"),
        *(("train", "--kind", kind, "--input", corpus,
           "--model", tmp_path / f"{kind}.json") for kind in ("br", "lr", "sa")),
        *(("eval", "--input", corpus, "--model", tmp_path / f"{kind}.json",
           "--output", tmp_path / f"{kind}.report.json")
          for kind in ("br", "lr", "sa")),
        ("forecast", "--input", corpus, "--model", tmp_path / "br.json",
         "--mode", "recursive", "--output", tmp_path / "fc.csv"),
        ("sweep", "--input", corpus, "--output", tmp_path / "sweep.json"),
    ]
    code = (
        "import json, sys\n"
        "from blockreg.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert main(argv) == 0, argv\n"
        "print('_hashlib' in sys.modules, 'hashlib' in sys.modules)\n"
    )
    argvs = json.dumps([list(map(str, argv)) for argv in commands])
    r = subprocess.run([sys.executable, "-c", code, argvs],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1].split() == ["False", "False"]
    assert (tmp_path / "sweep.json").exists()


def test_only_commands_that_render_float_text_load_orjson(workspace, tmp_path):
    # orjson renders the volumes and forecasts of corpus and forecast CSVs;
    # clean copies its source's text when the sidecar vouches for it, and
    # models, reports and sweeps are written without it.
    corpus = workspace / "corpus.csv"
    commands = [
        (("clean", "--input", corpus, "--output", tmp_path / "clean.csv"), False),
        *((("train", "--kind", kind, "--input", corpus,
            "--model", tmp_path / f"{kind}.json"), False) for kind in ("br", "lr", "sa")),
        *((("eval", "--input", corpus, "--model", tmp_path / f"{kind}.json",
            "--mode", mode, "--output", tmp_path / f"{kind}.{mode}.json"), False)
          for kind in ("br", "lr", "sa") for mode in ("one_step", "recursive")),
        (("sweep", "--input", corpus, "--output", tmp_path / "sweep.json"), False),
        (("forecast", "--input", corpus, "--model", tmp_path / "br.json",
          "--output", tmp_path / "fc.csv"), True),
    ]
    code = (
        "import json, sys\n"
        "from blockreg.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert main(argv) == 0, argv\n"
        "    print('orjson' in sys.modules)\n"
    )
    argvs = json.dumps([list(map(str, argv)) for argv, _ in commands])
    r = subprocess.run([sys.executable, "-c", code, argvs], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    loaded = [line for line in r.stdout.splitlines() if line in ("True", "False")]
    assert loaded == [str(expect) for _, expect in commands]

    code = (
        "import sys\n"
        "from blockreg.cli import main\n"
        "assert 'orjson' not in sys.modules\n"
        "assert main(['synth', '--output', sys.argv[1]]) == 0\n"
        "print('orjson' in sys.modules)\n"
    )
    r = subprocess.run([sys.executable, "-c", code, str(tmp_path / "c.csv")],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "True"


def test_synth_does_not_load_openssl(tmp_path):
    # numpy.random imports hashlib and hmac; synth imports it with _hashlib
    # marked absent, so both work afterwards on CPython's builtin hashes.
    code = (
        "import sys\n"
        "from blockreg.cli import main\n"
        "assert main(['synth', '--output', sys.argv[1]]) == 0\n"
        "print('_hashlib' in sys.modules, 'numpy.random' in sys.modules)\n"
        "import hashlib, hmac\n"
        "print(hashlib.sha256(b'blockreg').hexdigest())\n"
        "print(hmac.new(b'key', b'blockreg', 'sha256').hexdigest())\n"
    )
    r = subprocess.run([sys.executable, "-c", code, str(tmp_path / "c.csv")],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    loaded, sha, mac = r.stdout.splitlines()[-3:]
    assert loaded.split() == ["False", "True"]
    assert sha == hashlib.sha256(b"blockreg").hexdigest()
    assert mac == hmac.new(b"key", b"blockreg", "sha256").hexdigest()


def test_missing_input_exits_3(tmp_path):
    r = run("eval", "--input", tmp_path / "nope.csv",
            "--model", tmp_path / "nope.json", "--output", tmp_path / "r.json")
    assert r.returncode == 3
    err = json.loads(r.stderr)
    assert err["family"] == "DataError"


def test_bad_flag_value_exits_2(workspace, tmp_path):
    r = run("train", "--input", workspace / "corpus.csv",
            "--model", tmp_path / "m.json", "--m", 400)
    assert r.returncode == 2
    err = json.loads(r.stderr)
    assert err["family"] == "ConfigError"


@pytest.mark.parametrize("command", ["eval", "synth"])
def test_unknown_config_key_exits_2(workspace, tmp_path, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"wat": 1}))
    files = ["--input", workspace / "corpus.csv", "--model", workspace / "br.json"]
    r = run(command, *files[:4 if command == "eval" else 0],
            "--output", tmp_path / "r.out", "--config", cfg)
    assert r.returncode == 2
    assert "wat" in json.loads(r.stderr)["message"]
    assert not list(tmp_path.glob("r.out*"))


def test_unclean_corpus_exits_3(workspace, tmp_path):
    dirty = tmp_path / "dirty.csv"
    text = (workspace / "corpus.csv").read_text().splitlines()
    text[1] = text[1].rsplit(",", 1)[0] + ",NA"
    dirty.write_text("\n".join(text) + "\n")
    r = run("train", "--input", dirty, "--model", tmp_path / "m.json")
    assert r.returncode == 3
    assert json.loads(r.stderr)["error"] == "UncleanCorpus"


@pytest.mark.parametrize("rows,error", [
    ("a, 1 ,1_0.5", "ParseError"),
    ("a,1,1_0.5", "ParseError"),
    ("a,99999999999999999999,1.0", "ParseError"),
    ('"b,c",0,2.0', "ParseError"),
    ("a,0,1.0\na,1000000000000,1.0", "InconsistentHours"),
])
def test_corpus_defect_exits_3(tmp_path, rows, error):
    corpus = tmp_path / "c.csv"
    corpus.write_text(f"bs_id,hour,volume\n{rows}\n")
    r = run("clean", "--input", corpus, "--output", tmp_path / "out.csv")
    assert r.returncode == 3, r.stderr
    assert json.loads(r.stderr)["error"] == error
    assert "line 2" in r.stderr or error == "InconsistentHours"
    assert not (tmp_path / "out.csv").exists()


def test_argparse_errors_exit_2(workspace):
    # A bad choice, a missing flag, bad ints, an abbreviated flag, an
    # unknown and no command.
    train = ("train", "--input", "corpus.csv", "--model", "m.json")
    for argv in (("eval", "--mode", "bogus"),
                 ("train", "--input", "corpus.csv"),
                 (*train, "--m", "x"),
                 (*train, "--m", " 24 "),
                 (*train, "--m", "2_4"),
                 (*train, "--m", "\uff12\uff14"),
                 (*train, "--train-h", "240"),
                 ("frobnicate",),
                 ()):
        r = run(*argv, cwd=workspace)
        assert r.returncode == 2, argv
        lines = r.stderr.splitlines()
        assert len(lines) == 1, r.stderr
        err = json.loads(lines[0])
        assert err["error"] == "InvalidConfig" and err["family"] == "ConfigError"
    assert not (workspace / "m.json").exists()


def test_threads_must_be_positive(workspace, tmp_path):
    r = run("eval", "--input", workspace / "corpus.csv",
            "--model", workspace / "br.json", "--output", tmp_path / "r.json",
            "--threads", 0)
    assert r.returncode == 2


def test_help_lists_defaults():
    top = run("--help")
    assert top.returncode == 0
    for sub in ("synth", "clean", "train", "forecast", "eval", "sweep"):
        assert sub in top.stdout
    train_help = run("train", "--help").stdout
    assert "--kind" in train_help and "default br" in train_help
    assert "default 24" in train_help
    assert "default 240" in train_help
    eval_help = run("eval", "--help").stdout
    assert "--mode" in eval_help and "--threads" in eval_help


@pytest.mark.parametrize("command,setting", [
    ("train", {"m": "abc"}),
    ("train", {"m": True}),
    ("train", {"w": 2.7}),
    ("train", {"train_hours": None}),
    ("sweep", {"seasonalities": [24, "48"]}),
    ("sweep", {"seasonalities": 24}),
    ("eval", {"threads": "2"}),
    ("eval", {"seed": "abc"}),
])
def test_non_integer_setting_exits_2(workspace, tmp_path, command, setting):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(setting))
    out = {"train": ("--model", tmp_path / "m.json"),
           "sweep": ("--output", tmp_path / "s.json"),
           "eval": ("--model", workspace / "br.json",
                    "--output", tmp_path / "r.json")}[command]
    r = run(command, "--input", workspace / "corpus.csv", *out, "--config", cfg)
    assert r.returncode == 2, r.stderr
    err = json.loads(r.stderr)
    assert err["error"] == "InvalidConfig"
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_eval_nan_theta_model_exits_3(workspace, tmp_path):
    doc = json.loads((workspace / "br.json").read_text())
    doc["theta"][0] = float("nan")
    model = tmp_path / "nan.json"
    model.write_text(json.dumps(doc))
    r = run("eval", "--input", workspace / "corpus.csv", "--model", model,
            "--output", tmp_path / "r.json")
    assert r.returncode == 3, r.stderr
    assert json.loads(r.stderr)["error"] == "ParseError"


def _huge_sa_sigma2(doc):
    doc["per_bs"][min(doc["per_bs"])]["sigma2"] = 10 ** 400
    return json.dumps(doc).encode()


@pytest.mark.parametrize("kind,defect", [
    ("br", lambda doc: b"[" * 200_000),
    ("br", lambda doc: b"\xff" + json.dumps(doc).encode()),
    ("br", lambda doc: json.dumps({**doc, "theta0": 10 ** 400}).encode()),
    ("lr", lambda doc: json.dumps({**doc, "theta": [10 ** 400] * 72}).encode()),
    ("sa", _huge_sa_sigma2),
], ids=["too-deep", "leading-xff", "theta0-huge", "theta-huge", "sa-sigma2-huge"])
@pytest.mark.parametrize("command", ["eval", "forecast"])
def test_unreadable_model_file_exits_3(workspace, tmp_path, command, kind, defect):
    model = tmp_path / "m.json"
    model.write_bytes(defect(json.loads((workspace / f"{kind}.json").read_text())))
    r = run(command, "--input", workspace / "corpus.csv", "--model", model,
            "--output", tmp_path / "out")
    assert r.returncode == 3, r.stderr
    assert len(r.stderr.splitlines()) == 1
    err = json.loads(r.stderr)
    assert err["error"] == "ParseError" and str(model) in err["message"]
    assert not (tmp_path / "out").exists()


def _failed_too(doc):
    doc["failed_bs"].append(min(doc["per_bs"]))


def _left_out(doc):
    # neither fitted nor failed: the model does not cover the corpus
    del doc["per_bs"][min(doc["per_bs"])]
    doc["params"] -= 5


@pytest.mark.parametrize("kind,edit,error", [
    ("br", lambda doc: doc.update(params=5), "ParseError"),
    ("sa", lambda doc: doc.update(params=7), "ParseError"),
    ("sa", _failed_too, "ParseError"),
    ("sa", lambda doc: doc.update(failed_bs=["bs_zz", "bs_zz"]), "ParseError"),
    ("sa", _left_out, "UnknownBs"),
], ids=["br-params-5", "sa-params-7", "fitted-and-failed", "failed-twice",
        "station-left-out"])
def test_inconsistent_model_file_exits_3(workspace, tmp_path, kind, edit, error):
    doc = json.loads((workspace / f"{kind}.json").read_text())
    edit(doc)
    model = tmp_path / "m.json"
    model.write_text(json.dumps(doc))
    r = run("eval", "--input", workspace / "corpus.csv", "--model", model,
            "--output", tmp_path / "out.json")
    assert r.returncode == 3, r.stderr
    assert len(r.stderr.splitlines()) == 1
    assert json.loads(r.stderr)["error"] == error
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("version", [True, 1.0, "1"], ids=["true", "1.0", "str-1"])
def test_mistyped_format_version_exits_3(workspace, tmp_path, version):
    doc = json.loads((workspace / "br.json").read_text())
    model = tmp_path / "m.json"
    model.write_text(json.dumps({**doc, "format_version": version}))
    r = run("eval", "--input", workspace / "corpus.csv", "--model", model,
            "--output", tmp_path / "out.json")
    assert r.returncode == 3, r.stderr
    assert len(r.stderr.splitlines()) == 1
    err = json.loads(r.stderr)
    assert err["error"] == "ParseError"
    assert "'format_version' must be an integer" in err["message"]
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("command", ["eval", "synth", "forecast"])
def test_unwritable_output_exits_2(workspace, tmp_path, command):
    (tmp_path / "dir").mkdir()
    out = {"eval": tmp_path / "missing" / "r.json",
           "synth": tmp_path / "missing" / "c.csv",
           "forecast": tmp_path / "dir"}[command]
    files = () if command == "synth" else (
        "--input", workspace / "corpus.csv", "--model", workspace / "br.json")
    r = run(command, *files, "--output", out)
    assert r.returncode == 2, r.stderr
    assert len(r.stderr.splitlines()) == 1
    err = json.loads(r.stderr)
    assert err["error"] == "InvalidConfig" and "cannot write" in err["message"]
    assert list(tmp_path.rglob("*")) == [tmp_path / "dir"]


@pytest.mark.parametrize("kind, samples", [("br", 12 * (240 - 24 - 3)),
                                           ("lr", 12 * (240 - 72))])
def test_train_reports_samples(workspace, tmp_path, kind, samples):
    r = run("train", "--input", workspace / "corpus.csv",
            "--model", tmp_path / "m.json", "--kind", kind)
    assert r.returncode == 0, r.stderr
    assert r.stdout.rstrip().endswith(f"converged=true samples={samples}) -> "
                                      f"{tmp_path / 'm.json'}")


@pytest.mark.parametrize("source", ["flag", "config"])
def test_train_negative_m_exits_2(workspace, tmp_path, source):
    args = ["train", "--input", workspace / "corpus.csv",
            "--model", tmp_path / "m.json", "--kind", "br"]
    if source == "flag":
        args += ["--m", -1]
    else:
        (tmp_path / "cfg.json").write_text(json.dumps({"m": -1}))
        args += ["--config", tmp_path / "cfg.json"]
    r = run(*args)
    assert r.returncode == 2, r.stderr
    err = json.loads(r.stderr)
    assert err["error"] == "InvalidConfig"
    assert "m must be >= 0" in err["message"]
    assert not (tmp_path / "m.json").exists()


def test_synth_overflow_exits_4(tmp_path):
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps(
        {"n_bs": 3, "n_hours": 24, "daily_profile_amplitude": 1e308}))
    r = run("synth", "--output", tmp_path / "c.csv", "--config", cfg)
    assert r.returncode == 4, r.stderr
    assert len(r.stderr.splitlines()) == 1  # the JSON line, no numpy warning
    assert json.loads(r.stderr)["error"] == "Overflow"
    assert not (tmp_path / "c.csv").exists()


def assert_overflow(r, output):
    """Exit 4 with one Overflow JSON line, no numpy warning and no output."""
    assert r.returncode == 4, r.stderr
    assert len(r.stderr.splitlines()) == 1
    assert json.loads(r.stderr)["error"] == "Overflow"
    assert not output.exists()


def huge_model(workspace, tmp_path, kind):
    """The workspace model of ``kind`` with its intercepts set to 1e308."""
    doc = json.loads((workspace / f"{kind}.json").read_text())
    if kind == "br":
        doc["theta0"] = 1e308
    else:
        for coefs in doc["per_bs"].values():
            coefs["intercept"] = 1e308
    path = tmp_path / f"{kind}_huge.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("output", ["report.json", "report.csv"])
@pytest.mark.parametrize("mode", ["one_step", "recursive"])
@pytest.mark.parametrize("kind", ["br", "sa"])
def test_eval_overflow_exits_4(workspace, tmp_path, kind, mode, output):
    r = run("eval", "--input", workspace / "corpus.csv", "--mode", mode,
            "--model", huge_model(workspace, tmp_path, kind),
            "--output", tmp_path / output)
    assert_overflow(r, tmp_path / output)


@pytest.mark.parametrize("kind, mode", [
    ("br", "recursive"), ("sa", "one_step"), ("sa", "recursive"),
])
def test_forecast_overflow_exits_4(workspace, tmp_path, kind, mode):
    r = run("forecast", "--input", workspace / "corpus.csv", "--mode", mode,
            "--model", huge_model(workspace, tmp_path, kind),
            "--output", tmp_path / "fc.csv")
    assert_overflow(r, tmp_path / "fc.csv")


@pytest.mark.parametrize("kind", ["br", "lr", "sa"])
def test_train_overflow_exits_4(workspace, tmp_path, kind):
    lines = (workspace / "corpus.csv").read_text().splitlines()
    rows = [line.rsplit(",", 1) for line in lines[1:]]
    huge = tmp_path / "huge.csv"
    huge.write_text("\n".join(
        [lines[0]] + [f"{key},{float(v) * 1e300!r}" for key, v in rows]) + "\n")
    r = run("train", "--input", huge, "--kind", kind,
            "--model", tmp_path / "m.json")
    assert_overflow(r, tmp_path / "m.json")


def test_sa_seasonality_below_one_exits_2(workspace, tmp_path):
    r = run("train", "--input", workspace / "corpus.csv", "--kind", "sa",
            "--m", 0, "--model", tmp_path / "m.json")
    assert r.returncode == 2, r.stderr
    assert json.loads(r.stderr)["message"] == "seasonality m must be >= 1, got 0"


def test_br_with_m_zero_is_lr(workspace, tmp_path):
    r = run("train", "--input", workspace / "corpus.csv",
            "--model", tmp_path / "m.json", "--kind", "br", "--m", 0, "--w", 72)
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("train: lr model with 73 parameters (iterations=")
    assert (tmp_path / "m.json").read_bytes() == (workspace / "lr.json").read_bytes()


@pytest.mark.parametrize("setting", [
    {"n_bs": "abc"},
    {"n_bs": 3, "n_hours": 48.5},
    {"n_bs": True},
    {"seed": None},
    {"noise_std": "0.1"},
    {"noise_std": False},
    {"burst_probability": float("nan")},
    {"daily_profile_amplitude": float("inf")},
    {"day_intensity_std": 10 ** 400},
    {"noise_std": -(10 ** 400)},
    # A matrix beyond the address space.
    {"n_bs": 2**64},
    {"n_bs": 10**400},
    {"n_bs": 3, "n_hours": 2**62},
])
def test_synth_config_wrong_type_exits_2(tmp_path, setting):
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps(setting))
    r = run("synth", "--output", tmp_path / "c.csv", "--config", cfg)
    assert r.returncode == 2, r.stderr
    assert json.loads(r.stderr)["error"] == "InvalidConfig"
    assert not (tmp_path / "c.csv").exists()


def test_synth_out_of_memory_exits_2(tmp_path):
    # The MemoryError is injected before anything is allocated, so no
    # such allocation is ever asked for.
    launch = ("import sys, numpy as np\n"
              "def fail(seed): raise MemoryError\n"
              "np.random.default_rng = fail\n"
              "from blockreg.cli import main\n"
              "sys.exit(main(sys.argv[1:]))\n")
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps({"n_bs": 99999999999}))
    r = subprocess.run([sys.executable, "-c", launch, "synth", "--output",
                        tmp_path / "c.csv", "--config", cfg],
                       capture_output=True, text=True)
    assert r.returncode == 2, r.stderr
    assert len(r.stderr.splitlines()) == 1  # the JSON line, no traceback
    error = json.loads(r.stderr)
    assert error["error"] == "InvalidConfig"
    assert "99999999999 x 336" in error["message"]
    assert not list(tmp_path.glob("c.csv*"))


def test_synth_config_int_for_float_field(tmp_path):
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps({"n_bs": 3, "n_hours": 48, "noise_std": 0}))
    r = run("synth", "--output", tmp_path / "a.csv", "--config", cfg)
    assert r.returncode == 0, r.stderr
    cfg.write_text(json.dumps({"n_bs": 3, "n_hours": 48, "noise_std": 0.0}))
    run("synth", "--output", tmp_path / "b.csv", "--config", cfg)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


@pytest.mark.parametrize("kind", ["br", "lr", "sa"])
def test_forecast_recursive_start_past_corpus_end_exits_3(workspace, tmp_path, kind):
    out = tmp_path / "fc.csv"
    r = run("forecast", "--input", workspace / "corpus.csv",
            "--model", workspace / f"{kind}.json", "--output", out,
            "--mode", "recursive", "--train-hours", 400, "--test-hours", 2)
    assert r.returncode == 3, r.stderr
    err = json.loads(r.stderr)
    assert err["error"] == "InsufficientHistory"
    assert "past the corpus end" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("setting", [
    {"test_hours": 0},
    {"train_hours": 400},
    {"w": 0},
])
def test_sweep_config_error_exits_2(workspace, tmp_path, setting):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(setting))
    out = tmp_path / "s.json"
    r = run("sweep", "--input", workspace / "corpus.csv", "--output", out,
            "--config", cfg)
    assert r.returncode == 2, r.stderr
    assert json.loads(r.stderr)["error"] == "InvalidConfig"
    assert not out.exists()


@pytest.mark.parametrize("setting, error", [
    ({"w": 216}, "WindowTooLarge"),  # 240 - 24 columns at the smallest lag
    ({"w": 2**64}, "WindowTooLarge"),
    ({"seasonalities": [240, 300]}, "SeasonalityTooLarge"),
])
def test_sweep_that_fails_at_every_lag_exits_2(workspace, tmp_path, setting, error):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(setting))
    out = tmp_path / "s.json"
    r = run("sweep", "--input", workspace / "corpus.csv", "--output", out,
            "--config", cfg)
    assert r.returncode == 2, r.stderr
    assert json.loads(r.stderr)["error"] == error
    assert not out.exists()


def test_sweep_without_a_score_writes_nothing(tmp_path):
    # Every station's test hours are 0, so every lag's report excludes them all.
    t = synthesize(SynthConfig(**SMALL))
    values = t.values.copy()
    values[:, 240:] = 0.0
    save_corpus(TrafficMatrix(t.bs_ids, values), str(tmp_path / "zero.csv"))
    out = tmp_path / "s.json"
    r = run("sweep", "--input", tmp_path / "zero.csv", "--output", out)
    assert r.returncode == 3, r.stderr
    assert json.loads(r.stderr)["message"] == "no sweep point produced a score"
    assert not out.exists()


@pytest.mark.parametrize("content", [None, b"{not json", b"[1, 2]", b'{"w": "\xff"}',
                                     b"\xff{}", b"[" * 100_000, b"[" * 200_000],
                         ids=["missing", "invalid-json", "not-object", "not-utf8",
                              "leading-xff", "too-deep", "deeper"])
@pytest.mark.parametrize("command", ["synth", "eval"])
def test_bad_config_file_exits_2(workspace, tmp_path, command, content):
    cfg = tmp_path / "cfg.json"
    if content is not None:
        cfg.write_bytes(content)
    out = tmp_path / "out"
    files = {"synth": (), "eval": ("--input", workspace / "corpus.csv",
                                   "--model", workspace / "br.json")}[command]
    r = run(command, *files, "--output", out, "--config", cfg)
    assert r.returncode == 2, r.stderr
    assert len(r.stderr.splitlines()) == 1
    err = json.loads(r.stderr)
    assert err["error"] == "InvalidConfig" and err["family"] == "ConfigError"
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--threads", "--config"])
def test_clean_rejects_settings_flags(workspace, tmp_path, flag):
    # clean has no settings: --threads 0 and a config {"wat": 1} were
    # once accepted and ignored.
    (tmp_path / "cfg.json").write_text(json.dumps({"wat": 1}))
    value = {"--threads": 0, "--config": tmp_path / "cfg.json"}[flag]
    r = run("clean", "--input", workspace / "corpus.csv",
            "--output", tmp_path / "out.csv", flag, value)
    assert r.returncode == 2
    assert "unrecognized arguments" in r.stderr
    assert not (tmp_path / "out.csv").exists()


OVER_INPUT = ["csv", "csv_other_spelling", "csv_hard_link", "sidecar"]


@pytest.mark.parametrize("command, target", [
    *((command, target) for command in ("train", "forecast", "eval", "sweep")
      for target in OVER_INPUT),
    ("clean", "csv"), ("clean", "csv_other_spelling")])
def test_output_over_the_input_corpus(workspace, tmp_path, command, target):
    # A command that writes over the corpus it reads would leave a CSV that
    # its sidecar no longer describes, or a sidecar that is not one: it is
    # refused before anything is written. clean writes its input in place.
    corpus = tmp_path / "c.csv"
    for name in ("corpus.csv", "corpus.csv.matrix"):
        (tmp_path / name.replace("corpus", "c")).write_bytes((workspace / name).read_bytes())
    (tmp_path / "sub").mkdir()
    os.link(corpus, tmp_path / "link.csv")
    out = {"csv": corpus, "csv_other_spelling": tmp_path / "sub" / ".." / "c.csv",
           "csv_hard_link": tmp_path / "link.csv", "sidecar": tmp_path / "c.csv.matrix"}[target]
    flag = "--model" if command == "train" else "--output"
    model = ("--model", workspace / "br.json") if command in ("forecast", "eval") else ()
    before = {path: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()}
    r = run(command, "--input", corpus, *model, flag, out)
    after = {path: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()}
    assert after == before
    if command == "clean":  # every station is kept: the same bytes
        assert r.returncode == 0, r.stderr
        return
    assert r.returncode == 2, r.stderr
    assert r.stdout == "" and len(r.stderr.splitlines()) == 1
    err = json.loads(r.stderr)
    assert err["error"] == "InvalidConfig"
    assert "would overwrite the input corpus" in err["message"]


def test_output_named_as_a_missing_input(workspace, tmp_path):
    # No corpus to overwrite: the missing input is reported as it always is.
    missing = tmp_path / "missing.csv"
    r = run("eval", "--input", missing, "--model", workspace / "br.json", "--output", missing)
    assert r.returncode == 3, r.stderr
    assert json.loads(r.stderr)["error"] == "ParseError"
    assert not missing.exists()
