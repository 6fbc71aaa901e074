"""Model JSON round-trips and the atomic writer."""

import json

import numpy as np
import pytest

from blockreg import (
    BlockModel,
    InvalidConfig,
    NormalizationStats,
    ParseError,
    SaCoefficients,
    SaModel,
    load_model,
    save_model,
)
from blockreg.errors import Overflow
from blockreg.modelio import atomic_write_text, dump_json, model_doc
from sa_oracle import fleet_model, station


def br_model(w=3, m=24):
    rng = np.random.default_rng(0)
    return BlockModel(
        theta0=0.25,
        theta=rng.normal(size=w),
        stats=NormalizationStats(
            mu_x=rng.normal(size=w),
            sigma_x=rng.uniform(0.5, 2.0, w),
            mu_y=1.25,
            sigma_y=0.75,
        ),
        seasonality_m=m,
        window_w=w,
    )


def sa_model(n=3):
    """``n`` fitted stations, listed in reverse bs_id order, and one failed."""
    rng = np.random.default_rng(1)
    per_bs = {
        f"bs_{i}": SaCoefficients(
            phi=rng.normal(size=2),
            psi=rng.normal(size=1),
            intercept=float(rng.normal()),
            sigma2=float(rng.uniform(0.1, 2.0)),
        )
        for i in reversed(range(n))
    }
    return fleet_model(per_bs, s=24, ar=2, ma=1, failed_bs=["bs_zz"])


def test_br_round_trip_exact(tmp_path):
    model = br_model()
    path = str(tmp_path / "m.json")
    save_model(model, path)
    back = load_model(path)
    assert isinstance(back, BlockModel)
    assert back.theta0 == model.theta0
    np.testing.assert_array_equal(back.theta, model.theta)
    np.testing.assert_array_equal(back.stats.mu_x, model.stats.mu_x)
    np.testing.assert_array_equal(back.stats.sigma_x, model.stats.sigma_x)
    assert back.stats.mu_y == model.stats.mu_y
    assert back.stats.sigma_y == model.stats.sigma_y
    assert back.seasonality_m == 24
    assert back.window_w == 3


def test_lr_round_trip(tmp_path):
    model = BlockModel(
        theta0=-0.5,
        theta=np.linspace(-1, 1, 72),
        stats=NormalizationStats.identity(72),
        seasonality_m=0,
        window_w=72,
    )
    path = str(tmp_path / "m.json")
    save_model(model, path)
    back = load_model(path)
    assert isinstance(back, BlockModel) and back.kind == "lr"
    np.testing.assert_array_equal(back.theta, model.theta)
    assert back.n_params == 73


def test_sa_round_trip(tmp_path):
    model = sa_model()
    path = str(tmp_path / "m.json")
    save_model(model, path)
    with open(path, encoding="utf-8") as fh:
        assert list(json.load(fh)["per_bs"]) == ["bs_0", "bs_1", "bs_2"]
    back = load_model(path)
    assert isinstance(back, SaModel)
    assert sorted(back.bs_ids) == sorted(model.bs_ids)
    for bs in model.bs_ids:
        got, coef = station(back, bs), station(model, bs)
        np.testing.assert_array_equal(got.phi, coef.phi)
        np.testing.assert_array_equal(got.psi, coef.psi)
        assert got.intercept == coef.intercept
        assert got.sigma2 == coef.sigma2
    assert back.failed_bs == ["bs_zz"]
    assert back.seasonality == 24


def test_save_is_deterministic(tmp_path):
    model = br_model()
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    save_model(model, a)
    save_model(model, b)
    assert open(a, "rb").read() == open(b, "rb").read()


def test_doc_params_counts():
    assert model_doc(br_model(w=3))["params"] == 4
    lr = BlockModel(0.0, np.zeros(72), NormalizationStats.identity(72),
                    seasonality_m=0, window_w=72)
    assert model_doc(lr)["params"] == 73
    assert model_doc(sa_model(n=7))["params"] == 35


def test_doc_kind_and_version():
    doc = model_doc(br_model())
    assert doc["format_version"] == 1
    assert doc["kind"] == "br"
    assert model_doc(sa_model())["kind"] == "sa"


def test_kind_defaults_to_br(tmp_path):
    path = tmp_path / "m.json"
    doc = model_doc(br_model())
    del doc["kind"]
    path.write_text(dump_json(doc))
    assert isinstance(load_model(str(path)), BlockModel)


def test_load_rejects_bad_files(tmp_path):
    path = tmp_path / "m.json"
    bad_version = model_doc(br_model())
    bad_version["format_version"] = 99
    missing_field = model_doc(br_model())
    del missing_field["theta"]
    short_theta = model_doc(br_model())
    short_theta["theta"] = [1.0]
    cases = [
        ("not json at all", "invalid JSON"),
        ('["a", "list"]', "JSON object"),
        (dump_json(bad_version), "format_version"),
        (dump_json({"format_version": 1, "kind": "nope"}), "unknown model kind"),
        (dump_json(missing_field), "missing model field"),
        (dump_json(short_theta), "inconsistent with w"),
    ]
    for text, needle in cases:
        path.write_text(text)
        with pytest.raises(ParseError, match=needle):
            load_model(str(path))


def test_br_file_with_m_zero_loads_as_lr(tmp_path):
    # files written before "kind" followed m carry "br" with m = 0
    doc = model_doc(br_model(m=0))
    assert doc["kind"] == "lr"
    doc["kind"] = "br"
    path = tmp_path / "m.json"
    path.write_text(dump_json(doc))
    assert load_model(str(path)).kind == "lr"


NAN, INF = float("nan"), float("inf")
HUGE = 10 ** 400  # json writes it as an integer literal beyond the float range


def _set(key, value):
    def edit(doc):
        doc[key] = value
    return edit


def _set_station(key, value):
    def edit(doc):
        doc["per_bs"]["bs_0"][key] = value
    return edit


def _drop_station(key):
    def edit(doc):
        del doc["per_bs"]["bs_0"][key]
    return edit


def _set_first(key, value):
    def edit(doc):
        doc[key][0] = value
    return edit


BAD_LINEAR = {
    "theta0_nan": (_set("theta0", NAN), "'theta0' must be a finite number"),
    "theta0_string": (_set("theta0", "0.5"), "'theta0' must be a finite number"),
    "theta0_huge": (_set("theta0", HUGE), "'theta0' must be a finite number"),
    "theta_huge": (_set_first("theta", -HUGE), "'theta' must be a list of finite"),
    "theta_nan": (_set_first("theta", NAN), "'theta' must be a list of finite"),
    "theta_inf": (_set_first("theta", -INF), "'theta' must be a list of finite"),
    "theta_not_list": (_set("theta", "abc"), "'theta' must be a list of finite"),
    "mu_x_nan": (_set_first("mu_x", NAN), "'mu_x' must be a list of finite"),
    "sigma_x_nan": (_set_first("sigma_x", NAN), "'sigma_x' must be a list"),
    "sigma_x_zero": (_set_first("sigma_x", 0.0), "sigmas must be > 0"),
    "mu_y_inf": (_set("mu_y", INF), "'mu_y' must be a finite number"),
    "sigma_y_nan": (_set("sigma_y", NAN), "'sigma_y' must be a finite number"),
    "sigma_y_negative": (_set("sigma_y", -1.0), "sigmas must be > 0"),
    "m_bool": (_set("m", True), "'m' must be an integer"),
    "m_negative": (_set("m", -24), "'m' must be an integer >= 0"),
    "w_float": (_set("w", 3.0), "'w' must be an integer"),
    "lr_with_m": (_set("kind", "lr"), "an lr model has m = 0, got m=24"),
    "params_wrong": (_set("params", 5), "'params' is 5, but the model has 4"),
    "params_missing": (lambda doc: doc.pop("params"), "missing model field 'params'"),
}

BAD_SA = {
    "phi_null": (_set_station("phi", None), "'phi' must be a list"),
    "entry_is_list": (
        lambda doc: doc["per_bs"].update(bs_0=[0.1, 0.2]),
        "coefficients must be an object",
    ),
    "missing_phi": (_drop_station("phi"), "missing model field 'phi'"),
    "missing_psi": (_drop_station("psi"), "missing model field 'psi'"),
    "missing_intercept": (
        _drop_station("intercept"), "missing model field 'intercept'"
    ),
    "missing_sigma2": (_drop_station("sigma2"), "missing model field 'sigma2'"),
    "phi_nan": (_set_station("phi", [NAN, 0.1]), "'phi' must be a list of finite"),
    "psi_inf": (_set_station("psi", [INF]), "'psi' must be a list of finite"),
    "intercept_nan": (_set_station("intercept", NAN), "'intercept' must be a finite"),
    "sigma2_nan": (_set_station("sigma2", NAN), "'sigma2' must be a finite"),
    "sigma2_negative": (_set_station("sigma2", -0.5), "sigma2 must be >= 0"),
    "sigma2_huge": (_set_station("sigma2", HUGE), "'sigma2' must be a finite"),
    "ar_string": (_set("ar", "2"), "'ar' must be an integer"),
    "seasonality_zero": (_set("seasonality", 0), "'seasonality' must be an integer"),
    "failed_bs_string": (_set("failed_bs", "bs_zz"), "failed_bs must be a list"),
    "params_wrong": (_set("params", 7), "'params' is 7, but the model has 15"),
    "fitted_and_failed": (
        lambda doc: doc["failed_bs"].append("bs_1"),
        "station bs_1 is in both per_bs and failed_bs",
    ),
    "failed_twice": (
        lambda doc: doc["failed_bs"].append("bs_zz"),
        "failed_bs lists a station more than once",
    ),
}


def _write_edited(tmp_path, doc, edit):
    edit(doc)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))  # json.dumps writes NaN and Infinity
    return str(path)


@pytest.mark.parametrize("case", sorted(BAD_LINEAR))
def test_load_rejects_bad_linear_values(tmp_path, case):
    edit, needle = BAD_LINEAR[case]
    path = _write_edited(tmp_path, model_doc(br_model()), edit)
    with pytest.raises(ParseError, match=needle):
        load_model(path)


@pytest.mark.parametrize("case", sorted(BAD_SA))
def test_load_rejects_bad_sa_values(tmp_path, case):
    edit, needle = BAD_SA[case]
    path = _write_edited(tmp_path, model_doc(sa_model()), edit)
    with pytest.raises(ParseError, match=needle):
        load_model(path)


@pytest.mark.parametrize("content", [
    b"[" * 200_000,
    b"\xff" + dump_json(model_doc(br_model())).encode(),
], ids=["too-deep", "not-utf8"])
def test_load_rejects_unreadable_json(tmp_path, content):
    path = tmp_path / "m.json"
    path.write_bytes(content)
    with pytest.raises(ParseError, match="invalid JSON"):
        load_model(str(path))


def test_load_rejects_a_station_given_twice(tmp_path):
    # json.load would keep the second station's coefficients silently.
    path = tmp_path / "m.json"
    path.write_text(dump_json(model_doc(sa_model())).replace('"bs_1"', '"bs_0"'))
    with pytest.raises(ParseError, match="key 'bs_0' occurs more than once"):
        load_model(str(path))


def test_load_missing_file():
    with pytest.raises(ParseError, match="cannot open"):
        load_model("/nonexistent/model.json")


def test_sa_load_checks_coefficient_shapes(tmp_path):
    doc = model_doc(sa_model())
    doc["per_bs"]["bs_0"]["phi"] = [0.1]  # ar=2 expects two
    path = tmp_path / "m.json"
    path.write_text(dump_json(doc))
    with pytest.raises(ParseError, match="coefficient lengths"):
        load_model(str(path))


def test_dump_json_rejects_nan():
    with pytest.raises(Overflow):
        dump_json({"x": float("nan")})


def test_atomic_write_overwrites_and_leaves_no_temps(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write_text(str(path), "one")
    atomic_write_text(str(path), "two")
    assert path.read_text() == "two"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_atomic_write_unwritable_path_leaves_no_temps(tmp_path, where):
    (tmp_path / "dir").mkdir()
    target = tmp_path / ("missing/out.txt" if where == "missing-dir" else "dir")
    with pytest.raises(InvalidConfig, match="cannot write"):
        atomic_write_text(str(target), "text")
    assert list(tmp_path.rglob("*")) == [tmp_path / "dir"]


def test_atomic_write_joins_pieces(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write_text(str(path), iter(["a,1\n", "", "b,2\n"]))
    assert path.read_text() == "a,1\nb,2\n"


def test_atomic_write_failing_pieces_keep_old_target(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old")

    def pieces():
        yield "new first piece\n"
        raise ParseError("no second piece")

    with pytest.raises(ParseError, match="no second piece"):
        atomic_write_text(str(path), pieces())
    assert path.read_text() == "old"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
