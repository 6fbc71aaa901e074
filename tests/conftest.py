import os
from pathlib import Path

import numpy as np
import pytest

from blockreg import SynthConfig, TrafficMatrix, synthesize

# Commands the tests start as `python -m blockreg` find the package in
# src/ too, so the suite needs no install.
SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")])
)


def make_corpus(**kw) -> TrafficMatrix:
    """Small synthetic corpus; keyword overrides onto fast defaults."""
    defaults = dict(n_bs=20, n_hours=336, seed=1)
    defaults.update(kw)
    return synthesize(SynthConfig(**defaults))


def periodic_corpus(**kw) -> TrafficMatrix:
    """Noise-free corpus: every station exactly 24-periodic."""
    kw.setdefault("noise_std", 0.0)
    kw.setdefault("day_intensity_std", 0.0)
    kw.setdefault("burst_probability", 0.0)
    return make_corpus(**kw)


@pytest.fixture(scope="session")
def small_corpus() -> TrafficMatrix:
    return make_corpus()


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
