"""The filter path never builds a dense view of a density.

MultiObjectDensity.tensors unpacks packed levels through finite_pp._unpack.
With that replaced by a function that raises, loading a config, running the
filter on given measurement sets with outputs written, both partition-sum
updates, predict, the Poisson closed form, janossy and moment must all
succeed: they read and write packed coefficients only.
"""

import json

import numpy as np
import pytest

import mobayes.finite_pp
from mobayes import (
    PoissonSpec,
    SurviveMoveBirth,
    bernoulli,
    janossy,
    load_config,
    moment,
    poisson,
    poisson_posterior,
    posterior_intensity_clutter,
    posterior_partition_clutter,
    predict,
    run,
)
from mobayes.instances import random_density, random_kernel, space
from test_cli import base_config


@pytest.fixture
def fenced(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense view built on the filter path")

    monkeypatch.setattr(mobayes.finite_pp, "_unpack", refuse)


def test_the_fence_holds(fenced):
    with pytest.raises(AssertionError, match="dense view"):
        random_density(np.random.default_rng(0), space(2), 2).tensors


def test_load_and_run_given_measurements(fenced, tmp_path):
    sc = load_config(base_config(steps=3))
    records, failed = run(sc, tmp_path, measurement_sets=[["u"], ["u", "v"], []])
    assert failed is None and len(records) == 4
    assert json.loads((tmp_path / "summary.json").read_text())["completed_steps"] == 3
    assert (tmp_path / "run.csv").exists()


def test_updates_predict_and_poisson_closed_form(fenced):
    rng = np.random.default_rng(5)
    X, Zs = space(3), space(2, "z")
    prior = random_density(rng, X, 4)
    kernel = random_kernel(rng, X, Zs, 2)
    clutter = poisson([0.2, 0.1], Zs, n_max=2)
    Z = ["za", "zb", "za"]
    post = posterior_partition_clutter(prior, kernel, clutter, Z)
    intensity = posterior_intensity_clutter(prior, kernel, clutter, Z)
    np.testing.assert_allclose(intensity, post.intensity, rtol=1e-12)
    model = SurviveMoveBirth(
        [0.7, 0.8, 0.6], np.full((3, 3), 1.0 / 3.0), bernoulli(0.2, [0.5, 0.25, 0.25], X), n_max=4
    )
    assert predict(post.density, model, max_dropped=1.0).n_max == 4
    closed = poisson_posterior(PoissonSpec([0.3, 0.2, 0.1]), kernel, Z)
    assert closed.density.is_normalized()


def test_janossy_and_moment(fenced):
    P = random_density(np.random.default_rng(6), space(3), 4)
    assert janossy(P, ["a", "c", "a"]) == P.entry(["a", "a", "c"])
    assert 0.0 < moment(P, ["b", "b"])
