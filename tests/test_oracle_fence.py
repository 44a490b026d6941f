"""The filter path runs with every oracle disabled.

Each public callable that mobayes.oracles defines is replaced, wherever a
loaded mobayes module binds it, by one that raises. Loading a config,
running the filter with outputs, the update subcommand and predict through
SurviveMoveBirth must all still succeed: no engine depends on an oracle.
"""

import json
import sys

import numpy as np
import pytest

import mobayes
from mobayes import SurviveMoveBirth, bernoulli, load_config, oracles, predict, run
from mobayes.cli import main
from mobayes.instances import random_density, space
from test_cli import base_config


@pytest.fixture
def fenced(monkeypatch) -> list[str]:
    """Disable every oracle in every loaded mobayes namespace; return where."""
    targets = [
        obj
        for name, obj in vars(oracles).items()
        if not name.startswith("_")
        and callable(obj)
        and getattr(obj, "__module__", None) == oracles.__name__
    ]

    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"oracle {name} called on the filter path")

        return call

    patched = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "mobayes" or mod_name.startswith("mobayes.")):
            continue
        for attr, value in list(vars(module).items()):
            if any(value is t for t in targets):
                monkeypatch.setattr(module, attr, refuse(attr))
                patched.append(f"{mod_name}.{attr}")
    return patched


def test_the_fence_covers_every_binding(fenced):
    for where in (
        "mobayes.oracles.TransitionModel",
        "mobayes.oracles.mixed_partial_at",
        "mobayes.posterior_direct",
        "mobayes.scenario.build_multiplicative",
        "mobayes.verify.posterior_direct",
    ):
        assert where in fenced
    with pytest.raises(AssertionError, match="oracle posterior_direct"):
        mobayes.posterior_direct()


def test_load_and_run_with_outputs(fenced, tmp_path):
    records, failed = run(load_config(base_config(steps=3)), tmp_path)
    assert failed is None and len(records) == 4
    assert (tmp_path / "run.csv").exists() and (tmp_path / "summary.json").exists()


def test_update_subcommand(fenced, tmp_path, capsys):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(base_config()))
    assert main(["update", "--config", str(cfg), "--measurements", "u,v"]) == 0
    assert json.loads(capsys.readouterr().out)["n_max"] == 3


def test_predict_through_the_composition(fenced):
    rng = np.random.default_rng(3)
    sp = space(2)
    model = SurviveMoveBirth(
        [0.7, 0.8], np.array([[0.9, 0.3], [0.1, 0.7]]), bernoulli(0.2, [0.5, 0.5], sp), n_max=4
    )
    predicted = predict(random_density(rng, sp, 3), model, max_dropped=1.0)
    assert predicted.n_max == 4
