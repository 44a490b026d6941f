"""Scenario configs, the simulator, the filtering recursion, and the
command-line front end.

Configs are built as plain dicts and passed straight to load_config;
file-based loading, output files, and the console entry point each get
one smoke path so the plumbing is exercised end to end.
"""

import csv
import json
import math
import re
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from mobayes import ConfigError, TruncationOverflow, bell, load_config, run, simulate, verify
from mobayes.cli import PARTITIONS_PRINT_MAX, main
from mobayes.combinatorics import BELL_MAX
from mobayes.scenario import write_outputs


def base_config(**overrides):
    doc = {
        "version": 1,
        "state_labels": ["a", "b"],
        "obs_labels": ["u", "v"],
        "n_max": 3,
        "prior": {"kind": "poisson", "intensity": [0.25, 0.2], "tail_tol": 1e-9},
        "kernel": {
            "kind": "detection",
            "p_detect": [0.8, 0.65],
            "likelihood": [[0.85, 0.15], [0.25, 0.75]],
        },
        "clutter": {"kind": "poisson", "intensity": [0.08, 0.12], "n_max": 3},
        "transition": {
            "survival": [0.55, 0.6],
            "motion": [[0.9, 0.2], [0.1, 0.8]],
            "birth": {"kind": "poisson", "intensity": [0.1, 0.06], "tail_tol": 1e-9},
            "max_dropped": 2e-2,
        },
        "steps": 3,
        "seed": 4242,
    }
    doc.update(overrides)
    return doc


def wide_config(d, n_max):
    """A budget-valid config on d states, with random dense matrices."""
    rng = np.random.default_rng(d)
    labels = [f"s{i}" for i in range(d)]
    motion = rng.uniform(0.1, 1.0, (d, d))
    likelihood = rng.uniform(0.1, 1.0, (d, d))
    return base_config(
        state_labels=labels,
        obs_labels=labels,
        n_max=n_max,
        prior={"kind": "poisson", "intensity": [1.0 / d] * d},
        kernel={
            "kind": "detection",
            "p_detect": [0.9] * d,
            "likelihood": (likelihood / likelihood.sum(axis=1, keepdims=True)).tolist(),
        },
        clutter={"kind": "poisson", "intensity": [0.2 / d] * d, "n_max": 1},
        transition={
            "survival": [0.95] * d,
            "motion": (motion / motion.sum(axis=0)).tolist(),
            "birth": {"kind": "poisson", "intensity": [0.1 / d] * d, "n_max": 1},
            "max_dropped": 1.0,
        },
    )


class TestLoadConfig:
    def test_happy_path(self):
        sc = load_config(base_config())
        assert sc.n_max == 3 and sc.steps == 3 and sc.seed == 4242
        assert sc.prior.is_normalized()
        assert sc.clutter.is_normalized()
        assert sc.kernel.m_max == 1
        assert sc.transition.m_max == sc.n_max

    def test_json_text_and_file(self, tmp_path):
        text = json.dumps(base_config())
        assert load_config(text).seed == 4242
        path = tmp_path / "scenario.json"
        path.write_text(text)
        assert load_config(path).seed == 4242

    def test_unreadable_file_names_the_path(self, tmp_path):
        missing = tmp_path / "missing.json"
        with pytest.raises(ConfigError, match="missing.json"):
            load_config(missing)
        binary = tmp_path / "binary.json"
        binary.write_bytes(b"\xff\xfe{")
        with pytest.raises(ConfigError, match="binary.json"):
            load_config(binary)

    def test_version_gate(self):
        with pytest.raises(ConfigError):
            load_config(base_config(version=99))

    def test_duplicate_labels(self):
        with pytest.raises(ConfigError):
            load_config(base_config(state_labels=["a", "a"]))

    def test_unnormalized_explicit_prior(self):
        bad = base_config(
            prior={"kind": "explicit", "tensors": [0.5, [0.2, 0.2], [[0, 0], [0, 0]], [[[0] * 2] * 2] * 2]}
        )
        with pytest.raises(ConfigError, match="not normalized"):
            load_config(bad)

    def test_unknown_kinds(self):
        with pytest.raises(ConfigError, match="unknown kind"):
            load_config(base_config(prior={"kind": "gaussian"}))
        with pytest.raises(ConfigError, match="unknown kind"):
            load_config(base_config(kernel={"kind": "sensor"}))

    def test_m_max_must_match_kernel(self):
        with pytest.raises(ConfigError, match="m_max"):
            load_config(base_config(m_max=2))

    def test_conditioned_poisson_prior_has_no_tail(self):
        sc = load_config(base_config())
        np.testing.assert_allclose(sc.prior.total_mass(), 1.0, atol=1e-12)
        # conditioning tilts the cardinality weights; the shape over tuples
        # within each cardinality stays proportional to the raw Poisson
        raw = np.array([0.45, 0.45 * 0.25, 0.45 * 0.2])
        got = sc.prior.tensors[1]
        np.testing.assert_allclose(got / got.sum(), raw[1:] / raw[1:].sum(), atol=1e-12)

    def test_clutter_defaults_to_certain_emptiness(self):
        sc = load_config(base_config(clutter={"kind": "none"}))
        assert sc.clutter.n_max == 0
        assert float(sc.clutter.tensors[0]) == 1.0

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_max", "x"),
            ("n_max", [1]),
            ("n_max", 2.7),
            ("n_max", True),
            ("m_max", "x"),
            ("steps", "x"),
            ("steps", 2.5),
            ("seed", 1.5),
            ("seed", "7"),
            ("version", True),
            ("prior.n_max", 2.7),
            ("transition.max_dropped", "x"),
            ("transition.max_dropped", float("nan")),
            ("transition.max_dropped", -1),
        ],
    )
    def test_numbers_are_parsed_strictly(self, field, value):
        doc = base_config()
        *path, key = field.split(".")
        block = doc
        for name in path:
            block = block[name]
        block[key] = value
        with pytest.raises(ConfigError, match=re.escape(field)):
            load_config(doc)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("prior.q", True),
            ("kernel.p_detect", [True, 0.5]),
            ("prior.intensity", ["0.25", 0.2]),
            ("transition.survival", [True, 0.5]),
            ("transition.motion", [[True, 0.2], [False, 0.8]]),
            ("prior.symmetrize", "false"),
            ("transition.survival", [10**400, 0.5]),
        ],
    )
    def test_no_coercion_of_arrays_and_flags(self, field, value):
        doc = base_config()
        if field == "prior.q":
            doc["prior"] = {"kind": "bernoulli", "q": value, "pdf": [0.5, 0.5]}
            doc["n_max"] = 1
        elif field == "prior.symmetrize":
            doc["prior"] = {"kind": "explicit", "tensors": [0.5, [0.25, 0.25]], "symmetrize": value}
            doc["n_max"] = 1
        else:
            block, key = field.split(".")
            doc[block][key] = value
        with pytest.raises(ConfigError, match=re.escape(field)):
            load_config(doc)

    @pytest.mark.parametrize("n_max", [20, 10**6])
    def test_tensor_budget_refused_before_building(self, n_max):
        with pytest.raises(ConfigError, match="n_max"):
            load_config(base_config(n_max=n_max))

    @pytest.mark.parametrize("n_max", [64, 10**6])
    def test_axis_limit_refused_on_a_one_state_space(self, n_max):
        """d**n_max is 1 on one state, so only the axis limit can refuse it."""
        doc = base_config(
            state_labels=["a"], n_max=n_max, prior={"kind": "poisson", "intensity": [0.25]}
        )
        with pytest.raises(ConfigError, match=re.escape(f"prior.n_max={n_max}")):
            load_config(doc)

    def test_explicit_prior_past_the_axis_limit_refused(self):
        """An explicit prior has no tensor budget, so the prediction cap
        must refuse a level that, with one leading row axis beside it,
        would pass numpy's axis limit."""
        tensors = [1.0, [0.0]]
        while len(tensors) <= 64:
            tensors.append([tensors[-1]])
        doc = base_config(
            state_labels=["a"],
            obs_labels=["u"],
            n_max=64,
            prior={"kind": "explicit", "tensors": tensors},
            kernel={"kind": "detection", "p_detect": [0.5], "likelihood": [[1.0]]},
            clutter={"kind": "none"},
            transition={"survival": [0.5], "motion": [[1.0]]},
        )
        with pytest.raises(ConfigError, match="transition: n_max=64 "):
            load_config(doc)

    def test_does_not_build_transition_tables(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("transition tables built")

        monkeypatch.setattr("mobayes.scenario.build_multiplicative", refuse)
        records, failed = run(load_config(base_config(steps=3)))
        assert failed is None and len(records) == 4

    def test_caps_past_the_table_limit_run(self):
        """d=3, n_max=8: far past what dense transition tables allow."""
        doc = base_config(
            state_labels=["a", "b", "c"],
            obs_labels=["u", "v", "w"],
            n_max=8,
            prior={"kind": "poisson", "intensity": [0.3, 0.2, 0.1]},
            kernel={
                "kind": "detection",
                "p_detect": [0.85] * 3,
                "likelihood": [[0.7, 0.2, 0.1], [0.2, 0.6, 0.2], [0.1, 0.3, 0.6]],
            },
            clutter={"kind": "poisson", "intensity": [0.3, 0.3, 0.3], "n_max": 3},
            transition={
                "survival": [0.7] * 3,
                "motion": [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]],
                "birth": {"kind": "poisson", "intensity": [0.05, 0.05, 0.05]},
                "max_dropped": 0.05,
            },
            steps=20,
        )
        sc = load_config(doc)
        assert sc.transition.m_max == sc.n_max == 8
        records, failed = run(sc)
        assert failed is None and len(records) == 21

    @pytest.mark.parametrize("d, n_max", [(10, 5), (20, 4)])
    def test_wide_spaces_load_and_run_in_bounded_memory(self, d, n_max):
        """Budget-valid configs on many states: a level holds C(d+n-1, n)
        multisets, so nothing may grow with a level's square."""
        doc = wide_config(d, n_max)
        labels = doc["state_labels"]
        tracemalloc.start()
        start = time.perf_counter()
        try:
            sc = load_config(doc)
            records, failed = run(sc, measurement_sets=[labels[:1], labels[1:3]])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert failed is None and len(records) == 3
        assert peak < 64 * 2**20
        assert time.perf_counter() - start < 20.0

    def test_many_state_config_loads_within_a_second(self):
        """729 states at n_max 2, the largest budget-valid space: two
        729x729 matrices, about a million numbers to check."""
        doc = wide_config(729, 2)
        start = time.perf_counter()
        sc = load_config(doc)
        assert time.perf_counter() - start < 1.0
        assert sc.state_space.size == 729 and sc.prior.is_normalized()

    @pytest.mark.parametrize(
        "motion", [[[0.9, 0.2], [0.1]], [[0.9, 0.2], 0.1]], ids=["length", "depth"]
    )
    def test_ragged_arrays_raise_config_error(self, motion):
        doc = base_config()
        doc["transition"]["motion"] = motion
        with pytest.raises(ConfigError, match="transition"):
            load_config(doc)

    def test_missing_transition_block(self):
        doc = base_config()
        del doc["transition"]
        with pytest.raises(ConfigError, match="transition"):
            load_config(doc)


class TestSimulate:
    def test_deterministic_given_seed(self):
        sc = load_config(base_config(steps=25))
        t1, z1 = simulate(sc)
        t2, z2 = simulate(sc)
        assert t1 == t2 and z1 == z2

    def test_shapes_and_labels(self):
        sc = load_config(base_config(steps=7))
        truths, zs = simulate(sc)
        assert len(truths) == 8 and len(zs) == 7
        assert all(x in sc.state_space.labels for tup in truths for x in tup)
        assert all(z in sc.obs_space.labels for step in zs for z in step)

    def test_seed_changes_the_draw(self):
        a = simulate(load_config(base_config(steps=20, seed=1)))
        b = simulate(load_config(base_config(steps=20, seed=2)))
        assert a != b

    def test_measurement_mean_matches_the_model(self):
        """Over many steps the measurement count must track its conditional
        expectation given the sampled truths: per object the kernel's
        group-size mean, plus the clutter process's mean count. The run is
        deterministic for a fixed seed, so a three standard error band is a
        stable check (sign and size of the gap vary across other seeds)."""
        sc = load_config(base_config(steps=10000, seed=123))
        truths, zs = simulate(sc)
        gs = sc.kernel.emission_weights()
        sizes = np.arange(gs.shape[1])
        gs_mean = gs @ sizes
        gs_var = gs @ sizes**2 - gs_mean**2
        card = sc.clutter.cardinality_distribution()
        counts = np.arange(card.size)
        c_mean = float(counts @ card)
        c_var = float(counts**2 @ card) - c_mean**2
        expected, variance = 0.0, 0.0
        for tup in truths[1:]:
            idx = sc.state_space.indices(tup)
            expected += sum(gs_mean[i] for i in idx) + c_mean
            variance += sum(gs_var[i] for i in idx) + c_var
        observed = sum(len(step) for step in zs)
        assert abs(observed - expected) <= 3.0 * math.sqrt(variance)


class TestRun:
    def test_zero_steps_reports_only_the_prior(self):
        sc = load_config(base_config(steps=0))
        records, failed = run(sc)
        assert failed is None and len(records) == 1
        r = records[0]
        assert r.step == 0 and r.measurements == []
        assert r.log_evidence == 0.0
        np.testing.assert_allclose(r.cardinality.sum(), 1.0, atol=1e-9)
        np.testing.assert_allclose(r.intensity, sc.prior.intensity_vector(), atol=1e-12)
        assert r.map_cardinality == int(np.argmax(r.cardinality))

    def test_records_are_normalized_and_finite(self):
        sc = load_config(base_config(steps=5))
        records, failed = run(sc)
        assert failed is None and len(records) == 6
        for r in records:
            np.testing.assert_allclose(r.cardinality.sum(), 1.0, atol=1e-9)
            assert np.all(np.isfinite(r.intensity)) and np.all(r.intensity >= 0)
            assert math.isfinite(r.log_evidence)

    def test_impossible_measurements_stop_the_run(self):
        sc = load_config(base_config(clutter={"kind": "none"}, steps=2))
        # capacity is n_max * m_max = 3 with no clutter; five cannot happen
        sets = [["u"], ["u", "u", "v", "v", "u"]]
        records, failed = run(sc, measurement_sets=sets)
        assert failed == 2
        assert len(records) == 2  # prior plus the one successful step

    def test_clutter_only_scenario_keeps_intensity_at_zero(self):
        doc = base_config(
            prior={"kind": "explicit", "tensors": [1.0, [0.0, 0.0], [[0.0] * 2] * 2, [[[0.0] * 2] * 2] * 2]},
            transition={
                "survival": [0.0, 0.0],
                "motion": [[1.0, 0.0], [0.0, 1.0]],
                "birth": {"kind": "none"},
                "max_dropped": 1e-9,
            },
            steps=4,
        )
        records, failed = run(load_config(doc))
        assert failed is None
        for r in records:
            np.testing.assert_array_equal(r.intensity, np.zeros(2))
            assert r.map_cardinality == 0

    def test_detection_scenario_first_step_matches_hand_formula(self):
        """After one predict the belief is (conditioned) Poisson, so the
        first filtered intensity must reproduce the classical single
        detection update at the predicted rate."""
        doc = base_config(
            n_max=6,
            prior={"kind": "poisson", "intensity": [0.2, 0.15], "tail_tol": 1e-9},
            clutter={"kind": "poisson", "intensity": [0.05, 0.08], "n_max": 6},
            transition={
                "survival": [0.7, 0.6],
                "motion": [[0.9, 0.2], [0.1, 0.8]],
                "birth": {"kind": "poisson", "intensity": [0.05, 0.04], "tail_tol": 1e-9},
                "max_dropped": 1e-6,
            },
            steps=1,
        )
        sc = load_config(doc)
        Z = ["u", "v"]
        records, failed = run(sc, measurement_sets=[Z])
        assert failed is None
        mu0 = np.array([0.2, 0.15])
        p_s = np.array([0.7, 0.6])
        f = np.array([[0.9, 0.2], [0.1, 0.8]])
        mu_pred = f @ (p_s * mu0) + np.array([0.05, 0.04])
        p_d = np.array([0.8, 0.65])
        g = np.array([[0.85, 0.15], [0.25, 0.75]])
        kappa = np.array([0.05, 0.08])
        want = (1.0 - p_d) * mu_pred
        for z in sc.obs_space.indices(Z):
            num = p_d * g[:, z] * mu_pred
            want = want + num / (kappa[z] + num.sum())
        # caps at n_max=6 leave only conditioning tails of order 1e-6
        np.testing.assert_allclose(records[1].intensity, want, atol=5e-5)


class TestOutputs:
    def test_csv_layout_and_round_trip(self, tmp_path):
        sc = load_config(base_config(steps=3))
        records, failed = run(sc, tmp_path)
        text = (tmp_path / "run.csv").read_text()
        rows = list(csv.reader(text.strip().split("\n")))
        assert rows[0] == [
            "step", "log_evidence", "intensity_a", "intensity_b",
            "card_0", "card_1", "card_2", "card_3",
        ]
        assert len(rows) == len(records) + 1
        for row, rec in zip(rows[1:], records):
            assert int(row[0]) == rec.step
            # repr round-trips doubles exactly
            assert float(row[1]) == rec.log_evidence
            np.testing.assert_array_equal(
                np.array([float(v) for v in row[2:4]]), rec.intensity
            )

    def test_summary_layout(self, tmp_path):
        sc = load_config(base_config(steps=2))
        records, failed = run(sc, tmp_path)
        doc = json.loads((tmp_path / "summary.json").read_text())
        assert doc["completed_steps"] == 2
        assert doc["zero_evidence_step"] is None
        assert doc["state_labels"] == ["a", "b"]
        assert len(doc["records"]) == 3
        assert doc["records"][1]["measurements"] == records[1].measurements

    def test_summary_records_the_cumulative_truncation_mass(self, tmp_path):
        """A cap of two objects drops mass at every prediction; each summary
        record carries the belief's running total, and run.csv gains no column."""
        transition = dict(base_config()["transition"], max_dropped=0.5)
        sc = load_config(base_config(n_max=2, transition=transition, steps=4))
        records, failed = run(sc, tmp_path)
        assert failed is None
        doc = json.loads((tmp_path / "summary.json").read_text())
        masses = [r["truncation_mass"] for r in doc["records"]]
        assert masses == [r.truncation_mass for r in records]
        assert masses[0] == sc.prior.truncation_mass
        assert all(b > a for a, b in zip(masses, masses[1:]))
        header = (tmp_path / "run.csv").read_text().splitlines()[0]
        assert "truncation" not in header

    def test_runs_are_byte_identical(self, tmp_path):
        outs = []
        for name in ("one", "two"):
            sc = load_config(base_config(steps=4))
            run(sc, tmp_path / name)
            outs.append(
                (
                    (tmp_path / name / "run.csv").read_bytes(),
                    (tmp_path / name / "summary.json").read_bytes(),
                )
            )
        assert outs[0] == outs[1]

    def test_overflow_writes_the_completed_steps(self, tmp_path):
        transition = dict(base_config()["transition"], max_dropped=2e-2)
        sc = load_config(base_config(n_max=2, transition=transition, steps=6))
        with pytest.raises(TruncationOverflow) as exc:
            run(sc, tmp_path)
        assert exc.value.step == 3
        with open(tmp_path / "run.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:2] == ["step", "log_evidence"]
        assert [row[0] for row in rows[1:]] == ["0", "1", "2"]
        doc = json.loads((tmp_path / "summary.json").read_text())
        assert doc["truncation_overflow_step"] == 3
        assert doc["completed_steps"] == 2 and doc["zero_evidence_step"] is None
        run(load_config(base_config(steps=2)), tmp_path / "clean")
        clean = json.loads((tmp_path / "clean" / "summary.json").read_text())
        assert clean["truncation_overflow_step"] is None

    def test_failed_step_recorded(self, tmp_path):
        sc = load_config(base_config(clutter={"kind": "none"}, steps=1))
        write_outputs(sc, run(sc, measurement_sets=[["u"] * 9])[0], 1, tmp_path)
        doc = json.loads((tmp_path / "summary.json").read_text())
        assert doc["zero_evidence_step"] == 1


class TestCommandLine:
    def test_run_subcommand(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(base_config(steps=2)))
        code = main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert code == 0
        assert "completed 2 steps" in out
        assert (tmp_path / "out" / "run.csv").exists()
        assert (tmp_path / "out" / "summary.json").exists()

    def test_run_rejects_bad_config(self, tmp_path, capsys):
        cfg = tmp_path / "broken.json"
        cfg.write_text(json.dumps(base_config(n_max=-1)))
        code = main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert "config error" in capsys.readouterr().err

    def test_run_missing_config_file(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        code = main(["run", "--config", str(missing), "--out-dir", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "missing.json" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--config", "c.json", "--out-dir", "out", "--no-such-flag"],
            ["run", "--out-dir", "out"],
            ["frobnicate"],
        ],
        ids=["unknown-flag", "missing-required-flag", "unknown-subcommand"],
    )
    def test_usage_errors_exit_1(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "usage:" in capsys.readouterr().err

    def test_negative_seed_is_a_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(base_config()))
        argv = ["run", "--config", str(cfg), "--out-dir", str(tmp_path), "--seed", "-1"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "usage:" in err and "--seed" in err

    def test_run_truncation_overflow_exit_code(self, tmp_path):
        transition = dict(
            base_config()["transition"],
            birth={"kind": "poisson", "intensity": [0.5, 0.5]},
            max_dropped=1e-9,
        )
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(base_config(n_max=2, transition=transition)))
        proc = subprocess.run(
            [sys.executable, "-m", "mobayes.cli", "run", "--config", str(cfg),
             "--out-dir", str(tmp_path / "out")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 3
        assert "truncation overflow at step 1:" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_run_zero_evidence_exit_code(self, tmp_path, capsys):
        """A sure object plus a likely birth, always detected, against a cap
        of one: the two measurements the simulation draws are impossible."""
        doc = base_config(
            state_labels=["a"],
            obs_labels=["u"],
            n_max=1,
            prior={"kind": "bernoulli", "q": 1.0, "pdf": [1.0]},
            kernel={"kind": "detection", "p_detect": [1.0], "likelihood": [[1.0]]},
            clutter={"kind": "none"},
            transition={
                "survival": [1.0],
                "motion": [[1.0]],
                "birth": {"kind": "bernoulli", "q": 0.9, "pdf": [1.0]},
                "max_dropped": 1.0,
            },
        )
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(doc))
        code = main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert "zero evidence at step 1:" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--help"])
        assert exc.value.code == 0
        assert "--out-dir" in capsys.readouterr().out

    def test_update_subcommand_emits_posterior_json(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(base_config()))
        code = main(["update", "--config", str(cfg), "--measurements", "u,v,u"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["labels"] == ["a", "b"]
        assert doc["n_max"] == 3
        assert math.isfinite(doc["log_evidence"])
        assert len(doc["intensity"]) == 2
        total = sum(
            sum(flat) / math.factorial(n) for n, flat in enumerate(doc["tensors"])
        )
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_update_empty_measurement_set(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(base_config()))
        assert main(["update", "--config", str(cfg), "--measurements", ""]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["log_evidence"] < 0.0

    def test_update_zero_evidence_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(base_config(clutter={"kind": "none"})))
        code = main(
            ["update", "--config", str(cfg), "--measurements", "u,u,u,u,u"]
        )
        assert code == 2
        assert "zero evidence" in capsys.readouterr().err

    def test_update_unknown_label(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(base_config()))
        code = main(["update", "--config", str(cfg), "--measurements", "w"])
        assert code == 1
        assert "unknown measurement label" in capsys.readouterr().err

    def test_partitions_subcommand(self, capsys):
        assert main(["partitions", "--m", "4"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == bell(4) + 1
        assert lines[-1] == f"total {bell(4)}"
        assert "{0,1,2,3}" in lines

    def test_partitions_with_block_cap(self, capsys):
        assert main(["partitions", "--m", "4", "--max-block", "1"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines == ["{0} {1} {2} {3}", "total 1"]

    @pytest.mark.parametrize("cap", ["0", "-2"])
    def test_partitions_block_cap_below_one_is_a_usage_error(self, cap, capsys):
        assert main(["partitions", "--m", "3", "--max-block", cap]) == 1
        assert "--max-block must be at least 1" in capsys.readouterr().err

    def test_partitions_past_the_bell_limit_is_a_usage_error(self, capsys):
        assert main(["partitions", "--m", str(BELL_MAX + 10)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--m must be at most {BELL_MAX}" in captured.err

    def test_partitions_past_the_print_limit_are_refused_unprinted(self, capsys):
        assert main(["partitions", "--m", "12"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--m 12 has {bell(12)} partitions" in captured.err
        assert str(PARTITIONS_PRINT_MAX) in captured.err

    def test_partitions_at_the_bell_limit_with_singleton_blocks(self, capsys):
        assert main(["partitions", "--m", str(BELL_MAX), "--max-block", "1"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines == [" ".join(f"{{{i}}}" for i in range(BELL_MAX)), "total 1"]

    def test_console_script_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mobayes.cli", "partitions", "--m", "3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip().endswith("total 5")

    def test_verify_fast_passes(self, capsys):
        assert main(["verify", "--level", "fast"]) == 0
        out = capsys.readouterr().out
        assert "checks passed" in out
        assert "FAIL" not in out

    def test_verify_report_is_deterministic(self):
        """Seeds are fixed per check, so two runs agree on every check's
        name, worst error and detail, in the same order."""
        first, second = verify.run_checks("fast"), verify.run_checks("fast")
        assert [(r.name, r.max_error, r.detail) for r in first] == [
            (r.name, r.max_error, r.detail) for r in second
        ]
        assert [r.name for r in first] == [name for name, _, _ in verify.CHECKS]

    def test_verify_reports_a_raising_check_as_failed(self, monkeypatch, capsys):
        def broken(level):
            raise TruncationOverflow("dropped 0.5 mass", 0.5)

        name, tol, _ = verify.CHECKS[0]
        monkeypatch.setattr(verify, "CHECKS", [(name, tol, broken)] + verify.CHECKS[1:])
        assert main(["verify", "--level", "fast"]) == 1
        captured = capsys.readouterr()
        row = next(line for line in captured.out.splitlines() if name in line)
        assert row.startswith("FAIL") and "max err inf" in row
        assert "TruncationOverflow: dropped 0.5 mass" in row
        assert f"{len(verify.CHECKS) - 1}/{len(verify.CHECKS)} checks passed" in captured.out
        assert "Traceback" not in captured.out + captured.err
