"""The filter step as two cached linear maps.

An update multiplies the prior's coefficients by the Janossy likelihood
l_Z, cached per measurement set and sensor model (bayes._likelihood), and
a prediction applies the N x N operator that SurviveMoveBirth builds once
from its composition (prediction.OPERATOR_BYTES bounds it); run steps a
scenario.Filter, which applies both maps to one flat vector. These tests
fence the warm paths off the kernels they no longer call, pin run's
outputs byte for byte to a loop over the one-step API, pin the operator
and the composition past the budget to the transition tables, pin the
mass that the caps drop all the way to the run's log evidence, and bound
the memory of a cold update.
"""

import gc
import json
import math
import time
import tracemalloc

import numpy as np
import pytest

import mobayes.bayes
import mobayes.finite_pp
import mobayes.prediction
from mobayes import (
    Filter,
    MultiObjectDensity,
    PoissonSpec,
    RunRecord,
    SurviveMoveBirth,
    TruncationOverflow,
    ZeroEvidence,
    build_multiplicative,
    load_config,
    poisson_posterior,
    posterior_direct,
    posterior_partition_clutter,
    predict,
    run,
    simulate,
    superpose,
)
from mobayes.finite_pp import as_levels
from mobayes.instances import (
    random_density,
    random_kernel,
    random_poisson_clutter,
    space,
)
from mobayes.oracles import product
from mobayes.scenario import write_outputs


def scenario_config(d, n_max, *, steps, seed=0, birth_rate=0.15, max_dropped=0.05):
    """A track-like scenario on d states: detect-or-miss with p_D 0.85,
    Poisson clutter 0.9 per scan capped at 3, survival 0.7, Poisson births."""
    rng = np.random.default_rng(1000 + d)
    labels = [f"s{i}" for i in range(d)]
    return {
        "version": 1,
        "state_labels": labels,
        "obs_labels": [f"o{i}" for i in range(d)],
        "n_max": n_max,
        "prior": {"kind": "poisson", "intensity": (0.6 * rng.dirichlet(np.ones(d))).tolist()},
        "kernel": {
            "kind": "detection",
            "p_detect": [0.85] * d,
            "likelihood": rng.dirichlet(2.0 * np.ones(d), size=d).tolist(),
        },
        "clutter": {
            "kind": "poisson",
            "intensity": (0.9 * rng.dirichlet(np.ones(d))).tolist(),
            "n_max": 3,
        },
        "transition": {
            "survival": [0.7] * d,
            "motion": rng.dirichlet(2.0 * np.ones(d), size=d).T.tolist(),
            "birth": {
                "kind": "poisson",
                "intensity": (birth_rate * rng.dirichlet(np.ones(d))).tolist(),
            },
            "max_dropped": max_dropped,
        },
        "steps": steps,
        "seed": seed,
    }


def random_dynamics(rng, sp, birth_cap):
    p_s = rng.uniform(0.0, 1.0, sp.size)
    f = rng.uniform(0.1, 1.0, (sp.size, sp.size))
    f /= f.sum(axis=0, keepdims=True)
    return p_s, f, random_density(rng, sp, birth_cap)


def read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0], np.array([[float(c) for c in line.split(",")] for line in lines[1:]])


class TestFences:
    def test_warm_update_takes_no_variations(self, monkeypatch):
        """A warm update is the prior times the cached l_Z and one dot: no
        derivatives, pairings or multiply, whichever module is asked."""
        rng = np.random.default_rng(2401)
        X, Zs = space(3), space(3, "z")
        prior = random_density(rng, X, 5)
        kernel = random_kernel(rng, X, Zs, 2)
        clutter = random_poisson_clutter(rng, Zs, n_max=3)
        Z = ["za", "zc", "za", "zb"]
        posterior_partition_clutter(prior, kernel, clutter, Z)  # fills the cache
        calls = []

        def counted(name, original):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            return wrapper

        for module in (mobayes.bayes, mobayes.finite_pp):
            for name in ("derivatives", "pairings", "multiply"):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        posterior_partition_clutter(prior, kernel, clutter, Z)
        posterior_partition_clutter(prior.scaled(2.0), kernel, clutter, Z[::-1])
        assert calls == []

    def test_run_substitutes_only_while_building_the_operator(self, monkeypatch):
        """A 50-step run at the track workload's size predicts by M x: the
        composition (and with it substitute) runs only to build M, and a
        second run on the same model does not run it at all."""
        sc = load_config(scenario_config(3, 5, steps=50, seed=7))
        model = sc.transition
        building = []
        original = mobayes.prediction.substitute

        def counted(packed, matrix):
            building.append(model._operator is None)
            return original(packed, matrix)

        monkeypatch.setattr(mobayes.prediction, "substitute", counted)
        records, failed = run(sc)
        assert failed is None and len(records) == 51
        assert building and all(building)
        assert model.operator() is not None
        building.clear()
        run(sc)
        assert building == []


class TestPredictionOperator:
    @pytest.mark.parametrize("d, n_max", [(1, 4), (2, 3), (3, 5), (4, 3)])
    def test_columns_are_compositions_of_unit_vectors(self, d, n_max):
        """The one-call build equals the composition of each unit vector on
        its own; M is read-only, N x N and built once."""
        rng = np.random.default_rng(2410 + d)
        sp = space(d)
        p_s, f, birth = random_dynamics(rng, sp, min(n_max, 2))
        model = SurviveMoveBirth(p_s, f, birth, n_max=n_max)
        M = model.operator()
        assert M.shape == (model.size, model.size) == (math.comb(d + n_max, n_max),) * 2
        assert model.operator() is M
        with pytest.raises(ValueError, match="read-only"):
            M[0, 0] = 1.0
        for j in range(model.size):
            unit = np.zeros(model.size)
            unit[j] = 1.0
            column = model.composition(as_levels(unit, d, n_max))
            scale = max(1.0, float(np.max(np.abs(column))))
            np.testing.assert_allclose(M[:, j], column, rtol=0, atol=1e-15 * scale)

    @pytest.mark.parametrize("d, n_max", [(3, 9), (5, 5)])
    def test_one_call_build_stays_within_40_mib(self, d, n_max):
        """The identity goes through the composition in one call. At
        N = 220 and at N = 252, the largest operator within the budget,
        the build must peak under 40 MiB (tracemalloc; 26 and 19 MiB
        measured, against 13 MiB for a build in batches of rows)."""
        rng = np.random.default_rng(2430 + d)
        p_s, f, birth = random_dynamics(rng, space(d), 2)
        model = SurviveMoveBirth(p_s, f, birth, n_max=n_max)
        assert 8 * model.size**2 <= mobayes.prediction.OPERATOR_BYTES
        gc.collect()
        tracemalloc.start()
        try:
            model.operator()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20

    def test_composition_past_the_budget_matches_the_tables(self, monkeypatch):
        """With the budget at 0 no operator is built, and the composition on
        every step matches the table oracle, also when posterior and birth
        caps sit below the model cap."""
        monkeypatch.setattr(mobayes.prediction, "OPERATOR_BYTES", 0)
        rng = np.random.default_rng(2420)
        for d in range(1, 4):
            sp = space(d)
            for n_max in range(5):
                for post_cap in range(n_max + 1):
                    post = random_density(rng, sp, post_cap)
                    p_s, f, birth = random_dynamics(rng, sp, int(rng.integers(0, n_max + 1)))
                    tables = build_multiplicative(p_s, f, birth, n_max=n_max, max_dropped=1.0)
                    model = SurviveMoveBirth(p_s, f, birth, n_max=n_max)
                    want = predict(post, tables, max_dropped=1.0)
                    got = predict(post, model, max_dropped=1.0)
                    assert model.operator() is None
                    assert got.n_max == want.n_max == n_max
                    for s, t in zip(got.tensors, want.tensors):
                        np.testing.assert_allclose(s, t, rtol=0, atol=1e-14)
                    assert got.truncation_mass == pytest.approx(
                        want.truncation_mass, rel=0, abs=1e-14
                    )

    def test_model_arrays_are_read_only(self):
        """The operator is built from the model's arrays, so they are frozen
        copies; the caller's arrays stay writable."""
        rng = np.random.default_rng(2430)
        sp = space(2)
        p_s, f, birth = random_dynamics(rng, sp, 1)
        model = SurviveMoveBirth(p_s, f, birth, n_max=2)
        for arr in (model.survival, model.motion, model.move, model.die):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.5
        p_s[0] = f[0, 0] = 0.5

    def test_run_matches_the_composition_route(self, tmp_path, monkeypatch):
        """run at the track workload's size: the operator route and the
        composition route agree within 1e-12 on every run.csv cell."""
        doc = scenario_config(3, 5, steps=50, seed=11)
        run(load_config(doc), tmp_path / "operator")
        monkeypatch.setattr(mobayes.prediction, "OPERATOR_BYTES", 0)
        sc = load_config(doc)
        run(sc, tmp_path / "composition")
        assert sc.transition.operator() is None
        head_a, a = read_csv(tmp_path / "operator" / "run.csv")
        head_b, b = read_csv(tmp_path / "composition" / "run.csv")
        assert head_a == head_b and a.shape == b.shape == (51, 2 + 3 + 6)
        assert float(np.max(np.abs(a - b))) <= 1e-12

    def test_largest_admitted_operator_runs_are_byte_identical(self, tmp_path):
        """d=5 states at n_max 5: N = 252, the largest admitted operator
        among d <= 10 at the default budget (N = 286 at d=3 n_max 10 and
        d=10 n_max 3 is past it). Two runs under the default BLAS threads
        write the same bytes."""
        doc = scenario_config(5, 5, steps=12, seed=3)
        outputs = []
        for name in ("first", "second"):
            sc = load_config(doc)
            assert sc.transition.size == 252
            assert sc.transition.operator() is not None
            run(sc, tmp_path / name)
            outputs.append(
                [(tmp_path / name / f).read_bytes() for f in ("run.csv", "summary.json")]
            )
        assert 8 * 286**2 > mobayes.prediction.OPERATOR_BYTES
        assert outputs[0] == outputs[1]


def one_step_run(sc, sets, out_dir):
    """run written out in the one-step API: predict, scaled back to mass
    one, then posterior_partition_clutter; the outputs go through
    write_outputs, as run's do."""
    prior = sc.prior
    records = [
        RunRecord(
            0, [], 0.0, prior.intensity_vector(), prior.cardinality_distribution(),
            prior.truncation_mass,
        )
    ]
    belief, failed, overflow = prior, None, None
    for k, z in enumerate(sets, start=1):
        try:
            predicted = predict(belief, sc.transition, max_dropped=sc.max_dropped)
        except TruncationOverflow:
            overflow = k
            break
        predicted = predicted.scaled(1.0 / predicted.total_mass())
        try:
            post = posterior_partition_clutter(predicted, sc.kernel, sc.clutter, list(z))
        except ZeroEvidence:
            failed = k
            break
        belief = post.density
        records.append(
            RunRecord(
                k, list(z), post.log_evidence, post.intensity,
                belief.cardinality_distribution(), belief.truncation_mass,
            )
        )
    write_outputs(sc, records, failed, out_dir, overflow_step=overflow)
    return failed, overflow


def outputs(out_dir):
    return [(out_dir / name).read_bytes() for name in ("run.csv", "summary.json")]


def impossible_config():
    """d=2, n_max 2, one measurement per object and no clutter: a set of
    five measurements has zero evidence. The caps drop mass freely."""
    doc = scenario_config(2, 2, steps=3, seed=5, max_dropped=1.0)
    doc["clutter"] = {"kind": "none"}
    return doc


class TestFilterLoop:
    @pytest.mark.parametrize(
        "case", ["track", "composition", "overflow", "zero evidence", "no steps"]
    )
    def test_run_writes_the_bytes_of_the_one_step_api(self, case, tmp_path, monkeypatch):
        """run steps a Filter; its run.csv and summary.json are byte-equal to
        those of the loop over predict and posterior_partition_clutter."""
        if case == "composition":
            monkeypatch.setattr(mobayes.prediction, "OPERATOR_BYTES", 0)
        doc = {
            "overflow": scenario_config(3, 2, steps=30, seed=0, max_dropped=0.02),
            "zero evidence": impossible_config(),
            "no steps": scenario_config(3, 5, steps=0),
        }.get(case, scenario_config(3, 5, steps=50, seed=7))
        sc = load_config(doc)
        sets = simulate(sc)[1]
        if case == "zero evidence":
            sets = [["o0"], ["o1", "o0"], ["o0"] * 5, ["o1"]]
        failed, overflow = one_step_run(sc, sets, tmp_path / "one_step")
        try:
            records, got = run(sc, tmp_path / "filter", measurement_sets=sets)
        except TruncationOverflow as exc:
            assert exc.step == overflow
        else:
            assert overflow is None and got == failed
        assert outputs(tmp_path / "filter") == outputs(tmp_path / "one_step")
        summary = json.loads((tmp_path / "filter" / "summary.json").read_text())
        completed = {"overflow": 6, "zero evidence": 2, "no steps": 0}.get(case, 50)
        assert summary["completed_steps"] == completed
        assert summary["truncation_overflow_step"] == overflow
        assert summary["zero_evidence_step"] == failed
        assert (overflow, failed) == {"overflow": (7, None), "zero evidence": (None, 3)}.get(
            case, (None, None)
        )
        rows = (tmp_path / "filter" / "run.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == [str(k) for k in range(completed + 1)]
        if case == "composition":
            assert sc.transition.operator() is None

    def test_run_builds_no_density_per_step(self, tmp_path, monkeypatch):
        """A warm run, simulation and outputs included, builds as many
        MultiObjectDensity objects over 10 steps as over 50."""
        sc = load_config(scenario_config(3, 5, steps=50, seed=7))
        run(sc, tmp_path)  # builds the operator and fills the likelihood cache
        calls = []
        init, from_flat = MultiObjectDensity.__init__, MultiObjectDensity._from_flat.__func__

        def counted_init(self, *args, **kwargs):
            calls.append("__init__")
            init(self, *args, **kwargs)

        def counted_from_flat(cls, *args, **kwargs):
            calls.append("_from_flat")
            return from_flat(cls, *args, **kwargs)

        monkeypatch.setattr(MultiObjectDensity, "__init__", counted_init)
        monkeypatch.setattr(MultiObjectDensity, "_from_flat", classmethod(counted_from_flat))
        built = []
        for steps in (10, 50):
            sc.steps = steps
            calls.clear()
            records, failed = run(sc, tmp_path)
            assert failed is None and len(records) == steps + 1
            built.append(len(calls))
        assert built[0] == built[1]

    def test_failed_steps_carry_their_number_and_keep_the_belief(self):
        """TruncationOverflow and ZeroEvidence name the step that failed and
        leave the Filter as it was: the next step gives the record of a
        Filter that never saw the failing set."""
        sc = load_config(impossible_config())
        fresh = [
            Filter(sc.prior, sc.transition, sc.kernel, sc.clutter, max_dropped=sc.max_dropped)
            for _ in range(2)
        ]
        first = fresh[0].step(["o0"])
        assert first.step == 1 and fresh[1].step(["o0"]).log_evidence == first.log_evidence
        belief = fresh[0]
        flat, mass, total = belief.flat, belief.truncation_mass, belief.total_mass
        with pytest.raises(ZeroEvidence) as exc:
            belief.step(["o0"] * 5)
        assert exc.value.step == 2 and belief.steps == 1
        assert belief.flat is flat and (belief.truncation_mass, belief.total_mass) == (mass, total)
        want, got = fresh[1].step(["o1"]), belief.step(["o1"])
        assert got.step == want.step == 2
        np.testing.assert_array_equal(got.intensity, want.intensity)
        np.testing.assert_array_equal(got.cardinality, want.cardinality)
        assert (got.log_evidence, got.truncation_mass) == (want.log_evidence, want.truncation_mass)
        flat, belief.max_dropped = belief.flat, 0.0
        with pytest.raises(TruncationOverflow) as exc:
            belief.step(["o1"])
        assert exc.value.step == 3 and belief.steps == 2 and belief.flat is flat

    def test_refuses_models_on_other_spaces(self):
        sc = load_config(scenario_config(3, 2, steps=1))
        other = load_config(scenario_config(2, 2, steps=1))
        with pytest.raises(ValueError, match="different spaces"):
            Filter(other.prior, sc.transition, sc.kernel, sc.clutter, max_dropped=1.0)
        with pytest.raises(ValueError, match="state space"):
            Filter(sc.prior, sc.transition, other.kernel, sc.clutter, max_dropped=1.0)


class TestMassAccounting:
    def test_run_log_evidence_renormalizes_the_capped_prediction(self):
        """At a cap that drops mass on every step, each step's log evidence
        is posterior_direct's on the table prediction scaled back to mass
        one: a run that skipped the renormalization would be off by
        log(1 - dropped), here more than 1e-3."""
        doc = scenario_config(2, 2, steps=4, birth_rate=0.8, max_dropped=0.5)
        sc = load_config(doc)
        sets = [["o0"], ["o0", "o1"], [], ["o1", "o1"]]
        records, failed = run(sc, measurement_sets=sets)
        assert failed is None
        model = sc.transition
        tables = build_multiplicative(
            model.survival, model.motion, model.birth, n_max=2, max_dropped=1.0
        )
        belief = sc.prior
        for record, Z in zip(records[1:], sets):
            predicted = tables.propagate(belief)
            kept = predicted.total_mass()
            assert kept < 1.0 - 1e-3
            post = posterior_direct(predicted.scaled(1.0 / kept), sc.kernel, Z, sc.clutter)
            assert record.log_evidence == pytest.approx(post.log_evidence, rel=0, abs=1e-12)
            belief = post.density

    def test_superpose_adds_both_carried_masses(self):
        """Both inputs' truncation masses carry over, plus the mass of the
        products past the cap, read off the dense untruncated product."""
        rng = np.random.default_rng(2440)
        sp = space(2)
        P1, P2 = random_density(rng, sp, 2), random_density(rng, sp, 3)
        P1.truncation_mass, P2.truncation_mass = 0.0125, 0.03
        S = superpose(P1, P2)
        full = product(P1.tensors, P2.tensors, 5, 2)
        dropped = sum(float(np.sum(full[k])) / math.factorial(k) for k in (4, 5))
        assert dropped > 1e-3
        assert S.truncation_mass == pytest.approx(0.0125 + 0.03 + dropped, rel=0, abs=1e-14)

    def test_poisson_posterior_truncation_mass_is_the_mass_past_the_cap(self):
        """The closed form at cap 3 drops what the same update at cap 16
        holds past 3."""
        rng = np.random.default_rng(2450)
        X, Zs = space(2), space(2, "z")
        spec = PoissonSpec(np.array([0.9, 0.7]), tail_tol=1e-13)
        kernel = random_kernel(rng, X, Zs, 2)
        Z = ["za", "zb"]
        capped = poisson_posterior(spec, kernel, Z, n_max=3)
        wide = poisson_posterior(spec, kernel, Z, n_max=16)
        past = float(wide.density.cardinality_distribution()[4:].sum())
        assert capped.density.truncation_mass > 1e-3
        assert capped.density.truncation_mass == pytest.approx(
            past + wide.density.truncation_mass, rel=0, abs=1e-12
        )


class TestColdUpdateMemory:
    @pytest.mark.parametrize("entries", [1, 97, 2**30])
    def test_chunked_levels_change_no_bit(self, monkeypatch, entries):
        """_levels cuts each level's pairs into chunks at state boundaries:
        one state per chunk, odd sizes and a single chunk give the same
        bytes as the default."""
        rng = np.random.default_rng(2460)
        X, Zs = space(3), space(8, "z")
        prior = random_density(rng, X, 5)
        kernel = random_kernel(rng, X, Zs, 2)
        clutter = random_poisson_clutter(rng, Zs, n_max=4)
        Z = list(Zs.labels) + ["za", "zc"]
        mobayes.bayes._likelihood.cache_clear()
        want = posterior_partition_clutter(prior, kernel, clutter, Z)
        monkeypatch.setattr(mobayes.bayes, "CHUNK_ENTRIES", entries)
        mobayes.bayes._likelihood.cache_clear()
        got = posterior_partition_clutter(prior, kernel, clutter, Z)
        mobayes.bayes._likelihood.cache_clear()
        assert got.density.flat.tobytes() == want.density.flat.tobytes()
        assert got.intensity.tobytes() == want.intensity.tobytes()
        assert got.log_evidence == want.log_evidence

    def test_fourteen_distinct_labels_in_pairs_stay_bounded(self):
        """14 distinct labels, blocks of up to two, n_max 6, clutter cap 6
        at d=3: 16,384 states and 114,688 (state, block) pairs. Taking a
        level's pairs at once peaked at 114 MiB (tracemalloc, plan and
        likelihood caches cleared); the plan and the chunked levels must
        stay within 40 MiB and 10 s."""
        rng = np.random.default_rng(99)
        X, Zs = space(3), space(14, "z")
        prior = random_density(rng, X, 6)
        kernel = random_kernel(rng, X, Zs, 2)
        clutter = random_poisson_clutter(rng, Zs, n_max=6)
        Z = list(Zs.labels)
        posterior_partition_clutter(prior, kernel, clutter, Z[:3])  # warms the layouts
        mobayes.bayes._plan.cache_clear()
        mobayes.bayes._likelihood.cache_clear()
        gc.collect()
        tracemalloc.start()
        try:
            start = time.perf_counter()
            post = posterior_partition_clutter(prior, kernel, clutter, Z)
            took = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            mobayes.bayes._plan.cache_clear()
            mobayes.bayes._likelihood.cache_clear()
        assert took < 10.0
        assert peak < 40 * 2**20
        assert abs(post.density.total_mass() - 1.0) < 1e-12
