"""Time propagation by scalar product against the transition tables.

The multiplicative builder (independent survive-and-move per object plus
independent birth) is checked against hand formulas where those exist
(identity, certain death, pure birth, Poisson intensities) and against
its own mass bookkeeping everywhere else.
"""

import itertools
import math

import numpy as np
import pytest

import mobayes.finite_pp
from mobayes import (
    MultiObjectDensity,
    PoissonSpec,
    SurviveMoveBirth,
    TransitionModel,
    TruncationOverflow,
    build_multiplicative,
    poisson,
    predict,
    scalar_product,
)
from mobayes.finite_pp import MAX_TENSOR_AXES
from mobayes.oracles import conditional_slice, predicted_entry
from mobayes.instances import random_density, space


def empty_birth(sp) -> MultiObjectDensity:
    return MultiObjectDensity(sp, [1.0])


def random_model(rng, sp, n_max, m_max):
    """Multiplicative model with caps wide enough that nothing is clipped."""
    p_s = rng.uniform(0.2, 0.95, sp.size)
    f = rng.uniform(0.1, 1.0, (sp.size, sp.size))
    f /= f.sum(axis=0, keepdims=True)
    birth_card = rng.uniform(0.3, 1.0, 2)
    birth_card /= birth_card.sum()
    birth = MultiObjectDensity(
        sp,
        [birth_card[0], birth_card[1] * np.full(sp.size, 1.0 / sp.size)],
    )
    return build_multiplicative(
        p_s, f, birth, n_max=n_max + birth.n_max if n_max >= m_max else n_max,
        m_max=m_max,
    )


class TestTransitionModel:
    def test_ragged_rows_rejected(self):
        sp = space(2)
        with pytest.raises(ValueError):
            TransitionModel(sp, [[1.0, np.zeros(2)], [np.zeros(2)]])

    def test_mass_defect_outside_budget_rejected(self):
        sp = space(2)
        with pytest.raises(ValueError):
            TransitionModel(sp, [[0.7]])  # m=0 emits only 0.7 mass
        TransitionModel(sp, [[0.7]], truncation_mass=0.3)  # declared: fine

    def test_negative_entries_rejected(self):
        sp = space(2)
        with pytest.raises(ValueError):
            TransitionModel(sp, [[1.0, np.array([0.1, -0.1])]], truncation_mass=1.0)

    def test_caps_reported(self):
        sp = space(2)
        model = build_multiplicative(
            np.full(2, 0.5), np.eye(2), empty_birth(sp), n_max=3, m_max=2
        )
        assert model.n_max == 3 and model.m_max == 2


class TestBuildMultiplicative:
    def test_identity_dynamics(self):
        """Certain survival, identity motion, no birth: the tables encode a
        permutation-matching of y to x and prediction changes nothing."""
        rng = np.random.default_rng(101)
        sp = space(3)
        model = build_multiplicative(
            np.ones(3), np.eye(3), empty_birth(sp), n_max=3
        )
        post = random_density(rng, sp, 3)
        pred = predict(post, model)
        for s, t in zip(pred.tensors, post.tensors):
            np.testing.assert_allclose(s, t, atol=1e-12)

    def test_certain_death(self):
        rng = np.random.default_rng(102)
        sp = space(2)
        model = build_multiplicative(
            np.zeros(2), np.eye(2), empty_birth(sp), n_max=2
        )
        pred = predict(random_density(rng, sp, 2), model)
        assert float(pred.tensors[0]) == pytest.approx(1.0, abs=1e-12)
        for t in pred.tensors[1:]:
            np.testing.assert_allclose(t, 0.0, atol=1e-14)

    def test_empty_prior_yields_the_birth_process(self):
        sp = space(2)
        birth = MultiObjectDensity(
            sp, [0.5, np.array([0.3, 0.1]), 0.05 * np.ones((2, 2))]
        )
        model = build_multiplicative(
            np.full(2, 0.8),
            np.array([[0.7, 0.4], [0.3, 0.6]]),
            birth,
            n_max=2,
            m_max=0,
        )
        nothing = MultiObjectDensity(sp, [1.0])
        pred = predict(nothing, model)
        for s, t in zip(pred.tensors, birth.tensors):
            np.testing.assert_allclose(s, t, atol=1e-14)

    def test_single_object_marginals(self):
        """One object at y either dies or lands at x with mass p_S(y) f(x|y)."""
        sp = space(2)
        p_s = np.array([0.6, 0.9])
        f = np.array([[0.8, 0.25], [0.2, 0.75]])
        model = build_multiplicative(p_s, f, empty_birth(sp), n_max=1, m_max=1)
        np.testing.assert_allclose(model.tables[1][0], 1.0 - p_s, atol=1e-15)
        np.testing.assert_allclose(model.tables[1][1], f * p_s, atol=1e-15)

    def test_validation(self):
        sp = space(2)
        with pytest.raises(ValueError):
            build_multiplicative(
                np.array([0.5, 1.4]), np.eye(2), empty_birth(sp), n_max=1
            )
        with pytest.raises(ValueError):
            build_multiplicative(
                np.ones(2), np.array([[0.5, 0.5], [0.2, 0.5]]), empty_birth(sp), n_max=1
            )
        big_birth = MultiObjectDensity(sp, [0.5, np.array([0.25, 0.25])])
        with pytest.raises(ValueError):
            build_multiplicative(np.ones(2), np.eye(2), big_birth, n_max=0)

    def test_worst_case_clipping_guard(self):
        """Survivors plus certain birth cannot fit in the same cap."""
        sp = space(2)
        birth = MultiObjectDensity(sp, [0.0, np.array([0.6, 0.4])])
        with pytest.raises(TruncationOverflow):
            build_multiplicative(np.ones(2), np.eye(2), birth, n_max=2, m_max=2)
        model = build_multiplicative(
            np.ones(2), np.eye(2), birth, n_max=2, m_max=2, max_dropped=1.0
        )
        assert model.truncation_mass > 0.1


class TestPredict:
    def test_preserves_normalization_without_clipping(self):
        rng = np.random.default_rng(103)
        for _ in range(8):
            sp = space(int(rng.integers(2, 4)))
            m_max = int(rng.integers(1, 4))
            post = random_density(rng, sp, m_max)
            model = random_model(rng, sp, m_max + 1, m_max)
            pred = predict(post, model)
            np.testing.assert_allclose(pred.total_mass(), 1.0, atol=1e-9)
            assert pred.truncation_mass <= 1e-12

    def test_linearity_over_mixtures(self):
        rng = np.random.default_rng(104)
        sp = space(2)
        A = random_density(rng, sp, 2)
        B = random_density(rng, sp, 2)
        mix = MultiObjectDensity(
            sp, [0.3 * s + 0.7 * t for s, t in zip(A.tensors, B.tensors)]
        )
        model = random_model(rng, sp, 3, 2)
        lhs = predict(mix, model)
        pa, pb = predict(A, model), predict(B, model)
        for k in range(lhs.n_max + 1):
            np.testing.assert_allclose(
                lhs.tensors[k],
                0.3 * pa.tensors[k] + 0.7 * pb.tensors[k],
                atol=1e-12,
            )

    def test_matches_scalar_product_entrywise(self):
        rng = np.random.default_rng(105)
        sp = space(2)
        post = random_density(rng, sp, 2)
        model = random_model(rng, sp, 3, 2)
        pred = predict(post, model)
        for n in range(pred.n_max + 1):
            for tup in itertools.product(range(2), repeat=n):
                want = predicted_entry(model, post, n, tup)
                np.testing.assert_allclose(pred.tensors[n][tup], want, atol=1e-12)

    def test_conditional_slice_is_a_density_in_y(self):
        rng = np.random.default_rng(106)
        sp = space(2)
        model = random_model(rng, sp, 3, 2)
        # summing predicted mass over all x recovers 1 per y-configuration:
        # sum_n (1/n!) sum_x slice tensors == outgoing-mass check, so any
        # single slice against a normalized posterior stays within [0, 1]
        post = random_density(rng, sp, 2)
        val = predicted_entry(model, post, 1, (0,))
        assert 0.0 <= val <= 1.0

    def test_cap_mismatch_rejected(self):
        rng = np.random.default_rng(107)
        sp = space(2)
        post = random_density(rng, sp, 3)
        model = random_model(rng, sp, 3, 2)  # accepts at most 2 objects
        with pytest.raises(ValueError):
            predict(post, model)

    def test_belief_weighted_truncation_gate(self):
        """The builder records worst-case clipping; predict trips only on
        the mass actually lost for the belief at hand."""
        rng = np.random.default_rng(108)
        sp = space(2)
        birth = MultiObjectDensity(sp, [0.4, np.array([0.35, 0.25])])
        model = build_multiplicative(
            np.ones(2), np.eye(2), birth, n_max=2, m_max=2, max_dropped=1.0
        )
        assert model.truncation_mass > 0.0
        # an empty belief never reaches the clipped corner
        nothing = MultiObjectDensity(sp, [1.0])
        pred = predict(nothing, model, max_dropped=1e-12)
        np.testing.assert_allclose(pred.total_mass(), 1.0, atol=1e-12)
        # a belief with two objects does
        full = MultiObjectDensity(sp, [0.0, np.zeros(2), np.ones((2, 2)) / 2.0])
        with pytest.raises(TruncationOverflow):
            predict(full, model, max_dropped=1e-6)
        clipped = predict(full, model, max_dropped=1.0)
        assert clipped.truncation_mass > 1e-6
        np.testing.assert_allclose(
            clipped.total_mass() + clipped.truncation_mass, 1.0, atol=1e-12
        )


def random_dynamics(rng, sp, birth_cap):
    """Survival, motion and a random birth process with the given cap."""
    p_s = rng.uniform(0.0, 1.0, sp.size)
    f = rng.uniform(0.1, 1.0, (sp.size, sp.size))
    f /= f.sum(axis=0, keepdims=True)
    return p_s, f, random_density(rng, sp, birth_cap)


class TestSurviveMoveBirth:
    def test_composition_matches_the_tables(self):
        """Same prediction and truncation mass as the table oracle, also
        when posterior and birth caps sit below the model cap."""
        rng = np.random.default_rng(109)
        for d, n_max in itertools.product(range(1, 4), range(5)):
            sp = space(d)
            for post_cap, birth_cap in itertools.product(range(n_max + 1), repeat=2):
                post = random_density(rng, sp, post_cap)
                p_s, f, birth = random_dynamics(rng, sp, birth_cap)
                tables = build_multiplicative(p_s, f, birth, n_max=n_max, max_dropped=1.0)
                model = SurviveMoveBirth(p_s, f, birth, n_max=n_max)
                want = predict(post, tables, max_dropped=1.0)
                got = predict(post, model, max_dropped=1.0)
                assert got.n_max == want.n_max == n_max
                for s, t in zip(got.tensors, want.tensors):
                    np.testing.assert_allclose(s, t, rtol=0, atol=1e-14)
                assert got.truncation_mass == pytest.approx(want.truncation_mass, rel=0, abs=1e-14)

    def test_wide_space_matches_the_tables(self):
        """Ten states, more than any level's cardinality: the substitution
        and the pair tables against the table oracle."""
        rng = np.random.default_rng(112)
        sp = space(10)
        post = random_density(rng, sp, 3)
        p_s, f, birth = random_dynamics(rng, sp, 1)
        tables = build_multiplicative(p_s, f, birth, n_max=3, max_dropped=1.0)
        want = predict(post, tables, max_dropped=1.0)
        got = predict(post, SurviveMoveBirth(p_s, f, birth, n_max=3), max_dropped=1.0)
        for s, t in zip(got.tensors, want.tensors):
            np.testing.assert_allclose(s, t, rtol=0, atol=1e-14)
        assert got.truncation_mass == pytest.approx(want.truncation_mass, rel=0, abs=1e-14)

    def test_never_symmetrizes(self, monkeypatch):
        """Survivor and birth coefficients are multiplied packed, so predict
        makes no orbit pass at all."""
        rng = np.random.default_rng(111)
        sp = space(2)
        post = random_density(rng, sp, 3)
        p_s, f, birth = random_dynamics(rng, sp, 2)
        model = SurviveMoveBirth(p_s, f, birth, n_max=4)
        calls = []
        original = mobayes.finite_pp._orbit_mean

        def counted(arr, n):
            calls.append(np.shape(arr))
            return original(arr, n)

        monkeypatch.setattr(mobayes.finite_pp, "_orbit_mean", counted)
        predict(post, model, max_dropped=1.0)
        assert calls == []

    def test_overflow_agrees_with_the_tables(self):
        sp = space(2)
        birth = MultiObjectDensity(sp, [0.4, np.array([0.35, 0.25])])
        full = MultiObjectDensity(sp, [0.0, np.zeros(2), np.ones((2, 2)) / 2.0])
        tables = build_multiplicative(
            np.ones(2), np.eye(2), birth, n_max=2, max_dropped=1.0
        )
        model = SurviveMoveBirth(np.ones(2), np.eye(2), birth, n_max=2)
        for m in (tables, model):
            with pytest.raises(TruncationOverflow):
                predict(full, m, max_dropped=0.5)
            assert predict(full, m, max_dropped=0.7).truncation_mass == pytest.approx(0.6)

    def test_posterior_over_the_cap_rejected(self):
        rng = np.random.default_rng(110)
        sp = space(2)
        model = SurviveMoveBirth(np.full(2, 0.5), np.eye(2), empty_birth(sp), n_max=2)
        assert model.m_max == model.n_max == 2
        with pytest.raises(ValueError):
            predict(random_density(rng, sp, 3), model)

    def test_validation(self):
        sp = space(2)
        nothing = empty_birth(sp)
        with pytest.raises(ValueError, match="survival"):
            SurviveMoveBirth(np.array([0.5, 1.4]), np.eye(2), nothing, n_max=1)
        with pytest.raises(ValueError, match="motion"):
            SurviveMoveBirth(np.ones(2), np.ones((2, 3)) / 2, nothing, n_max=1)
        with pytest.raises(ValueError, match="motion"):
            SurviveMoveBirth(np.ones(2), np.full((2, 2), np.nan), nothing, n_max=1)
        big_birth = MultiObjectDensity(sp, [0.5, np.array([0.25, 0.25])])
        with pytest.raises(ValueError, match="birth"):
            SurviveMoveBirth(np.ones(2), np.eye(2), big_birth, n_max=0)

    def test_cap_past_the_axis_limit_refused(self):
        one = space(1)
        cap = MAX_TENSOR_AXES + 1
        with pytest.raises(ValueError, match=f"n_max={cap} "):
            SurviveMoveBirth(np.ones(1), np.eye(1), empty_birth(one), n_max=cap)


class TestPoissonThrough:
    def test_poisson_in_poisson_out_intensity(self):
        """Survive-move-and-birth keeps a Poisson belief Poisson; the
        predicted intensity is motion @ (p_S mu) + birth rate."""
        sp = space(2)
        mu = np.array([0.25, 0.15])
        p_s = np.array([0.7, 0.5])
        f = np.array([[0.85, 0.3], [0.15, 0.7]])
        b = np.array([0.06, 0.1])
        prior_cap, birth_cap, model_cap = 4, 4, 8
        post = poisson(PoissonSpec(mu, tail_tol=1e-10), sp, n_max=prior_cap)
        birth = poisson(PoissonSpec(b, tail_tol=1e-10), sp, n_max=birth_cap)
        model = build_multiplicative(
            p_s, f, birth, n_max=model_cap, m_max=prior_cap, max_dropped=1e-3
        )
        pred = predict(post, model, max_dropped=1e-3)
        want = f @ (p_s * mu) + b
        budget = 25 * (post.truncation_mass + birth.truncation_mass + 1e-10)
        np.testing.assert_allclose(pred.intensity_vector(), want, atol=budget)
        target = poisson(PoissonSpec(want, tail_tol=1e-10), sp, n_max=pred.n_max)
        for s, t in zip(pred.tensors, target.tensors):
            np.testing.assert_allclose(s, t, atol=budget)

    def test_composition_poisson_in_poisson_out_intensity(self):
        sp = space(3)
        mu = np.array([0.25, 0.15, 0.1])
        p_s = np.array([0.7, 0.5, 0.9])
        f = np.array([[0.8, 0.3, 0.1], [0.15, 0.6, 0.2], [0.05, 0.1, 0.7]])
        b = np.array([0.06, 0.1, 0.02])
        post = poisson(PoissonSpec(mu, tail_tol=1e-10), sp, n_max=5)
        birth = poisson(PoissonSpec(b, tail_tol=1e-10), sp, n_max=5)
        model = SurviveMoveBirth(p_s, f, birth, n_max=8)
        pred = predict(post, model, max_dropped=1e-3)
        want = f @ (p_s * mu) + b
        budget = 25 * (post.truncation_mass + birth.truncation_mass + 1e-10)
        np.testing.assert_allclose(pred.intensity_vector(), want, atol=budget)
        target = poisson(PoissonSpec(want, tail_tol=1e-10), sp, n_max=pred.n_max)
        for s, t in zip(pred.tensors, target.tensors):
            np.testing.assert_allclose(s, t, atol=budget)
