"""Bayes updates three ways: brute-force enumeration, the partition-sum
engine (with and without clutter), and the Poisson closed forms, plus the
numeric bivariate-functional oracle that shares no code with any of them.

The brute-force path enumerates measurement-to-object assignments, so it
is trusted as the ground truth everywhere; the sweeps here stay small
because the full randomized load lives in test_acceptance and `verify`.
"""

import itertools
import math
import re
import time

import numpy as np
import pytest

import mobayes.bayes
import mobayes.finite_pp
from mobayes import (
    FiniteSpace,
    MultiObjectDensity,
    ObservationKernel,
    PoissonSpec,
    ZeroEvidence,
    joint_likelihood,
    moment,
    poisson,
    poisson_posterior,
    poisson_posterior_intensity,
    posterior_bivariate,
    posterior_direct,
    posterior_intensity_clutter,
    posterior_partition_clutter,
    posterior_power_series,
)
from mobayes.instances import (
    feasible_measurements,
    random_clutter,
    random_density,
    random_detection_kernel,
    random_kernel,
    random_measurements,
    random_poisson_clutter,
    space,
)


def tensor_gap(a: MultiObjectDensity, b: MultiObjectDensity) -> float:
    return max(
        float(np.max(np.abs(s - t))) if s.size else 0.0
        for s, t in zip(a.tensors, b.tensors)
    )


def empty_process(sp) -> MultiObjectDensity:
    return MultiObjectDensity(sp, [1.0])


class TestObservationKernel:
    def test_per_state_normalization_enforced(self):
        sp, zs = space(2), space(2, "z")
        with pytest.raises(ValueError):
            ObservationKernel(sp, zs, [np.array([0.5, 0.5]), np.ones((2, 2))])

    def test_from_detection_layout(self):
        sp, zs = space(2), space(3, "z")
        p_d = np.array([0.8, 0.4])
        g = np.array([[0.5, 0.3, 0.2], [0.1, 0.1, 0.8]])
        k = ObservationKernel.from_detection(sp, zs, p_d, g)
        assert k.m_max == 1
        np.testing.assert_allclose(k.tables[0], 1.0 - p_d)
        np.testing.assert_allclose(k.tables[1], p_d[:, None] * g)

    def test_group_vector_vanishes_past_m_max(self):
        rng = np.random.default_rng(61)
        k = random_kernel(rng, space(2), space(2, "z"), 1)
        np.testing.assert_array_equal(k.group_vector((0, 1)), np.zeros(2))

    def test_missed_profile_is_the_empty_group_table(self):
        rng = np.random.default_rng(62)
        k = random_kernel(rng, space(3), space(2, "z"), 2)
        np.testing.assert_array_equal(k.missed_profile(), k.tables[0])

    def test_z_symmetry_required(self):
        sp, zs = space(2), space(2, "z")
        t2 = np.zeros((2, 2, 2))
        t2[:, 0, 1] = 1.0  # asymmetric in the two z axes
        t0 = np.full(2, 0.5)
        with pytest.raises(ValueError):
            ObservationKernel(sp, zs, [t0, np.zeros((2, 2)), t2])


class TestJointLikelihood:
    def test_empty_everything(self):
        rng = np.random.default_rng(63)
        k = random_kernel(rng, space(2), space(2, "z"), 1)
        got = joint_likelihood(k, (), [])
        assert got == pytest.approx(1.0)

    def test_single_object_reads_the_table(self):
        rng = np.random.default_rng(64)
        k = random_kernel(rng, space(2), space(3, "z"), 2)
        for m, Z in ((0, []), (1, ["zb"]), (2, ["zc", "za"])):
            idx = k.obs_space.indices(Z)
            want = k.tables[m][(0,) + tuple(sorted(idx))]
            assert joint_likelihood(k, ("a",), Z) == pytest.approx(float(want))

    def test_two_objects_one_measurement_hand_formula(self):
        rng = np.random.default_rng(65)
        k = random_detection_kernel(rng, space(2), space(2, "z"))
        r0, r1 = k.tables
        z = 1
        want = r1[0, z] * r0[1] + r0[0] * r1[1, z]
        got = joint_likelihood(k, ("a", "b"), ["zb"])
        np.testing.assert_allclose(got, want, atol=1e-15)

    def test_impossible_sets_return_zero(self):
        rng = np.random.default_rng(66)
        k = random_kernel(rng, space(2), space(2, "z"), 1)
        # two measurements cannot come from one object with m_max=1
        assert joint_likelihood(k, ("a",), ["za", "zb"]) == 0.0
        assert joint_likelihood(k, (), ["za"]) == 0.0

    def test_measurement_order_is_bookkeeping_only(self):
        rng = np.random.default_rng(67)
        k = random_kernel(rng, space(2), space(3, "z"), 2)
        clutter = random_poisson_clutter(rng, k.obs_space)
        Z = ["za", "zc", "zc", "zb"]
        base = joint_likelihood(k, ("a", "b"), Z, clutter)
        for perm in itertools.permutations(Z):
            assert joint_likelihood(k, ("a", "b"), list(perm), clutter) == base

    def test_clutter_slot_takes_the_remainder(self):
        """With no objects, the whole set must be explained by clutter."""
        rng = np.random.default_rng(68)
        zs = space(2, "z")
        k = random_kernel(rng, space(2), zs, 1)
        clutter = random_density(rng, zs, 2)
        Z = ["zb", "za"]
        idx = tuple(sorted(zs.indices(Z)))
        want = float(clutter.tensors[2][idx])
        assert joint_likelihood(k, (), Z, clutter) == pytest.approx(want)


class TestPosteriorDirect:
    def test_blind_kernel_returns_the_prior(self):
        rng = np.random.default_rng(69)
        sp, zs = space(2), space(2, "z")
        prior = random_density(rng, sp, 3)
        blind = ObservationKernel(sp, zs, [np.ones(2)])
        post = posterior_direct(prior, blind, [])
        assert tensor_gap(post.density, prior) < 1e-14

    def test_deterministic_instance_is_a_point_mass(self):
        sp = space(2)
        zs = space(2, "z")
        prior = MultiObjectDensity(sp, [0.0, np.array([1.0, 0.0])])
        emit = ObservationKernel(
            sp, zs, [np.zeros(2), np.eye(2)]
        )  # always exactly one measurement, equal to the state
        post = posterior_direct(prior, emit, ["za"])
        assert float(post.density.tensors[0]) == 0.0
        np.testing.assert_allclose(post.density.tensors[1], [1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(post.intensity, [1.0, 0.0], atol=1e-15)

    def test_normalization(self):
        rng = np.random.default_rng(70)
        for _ in range(10):
            prior = random_density(rng, space(2), 3)
            kernel = random_kernel(rng, space(2), space(2, "z"), 2)
            Z = random_measurements(rng, space(2, "z"), 2)
            post = posterior_direct(prior, kernel, Z)
            np.testing.assert_allclose(post.density.total_mass(), 1.0, atol=1e-12)

    def test_zero_evidence_raised(self):
        rng = np.random.default_rng(71)
        sp, zs = space(2), space(2, "z")
        prior = random_density(rng, sp, 1)
        kernel = random_kernel(rng, sp, zs, 1)
        with pytest.raises(ZeroEvidence):
            posterior_direct(prior, kernel, ["za"] * 3)

    def test_intensity_is_the_posterior_first_moment(self):
        rng = np.random.default_rng(72)
        prior = random_density(rng, space(3), 3)
        kernel = random_kernel(rng, space(3), space(2, "z"), 2)
        post = posterior_direct(prior, kernel, ["za", "zb"])
        np.testing.assert_allclose(
            post.intensity, post.density.intensity_vector(), atol=1e-12
        )
        assert np.all(post.intensity >= 0)
        card = post.density.cardinality_distribution()
        expected_count = float(np.arange(card.size) @ card)
        np.testing.assert_allclose(post.intensity.sum(), expected_count, atol=1e-9)


class TestPartitionUpdate:
    def test_matches_direct_on_random_instances(self):
        rng = np.random.default_rng(73)
        for _ in range(25):
            d_x, d_z = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            X, Zs = space(d_x), space(d_z, "z")
            n_max = int(rng.integers(1, 4))
            m_max = int(rng.integers(1, 3))
            prior = random_density(rng, X, n_max)
            kernel = random_kernel(rng, X, Zs, m_max)
            Z = feasible_measurements(
                rng, Zs, int(rng.integers(0, 4)), n_max * m_max
            )
            fast = posterior_partition_clutter(prior, kernel, None, Z)
            slow = posterior_direct(prior, kernel, Z)
            assert tensor_gap(fast.density, slow.density) < 1e-10
            np.testing.assert_allclose(fast.log_evidence, slow.log_evidence, atol=1e-10)

    def test_no_measurements_weights_by_missed_profile(self):
        """m=0 has a single (empty) partition: q_k proportional to
        p_k(x) * prod_i P_0(x_i)."""
        rng = np.random.default_rng(74)
        X = space(2)
        prior = random_density(rng, X, 2)
        kernel = random_kernel(rng, X, space(2, "z"), 1)
        post = posterior_partition_clutter(prior, kernel, None, [])
        p0 = kernel.tables[0]
        unnorm = [
            prior.tensors[0] * 1.0,
            prior.tensors[1] * p0,
            prior.tensors[2] * np.multiply.outer(p0, p0),
        ]
        den = sum(t.sum() / math.factorial(n) for n, t in enumerate(unnorm))
        for got, want in zip(post.density.tensors, unnorm):
            np.testing.assert_allclose(got, want / den, atol=1e-13)

    def test_measurement_order_bitwise_invariant(self):
        rng = np.random.default_rng(76)
        prior = random_density(rng, space(2), 3)
        kernel = random_kernel(rng, space(2), space(3, "z"), 2)
        Z = ["zc", "za", "zb", "zc"]
        base = posterior_partition_clutter(prior, kernel, None, Z)
        for perm in itertools.permutations(Z):
            again = posterior_partition_clutter(prior, kernel, None, list(perm))
            for s, t in zip(base.density.tensors, again.density.tensors):
                np.testing.assert_array_equal(s, t)
            assert again.log_evidence == base.log_evidence

    def test_pruning_is_a_no_op(self):
        rng = np.random.default_rng(77)
        prior = random_density(rng, space(2), 3)
        kernel = random_kernel(rng, space(2), space(2, "z"), 1)
        Z = ["za", "zb", "za"]
        pruned = posterior_partition_clutter(prior, kernel, None, Z, prune=True)
        full = posterior_partition_clutter(prior, kernel, None, Z, prune=False)
        for s, t in zip(pruned.density.tensors, full.density.tensors):
            np.testing.assert_array_equal(s, t)

    def test_never_symmetrizes(self, monkeypatch):
        """The update works on packed coefficients, which are symmetric by
        construction: it makes no orbit pass at all."""
        rng = np.random.default_rng(79)
        prior = random_density(rng, space(2), 4)
        kernel = random_kernel(rng, space(2), space(2, "z"), 2)
        clutter = random_poisson_clutter(rng, space(2, "z"))
        calls = []
        original = mobayes.finite_pp._orbit_mean

        def counted(arr, n):
            calls.append(np.shape(arr))
            return original(arr, n)

        monkeypatch.setattr(mobayes.finite_pp, "_orbit_mean", counted)
        posterior_partition_clutter(prior, kernel, clutter, ["za", "zb", "za"])
        posterior_intensity_clutter(prior, kernel, clutter, ["za", "zb", "za"])
        assert calls == []

    def test_prior_scaling_invariance(self):
        """An unnormalized prior numerator renormalizes away."""
        rng = np.random.default_rng(78)
        prior = random_density(rng, space(2), 2)
        scaled = prior.scaled(37.5)
        kernel = random_kernel(rng, space(2), space(2, "z"), 2)
        Z = ["zb", "zb"]
        a = posterior_partition_clutter(prior, kernel, None, Z)
        b = posterior_partition_clutter(scaled, kernel, None, Z)
        assert tensor_gap(a.density, b.density) < 1e-12

    def test_zero_evidence_raised(self):
        rng = np.random.default_rng(79)
        prior = random_density(rng, space(2), 1)
        kernel = random_kernel(rng, space(2), space(2, "z"), 1)
        with pytest.raises(ZeroEvidence):
            posterior_partition_clutter(prior, kernel, None, ["za"] * 3)

    def test_carries_the_prior_truncation_mass(self):
        """Mass dropped at earlier caps stays on the books through an update."""
        rng = np.random.default_rng(81)
        prior = random_density(rng, space(2), 3)
        prior.truncation_mass = 0.0125
        kernel = random_kernel(rng, space(2), space(2, "z"), 2)
        clutter = random_poisson_clutter(rng, space(2, "z"))
        post = posterior_partition_clutter(prior, kernel, clutter, ["za", "zb"])
        assert post.density.truncation_mass == prior.truncation_mass
        bare = posterior_partition_clutter(prior, kernel, None, ["zb"])
        assert bare.density.truncation_mass == 0.0125

    def test_fourteen_measurements_within_a_second(self):
        """Past brute force and past any set-partition walk: 14 measurements
        over 3 labels, two per object, up to four clutter points."""
        rng = np.random.default_rng(82)
        X, Zs = space(3), space(3, "z")
        prior = random_density(rng, X, 6)
        kernel = random_kernel(rng, X, Zs, 2)
        clutter = random_poisson_clutter(rng, Zs, n_max=4)
        Z = random_measurements(rng, Zs, 14)
        start = time.perf_counter()
        post = posterior_partition_clutter(prior, kernel, clutter, Z)
        assert time.perf_counter() - start < 1.0
        assert abs(post.density.total_mass() - 1.0) < 1e-10


class TestPowerSeriesOracle:
    """The joint functional's power-series coefficients, with no partitions."""

    def test_matches_direct(self):
        rng = np.random.default_rng(83)
        for i in range(30):
            d_x, d_z = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            X, Zs = space(d_x), space(d_z, "z")
            n_max = int(rng.integers(1, 4))
            prior = random_density(rng, X, n_max)
            kernel = random_kernel(rng, X, Zs, int(rng.integers(1, 3)))
            clutter = (
                None,
                random_clutter(rng, Zs, 2),
                random_poisson_clutter(rng, Zs, n_max=2),
            )[i % 3]
            cap = n_max * kernel.m_max + (0 if clutter is None else clutter.n_max)
            Z = random_measurements(rng, Zs, int(rng.integers(0, min(cap, 5) + 1)))
            series = posterior_power_series(prior, kernel, Z, clutter)
            brute = posterior_direct(prior, kernel, Z, clutter)
            assert tensor_gap(series.density, brute.density) < 1e-12
            assert abs(series.log_evidence - brute.log_evidence) < 1e-12
            np.testing.assert_allclose(series.intensity, brute.intensity, atol=1e-12)

    @pytest.mark.parametrize("n_max", [4, 6])
    def test_matches_the_engine_at_twelve_to_fourteen_measurements(self, n_max):
        rng = np.random.default_rng(84 + n_max)
        X, Zs = space(3), space(3, "z")
        for m in (12, 13, 14):
            prior = random_density(rng, X, n_max)
            kernel = random_kernel(rng, X, Zs, 2)
            clutter = random_poisson_clutter(rng, Zs, n_max=4)
            Z = random_measurements(rng, Zs, m)
            if m > n_max * 2 + 4:  # more than the objects and clutter can emit
                with pytest.raises(ZeroEvidence):
                    posterior_partition_clutter(prior, kernel, clutter, Z)
                with pytest.raises(ZeroEvidence):
                    posterior_power_series(prior, kernel, Z, clutter)
                continue
            engine = posterior_partition_clutter(prior, kernel, clutter, Z)
            series = posterior_power_series(prior, kernel, Z, clutter)
            assert tensor_gap(engine.density, series.density) < 1e-12
            assert abs(engine.log_evidence - series.log_evidence) < 1e-12


class TestIntensity:
    def test_three_paths_agree(self):
        rng = np.random.default_rng(80)
        for _ in range(15):
            X, Zs = space(2), space(2, "z")
            prior = random_density(rng, X, 3)
            kernel = random_kernel(rng, X, Zs, 2)
            Z = random_measurements(rng, Zs, int(rng.integers(0, 4)))
            direct = posterior_direct(prior, kernel, Z)
            part = posterior_partition_clutter(prior, kernel, None, Z)
            formula = posterior_intensity_clutter(prior, kernel, None, Z)
            by_moment = np.array(
                [moment(part.density, [x]) for x in X.labels]
            )
            np.testing.assert_allclose(formula, direct.intensity, atol=1e-9)
            np.testing.assert_allclose(formula, by_moment, atol=1e-9)

    def test_intensity_nonnegative_and_counts_objects(self):
        rng = np.random.default_rng(81)
        prior = random_density(rng, space(2), 3)
        kernel = random_kernel(rng, space(2), space(2, "z"), 2)
        M = posterior_intensity_clutter(prior, kernel, None, ["za", "zb"])
        assert np.all(M >= 0)
        post = posterior_partition_clutter(prior, kernel, None, ["za", "zb"])
        card = post.density.cardinality_distribution()
        np.testing.assert_allclose(M.sum(), float(np.arange(card.size) @ card), atol=1e-9)


class TestClutterUpdate:
    def test_empty_clutter_reduces_exactly(self):
        rng = np.random.default_rng(82)
        X, Zs = space(2), space(3, "z")
        prior = random_density(rng, X, 2)
        kernel = random_kernel(rng, X, Zs, 2)
        Z = ["za", "zc", "zc"]
        bare = posterior_partition_clutter(prior, kernel, None, Z)
        with_empty = posterior_partition_clutter(
            prior, kernel, empty_process(Zs), Z
        )
        for s, t in zip(bare.density.tensors, with_empty.density.tensors):
            np.testing.assert_array_equal(s, t)
        assert with_empty.log_evidence == bare.log_evidence
        np.testing.assert_array_equal(
            posterior_intensity_clutter(prior, kernel, None, Z),
            posterior_intensity_clutter(prior, kernel, empty_process(Zs), Z),
        )

    def test_matches_direct_with_explicit_and_poisson_clutter(self):
        rng = np.random.default_rng(83)
        X, Zs = space(2), space(2, "z")
        for i in range(16):
            prior = random_density(rng, X, int(rng.integers(1, 4)))
            kernel = random_kernel(rng, X, Zs, int(rng.integers(1, 3)))
            clutter = (
                random_density(rng, Zs, 2)
                if i % 2
                else random_poisson_clutter(rng, Zs)
            )
            Z = random_measurements(rng, Zs, int(rng.integers(0, 4)))
            fast = posterior_partition_clutter(prior, kernel, clutter, Z)
            slow = posterior_direct(prior, kernel, Z, clutter)
            assert tensor_gap(fast.density, slow.density) < 1e-10
            np.testing.assert_allclose(
                posterior_intensity_clutter(prior, kernel, clutter, Z),
                slow.intensity,
                atol=1e-9,
            )

    def test_all_clutter_explains_everything_without_objects(self):
        """A kernel that never emits leaves every measurement to clutter,
        so the posterior equals the prior and the evidence is the clutter
        likelihood of the whole set."""
        rng = np.random.default_rng(84)
        X, Zs = space(2), space(2, "z")
        prior = random_density(rng, X, 2)
        silent = ObservationKernel(X, Zs, [np.ones(2)])
        clutter = random_density(rng, Zs, 3)
        Z = ["zb", "za", "zb"]
        post = posterior_partition_clutter(prior, silent, clutter, Z)
        assert tensor_gap(post.density, prior) < 1e-12
        idx = tuple(sorted(Zs.indices(Z)))
        np.testing.assert_allclose(
            post.log_evidence, math.log(float(clutter.tensors[3][idx])), atol=1e-12
        )

    def test_evidence_below_the_smallest_float(self):
        """One sure object whose only emission and the only clutter point
        both have density 1e-200: the evidence 2e-400 underflows a double,
        but its log and the posterior are exact."""
        X, Zs = space(1), FiniteSpace(("u", "v"))
        prior = MultiObjectDensity(X, [0.0, [1.0]])
        kernel = ObservationKernel.from_detection(
            X, Zs, [1.0], np.array([[1e-200, 1.0 - 1e-200]])
        )
        clutter = poisson(PoissonSpec(np.array([1e-200, 0.0])), Zs, n_max=1)
        post = posterior_partition_clutter(prior, kernel, clutter, ["u", "u"])
        np.testing.assert_allclose(
            post.log_evidence, math.log(2) + 2 * math.log(1e-200), rtol=0, atol=1e-12
        )
        assert tensor_gap(post.density, prior) < 1e-12


class TestPoissonClosedForms:
    def _instance(self, rng, d_x=2, d_z=2, m_max=2):
        lam = rng.uniform(0.05, 0.25, d_x) + 0.02
        spec = PoissonSpec(lam, tail_tol=1e-13)
        kernel = random_kernel(rng, space(d_x), space(d_z, "z"), m_max)
        return lam, spec, kernel

    def test_empty_set_posterior_is_thinned_poisson(self):
        rng = np.random.default_rng(86)
        lam, spec, kernel = self._instance(rng)
        post = poisson_posterior(spec, kernel, [])
        nu = lam * kernel.tables[0]
        target = poisson(PoissonSpec(nu), kernel.state_space, n_max=post.density.n_max)
        assert tensor_gap(post.density, target) < 1e-12
        np.testing.assert_allclose(
            poisson_posterior_intensity(spec, kernel, []), nu, atol=1e-12
        )

    def test_one_signature_pass_per_update(self, monkeypatch):
        rng = np.random.default_rng(92)
        lam, spec, kernel = self._instance(rng)
        calls = []
        original = mobayes.bayes._signature_counts

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(mobayes.bayes, "_signature_counts", counted)
        poisson_posterior(spec, kernel, ["za", "zb", "za"])
        assert len(calls) == 1

    @pytest.mark.parametrize("n_max", [-1, mobayes.finite_pp.MAX_TENSOR_AXES + 1])
    def test_refuses_the_caps_poisson_refuses(self, n_max):
        rng = np.random.default_rng(93)
        lam, spec, kernel = self._instance(rng)
        with pytest.raises(ValueError) as refused:
            poisson(spec, kernel.state_space, n_max=n_max)
        with pytest.raises(ValueError, match=re.escape(str(refused.value))):
            poisson_posterior(spec, kernel, ["za"], n_max=n_max)

    def test_default_cap_is_the_poisson_choice(self):
        rng = np.random.default_rng(94)
        for _ in range(5):
            lam, spec, kernel = self._instance(rng)
            post = poisson_posterior(spec, kernel, ["zb"])
            assert post.density.n_max == poisson(spec, kernel.state_space).n_max

    def test_single_measurement_formula(self):
        rng = np.random.default_rng(87)
        lam, spec, kernel = self._instance(rng)
        z = "zb"
        got = poisson_posterior_intensity(spec, kernel, [z])
        p0 = kernel.tables[0]
        p1 = kernel.group_vector(kernel.obs_space.indices([z]))
        want = lam * (p0 + p1 / float(lam @ p1))
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_matches_generic_paths(self):
        rng = np.random.default_rng(88)
        for _ in range(8):
            lam, spec, kernel = self._instance(rng)
            m = int(rng.integers(0, 4))
            Z = random_measurements(rng, kernel.obs_space, m)
            # truncate the generic prior m cardinalities past the automatic
            # choice: each explained measurement shifts the usable tail
            auto = poisson(spec, kernel.state_space).n_max
            prior = poisson(spec, kernel.state_space, n_max=auto + m)
            closed = poisson_posterior(spec, kernel, Z, n_max=prior.n_max)
            generic = posterior_partition_clutter(prior, kernel, None, Z)
            assert tensor_gap(closed.density, generic.density) < 1e-10
            np.testing.assert_allclose(
                poisson_posterior_intensity(spec, kernel, Z),
                generic.intensity,
                atol=1e-10,
            )
            np.testing.assert_allclose(
                closed.log_evidence, generic.log_evidence, atol=1e-10
            )

    def test_zero_evidence(self):
        sp, zs = space(2), space(2, "z")
        p_d = np.array([0.5, 0.5])
        g = np.array([[1.0, 0.0], [1.0, 0.0]])  # z1 can never be emitted
        kernel = ObservationKernel.from_detection(sp, zs, p_d, g)
        with pytest.raises(ZeroEvidence):
            poisson_posterior(PoissonSpec(np.array([0.2, 0.1])), kernel, ["zb"])


class TestDetectionIntensityFormula:
    def test_bernoulli_detection_poisson_prior_and_clutter(self):
        """The textbook single-detection intensity update, scripted here
        from scratch as (1-pD) mu + sum_z pD g mu / (kappa + <pD g, mu>)."""
        rng = np.random.default_rng(89)
        X, Zs = space(2), space(2, "z")
        for _ in range(10):
            lam = rng.uniform(0.05, 0.3, 2)
            kappa = rng.uniform(0.05, 0.3, 2)
            p_d = rng.uniform(0.3, 0.95, 2)
            g = rng.uniform(0.1, 1.0, (2, 2))
            g /= g.sum(axis=1, keepdims=True)
            kernel = ObservationKernel.from_detection(X, Zs, p_d, g)
            prior = poisson(PoissonSpec(lam, tail_tol=1e-13), X)
            clutter = poisson(PoissonSpec(kappa, tail_tol=1e-13), Zs)
            Z = random_measurements(rng, Zs, int(rng.integers(0, 3)))
            got = posterior_intensity_clutter(prior, kernel, clutter, Z)
            want = (1.0 - p_d) * lam
            for z in Zs.indices(Z):
                num = p_d * g[:, z] * lam
                want = want + num / (kappa[z] + num.sum())
            np.testing.assert_allclose(got, want, atol=1e-10)


class TestBivariateOracle:
    """Numeric differentiation of the joint two-argument functional.

    Slow by design; one instance each way is enough here since every
    term it checks is also swept by the faster engines above.
    """

    def test_matches_partition_engine(self):
        rng = np.random.default_rng(90)
        X, Zs = space(2), space(2, "z")
        prior = random_density(rng, X, 2)
        kernel = random_kernel(rng, X, Zs, 2)
        Z = ["za", "zb"]
        numeric = posterior_bivariate(prior, kernel, Z)
        exact = posterior_partition_clutter(prior, kernel, None, Z)
        assert tensor_gap(numeric.density, exact.density) < 1e-8
        np.testing.assert_allclose(numeric.log_evidence, exact.log_evidence, atol=1e-8)

    def test_matches_clutter_engine(self):
        rng = np.random.default_rng(91)
        X, Zs = space(2), space(2, "z")
        prior = random_density(rng, X, 2)
        kernel = random_kernel(rng, X, Zs, 1)
        clutter = random_density(rng, Zs, 2)
        Z = ["zb", "zb"]
        numeric = posterior_bivariate(prior, kernel, Z, clutter)
        exact = posterior_partition_clutter(prior, kernel, clutter, Z)
        assert tensor_gap(numeric.density, exact.density) < 1e-8
