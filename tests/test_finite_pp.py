"""Point-process containers: tensors, generating-functional evaluation,
exact differentials, scalar products, and the Poisson/Bernoulli builders.

The evaluation oracle used throughout is a literal transcription of the
defining sum G(psi) = sum_n (1/n!) sum_{tuples} p_n prod psi, looped over
itertools.product so it shares nothing with the vectorized path.
"""

import itertools
import json
import math

import numpy as np
import pytest

from mobayes import (
    FiniteSpace,
    MultiObjectDensity,
    PoissonSpec,
    bernoulli,
    differentiate,
    evaluate,
    janossy,
    moment,
    poisson,
    scalar_product,
    superpose,
)
from mobayes.finite_pp import (
    MAX_TENSOR_AXES,
    _is_symmetric,
    _level,
    _locate,
    _orbit_mean,
    _pack,
    _symmetrized,
    _unpack,
    contract,
    derivatives,
    is_symmetric,
    linear_products,
    multiply,
    pairings,
    substitute,
    symmetrize,
)
from mobayes.functional_calculus import numeric_differential
from mobayes.instances import random_density, space
from mobayes.oracles import powers, product


def eval_brute(P: MultiObjectDensity, psi: np.ndarray) -> float:
    d = P.space.size
    total = 0.0
    for n in range(P.n_max + 1):
        for tup in itertools.product(range(d), repeat=n):
            term = float(P.tensors[n][tup]) if n else float(P.tensors[0])
            for i in tup:
                term *= psi[i]
            total += term / math.factorial(n)
    return total


class TestFiniteSpace:
    def test_index_lookup_and_dirac(self):
        sp = FiniteSpace(("a", "b", "c"))
        assert sp.size == 3
        assert sp.index("b") == 1
        assert sp.index(2) == 2
        np.testing.assert_array_equal(sp.dirac("c"), [0.0, 0.0, 1.0])

    def test_distinct_labels_required(self):
        with pytest.raises(ValueError):
            FiniteSpace(("a", "a"))

    def test_unknown_label(self):
        sp = FiniteSpace(("a", "b"))
        with pytest.raises(KeyError):
            sp.index("z")


class TestSymmetrize:
    def test_matches_permutation_average(self):
        rng = np.random.default_rng(7)
        for n in (2, 3, 4):
            arr = rng.normal(size=(3,) * n)
            avg = np.zeros_like(arr)
            for perm in itertools.permutations(range(n)):
                avg += np.transpose(arr, perm)
            avg /= math.factorial(n)
            np.testing.assert_allclose(symmetrize(arr), avg, atol=1e-14)

    def test_fixed_point(self):
        rng = np.random.default_rng(8)
        s = symmetrize(rng.normal(size=(2, 2, 2)))
        assert is_symmetric(s)
        np.testing.assert_allclose(symmetrize(s), s, atol=1e-15)

    def test_group_restricted_symmetrization(self):
        """Averaging over the trailing axes keeps each leading index a row
        of its own."""
        rng = np.random.default_rng(9)
        arr = rng.normal(size=(2, 3, 3))
        got = _symmetrized(arr, 2)
        np.testing.assert_allclose(got, 0.5 * (arr + arr.transpose(0, 2, 1)), atol=1e-14)
        # row sums taken later depend on the memory order
        assert got.flags.c_contiguous
        np.testing.assert_allclose(got.sum(axis=(1, 2)), arr.sum(axis=(1, 2)), atol=1e-12)
        packed = _orbit_mean(arr, 2)
        assert packed.shape == (2, math.comb(3 + 1, 2))
        for row, a in zip(packed, arr):
            np.testing.assert_array_equal(row, _pack(a, 2, True))

    @pytest.mark.parametrize("j", range(3))
    def test_check_refuses_one_asymmetric_pair(self, j):
        """Rows that every swap of adjacent trailing axes but one leaves
        unchanged are refused."""
        rng = np.random.default_rng(10)
        arr = _symmetrized(rng.normal(size=(3,) + (2,) * 4), 4)
        assert _is_symmetric(arr, 4)
        # 0 up to trailing position j and 1 after it: only swapping j and
        # j + 1 moves this tuple
        bumped = arr.copy()
        bumped[(2,) + (0,) * (j + 1) + (1,) * (3 - j)] += 1.0
        for k in range(3):
            assert np.array_equal(np.swapaxes(bumped, k + 1, k + 2), bumped) == (k != j)
        assert not _is_symmetric(bumped, 4)
        assert not is_symmetric(bumped[2])
        assert is_symmetric(bumped[1])

    @pytest.mark.parametrize("shape, n", [((4,), 1), ((), 0), ((3,), 0), ((3, 4), 1), ((2, 1, 1, 1), 3)])
    def test_check_accepts_trivial_orbits(self, shape, n):
        """Below two axes, or on one state, every orbit is one entry."""
        arr = np.random.default_rng(11).normal(size=shape)
        assert _is_symmetric(arr, n)
        np.testing.assert_array_equal(_symmetrized(arr, n), arr)


class TestMultiObjectDensity:
    def test_requires_symmetric_tensors(self):
        sp = space(2)
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            MultiObjectDensity(sp, [0.5, np.zeros(2), bad])
        fixed = MultiObjectDensity(sp, [0.5, np.zeros(2), bad], symmetrize_input=True)
        assert is_symmetric(fixed.tensors[2])

    def test_shape_validation(self):
        sp = space(2)
        with pytest.raises(ValueError):
            MultiObjectDensity(sp, [1.0, np.zeros(3)])

    def test_cardinality_distribution_and_mass(self):
        rng = np.random.default_rng(10)
        P = random_density(rng, space(3), 3)
        card = P.cardinality_distribution()
        np.testing.assert_allclose(card.sum(), 1.0, atol=1e-12)
        np.testing.assert_allclose(P.total_mass(), 1.0, atol=1e-12)
        assert P.is_normalized()

    def test_intensity_vector_is_first_factorial_moment(self):
        rng = np.random.default_rng(11)
        P = random_density(rng, space(3), 3)
        expected = np.array([moment(P, [x]) for x in P.space.labels])
        np.testing.assert_allclose(P.intensity_vector(), expected, atol=1e-12)

    @pytest.mark.parametrize("symmetrize_input", [False, True])
    def test_owns_its_tensors(self, symmetrize_input):
        """Mutating the caller's arrays afterwards leaves the density as built."""
        rng = np.random.default_rng(13)
        raw = [t.copy() for t in random_density(rng, space(2), 3).tensors]
        P = MultiObjectDensity(space(2), raw, symmetrize_input=symmetrize_input)
        kept = [t.copy() for t in P.tensors]
        for t in raw:
            t[...] = -1.0
        for s, t in zip(P.tensors, kept):
            np.testing.assert_array_equal(s, t)

    def test_json_round_trip(self):
        rng = np.random.default_rng(12)
        P = random_density(rng, space(2), 2)
        Q = MultiObjectDensity.from_json(P.to_json())
        assert Q.space.labels == P.space.labels
        for a, b in zip(P.tensors, Q.tensors):
            np.testing.assert_array_equal(a, b)
        # serialization is canonical, so a second trip is byte-identical
        assert Q.to_json() == P.to_json()


class TestEvaluate:
    def test_normalized_at_ones(self):
        rng = np.random.default_rng(13)
        P = random_density(rng, space(3), 4)
        np.testing.assert_allclose(evaluate(P, np.ones(3)), 1.0, atol=1e-10)

    def test_at_zero_returns_p0(self):
        rng = np.random.default_rng(14)
        P = random_density(rng, space(2), 3)
        assert evaluate(P, np.zeros(2)) == pytest.approx(float(P.tensors[0]), abs=1e-15)

    def test_matches_brute_sum(self):
        rng = np.random.default_rng(15)
        P = random_density(rng, space(3), 3)
        for _ in range(5):
            psi = rng.uniform(-1.0, 1.0, 3)
            np.testing.assert_allclose(evaluate(P, psi), eval_brute(P, psi), atol=1e-12)

    def test_space_mismatch(self):
        rng = np.random.default_rng(16)
        P = random_density(rng, space(2), 2)
        with pytest.raises(ValueError):
            evaluate(P, np.ones(3))


class TestContract:
    """The shared contraction kernel against code that does not use it."""

    def test_no_increments_is_evaluate(self):
        rng = np.random.default_rng(14)
        for n_max in range(4):
            P = random_density(rng, space(3), n_max)
            psi = rng.uniform(-1.0, 1.0, 3)
            got = contract(P.tensors, [], psi)
            assert got.shape == ()
            assert float(got) == pytest.approx(evaluate(P, psi), abs=1e-14)

    def test_one_free_axis_at_one_is_the_intensity(self):
        rng = np.random.default_rng(15)
        for n_max in range(1, 5):
            P = random_density(rng, space(3), n_max)
            np.testing.assert_allclose(
                contract(P.tensors, [], np.ones(3), free=1),
                P.intensity_vector(),
                atol=1e-14,
            )

    def test_increments_match_numeric_differential(self):
        rng = np.random.default_rng(16)
        for n_max in (2, 3):
            P = random_density(rng, space(3), n_max)
            psi = rng.uniform(-0.5, 1.0, 3)
            for k in (1, 2):
                incs = [rng.uniform(-1.0, 1.0, 3) for _ in range(k)]
                want = numeric_differential(lambda f: evaluate(P, f), psi, incs)
                assert float(contract(P.tensors, incs, psi)) == pytest.approx(
                    want, abs=1e-10
                )


class TestDifferentiate:
    def test_coefficient_shift(self):
        rng = np.random.default_rng(17)
        P = random_density(rng, space(3), 3)
        D = differentiate(P, "b")
        assert D.n_max == P.n_max - 1
        j = P.space.index("b")
        for n in range(D.n_max + 1):
            np.testing.assert_array_equal(D.tensors[n], P.tensors[n + 1][j])

    def test_variation_via_finite_difference_direction(self):
        """Evaluating the shifted functional equals the Gateaux derivative
        along a one-hot increment, which for a polynomial is exact."""
        rng = np.random.default_rng(18)
        P = random_density(rng, space(2), 3)
        psi = rng.uniform(0.0, 1.0, 2)
        e0 = np.array([1.0, 0.0])
        h = 0.5
        stencil = (evaluate(P, psi + h * e0) - evaluate(P, psi - h * e0)) / (2 * h)
        # central difference of a cubic has an h^2 error from the cubic term;
        # subtract it with one extra stencil evaluation (Richardson)
        stencil2 = (evaluate(P, psi + 2 * h * e0) - evaluate(P, psi - 2 * h * e0)) / (4 * h)
        richardson = (4 * stencil - stencil2) / 3
        np.testing.assert_allclose(evaluate(differentiate(P, 0), psi), richardson, atol=1e-12)

    def test_differentiation_order_commutes(self):
        rng = np.random.default_rng(19)
        P = random_density(rng, space(3), 3)
        one_way = differentiate(differentiate(P, "a"), "c")
        other = differentiate(differentiate(P, "c"), "a")
        for s, t in zip(one_way.tensors, other.tensors):
            np.testing.assert_array_equal(s, t)

    def test_second_derivative_at_zero_recovers_p2(self):
        rng = np.random.default_rng(20)
        P = random_density(rng, space(2), 3)
        D2 = differentiate(differentiate(P, "a"), "b")
        assert evaluate(D2, np.zeros(2)) == pytest.approx(
            float(P.tensors[2][0, 1]), abs=1e-15
        )

    def test_exhausted_functional_is_zero(self):
        P = MultiObjectDensity(space(2), [1.0])
        D = differentiate(P, "a")
        assert D.n_max == 0
        assert float(D.tensors[0]) == 0.0


class TestJanossyAndMoment:
    def test_janossy_reads_back_stored_tensors(self):
        rng = np.random.default_rng(21)
        P = random_density(rng, space(3), 3)
        for n in range(P.n_max + 1):
            for tup in itertools.product(P.space.labels, repeat=n):
                idx = P.space.indices(tup)
                stored = float(P.tensors[n][idx]) if n else float(P.tensors[0])
                assert janossy(P, tup) == pytest.approx(stored, abs=1e-12)

    def test_empty_tuple(self):
        rng = np.random.default_rng(22)
        P = random_density(rng, space(2), 2)
        assert janossy(P, ()) == pytest.approx(float(P.tensors[0]), abs=1e-15)
        assert moment(P, ()) == pytest.approx(1.0, abs=1e-12)

    def test_moment_against_brute_counting(self):
        """First factorial moment by literally counting point occurrences."""
        rng = np.random.default_rng(23)
        P = random_density(rng, space(2), 3)
        x = 1
        brute = 0.0
        for n in range(P.n_max + 1):
            for tup in itertools.product(range(2), repeat=n):
                brute += tup.count(x) * float(P.tensors[n][tup]) / math.factorial(n)
        assert moment(P, [x]) == pytest.approx(brute, abs=1e-12)

    def test_deep_caps_answer_from_packed_levels(self):
        """At d=3 and n_max=20 a dense view of level 17 holds 3**17 entries;
        both functions must answer without one."""
        mu = np.array([0.5, 0.3, 0.2])
        P = poisson(PoissonSpec(mu), space(3), n_max=20)
        assert janossy(P, ("a", "b", "a")) == pytest.approx(
            math.exp(-1.0) * mu[0] * mu[1] * mu[0], abs=1e-15
        )
        assert moment(P, ("a", "c")) == pytest.approx(mu[0] * mu[2], abs=1e-12)

    def test_too_long_tuple_rejected(self):
        rng = np.random.default_rng(24)
        P = random_density(rng, space(2), 2)
        with pytest.raises(ValueError, match="tuple of length 3 exceeds n_max=2"):
            janossy(P, ("a",) * 3)
        with pytest.raises(ValueError, match="tuple of length 3 exceeds n_max=2"):
            P.entry(("a", "a", "b"))


class TestScalarProduct:
    def test_constant_functional_extracts_p0(self):
        rng = np.random.default_rng(25)
        P = random_density(rng, space(2), 3)
        unit = MultiObjectDensity(P.space, [1.0])
        assert scalar_product(P, unit) == pytest.approx(float(P.tensors[0]), abs=1e-15)

    def test_symmetry(self):
        rng = np.random.default_rng(26)
        P = random_density(rng, space(3), 2)
        Q = random_density(rng, space(3), 2)
        assert scalar_product(P, Q) == pytest.approx(scalar_product(Q, P), abs=1e-14)

    def test_all_ones_coefficients_give_total_mass(self):
        rng = np.random.default_rng(27)
        P = random_density(rng, space(2), 3)
        ones = MultiObjectDensity(
            P.space, [np.ones((2,) * n) for n in range(P.n_max + 1)]
        )
        assert scalar_product(P, ones) == pytest.approx(1.0, abs=1e-10)

    def test_bilinearity(self):
        rng = np.random.default_rng(28)
        sp = space(2)
        P1, P1b, P2 = (random_density(rng, sp, 2) for _ in range(3))
        a, b = 0.7, -0.3
        combo = MultiObjectDensity(
            sp,
            [a * s + b * t for s, t in zip(P1.tensors, P1b.tensors)],
        )
        lhs = scalar_product(combo, P2)
        rhs = a * scalar_product(P1, P2) + b * scalar_product(P1b, P2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestPoisson:
    def test_zero_intensity_is_certain_emptiness(self):
        P = poisson(PoissonSpec(np.zeros(2)), space(2), n_max=3)
        assert float(P.tensors[0]) == 1.0
        for t in P.tensors[1:]:
            np.testing.assert_array_equal(t, np.zeros_like(t))

    def test_tensors_are_scaled_outer_powers(self):
        mu = np.array([0.4, 0.25, 0.1])
        P = poisson(PoissonSpec(mu), space(3), n_max=3)
        lam = mu.sum()
        np.testing.assert_allclose(float(P.tensors[0]), math.exp(-lam), atol=1e-15)
        np.testing.assert_allclose(
            P.tensors[2], math.exp(-lam) * np.multiply.outer(mu, mu), atol=1e-15
        )

    def test_auto_truncation_controls_tail(self):
        mu = np.array([0.6, 0.4])  # lam = 1
        P = poisson(PoissonSpec(mu, tail_tol=1e-12), space(2))
        n = P.n_max
        tail = 1.0 - math.exp(-1.0) * sum(1.0 / math.factorial(k) for k in range(n + 1))
        assert tail < 1e-12
        assert P.truncation_mass == pytest.approx(tail, abs=1e-15)
        # one cardinality fewer would have violated the tolerance
        tail_short = 1.0 - math.exp(-1.0) * sum(1.0 / math.factorial(k) for k in range(n))
        assert tail_short >= 1e-12

    def test_generating_functional_is_truncated_exponential(self):
        rng = np.random.default_rng(29)
        mu = np.array([0.3, 0.5])
        P = poisson(PoissonSpec(mu, tail_tol=1e-12), space(2))
        for _ in range(5):
            psi = rng.uniform(-1.0, 1.0, 2)
            target = math.exp(float(mu @ (psi - 1.0)))
            assert evaluate(P, psi) == pytest.approx(target, abs=1e-11)

    def test_janossy_and_moment_closed_forms(self):
        mu = np.array([0.5, 0.2])
        P = poisson(PoissonSpec(mu, tail_tol=1e-14), space(2))
        lam = mu.sum()
        assert janossy(P, ("a", "b", "a")) == pytest.approx(
            math.exp(-lam) * mu[0] * mu[1] * mu[0], abs=1e-15
        )
        np.testing.assert_allclose(P.intensity_vector(), mu, atol=1e-12)

    def test_unreachable_tail_refused(self):
        with pytest.raises(ValueError):
            poisson(PoissonSpec(np.array([4.0, 4.0]), tail_tol=1e-14), space(2))

    def test_cap_past_the_axis_limit_refused(self):
        """On one state d**n is 1, so only the axis count bounds the cap."""
        one = FiniteSpace(("a",))
        assert poisson([0.1], one, n_max=MAX_TENSOR_AXES).n_max == MAX_TENSOR_AXES
        cap = MAX_TENSOR_AXES + 1
        with pytest.raises(ValueError, match=f"n_max={cap} "):
            poisson([0.1], one, n_max=cap)
        tensors = [np.ones((1,) * n) for n in range(cap + 1)]
        with pytest.raises(ValueError, match=f"n_max={cap} "):
            MultiObjectDensity(one, tensors, symmetrize_input=True)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PoissonSpec(np.array([-0.1]))
        with pytest.raises(ValueError):
            PoissonSpec(np.array([0.1]), tail_tol=0.0)


class TestBernoulliAndSuperpose:
    def test_bernoulli_layout(self):
        f = np.array([0.25, 0.75])
        P = bernoulli(0.3, f, space(2))
        assert float(P.tensors[0]) == pytest.approx(0.7)
        np.testing.assert_allclose(P.tensors[1], 0.3 * f)
        assert P.is_normalized()

    def test_bernoulli_zero_is_empty_process(self):
        P = bernoulli(0.0, np.array([1.0, 0.0]), space(2))
        assert float(P.tensors[0]) == 1.0
        np.testing.assert_array_equal(P.tensors[1], np.zeros(2))

    def test_bernoulli_validation(self):
        with pytest.raises(ValueError):
            bernoulli(1.2, np.array([0.5, 0.5]), space(2))
        with pytest.raises(ValueError):
            bernoulli(0.5, np.array([0.6, 0.6]), space(2))

    def test_superpose_with_padded_unit_is_identity(self):
        rng = np.random.default_rng(30)
        P = random_density(rng, space(2), 3)
        unit = MultiObjectDensity(
            P.space,
            [1.0] + [np.zeros((2,) * n) for n in range(1, P.n_max + 1)],
        )
        S = superpose(P, unit)
        for s, t in zip(S.tensors, P.tensors):
            np.testing.assert_allclose(s, t, atol=1e-15)

    def test_superpose_with_unpadded_unit_is_identity(self):
        rng = np.random.default_rng(34)
        P = random_density(rng, space(2), 3)
        S = superpose(P, MultiObjectDensity(P.space, [1.0]))
        assert S.n_max == P.n_max
        assert S.truncation_mass == 0.0
        for s, t in zip(S.tensors, P.tensors):
            np.testing.assert_allclose(s, t, atol=1e-15)

    def test_superpose_with_bernoulli_keeps_the_larger_cap(self):
        rng = np.random.default_rng(35)
        P = random_density(rng, space(2), 3)
        S = superpose(P, bernoulli(0.4, np.array([0.3, 0.7]), P.space))
        assert S.n_max == P.n_max
        np.testing.assert_allclose(
            S.total_mass() + S.truncation_mass, 1.0, atol=1e-12
        )

    def test_superpose_of_poissons_adds_intensities(self):
        sp = space(2)
        mu1, mu2 = np.array([0.3, 0.1]), np.array([0.2, 0.4])
        cap = 6
        S = superpose(
            poisson(PoissonSpec(mu1), sp, n_max=cap),
            poisson(PoissonSpec(mu2), sp, n_max=cap),
        )
        target = poisson(PoissonSpec(mu1 + mu2), sp, n_max=cap)
        for s, t in zip(S.tensors, target.tensors):
            np.testing.assert_allclose(s, t, atol=1e-10)

    def test_superpose_multiplies_generating_functionals(self):
        rng = np.random.default_rng(31)
        P1 = random_density(rng, space(2), 2)
        P2 = random_density(rng, space(2), 2)
        S = superpose(P1, P2)
        for _ in range(5):
            psi = rng.uniform(-1.0, 1.0, 2)
            lhs = evaluate(S, psi)
            rhs = evaluate(P1, psi) * evaluate(P2, psi)
            assert abs(lhs - rhs) <= S.truncation_mass + 1e-10

    def test_superpose_records_dropped_mass(self):
        rng = np.random.default_rng(32)
        P1 = random_density(rng, space(2), 2)
        P2 = random_density(rng, space(2), 2)
        S = superpose(P1, P2)
        # both factors are normalized, so whatever is missing was truncated
        np.testing.assert_allclose(
            S.total_mass() + S.truncation_mass, 1.0, atol=1e-12
        )

    def test_product_with_the_unit_family_is_the_identity(self):
        rng = np.random.default_rng(36)
        P = random_density(rng, space(3), 3)
        for t in (product([1.0], P.tensors, 3, 3), product(P.tensors, [1.0], 3, 3)):
            for s, want in zip(t, P.tensors):
                np.testing.assert_array_equal(s, want)

    def test_multiply_is_superpose(self):
        rng = np.random.default_rng(37)
        P1 = random_density(rng, space(3), 3)
        P2 = random_density(rng, space(3), 2)
        S = superpose(P1, P2)
        raw = multiply(P1.packed, P2.packed, S.n_max, 3)
        assert len(raw) == S.n_max + 1
        for s, t in zip(raw, S.packed):
            np.testing.assert_array_equal(s, t)

    def test_powers_are_the_exponential_coefficients(self):
        v = np.array([0.5, -2.0, 3.0])
        out = powers(v, 3)
        assert [t.shape for t in out] == [(), (3,), (3, 3), (3, 3, 3)]
        np.testing.assert_array_equal(out[3], np.einsum("i,j,k->ijk", v, v, v))
        assert powers(v, 0) == [1.0]

    def test_superpose_space_mismatch(self):
        rng = np.random.default_rng(33)
        with pytest.raises(ValueError):
            superpose(
                random_density(rng, space(2), 1),
                random_density(rng, space(2, "z"), 1),
            )


def assert_close(got, want, rel=1e-13):
    """Largest entry gap within rel of the largest reference entry."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= rel * np.max(np.abs(want), initial=0.0)


def random_symmetric(rng, d, n):
    return symmetrize(rng.normal(size=(d,) * n))


# the largest cardinality the packed kernels are checked to on each space,
# against the dense oracles: small spaces, and one wider than any level
# checked on it, where a multiset holds fewer indices than the space
TOP = {1: 6, 2: 6, 3: 6, 4: 6, 9: 3}
SIZES = [(d, n) for d, top in TOP.items() for n in range(top + 1)]


class TestPackedKernels:
    """Packed coefficients and kernels against the dense tensors: d in 1..4
    with cardinalities up to 6 and d = 9 up to 3, relative gaps within 1e-13."""

    @pytest.mark.parametrize("d, n", SIZES + [(30, 2), (200, 1)])
    def test_layout_is_the_sorted_tuple_order(self, d, n):
        tuples = _level(d, n).tuples
        want = list(itertools.combinations_with_replacement(range(d), n))
        assert tuples.tolist() == [list(t) for t in want]
        np.testing.assert_array_equal(_locate(tuples, d), np.arange(len(want)))
        orbit = [math.factorial(n) // math.prod(math.factorial(t.count(x)) for x in set(t)) for t in want]
        np.testing.assert_array_equal(math.factorial(n) * _level(d, n).inv_fact, orbit)

    @pytest.mark.parametrize("d", TOP)
    def test_pack_view_pack_round_trip_is_bitwise(self, d):
        rng = np.random.default_rng(200 + d)
        P = random_density(rng, space(d), TOP[d])
        again = MultiObjectDensity(P.space, P.tensors)
        for a, b in zip(P.packed, again.packed):
            np.testing.assert_array_equal(a, b)
        for n in range(TOP[d] + 1):
            level = rng.normal(size=math.comb(d + n - 1, n))
            np.testing.assert_array_equal(_pack(_unpack(level, d, n), n, False), level)

    @pytest.mark.parametrize("d", TOP)
    def test_view_and_entry_read_the_orbit_value(self, d):
        rng = np.random.default_rng(210 + d)
        top = TOP[d]
        dense = [np.asarray(rng.normal())] + [random_symmetric(rng, d, n) for n in range(1, top + 1)]
        P = MultiObjectDensity(space(d), dense)
        for n, t in enumerate(dense):
            np.testing.assert_array_equal(P.tensors[n], t)
            for tup in itertools.islice(itertools.product(range(d), repeat=n), 50):
                assert P.entry(tup) == t[tup]
        assert len(P.packed[top]) == math.comb(d + top - 1, top)
        with pytest.raises(ValueError):
            P.tensors[2][(0,) * 2] = 1.0

    @pytest.mark.parametrize("d", TOP)
    def test_symmetrizing_constructor_packs_the_orbit_mean(self, d):
        rng = np.random.default_rng(220 + d)
        raw = [rng.normal()] + [rng.normal(size=(d,) * n) for n in range(1, TOP[d] + 1)]
        P = MultiObjectDensity(space(d), raw, symmetrize_input=True)
        for n in range(2, TOP[d] + 1):
            np.testing.assert_array_equal(P.tensors[n], symmetrize(raw[n]))

    def test_multiply_matches_the_dense_product(self):
        rng = np.random.default_rng(230)
        for d in TOP:
            for n_p, n_r in itertools.product(range(4), repeat=2):
                if n_p + n_r > TOP[d]:
                    continue
                p = [rng.normal()] + [random_symmetric(rng, d, n) for n in range(1, n_p + 1)]
                r = [rng.normal()] + [random_symmetric(rng, d, n) for n in range(1, n_r + 1)]
                pp = [_pack(np.asarray(t), n, False) for n, t in enumerate(p)]
                rr = [_pack(np.asarray(t), n, False) for n, t in enumerate(r)]
                for cap in {n_p + n_r, max(n_p, n_r)}:
                    got = multiply(pp, rr, cap, d)
                    want = product(p, r, cap, d)
                    assert len(got) == cap + 1
                    for k, (g, w) in enumerate(zip(got, want)):
                        assert_close(_unpack(g, d, k), symmetrize(w))

    def test_linear_products_match_outer_products(self):
        rng = np.random.default_rng(240)
        for d, k in SIZES:
            vecs = rng.normal(size=(3, k, d))
            got = linear_products(vecs)
            for row, v in zip(got, vecs):
                dense = np.ones(())
                for u in v:
                    dense = np.multiply.outer(dense, u)
                assert_close(_unpack(row, d, k), math.factorial(k) * symmetrize(dense))

    @pytest.mark.parametrize("d", TOP)
    def test_derivatives_and_pairings_match_contract(self, d):
        rng = np.random.default_rng(250 + d)
        top = TOP[d]
        P = random_density(rng, space(d), top)
        base = rng.normal(size=d)
        D = derivatives(P.packed, base, top + 1)
        np.testing.assert_array_equal(D[top + 1], np.zeros(math.comb(d + top, top + 1)))
        for k in range(top + 1):
            assert_close(_unpack(D[k], d, k), contract(P.tensors, [], base, free=k))
            vecs = rng.normal(size=(2, k, d))
            got = pairings(D[k], linear_products(vecs), d, k)
            assert_close(got, [contract(P.tensors, list(v), base) for v in vecs])
            free = pairings(D[k + 1], linear_products(vecs), d, k, free=True)
            assert_close(free, [contract(P.tensors, list(v), base, free=1) for v in vecs])

    @pytest.mark.parametrize("d", TOP)
    def test_substitute_applies_the_matrix_on_every_axis(self, d):
        rng = np.random.default_rng(260 + d)
        P = random_density(rng, space(d), TOP[d])
        M = rng.normal(size=(d, d))
        got = substitute(P.packed, M)
        assert len(got) == TOP[d] + 1
        for j, T in enumerate(P.tensors):
            want = T
            for _ in range(j):
                # contract the leading axis with M's second index; x goes last
                want = want.reshape(d, -1).T @ M.T
            assert_close(_unpack(got[j], d, j), want.reshape((d,) * j))

    @pytest.mark.parametrize("d", TOP)
    def test_reads_match_the_dense_formulas(self, d):
        rng = np.random.default_rng(270 + d)
        P = random_density(rng, space(d), 6).scaled(1.7)
        Q = random_density(rng, space(d), 5)
        dense_card = [float(np.sum(t)) / math.factorial(n) for n, t in enumerate(P.tensors)]
        assert_close(P.cardinality_distribution(), dense_card)
        dense_int = sum(
            t.reshape(d, -1).sum(axis=1) / math.factorial(n - 1)
            for n, t in enumerate(P.tensors)
            if n
        )
        assert_close(P.intensity_vector(), dense_int)
        dense_sp = sum(
            float(np.sum(s * t)) / math.factorial(n)
            for n, (s, t) in enumerate(zip(P.tensors, Q.tensors))
        )
        assert_close(scalar_product(P, Q), dense_sp)
        for x in range(d):
            shifted = differentiate(P, x)
            assert shifted.n_max == P.n_max - 1
            for n, t in enumerate(shifted.tensors):
                np.testing.assert_array_equal(t, P.tensors[n + 1][x])
