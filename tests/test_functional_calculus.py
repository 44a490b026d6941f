"""Variational toolkit: numeric differentials, the partition-sum chain
rule, the subset-sum product rule, and differentiating a variation.

Oracles come from three directions that share no code with the rules
under test: exact coefficient shifts on stored tensors, symbolic
polynomial composition (mobayes.oracles), and nested central
differences. Truncated generating functionals are polynomials, so the
numeric paths are exact to round-off at the orders used here.
"""

import math

import numpy as np
import pytest

from mobayes import (
    BlackBoxFunctional,
    PoissonFunctional,
    TensorFunctional,
    TensorMap,
    differential_of_variation,
    faa_di_bruno,
    janossy,
    leibniz,
    numeric_differential,
)
from mobayes.functional_calculus import MAX_NUMERIC_ORDER, MAX_PARTITION_ORDER
from mobayes.instances import random_density, space
from mobayes.oracles import (
    compose_tensor_with_map,
    mixed_partial_at,
    tensor_map_component_polys,
)


class TestNumericDifferential:
    def test_order_zero_is_plain_evaluation(self):
        F = BlackBoxFunctional(space(2), lambda psi: float(psi @ psi))
        y = np.array([0.3, -0.2])
        assert numeric_differential(F, y, []) == pytest.approx(float(y @ y))

    def test_quadratic_form(self):
        """d/dt (mu[psi + t e_x])^2 at t=0 is 2 mu[psi] mu(x)."""
        mu = np.array([0.7, 0.4, 0.2])
        sp = space(3)
        F = BlackBoxFunctional(sp, lambda psi: float(mu @ psi) ** 2)
        psi = np.array([0.5, -0.1, 0.8])
        for x in range(3):
            got = numeric_differential(F, psi, [sp.dirac(x)])
            np.testing.assert_allclose(got, 2.0 * float(mu @ psi) * mu[x], atol=1e-12)

    def test_zero_increment_gives_zero(self):
        F = BlackBoxFunctional(space(2), lambda psi: float(np.prod(psi + 1.0)))
        got = numeric_differential(F, np.array([0.1, 0.2]), [np.zeros(2)])
        assert got == pytest.approx(0.0, abs=1e-14)

    def test_recovers_janossy_coefficients(self):
        rng = np.random.default_rng(41)
        P = random_density(rng, space(2), 3)
        F = TensorFunctional(P)
        for pts in (("a",), ("a", "b"), ("b", "b", "a")):
            incs = [P.space.dirac(p) for p in pts]
            got = numeric_differential(F, np.zeros(2), incs, levels=2)
            np.testing.assert_allclose(got, janossy(P, pts), atol=1e-8)

    def test_linearity_in_the_increment(self):
        rng = np.random.default_rng(42)
        P = random_density(rng, space(3), 3)
        F = TensorFunctional(P)
        psi = rng.uniform(-0.5, 0.5, 3)
        eta = rng.uniform(-1.0, 1.0, 3)
        one = numeric_differential(F, psi, [eta], levels=2)
        scaled = numeric_differential(F, psi, [2.5 * eta], levels=2)
        np.testing.assert_allclose(scaled, 2.5 * one, atol=1e-10)

    def test_order_cap_enforced(self):
        F = BlackBoxFunctional(space(2), lambda psi: float(psi.sum()))
        incs = [np.ones(2)] * (MAX_NUMERIC_ORDER + 1)
        with pytest.raises(ValueError):
            numeric_differential(F, np.zeros(2), incs)

    def test_non_finite_evaluation_reported(self):
        F = BlackBoxFunctional(space(2), lambda psi: float("nan"))
        with pytest.raises(ValueError):
            numeric_differential(F, np.zeros(2), [np.ones(2)])


class TestTensorFunctional:
    def test_variation_symmetry_in_increments(self):
        rng = np.random.default_rng(43)
        F = TensorFunctional(random_density(rng, space(3), 3))
        psi = rng.uniform(-0.4, 0.4, 3)
        e1, e2 = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
        np.testing.assert_allclose(
            F.variation(psi, [e1, e2]), F.variation(psi, [e2, e1]), atol=1e-10
        )

    def test_variation_matches_numeric(self):
        rng = np.random.default_rng(44)
        F = TensorFunctional(random_density(rng, space(2), 3))
        psi = rng.uniform(-0.3, 0.3, 2)
        incs = [rng.uniform(-1, 1, 2) for _ in range(2)]
        np.testing.assert_allclose(
            F.variation(psi, incs),
            numeric_differential(F, psi, incs, levels=2),
            atol=1e-9,
        )


class TestPoissonFunctional:
    def test_value_and_variations_factorize(self):
        sp = space(2)
        mu = np.array([0.6, 0.3])
        F = PoissonFunctional(sp, mu)
        psi = np.array([0.2, 0.9])
        base = math.exp(float(mu @ (psi - 1.0)))
        assert F.value(psi) == pytest.approx(base)
        incs = [sp.dirac(0), np.array([0.5, 0.5])]
        want = base * mu[0] * float(mu @ incs[1])
        assert F.variation(psi, incs) == pytest.approx(want)

    def test_variation_against_numeric(self):
        sp = space(2)
        F = PoissonFunctional(sp, np.array([0.4, 0.7]))
        psi = np.array([0.1, -0.2])
        incs = [np.array([1.0, 0.3])]
        # the exponential is not polynomial; lean on a small step and more
        # extrapolation levels instead
        got = numeric_differential(F, psi, incs, step=0.05, levels=3)
        np.testing.assert_allclose(got, F.variation(psi, incs), atol=1e-9)


class TestTensorMap:
    def test_value_is_polynomial_evaluation(self):
        sp_in, sp_out = space(2), space(3, "o")
        c0 = np.array([1.0, 0.0, -1.0])
        c1 = np.arange(6, dtype=float).reshape(3, 2)
        g = TensorMap(sp_in, sp_out, [c0, c1])
        psi = np.array([0.5, 2.0])
        np.testing.assert_allclose(g.value(psi), c0 + c1 @ psi, atol=1e-14)

    def test_variation_keeps_output_axis(self):
        rng = np.random.default_rng(45)
        sp = space(2)
        coeffs = [rng.normal(size=(2,) + (2,) * j) for j in range(3)]
        g = TensorMap(sp, sp, coeffs)
        psi = rng.uniform(-0.5, 0.5, 2)
        eta = rng.uniform(-1, 1, 2)
        got = g.variation(psi, [eta])
        # component-wise numeric check
        for comp in range(2):
            F = BlackBoxFunctional(sp, lambda p, c=comp: float(g.value(p)[c]))
            np.testing.assert_allclose(
                got[comp], numeric_differential(F, psi, [eta], levels=2), atol=1e-10
            )

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            TensorMap(space(2), space(2, "o"), [np.zeros(3)])


class TestFaaDiBruno:
    def test_single_increment_is_the_chain_rule(self):
        rng = np.random.default_rng(46)
        sp_in, sp_out = space(2), space(2, "o")
        outer = TensorFunctional(random_density(rng, sp_out, 3))
        coeffs = [rng.uniform(-0.4, 0.4, (2,) + (2,) * j) for j in range(3)]
        inner = TensorMap(sp_in, sp_out, coeffs)
        y = rng.uniform(-0.3, 0.3, 2)
        eta = rng.uniform(-1, 1, 2)
        lhs = faa_di_bruno(outer, inner, y, [eta])
        rhs = outer.variation(inner.value(y), [inner.variation(y, [eta])])
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_exponential_of_linear_map_has_product_form(self):
        sp = space(2)
        nu = np.array([0.8, 0.5])
        C1 = np.array([[0.3, 0.1], [0.2, 0.6]])
        outer = PoissonFunctional(sp, nu)
        inner = TensorMap(sp, sp, [np.zeros(2), C1])
        y = np.array([0.4, -0.1])
        incs = [sp.dirac(0), sp.dirac(1), sp.dirac(0)]
        got = faa_di_bruno(outer, inner, y, incs)
        base = math.exp(float(nu @ (C1 @ y - 1.0)))
        want = base * math.prod(float(nu @ (C1 @ e)) for e in incs)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_against_symbolic_composition(self):
        """Partition sum vs direct mixed partials of the composed polynomial."""
        rng = np.random.default_rng(47)
        d = 2
        sp_in, sp_out = space(d), space(d, "o")
        for _ in range(12):
            outer = TensorFunctional(random_density(rng, sp_out, 3))
            coeffs = [rng.uniform(-0.4, 0.4, (d,) + (d,) * j) for j in range(3)]
            inner = TensorMap(sp_in, sp_out, coeffs)
            y = rng.uniform(-0.3, 0.3, d)
            order = int(rng.integers(1, 5))
            points = [int(i) for i in rng.integers(0, d, order)]
            incs = [np.eye(d)[i] for i in points]
            lhs = faa_di_bruno(outer, inner, y, incs)
            poly = compose_tensor_with_map(
                outer.density.tensors, tensor_map_component_polys(coeffs, d), d
            )
            rhs = mixed_partial_at(poly, points, y)
            np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_block_pruning_is_exact_for_linear_inner(self):
        rng = np.random.default_rng(48)
        sp = space(2)
        outer = TensorFunctional(random_density(rng, sp, 3))
        inner = TensorMap(sp, sp, [np.zeros(2), rng.uniform(-0.5, 0.5, (2, 2))])
        y = rng.uniform(-0.3, 0.3, 2)
        incs = [rng.uniform(-1, 1, 2) for _ in range(3)]
        full = faa_di_bruno(outer, inner, y, incs)
        pruned = faa_di_bruno(outer, inner, y, incs, max_block=1)
        assert pruned == full

    def test_order_cap(self):
        sp = space(2)
        outer = PoissonFunctional(sp, np.ones(2))
        inner = TensorMap(sp, sp, [np.zeros(2), np.eye(2)])
        with pytest.raises(ValueError):
            faa_di_bruno(outer, inner, np.zeros(2), [np.ones(2)] * (MAX_PARTITION_ORDER + 1))


class TestLeibniz:
    def test_order_zero_is_the_plain_product(self):
        rng = np.random.default_rng(49)
        sp = space(2)
        f = TensorFunctional(random_density(rng, sp, 2))
        g = TensorFunctional(random_density(rng, sp, 2))
        y = rng.uniform(-0.4, 0.4, 2)
        assert leibniz(f, g, y, []) == pytest.approx(f(y) * g(y), abs=1e-14)

    def test_constant_second_factor_drops_out(self):
        rng = np.random.default_rng(50)
        sp = space(2)
        f = TensorFunctional(random_density(rng, sp, 3))
        from mobayes import MultiObjectDensity

        one = TensorFunctional(MultiObjectDensity(sp, [1.0]))
        y = rng.uniform(-0.3, 0.3, 2)
        incs = [rng.uniform(-1, 1, 2) for _ in range(2)]
        np.testing.assert_allclose(
            leibniz(f, one, y, incs), f.variation(y, incs), atol=1e-14
        )

    def test_against_superposed_tensor_product(self):
        """The product of two generating functionals is the superposition's
        functional; pad with zero tensors so the min-cap truncation drops
        nothing and the comparison is exact."""
        rng = np.random.default_rng(51)
        from mobayes import MultiObjectDensity, superpose

        sp = space(2)
        P1 = random_density(rng, sp, 1)
        P2 = random_density(rng, sp, 2)
        pad = lambda P, n_max: MultiObjectDensity(
            P.space,
            list(P.tensors)
            + [np.zeros((2,) * n) for n in range(P.n_max + 1, n_max + 1)],
        )
        product = TensorFunctional(superpose(pad(P1, 3), pad(P2, 3)))
        f, g = TensorFunctional(P1), TensorFunctional(P2)
        y = rng.uniform(-0.4, 0.4, 2)
        for order in range(4):
            incs = [rng.uniform(-1, 1, 2) for _ in range(order)]
            np.testing.assert_allclose(
                leibniz(f, g, y, incs),
                product.variation(y, incs),
                atol=1e-9,
            )

    def test_against_numeric_product_differentiation(self):
        rng = np.random.default_rng(52)
        sp = space(2)
        f = TensorFunctional(random_density(rng, sp, 3))
        g = TensorFunctional(random_density(rng, sp, 2))
        y = rng.uniform(-0.3, 0.3, 2)
        incs = [rng.uniform(-1, 1, 2) for _ in range(3)]
        prod = BlackBoxFunctional(sp, lambda psi: f(psi) * g(psi))
        np.testing.assert_allclose(
            leibniz(f, g, y, incs),
            numeric_differential(prod, y, incs, levels=3),
            atol=1e-8,
        )


class TestDifferentialOfVariation:
    def _setup(self, seed):
        rng = np.random.default_rng(seed)
        sp, sp_out = space(2), space(2, "o")
        outer = TensorFunctional(random_density(rng, sp_out, 3))
        coeffs = [rng.uniform(-0.4, 0.4, (2,) + (2,) * j) for j in range(3)]
        gmap = TensorMap(sp, sp_out, coeffs)
        return rng, sp, outer, gmap

    def test_no_inner_increments_is_the_chain_rule(self):
        rng, _, outer, gmap = self._setup(53)
        y = rng.uniform(-0.3, 0.3, 2)
        eta = rng.uniform(-1, 1, 2)
        got = differential_of_variation(outer, gmap, y, [], eta)
        want = outer.variation(gmap.value(y), [gmap.variation(y, [eta])])
        np.testing.assert_allclose(got, want, atol=1e-13)

    def test_constant_inner_map_gives_zero(self):
        rng, sp, outer, _ = self._setup(54)
        const = TensorMap(sp, space(2, "o"), [np.array([0.2, -0.1])])
        y = rng.uniform(-0.3, 0.3, 2)
        got = differential_of_variation(outer, const, y, [], np.array([1.0, -1.0]))
        assert got == pytest.approx(0.0, abs=1e-14)

    def test_against_numeric_differential_of_the_variation_map(self):
        rng, sp, outer, gmap = self._setup(55)
        y = rng.uniform(-0.3, 0.3, 2)
        lists = [[rng.uniform(-1, 1, 2)] for _ in range(2)]
        eta = rng.uniform(-1, 1, 2)
        got = differential_of_variation(outer, gmap, y, lists, eta)

        def varied(psi: np.ndarray) -> float:
            xs = [gmap.variation(psi, lst) for lst in lists]
            return outer.variation(gmap.value(psi), xs)

        want = numeric_differential(BlackBoxFunctional(sp, varied), y, [eta], levels=3)
        np.testing.assert_allclose(got, want, atol=1e-8)
