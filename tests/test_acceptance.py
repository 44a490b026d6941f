"""Acceptance gate: nine end-to-end checks over the whole engine.

Each check reports exactly one [PASS]/[FAIL] line, replayed after the
run in the "acceptance report" terminal section (see conftest.py), and
fails its test on any violation. The checks are randomized sweeps at desk
scale, always judged against an independent oracle: brute-force
enumeration for the update engine, symbolic polynomial composition and
nested central differences for the variational rules, hand formulas for
the Poisson and single-detection closed forms, and wall-clock budgets
for the two performance items.

Seeds here (2000 series) are disjoint from the unit tests and from
`mobayes verify`, so the three layers never share instances.
"""

import functools
import time

import numpy as np

from mobayes import (
    BlackBoxFunctional,
    MultiObjectDensity,
    ObservationKernel,
    PoissonSpec,
    TensorFunctional,
    TensorMap,
    build_multiplicative,
    differential_of_variation,
    evaluate,
    faa_di_bruno,
    leibniz,
    moment,
    numeric_differential,
    poisson,
    poisson_posterior,
    poisson_posterior_intensity,
    posterior_direct,
    posterior_intensity,
    posterior_intensity_clutter,
    posterior_partition,
    posterior_partition_clutter,
    predict,
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
from mobayes.oracles import (
    compose_tensor_with_map,
    mixed_partial_at,
    tensor_map_component_polys,
)
from mobayes.verify import run_checks


REPORT_LINES: list[str] = []


def _emit(index: int, ok: bool, name: str, detail: str, seconds: float) -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"[{verdict}] acceptance {index}/9 {name}: {detail} ({seconds:.1f}s)"
    REPORT_LINES.append(line)
    print(line, flush=True)  # also lands in per-test captured output


def acceptance(index: int, name: str):
    """Wrap a check so it reports one line whether it passes or raises."""

    def wrap(fn):
        @functools.wraps(fn)
        def inner(self):
            start = time.perf_counter()
            try:
                detail = fn(self)
            except BaseException as exc:
                first = (str(exc).strip().splitlines() or [type(exc).__name__])[0]
                _emit(index, False, name, first[:120], time.perf_counter() - start)
                raise
            _emit(index, True, name, detail, time.perf_counter() - start)

        return inner

    return wrap


def _tensor_gap(a: MultiObjectDensity, b: MultiObjectDensity) -> float:
    return max(
        float(np.max(np.abs(s - t))) if s.size else 0.0
        for s, t in zip(a.tensors, b.tensors)
    )


def _random_update(rng):
    """One desk-scale instance: spaces up to 3 labels, up to 4 objects,
    groups of at most 2 measurements per object, sets of at most 4."""
    d_x = int(rng.integers(1, 4))
    d_z = int(rng.integers(1, 4))
    n_max = int(rng.integers(1, 5))
    m_max = int(rng.integers(1, 3))
    X, Zs = space(d_x), space(d_z, "z")
    prior = random_density(rng, X, n_max)
    kernel = random_kernel(rng, X, Zs, m_max)
    Z = feasible_measurements(rng, Zs, int(rng.integers(0, 5)), n_max * m_max)
    return prior, kernel, Z


class TestAcceptance:
    @acceptance(1, "partition update vs direct enumeration")
    def test_partition_update_matches_direct_enumeration(self):
        rng = np.random.default_rng(2001)
        count, worst = 220, 0.0
        start = time.perf_counter()
        for _ in range(count):
            prior, kernel, Z = _random_update(rng)
            got = posterior_partition(prior, kernel, Z)
            want = posterior_direct(prior, kernel, Z)
            worst = max(worst, _tensor_gap(got.density, want.density))
        elapsed = time.perf_counter() - start
        assert worst < 1e-10
        assert elapsed < 120.0
        return f"{count} instances, worst tensor gap {worst:.1e} (tol 1e-10)"

    @acceptance(2, "clutter update vs direct enumeration")
    def test_clutter_update_matches_direct_enumeration(self):
        rng = np.random.default_rng(2002)
        count, worst = 200, 0.0
        for k in range(count):
            d_x = int(rng.integers(1, 4))
            d_z = int(rng.integers(1, 4))
            n_max = int(rng.integers(1, 5))
            m_max = int(rng.integers(1, 3))
            X, Zs = space(d_x), space(d_z, "z")
            prior = random_density(rng, X, n_max)
            kernel = random_kernel(rng, X, Zs, m_max)
            if k % 2 == 0:
                clutter = random_clutter(rng, Zs, int(rng.integers(0, 3)))
            else:
                clutter = random_poisson_clutter(rng, Zs, n_max=int(rng.integers(1, 3)))
            cap = n_max * m_max + clutter.n_max
            Z = feasible_measurements(rng, Zs, int(rng.integers(0, 5)), cap)
            got = posterior_partition_clutter(prior, kernel, clutter, Z)
            want = posterior_direct(prior, kernel, Z, clutter)
            worst = max(worst, _tensor_gap(got.density, want.density))
        assert worst < 1e-10
        return (
            f"{count} instances (explicit and Poisson clutter), "
            f"worst tensor gap {worst:.1e} (tol 1e-10)"
        )

    @acceptance(3, "intensity agrees along three routes")
    def test_intensity_agrees_three_ways(self):
        rng = np.random.default_rng(2003)
        count, worst = 200, 0.0
        for _ in range(count):
            prior, kernel, Z = _random_update(rng)
            formula = posterior_intensity(prior, kernel, Z)
            part = posterior_partition(prior, kernel, Z)
            direct = posterior_direct(prior, kernel, Z)
            d = prior.space.size
            from_part = np.array([moment(part.density, [x]) for x in range(d)])
            from_direct = np.array([moment(direct.density, [x]) for x in range(d)])
            worst = max(
                worst,
                float(np.max(np.abs(formula - from_part), initial=0.0)),
                float(np.max(np.abs(formula - from_direct), initial=0.0)),
            )
        assert worst < 1e-9
        return f"{count} instances, worst pairwise gap {worst:.1e} (tol 1e-9)"

    @acceptance(4, "Poisson closed forms vs generic engine")
    def test_poisson_closed_forms_match_generic_engine(self):
        rng = np.random.default_rng(2004)
        count, worst = 30, 0.0
        for i in range(count):
            d_x = int(rng.integers(1, 4))
            d_z = int(rng.integers(1, 4))
            m_max = int(rng.integers(1, 3))
            # moderate rates and tail so auto + m stays clear of the hard
            # truncation cap even at d_x = 3
            lam = rng.uniform(0.04, 0.2, d_x) + 0.02
            spec = PoissonSpec(lam, tail_tol=1e-11)
            kernel = random_kernel(rng, space(d_x), space(d_z, "z"), m_max)
            m = int(rng.integers(0, 4)) if i else 0
            Z = random_measurements(rng, kernel.obs_space, m)
            # the generic prior needs m cardinalities of headroom past the
            # automatic cap: every explained measurement shifts the tail
            auto = poisson(spec, kernel.state_space).n_max
            prior = poisson(spec, kernel.state_space, n_max=auto + m)
            closed = poisson_posterior(spec, kernel, Z, n_max=prior.n_max)
            generic = posterior_partition(prior, kernel, Z)
            psi = rng.uniform(0.0, 1.0, d_x)
            worst = max(
                worst,
                _tensor_gap(closed.density, generic.density),
                float(
                    np.max(
                        np.abs(
                            poisson_posterior_intensity(spec, kernel, Z)
                            - generic.intensity
                        )
                    )
                ),
                abs(closed.log_evidence - generic.log_evidence),
                abs(evaluate(closed.density, psi) - evaluate(generic.density, psi)),
            )
            if m == 0:
                thinned = lam * kernel.tables[0]
                worst = max(
                    worst,
                    float(
                        np.max(
                            np.abs(
                                poisson_posterior_intensity(spec, kernel, [])
                                - thinned
                            )
                        )
                    ),
                )
        assert worst < 1e-10
        return (
            f"{count} instances incl. empty-set thinning, "
            f"worst gap {worst:.1e} (tol 1e-10)"
        )

    @acceptance(5, "single-detection intensity formula recovered")
    def test_detection_update_recovers_classical_intensity(self):
        """(1-pD) mu + sum_z pD g mu / (kappa + <pD g, mu>), scripted here
        from scratch against the full clutter update."""
        rng = np.random.default_rng(2005)
        count, worst = 25, 0.0
        for _ in range(count):
            d_x = int(rng.integers(1, 4))
            d_z = int(rng.integers(1, 4))
            X, Zs = space(d_x), space(d_z, "z")
            lam = rng.uniform(0.05, 0.3, d_x)
            kappa = rng.uniform(0.05, 0.3, d_z)
            p_d = rng.uniform(0.3, 0.95, d_x)
            g = rng.uniform(0.1, 1.0, (d_x, d_z))
            g /= g.sum(axis=1, keepdims=True)
            kernel = ObservationKernel.from_detection(X, Zs, p_d, g)
            prior = poisson(PoissonSpec(lam, tail_tol=1e-13), X)
            clutter = poisson(PoissonSpec(kappa, tail_tol=1e-13), Zs)
            Z = random_measurements(rng, Zs, int(rng.integers(0, 4)))
            got = posterior_intensity_clutter(prior, kernel, clutter, Z)
            want = (1.0 - p_d) * lam
            for z in Zs.indices(Z):
                num = p_d * g[:, z] * lam
                want = want + num / (kappa[z] + num.sum())
            worst = max(worst, float(np.max(np.abs(got - want))))
        assert worst < 1e-10
        return f"{count} instances, worst gap {worst:.1e} (tol 1e-10)"

    @acceptance(6, "variational rules vs independent oracles")
    def test_variational_rules_match_independent_oracles(self):
        rng = np.random.default_rng(2006)
        d = 2
        sp, sp_out = space(d), space(d, "o")

        worst_chain = 0.0
        for _ in range(25):
            outer = TensorFunctional(random_density(rng, sp_out, 3))
            coeffs = [rng.uniform(-0.4, 0.4, (d,) + (d,) * j) for j in range(3)]
            inner = TensorMap(sp, sp_out, coeffs)
            y = rng.uniform(-0.3, 0.3, d)
            points = [int(i) for i in rng.integers(0, d, int(rng.integers(1, 5)))]
            incs = [np.eye(d)[i] for i in points]
            lhs = faa_di_bruno(outer, inner, y, incs)
            poly = compose_tensor_with_map(
                outer.density.tensors, tensor_map_component_polys(coeffs, d), d
            )
            worst_chain = max(worst_chain, abs(lhs - mixed_partial_at(poly, points, y)))
        assert worst_chain < 1e-9

        worst_prod = 0.0
        for _ in range(10):
            f = TensorFunctional(random_density(rng, sp, 2))
            g = TensorFunctional(random_density(rng, sp, 2))
            y = rng.uniform(-0.4, 0.4, d)
            incs = [rng.uniform(-1, 1, d) for _ in range(int(rng.integers(0, 4)))]
            product = BlackBoxFunctional(sp, lambda psi, f=f, g=g: f(psi) * g(psi))
            want = numeric_differential(product, y, incs, levels=3)
            worst_prod = max(worst_prod, abs(leibniz(f, g, y, incs) - want))
        assert worst_prod < 1e-8

        worst_rec = 0.0
        for _ in range(10):
            outer = TensorFunctional(random_density(rng, sp_out, 3))
            coeffs = [rng.uniform(-0.4, 0.4, (d,) + (d,) * j) for j in range(3)]
            gmap = TensorMap(sp, sp_out, coeffs)
            y = rng.uniform(-0.3, 0.3, d)
            lists = [[rng.uniform(-1, 1, d)] for _ in range(int(rng.integers(0, 3)))]
            eta = rng.uniform(-1, 1, d)
            got = differential_of_variation(outer, gmap, y, lists, eta)

            def varied(psi, outer=outer, gmap=gmap, lists=lists):
                xs = [gmap.variation(psi, lst) for lst in lists]
                return outer.variation(gmap.value(psi), xs)

            want = numeric_differential(
                BlackBoxFunctional(sp, varied), y, [eta], levels=3
            )
            worst_rec = max(worst_rec, abs(got - want))
        assert worst_rec < 1e-8
        return (
            f"chain {worst_chain:.1e} (tol 1e-9), product {worst_prod:.1e}, "
            f"variation-of-variation {worst_rec:.1e} (tol 1e-8)"
        )

    @acceptance(7, "normalization, order invariance, pruning no-op")
    def test_posteriors_normalized_order_free_and_prunable(self):
        rng = np.random.default_rng(2007)
        count, worst_norm = 60, 0.0
        for k in range(count):
            prior, kernel, Z = _random_update(rng)
            if k % 2 == 0:
                post = posterior_partition(prior, kernel, Z)
                rerun = lambda Zp, **kw: posterior_partition(prior, kernel, Zp, **kw)
            else:
                clutter = random_poisson_clutter(rng, kernel.obs_space, n_max=2)
                post = posterior_partition_clutter(prior, kernel, clutter, Z)
                rerun = lambda Zp, **kw: posterior_partition_clutter(
                    prior, kernel, clutter, Zp, **kw
                )
            worst_norm = max(worst_norm, abs(post.density.total_mass() - 1.0))
            perm = [Z[i] for i in rng.permutation(len(Z))]
            shuffled = rerun(perm)
            unpruned = rerun(Z, prune=False)
            for s, t, u in zip(
                post.density.tensors, shuffled.density.tensors, unpruned.density.tensors
            ):
                assert np.array_equal(s, t)  # bitwise, not approximate
                assert np.array_equal(s, u)
            assert shuffled.log_evidence == post.log_evidence
            assert unpruned.log_evidence == post.log_evidence
        assert worst_norm < 1e-10
        return (
            f"{count} posteriors, worst |mass-1| {worst_norm:.1e} (tol 1e-10), "
            f"permutation and pruning bitwise identical"
        )

    @acceptance(8, "prediction mass and Poisson intensity identity")
    def test_prediction_preserves_mass_and_poisson_intensity(self):
        rng = np.random.default_rng(2008)
        count, worst_norm = 40, 0.0
        for _ in range(count):
            sp = space(int(rng.integers(1, 4)))
            n_max = int(rng.integers(0, 4))
            belief = random_density(rng, sp, n_max)
            p_s = rng.uniform(0.2, 0.95, sp.size)
            f = rng.uniform(0.1, 1.0, (sp.size, sp.size))
            f /= f.sum(axis=0, keepdims=True)
            w = rng.uniform(0.3, 1.0, 2)
            w /= w.sum()
            birth = MultiObjectDensity(
                sp, [w[0], w[1] * np.full(sp.size, 1.0 / sp.size)]
            )
            # output cap wide enough that survive-move-birth never clips
            model = build_multiplicative(
                p_s, f, birth, n_max=n_max + birth.n_max, m_max=n_max
            )
            pred = predict(belief, model)
            worst_norm = max(worst_norm, abs(pred.total_mass() - 1.0))
        assert worst_norm < 1e-9

        sp = space(2)
        mu = np.array([0.22, 0.17])
        p_s = np.array([0.65, 0.55])
        f = np.array([[0.8, 0.25], [0.2, 0.75]])
        b = np.array([0.07, 0.09])
        belief = poisson(PoissonSpec(mu, tail_tol=1e-10), sp, n_max=4)
        birth = poisson(PoissonSpec(b, tail_tol=1e-10), sp, n_max=4)
        model = build_multiplicative(
            p_s, f, birth, n_max=8, m_max=4, max_dropped=1e-3
        )
        pred = predict(belief, model, max_dropped=1e-3)
        want = f @ (p_s * mu) + b
        budget = 25 * (belief.truncation_mass + birth.truncation_mass + 1e-10)
        gap = float(np.max(np.abs(pred.intensity_vector() - want)))
        assert gap < budget
        return (
            f"{count} models, worst |mass-1| {worst_norm:.1e} (tol 1e-9); "
            f"Poisson intensity gap {gap:.1e} within truncation budget {budget:.1e}"
        )

    @acceptance(9, "runtime budgets")
    def test_fast_verify_and_large_update_within_budget(self):
        start = time.perf_counter()
        results = run_checks("fast")
        fast_s = time.perf_counter() - start
        assert all(r.passed for r in results)
        assert fast_s < 10.0

        rng = np.random.default_rng(2009)
        X, Zs = space(3), space(3, "z")
        prior = random_density(rng, X, 4)
        kernel = random_kernel(rng, X, Zs, 2)
        clutter = random_poisson_clutter(rng, Zs, n_max=2)
        Z = random_measurements(rng, Zs, 8)
        start = time.perf_counter()
        post = posterior_partition_clutter(prior, kernel, clutter, Z)
        update_s = time.perf_counter() - start
        assert update_s < 1.0
        assert abs(post.density.total_mass() - 1.0) < 1e-10
        return (
            f"fast self-checks {fast_s:.2f}s (< 10 s), "
            f"8-measurement clutter update {update_s:.3f}s (< 1 s)"
        )
