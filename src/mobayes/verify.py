"""Cross-module property checks behind `mobayes verify`.

Each check sweeps randomized desk-scale instances and reports the worst
observed deviation against a stated tolerance. Levels: "fast" keeps spaces
at two points and measurement sets at three, sized to finish in seconds;
"full" raises sizes to three states and four measurements and multiplies
instance counts. The power-series check, whose oracle is not brute force,
reaches seven measurements (fast) and ten (full); at full it adds distinct
labels emitted in pairs, up to twelve measurements. Every update check calls
the one partition-sum engine, posterior_partition_clutter, passing
clutter=None where its instance has no clutter process. Those update
checks draw their instances from one sampler, _update_instances, which
takes the check's seed, its count, its clutter draw and its bounds on |Z|.

run_checks runs the checks one after another in the order of CHECKS: they
are Python-bound and hold the interpreter lock, so threads would not run
them in parallel. Seeds are fixed per check, so the report is identical
run to run apart from the timings. A check that raises fails with error
inf.
"""

from __future__ import annotations

import itertools
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from . import instances as inst
from .bayes import (
    ObservationKernel,
    posterior_intensity_clutter,
    posterior_partition_clutter,
    poisson_posterior,
    poisson_posterior_intensity,
)
from .finite_pp import MultiObjectDensity, PoissonSpec, poisson
from .functional_calculus import (
    BlackBoxFunctional,
    TensorFunctional,
    TensorMap,
    differential_of_variation,
    faa_di_bruno,
    leibniz,
    numeric_differential,
)
from .oracles import (
    build_multiplicative,
    compose_tensor_with_map,
    mixed_partial_at,
    posterior_direct,
    posterior_power_series,
    tensor_map_component_polys,
)
from .prediction import SurviveMoveBirth, predict
from .scenario import load_config, run


@dataclass
class CheckResult:
    name: str
    tolerance: float
    max_error: float
    passed: bool
    detail: str
    seconds: float


def _tensor_gap(a: MultiObjectDensity, b: MultiObjectDensity) -> float:
    """Largest entry gap; every dense entry copies a packed one, so the
    packed levels give the same number without building a dense view."""
    gap = 0.0
    for ca, cb in zip(a.packed, b.packed):
        gap = max(gap, float(np.max(np.abs(ca - cb))))
    return gap


def _sweep_sizes(level: str, fast: int, full: int) -> int:
    return fast if level == "fast" else full


def _dims(level: str) -> tuple[int, int, int, int]:
    """(d_x, d_z, n_max, m) caps per level."""
    return (2, 2, 3, 3) if level == "fast" else (3, 3, 4, 4)


def _update_instances(level: str, seed: int, count: int, clutter=None, *, m_lo=0, m_top=None):
    """Yield (rng, prior, kernel, clutter, Z) for `count` update instances.

    Each instance draws n_max, m_max, the prior and the kernel, then
    clutter(rng, obs_space, i) when a clutter draw is given (None
    otherwise), then |Z| from m_lo up to the smaller of m_top (the level's
    cap by default) and the most measurements the objects and the clutter
    can emit, then Z. The rng is yielded so a check can draw more between
    instances.
    """
    d_x, d_z, n_cap, m_cap = _dims(level)
    rng = np.random.default_rng(seed)
    X, Zs = inst.space(d_x), inst.space(d_z, "z")
    for i in range(count):
        n_max = int(rng.integers(1, n_cap + 1))
        m_max = int(rng.integers(1, 3))
        prior = inst.random_density(rng, X, n_max)
        kernel = inst.random_kernel(rng, X, Zs, m_max)
        noise = None if clutter is None else clutter(rng, Zs, i)
        emitted = n_max * m_max + (0 if noise is None else noise.n_max)
        m = int(rng.integers(m_lo, min(m_cap if m_top is None else m_top, emitted) + 1))
        yield rng, prior, kernel, noise, inst.random_measurements(rng, Zs, m)


def check_update_against_direct(level: str) -> tuple[float, str]:
    count = _sweep_sizes(level, 30, 80)
    worst = 0.0
    for _, prior, kernel, _, Z in _update_instances(level, 101, count):
        a = posterior_partition_clutter(prior, kernel, None, Z)
        b = posterior_direct(prior, kernel, Z)
        worst = max(worst, _tensor_gap(a.density, b.density))
        worst = max(worst, abs(math.exp(a.log_evidence) - math.exp(b.log_evidence)))
    return worst, f"{count} instances"


def _alternating_clutter(explicit_top: int, poisson_cap: int):
    """Explicit clutter of 1..explicit_top - 1 points on odd instances,
    Poisson clutter capped at poisson_cap on even ones."""
    return lambda rng, Zs, i: (
        inst.random_clutter(rng, Zs, int(rng.integers(1, explicit_top)))
        if i % 2
        else inst.random_poisson_clutter(rng, Zs, n_max=poisson_cap)
    )


def check_clutter_update_against_direct(level: str) -> tuple[float, str]:
    count = _sweep_sizes(level, 24, 60)
    worst = 0.0
    instances = _update_instances(level, 202, count, _alternating_clutter(3, 2))
    for _, prior, kernel, clutter, Z in instances:
        a = posterior_partition_clutter(prior, kernel, clutter, Z)
        b = posterior_direct(prior, kernel, Z, clutter)
        worst = max(worst, _tensor_gap(a.density, b.density))
        worst = max(worst, abs(math.exp(a.log_evidence) - math.exp(b.log_evidence)))
    return worst, f"{count} instances, alternating explicit/Poisson clutter"


def _distinct_label_instances(sizes: tuple[int, ...]):
    """Yield (prior, kernel, clutter, Z) with Z every label of an m-label
    observation space once, for each m in sizes: three states, up to six
    objects emitting blocks of up to two labels, up to six clutter points."""
    rng = np.random.default_rng(1112)
    X = inst.space(3)
    for m in sizes:
        Zs = inst.space(m, "z")
        prior = inst.random_density(rng, X, 6)
        kernel = inst.random_kernel(rng, X, Zs, 2)
        clutter = inst.random_poisson_clutter(rng, Zs, n_max=6)
        yield prior, kernel, clutter, list(Zs.labels)


def check_update_against_power_series(level: str) -> tuple[float, str]:
    """The engine past the reach of brute force, against the power series."""
    count = _sweep_sizes(level, 12, 30)
    m_top = 7 if level == "fast" else 10
    distinct = () if level == "fast" else (8, 10, 12)
    worst = 0.0
    drawn = _update_instances(level, 1111, count, _alternating_clutter(4, 4), m_top=m_top)
    instances = itertools.chain(
        (instance[1:] for instance in drawn), _distinct_label_instances(distinct)
    )
    for prior, kernel, clutter, Z in instances:
        a = posterior_partition_clutter(prior, kernel, clutter, Z)
        b = posterior_power_series(prior, kernel, Z, clutter)
        worst = max(worst, _tensor_gap(a.density, b.density))
        worst = max(worst, abs(a.log_evidence - b.log_evidence))
    detail = f"{count} instances, |Z| up to {m_top}"
    if distinct:
        detail += f"; distinct labels in blocks of two, |Z| = {', '.join(map(str, distinct))}"
    return worst, detail


def check_intensity_three_ways(level: str) -> tuple[float, str]:
    count = _sweep_sizes(level, 24, 60)
    worst = 0.0
    instances = _update_instances(
        level, 303, count, lambda rng, Zs, i: inst.random_clutter(rng, Zs, 2) if i % 2 else None
    )
    for _, prior, kernel, clutter, Z in instances:
        direct_sum = posterior_intensity_clutter(prior, kernel, clutter, Z)
        post = posterior_partition_clutter(prior, kernel, clutter, Z)
        brute = posterior_direct(prior, kernel, Z, clutter)
        worst = max(worst, float(np.max(np.abs(direct_sum - post.intensity))))
        worst = max(worst, float(np.max(np.abs(direct_sum - brute.intensity))))
    return worst, f"{count} instances, moment vs partition vs enumeration"


def check_poisson_closed_forms(level: str) -> tuple[float, str]:
    d_x, d_z, _, m_cap = _dims(level)
    count = _sweep_sizes(level, 12, 30)
    rng = np.random.default_rng(404)
    X, Zs = inst.space(d_x), inst.space(d_z, "z")
    worst = 0.0
    for _ in range(count):
        # rates small enough that the auto-selected cardinality cap stays
        # modest: the generic path materializes tensors up to that cap
        lam = rng.uniform(0.03, 0.3 / d_x, d_x) + 0.02
        spec = PoissonSpec(lam, tail_tol=1e-13)
        kernel = inst.random_kernel(rng, X, Zs, int(rng.integers(1, 3)))
        m = int(rng.integers(0, m_cap + 1))
        Z = inst.random_measurements(rng, Zs, m)
        # m extra slots: a measurement explained away as a partition block
        # shifts the truncated prior's tail m levels closer to the surface
        prior = poisson(spec, X, n_max=poisson(spec, X).n_max + m)
        closed = poisson_posterior(spec, kernel, Z, n_max=prior.n_max)
        generic = posterior_partition_clutter(prior, kernel, None, Z)
        worst = max(worst, _tensor_gap(closed.density, generic.density))
        closed_int = poisson_posterior_intensity(spec, kernel, Z)
        worst = max(worst, float(np.max(np.abs(closed_int - generic.intensity))))
        # empty measurement set: intensity collapses to mu * missed profile
        quiet = poisson_posterior_intensity(spec, kernel, [])
        worst = max(worst, float(np.max(np.abs(quiet - lam * kernel.tables[0]))))
    return worst, f"{count} instances incl. empty measurement sets"


def check_detection_intensity_formula(level: str) -> tuple[float, str]:
    d_x, d_z, _, m_cap = _dims(level)
    count = _sweep_sizes(level, 16, 40)
    rng = np.random.default_rng(505)
    X, Zs = inst.space(d_x), inst.space(d_z, "z")
    worst = 0.0
    for _ in range(count):
        lam = rng.uniform(0.03, 0.4 / d_x, d_x) + 0.02
        kappa = rng.uniform(0.03, 0.4 / d_z, d_z) + 0.02
        p_d = rng.uniform(0.3, 0.95, d_x)
        g = rng.uniform(0.1, 1.0, (d_x, d_z))
        g /= g.sum(axis=1, keepdims=True)
        kernel = ObservationKernel.from_detection(X, Zs, p_d, g)
        prior = poisson(PoissonSpec(lam, tail_tol=1e-13), X)
        clutter = poisson(PoissonSpec(kappa, tail_tol=1e-13), Zs)
        m = int(rng.integers(0, m_cap + 1))
        Z = inst.random_measurements(rng, Zs, m)
        engine = posterior_intensity_clutter(prior, kernel, clutter, Z)
        formula = (1.0 - p_d) * lam
        for z in Zs.indices(Z):
            num = p_d * g[:, z] * lam
            formula = formula + num / (kappa[z] + num.sum())
        worst = max(worst, float(np.max(np.abs(engine - formula))))
    return worst, f"{count} instances, detect-or-miss kernels"


def check_composite_variations(level: str) -> tuple[float, str]:
    count = _sweep_sizes(level, 10, 24)
    order_cap = 3 if level == "fast" else 4
    rng = np.random.default_rng(606)
    d_in, d_out = 2, 2
    sp_in, sp_out = inst.space(d_in), inst.space(d_out, "o")
    worst = 0.0
    for _ in range(count):
        outer = TensorFunctional(inst.random_density(rng, sp_out, 3))
        coeffs = [
            rng.uniform(-0.4, 0.4, (d_out,) + (d_in,) * j) for j in range(3)
        ]
        inner = TensorMap(sp_in, sp_out, coeffs)
        y = rng.uniform(-0.3, 0.3, d_in)
        order = int(rng.integers(1, order_cap + 1))
        points = [int(i) for i in rng.integers(0, d_in, order)]
        increments = [np.eye(d_in)[i] for i in points]
        lhs = faa_di_bruno(outer, inner, y, increments)
        poly = compose_tensor_with_map(
            outer.density.tensors, tensor_map_component_polys(coeffs, d_in), d_in
        )
        rhs = mixed_partial_at(poly, points, y)
        worst = max(worst, abs(lhs - rhs))
    return worst, f"{count} instances, orders up to {order_cap}"


def check_product_and_recursion_rules(level: str) -> tuple[float, str]:
    count = _sweep_sizes(level, 8, 20)
    rng = np.random.default_rng(707)
    d = 2
    sp, sp_out = inst.space(d), inst.space(d, "o")
    worst = 0.0
    for _ in range(count):
        f = TensorFunctional(inst.random_density(rng, sp, 3))
        g = TensorFunctional(inst.random_density(rng, sp, 2))
        y = rng.uniform(-0.3, 0.3, d)
        order = int(rng.integers(1, 4))
        incs = [rng.uniform(-1.0, 1.0, d) for _ in range(order)]
        lhs = leibniz(f, g, y, incs)
        product = BlackBoxFunctional(sp, lambda psi: f(psi) * g(psi))
        rhs = numeric_differential(product, y, incs, levels=3)
        worst = max(worst, abs(lhs - rhs))

        outer = TensorFunctional(inst.random_density(rng, sp_out, 3))
        coeffs = [rng.uniform(-0.4, 0.4, (d,) + (d,) * j) for j in range(3)]
        gmap = TensorMap(sp, sp_out, coeffs)
        lists = [[rng.uniform(-1.0, 1.0, d)] for _ in range(int(rng.integers(1, 3)))]
        eta = rng.uniform(-1.0, 1.0, d)
        lhs = differential_of_variation(outer, gmap, y, lists, eta)

        def chained(psi: np.ndarray) -> float:
            xs = [gmap.variation(psi, lst) for lst in lists]
            return outer.variation(gmap.value(psi), xs)

        rhs = numeric_differential(BlackBoxFunctional(sp, chained), y, [eta], levels=3)
        worst = max(worst, abs(lhs - rhs))
    return worst, f"{count} instances, numeric-differential oracle"


def check_normalization_and_order(level: str) -> tuple[float, str]:
    count = _sweep_sizes(level, 20, 50)
    worst = 0.0
    bitwise_bad = 0
    instances = _update_instances(
        level, 808, count, lambda rng, Zs, i: inst.random_clutter(rng, Zs, 2), m_lo=1
    )
    for rng, prior, kernel, clutter, Z in instances:
        post = posterior_partition_clutter(prior, kernel, clutter, Z)
        worst = max(worst, abs(post.density.total_mass() - 1.0))
        perm = [Z[j] for j in rng.permutation(len(Z))]
        redo = posterior_partition_clutter(prior, kernel, clutter, perm)
        loose = posterior_partition_clutter(prior, kernel, clutter, Z, prune=False)
        for a, b, c in zip(post.density.packed, redo.density.packed, loose.density.packed):
            if not (np.array_equal(a, b) and np.array_equal(a, c)):
                bitwise_bad += 1
    if bitwise_bad:
        worst = max(worst, 1.0)
    return worst, f"{count} instances; {bitwise_bad} bitwise mismatches"


def check_prediction(level: str) -> tuple[float, str]:
    count = _sweep_sizes(level, 10, 24)
    rng = np.random.default_rng(909)
    d = 2 if level == "fast" else 3
    sp = inst.space(d)
    worst = 0.0
    for _ in range(count):
        n_max = int(rng.integers(1, 4))
        post = inst.random_density(rng, sp, n_max)
        p_s = rng.uniform(0.3, 0.9, d)
        f = rng.uniform(0.1, 1.0, (d, d))
        f /= f.sum(axis=0, keepdims=True)
        b1 = rng.uniform(0.01, 0.1, d)
        birth = MultiObjectDensity(sp, [1.0 - b1.sum(), b1])
        # cap chosen so survivors plus one birth always fit: mass preserved
        model = build_multiplicative(
            p_s, f, birth, n_max=n_max + 1, m_max=n_max, max_dropped=1e-9
        )
        pred = predict(post, model)
        worst = max(worst, abs(pred.total_mass() - 1.0))
        # the composition on the scenario path against the table oracle
        composed = predict(
            post, SurviveMoveBirth(p_s, f, birth, n_max=n_max + 1), max_dropped=1.0
        )
        worst = max(worst, _tensor_gap(composed, pred))
        worst = max(worst, abs(composed.truncation_mass - pred.truncation_mass))
    # Poisson in, Poisson out
    lam = np.array([0.2, 0.1][:d] + [0.15] * max(0, d - 2))
    bint = np.array([0.05, 0.08][:d] + [0.04] * max(0, d - 2))
    p_s = np.linspace(0.5, 0.8, d)
    f = np.full((d, d), 1.0 / d)
    mu_post = poisson(PoissonSpec(lam), sp, n_max=4)
    bpois = poisson(PoissonSpec(bint), sp, n_max=4)
    pred = predict(mu_post, SurviveMoveBirth(p_s, f, bpois, n_max=8), max_dropped=1e-4)
    target = bint + f @ (p_s * lam)
    budget = 25 * (pred.truncation_mass + mu_post.truncation_mass + 1e-12)
    gap = float(np.max(np.abs(pred.intensity_vector() - target)))
    err = max(0.0, gap - budget)
    worst = max(worst, err)
    return worst, (
        f"{count} mass-balance and composition-vs-tables instances;"
        f" intensity gap {gap:.2e} within {budget:.2e}"
    )


def check_prediction_operator(level: str) -> tuple[float, str]:
    """The cached operator M against the composition it is built from and
    against the explicit transition tables: M x, the composition of x and
    the tables' contraction with x, for posteriors at and below the cap."""
    count = _sweep_sizes(level, 12, 30)
    d_top, n_top = (2, 3) if level == "fast" else (3, 4)
    rng = np.random.default_rng(1010)
    worst = 0.0
    for _ in range(count):
        d, n_max = int(rng.integers(1, d_top + 1)), int(rng.integers(1, n_top + 1))
        sp = inst.space(d)
        post = inst.random_density(rng, sp, int(rng.integers(0, n_max + 1)))
        p_s = rng.uniform(0.3, 0.95, d)
        f = rng.uniform(0.1, 1.0, (d, d))
        f /= f.sum(axis=0, keepdims=True)
        birth = inst.random_density(rng, sp, int(rng.integers(0, n_max + 1)))
        model = SurviveMoveBirth(p_s, f, birth, n_max=n_max)
        by_operator = model.operator()[:, : post.flat.size] @ post.flat
        by_composition = model.composition(post.packed)
        tables = build_multiplicative(p_s, f, birth, n_max=n_max, max_dropped=1.0)
        by_tables = tables.propagate(post).flat
        worst = max(worst, float(np.max(np.abs(by_operator - by_composition))))
        worst = max(worst, float(np.max(np.abs(by_operator - by_tables))))
    detail = f"{count} models, d up to {d_top}, n_max up to {n_top}"
    return worst, detail + ": M x vs composition vs tables"


def check_run_reproducibility(level: str) -> tuple[float, str]:
    import tempfile

    config = {
        "version": 1,
        "state_labels": ["a", "b"],
        "obs_labels": ["u", "v"],
        "n_max": 4,
        "prior": {"kind": "poisson", "intensity": [0.3, 0.2], "tail_tol": 1e-9},
        "kernel": {
            "kind": "detection",
            "p_detect": [0.85, 0.7],
            "likelihood": [[0.8, 0.2], [0.3, 0.7]],
        },
        "clutter": {"kind": "poisson", "intensity": [0.1, 0.15], "n_max": 4},
        "transition": {
            "survival": [0.6, 0.55],
            "motion": [[0.9, 0.2], [0.1, 0.8]],
            "birth": {"kind": "poisson", "intensity": [0.12, 0.08], "tail_tol": 1e-9},
            "max_dropped": 1e-2,
        },
        "steps": 4 if level == "fast" else 10,
        "seed": 20240817,
    }
    outputs = []
    for _ in range(2):
        scenario = load_config(dict(config))
        with tempfile.TemporaryDirectory() as tmp:
            run(scenario, tmp)
            with open(os.path.join(tmp, "run.csv"), "rb") as fh:
                csv_bytes = fh.read()
            with open(os.path.join(tmp, "summary.json"), "rb") as fh:
                json_bytes = fh.read()
        outputs.append((csv_bytes, json_bytes))
    same = outputs[0] == outputs[1]
    return (0.0 if same else 1.0), "two runs compared byte for byte"


CHECKS = [
    ("update-partition-vs-direct", 1e-10, check_update_against_direct),
    ("update-clutter-vs-direct", 1e-10, check_clutter_update_against_direct),
    ("intensity-three-ways", 1e-9, check_intensity_three_ways),
    ("poisson-closed-forms", 1e-10, check_poisson_closed_forms),
    ("detection-intensity-formula", 1e-10, check_detection_intensity_formula),
    ("composite-variation-partition-sum", 1e-9, check_composite_variations),
    ("product-and-recursion-rules", 1e-8, check_product_and_recursion_rules),
    ("normalization-and-order-invariance", 1e-10, check_normalization_and_order),
    ("prediction-mass-and-poisson-intensity", 1e-9, check_prediction),
    ("prediction-operator", 1e-13, check_prediction_operator),
    ("run-reproducibility", 0.0, check_run_reproducibility),
    ("update-vs-power-series", 1e-10, check_update_against_power_series),
]


def run_checks(level: str = "fast") -> list[CheckResult]:
    if level not in ("fast", "full"):
        raise ValueError("level must be 'fast' or 'full'")
    results = []
    for name, tol, fn in CHECKS:
        start = time.perf_counter()
        try:
            err, detail = fn(level)
        except Exception as exc:  # a broken engine is a failed check, not a crash
            err, detail = math.inf, f"raised {type(exc).__name__}: {exc}"
        took = time.perf_counter() - start
        results.append(CheckResult(name, tol, err, err <= tol, detail, took))
    return results


def format_report(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(
            f"{status} {r.name:<38} tol {r.tolerance:.1e}  max err {r.max_error:.2e}"
            f"  [{r.seconds:5.2f}s] {r.detail}"
        )
    total = sum(r.seconds for r in results)
    ok = sum(r.passed for r in results)
    lines.append(f"{ok}/{len(results)} checks passed in {total:.2f}s of check time")
    return "\n".join(lines)
