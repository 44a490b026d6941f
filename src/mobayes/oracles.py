"""Independent oracles the engines are checked against.

Nothing on the filter path calls into this module; the tests and
`mobayes verify` do. Each oracle reaches its result by a route that shares
no computation with the engines in bayes and prediction: symbolic
polynomial composition (poly_*, compose_tensor_with_map, ...), brute-force
enumeration of measurement assignments (joint_likelihood,
posterior_direct), numeric differentiation of the joint functional
(posterior_bivariate), power-series coefficients of the joint functional
(posterior_power_series), which reaches the measurement counts the engine
does, a walk over every set partition (signature_counts_by_set_partitions,
the counting oracle for the engine's signature enumeration), and explicit
Chapman-Kolmogorov transition tables (TransitionModel,
build_multiplicative, conditional_slice, predicted_entry), which hold
d^(n+m) entries and suit small spaces only, and the dense coefficient
kernels (product, powers), outer products on (d,)*n arrays that the packed
kernels of finite_pp are checked against.

Oracles read a density only through tensor(n), n_max, space and
truncation_mass, so the engines may change how they store coefficients.
From the engine modules they import types, constructors and input
validation, never a computation.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import Sequence

import numpy as np

from .bayes import (
    MeasurementSet,
    ObservationKernel,
    Posterior,
    ZeroEvidence,
    _check_update_spaces,
)
from .combinatorics import Partition, SubsetSplit, partitions, subsets
from .finite_pp import (
    NORMALIZATION_TOL,
    FiniteSpace,
    MultiObjectDensity,
    TruncationOverflow,
    evaluate,
    scalar_product,
)
from .functional_calculus import numeric_differential
from .prediction import SurviveMoveBirth

# ---------------------------------------------------------------------------
# dense coefficient kernels
# ---------------------------------------------------------------------------


def powers(v: np.ndarray, n: int) -> list[np.ndarray]:
    """[v^(x)l for l <= n]: the coefficients of exp(v[h]), by successive outer products."""
    out = [np.ones(())]
    for _ in range(n):
        out.append(np.multiply.outer(out[-1], v))
    return out


def product(p, r, cap: int, d: int) -> list[np.ndarray]:
    """Dense coefficients of the product of two functionals, unsymmetrized.

    t_k = sum_j C(k, j) p_j (x) r_{k-j} for k <= cap, j bounded by both list
    lengths; symmetrizing each t_k gives the product's coefficient tensors.
    """
    out = []
    for k in range(cap + 1):
        acc = np.zeros((d,) * k)
        for j in range(max(0, k - len(r) + 1), min(k, len(p) - 1) + 1):
            acc += math.comb(k, j) * np.multiply.outer(p[j], r[k - j])
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# polynomial algebra: exponent-tuple dictionaries
# ---------------------------------------------------------------------------

Poly = dict[tuple[int, ...], float]


def poly_add(p: Poly, q: Poly) -> Poly:
    out = dict(p)
    for expo, coeff in q.items():
        out[expo] = out.get(expo, 0.0) + coeff
    return out


def poly_mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            expo = tuple(a + b for a, b in zip(e1, e2))
            out[expo] = out.get(expo, 0.0) + c1 * c2
    return out


def poly_diff(p: Poly, var: int) -> Poly:
    out: Poly = {}
    for expo, coeff in p.items():
        k = expo[var]
        if k == 0:
            continue
        lowered = list(expo)
        lowered[var] = k - 1
        out[tuple(lowered)] = out.get(tuple(lowered), 0.0) + coeff * k
    return out


def poly_eval(p: Poly, point: np.ndarray) -> float:
    point = np.asarray(point, dtype=float)
    total = 0.0
    for expo, coeff in p.items():
        term = coeff
        for var, k in enumerate(expo):
            if k:
                term *= point[var] ** k
        total += term
    return total


def compose_tensor_with_map(tensors, component_polys: list[Poly], nvars: int) -> Poly:
    """Polynomial of psi -> f(g(psi)) for a coefficient functional f.

    component_polys[x] is the polynomial (in psi's entries) of the inner
    map's x-th output component. The composition is expanded term by term:
    the cardinality-n tensor contributes (1/n!) sum over index tuples of
    f_n(x_1..x_n) prod_i g_{x_i}(psi).
    """
    out: Poly = {}
    d_out = len(component_polys)
    for n, t in enumerate(tensors):
        t = np.asarray(t, dtype=float)
        weight = 1.0 / math.factorial(n)
        for idx in itertools.product(range(d_out), repeat=n):
            coeff = float(t[idx]) if n else float(t)
            if coeff == 0.0:
                continue
            term = {(0,) * nvars: weight * coeff}
            for i in idx:
                term = poly_mul(term, component_polys[i])
            out = poly_add(out, term)
    return {k: v for k, v in out.items() if v != 0.0}


def tensor_map_component_polys(coefficients, nvars: int) -> list[Poly]:
    """Per-output-point polynomials of a function-valued polynomial map."""
    d_out = np.asarray(coefficients[0]).shape[0]
    polys: list[Poly] = [{} for _ in range(d_out)]
    for j, c in enumerate(coefficients):
        c = np.asarray(c, dtype=float)
        weight = 1.0 / math.factorial(j)
        for x in range(d_out):
            block = c[x]
            for idx in itertools.product(range(nvars), repeat=j):
                coeff = float(block[idx]) if j else float(block)
                if coeff == 0.0:
                    continue
                expo = [0] * nvars
                for i in idx:
                    expo[i] += 1
                key = tuple(expo)
                polys[x][key] = polys[x].get(key, 0.0) + weight * coeff
    return polys


def mixed_partial_at(p: Poly, variables, point: np.ndarray) -> float:
    """d^k p / d psi(z_1) ... d psi(z_k) evaluated at the given point."""
    cur = p
    for var in variables:
        cur = poly_diff(cur, var)
    return poly_eval(cur, point)


# ---------------------------------------------------------------------------
# measurement update by enumeration
# ---------------------------------------------------------------------------


def _clutter_density(clutter: MultiObjectDensity | None, group: tuple[int, ...]) -> float:
    if clutter is None:
        return 1.0 if not group else 0.0
    if len(group) > clutter.n_max:
        return 0.0
    return float(clutter.tensor(len(group))[group])


def _group_density(kernel: ObservationKernel, x: int, group: tuple[int, ...]) -> float:
    if len(group) > kernel.m_max:
        return 0.0
    return float(kernel.tables[len(group)][(x,) + group])


def joint_likelihood(
    kernel: ObservationKernel,
    x_tuple: Sequence[str | int],
    Z: MeasurementSet,
    clutter: MultiObjectDensity | None = None,
) -> float:
    """p(Z | objects at x_tuple), brute-forced over measurement assignments.

    Every map from measurements to {objects} (plus a clutter slot when a
    clutter process is given) contributes the product of the group densities
    it induces. Impossible sets return 0. Measurements are processed in
    sorted-label order so the value is bitwise reorder-invariant.
    """
    x_idx = kernel.state_space.indices(x_tuple)
    z_idx = tuple(sorted(kernel.obs_space.indices(Z)))
    n, m = len(x_idx), len(z_idx)
    slots = n + (1 if clutter is not None else 0)
    if m == 0:
        value = _clutter_density(clutter, ())
        for ix in x_idx:
            value *= float(kernel.tables[0][ix])
        return value
    if slots == 0:
        return 0.0
    total = 0.0
    for assign in itertools.product(range(slots), repeat=m):
        groups: list[list[int]] = [[] for _ in range(slots)]
        for j, a in enumerate(assign):
            groups[a].append(z_idx[j])
        factor = 1.0
        if clutter is not None:
            factor = _clutter_density(clutter, tuple(groups[n]))
        for i in range(n):
            if factor == 0.0:
                break
            factor *= _group_density(kernel, x_idx[i], tuple(groups[i]))
        total += factor
    return total


def posterior_direct(
    prior: MultiObjectDensity,
    kernel: ObservationKernel,
    Z: MeasurementSet,
    clutter: MultiObjectDensity | None = None,
) -> Posterior:
    """Exact Bayes by enumeration: q_n proportional to p(Z|x) p_n(x).

    Likelihoods are evaluated once per index multiset and written to the
    whole orbit, so the posterior tensors are exactly symmetric. The
    intensity is the direct first-factorial-moment sum over the tensors.
    """
    _check_update_spaces(prior, kernel, clutter)
    d = prior.space.size
    numerators: list[np.ndarray] = []
    evidence = 0.0
    for n in range(prior.n_max + 1):
        t = np.zeros((d,) * n)
        for canon in itertools.combinations_with_replacement(range(d), n):
            like = joint_likelihood(kernel, canon, Z, clutter)
            for perm in set(itertools.permutations(canon)):
                t[perm] = like * float(prior.tensor(n)[perm])
        numerators.append(t)
        evidence += t.sum() / math.factorial(n)
    if not evidence > 0.0:
        raise ZeroEvidence(f"measurement set {list(Z)!r} has zero likelihood")
    tensors = [t / evidence for t in numerators]
    density = MultiObjectDensity(prior.space, tensors)
    intensity = np.zeros(d)
    for n in range(1, density.n_max + 1):
        t = density.tensor(n)
        for axis in range(n):
            others = tuple(a for a in range(n) if a != axis)
            intensity += t.sum(axis=others) / math.factorial(n)
    return Posterior(density, intensity, math.log(evidence))


def posterior_bivariate(
    prior: MultiObjectDensity,
    kernel: ObservationKernel,
    Z: MeasurementSet,
    clutter: MultiObjectDensity | None = None,
    *,
    step: float = 0.5,
    levels: int = 3,
) -> Posterior:
    """Bayes update through the joint functional of (psi, eta), numerically.

    F(psi, eta) = G_clutter(psi) * G_prior(eta * G_single(psi | .)) carries
    the whole update: differentiating m times in psi at the measurement
    points and setting psi = 0 gives the unnormalized posterior functional of
    eta, whose own variations at eta = 0 are the posterior tensors; the same
    psi-variation at eta = 1 is the evidence. All differentials here are
    numeric, so this path shares no code with the partition engine. Slow;
    meant as an oracle on desk-scale instances.
    """
    _check_update_spaces(prior, kernel, clutter)
    z_idx = tuple(kernel.obs_space.indices(Z))
    d_x, d_z = kernel.state_space.size, kernel.obs_space.size

    def single_object_values(psi: np.ndarray) -> np.ndarray:
        out = np.zeros(d_x)
        for m, t in enumerate(kernel.tables):
            for _ in range(m):
                t = t @ psi
            out = out + t / math.factorial(m)
        return out

    def F(psi: np.ndarray, eta: np.ndarray) -> float:
        value = evaluate(prior, eta * single_object_values(psi))
        if clutter is not None:
            value *= evaluate(clutter, psi)
        return value

    z_increments = [np.eye(d_z)[i] for i in z_idx]
    psi0 = np.zeros(d_z)

    def numerator_functional(eta: np.ndarray) -> float:
        return numeric_differential(
            lambda psi: F(psi, eta), psi0, z_increments, step=step, levels=levels
        )

    evidence = numerator_functional(np.ones(d_x))
    if not evidence > 0.0:
        raise ZeroEvidence(f"measurement set {list(Z)!r} has zero likelihood")
    eta0 = np.zeros(d_x)
    eye = np.eye(d_x)
    tensors: list[np.ndarray] = []
    for k in range(prior.n_max + 1):
        t = np.zeros((d_x,) * k)
        for canon in itertools.combinations_with_replacement(range(d_x), k):
            value = (
                numeric_differential(
                    numerator_functional,
                    eta0,
                    [eye[i] for i in canon],
                    step=step,
                    levels=levels,
                )
                / evidence
            )
            for perm in set(itertools.permutations(canon)):
                t[perm] = value
        tensors.append(t)
    density = MultiObjectDensity(prior.space, tensors)
    return Posterior(density, density.intensity_vector(), math.log(evidence))


def _box_series(labels, box, top: int, coefficient) -> np.ndarray:
    """sum over a in the box, |a| <= top, of coefficient(tuple_a) / prod a_z! t^a."""
    out = np.zeros(box)
    for a in np.ndindex(box):
        if sum(a) <= top:
            group = tuple(z for z, k in zip(labels, a) for _ in range(k))
            out[a] = coefficient(group) / math.prod(map(math.factorial, a))
    return out


def _box_product(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """p * q with every power past the box dropped."""
    out = np.zeros(p.shape)
    for a in np.ndindex(q.shape):
        if q[a] != 0.0:
            shifted = tuple(slice(k, None) for k in a)
            kept = tuple(slice(0, s - k) for s, k in zip(p.shape, a))
            out[shifted] += q[a] * p[kept]
    return out


def posterior_power_series(
    prior: MultiObjectDensity,
    kernel: ObservationKernel,
    Z: MeasurementSet,
    clutter: MultiObjectDensity | None = None,
) -> Posterior:
    """Exact Bayes from power-series coefficients of the joint functional.

    F(psi, eta) = G_clutter(psi) * G_prior(eta * g(psi | .)), with the
    single-object emission functional g(psi | x) = sum_m (1/m!)
    r_m(. | x)[psi^m]. Put psi = sum_z t_z delta_z over the labels of Z,
    which occur n_z times. Then g(psi | x) and G_clutter(psi) are
    polynomials in t whose coefficient at t^a is r_|a|(tuple_a | x) /
    prod a_z! and c_|a|(tuple_a) / prod a_z!, and the likelihood of Z given
    objects with state counts c is L(c) = prod n_z! [t^n] (G_clutter
    prod_x g_x^c_x). Polynomials are dense arrays over the box
    prod_z (n_z + 1), since powers past n never reach t^n; every state
    multiset with at most n_max objects is reached by c -> c + e_x, one
    truncated box product with g_x per step. The posterior tensors are
    p_k(x) L(c(x)) / evidence.

    No partitions, subsets, contract or product are involved. The box is
    polynomial in |Z| while the labels repeat, but has 2^|Z| entries when
    all measurement labels are distinct, so this oracle suits small
    observation spaces.
    """
    _check_update_spaces(prior, kernel, clutter)
    z_idx = kernel.obs_space.indices(Z)
    labels = sorted(set(z_idx))
    n = tuple(z_idx.count(z) for z in labels)
    box = tuple(k + 1 for k in n)
    scale = math.prod(map(math.factorial, n))
    d = prior.space.size
    emit = [
        _box_series(labels, box, kernel.m_max, lambda g, x=x: _group_density(kernel, x, g))
        for x in range(d)
    ]
    clutter_cap = 0 if clutter is None else clutter.n_max
    start = _box_series(labels, box, clutter_cap, lambda g: _clutter_density(clutter, g))
    like: dict[tuple[int, ...], float] = {}  # sorted state tuple -> L

    def walk(poly: np.ndarray, states: tuple[int, ...]) -> None:
        like[states] = scale * float(poly[n])
        if len(states) < prior.n_max:
            for x in range(states[-1] if states else 0, d):
                walk(_box_product(poly, emit[x]), states + (x,))

    walk(start, ())
    tensors = [prior.tensor(0) * like[()]]
    for k in range(1, prior.n_max + 1):
        cells = np.sort(np.indices((d,) * k).reshape(k, -1), axis=0)
        canon, where = np.unique(cells, axis=1, return_inverse=True)
        values = np.array([like[tuple(int(x) for x in col)] for col in canon.T])
        tensors.append(prior.tensor(k) * values[where.ravel()].reshape((d,) * k))
    evidence = sum(float(np.sum(t)) / math.factorial(k) for k, t in enumerate(tensors))
    if not evidence > 0.0:
        raise ZeroEvidence(f"measurement set {list(Z)!r} has zero likelihood")
    density = MultiObjectDensity(prior.space, [t / evidence for t in tensors])
    return Posterior(density, density.intensity_vector(), math.log(evidence))


# ---------------------------------------------------------------------------
# signature counting by set partitions
# ---------------------------------------------------------------------------


def signature_counts_by_set_partitions(
    z_idx: tuple[int, ...],
    m_cap: int | None,
    with_clutter: bool = True,
) -> Counter:
    """Content signatures of all (subset, set partition) terms, by walking them.

    Every kept/dropped split of the measurement positions and every set
    partition of the kept positions (blocks of at most m_cap) is visited,
    and its signature (sorted clutter labels, sorted tuple of sorted
    blocks) counted; without a clutter process only the split that keeps
    everything is walked. This is the counting oracle for
    bayes._signature_counts: B(m) partitions per split, so small m only.
    """
    m = len(z_idx)
    splits = subsets(m) if with_clutter else [SubsetSplit(tuple(range(m)), ())]
    counts: Counter = Counter()
    for split in splits:
        dropped = tuple(sorted(z_idx[i] for i in split.dropped))
        kept = split.kept
        # m_cap = 0 (a kernel that never emits) admits only the empty
        # partition; partitions() itself requires caps >= 1
        if m_cap == 0:
            parts = [] if kept else [Partition(())]
        else:
            parts = partitions(len(kept), m_cap)
        for part in parts:
            sig = tuple(
                sorted(
                    tuple(sorted(z_idx[kept[i]] for i in block))
                    for block in part.blocks
                )
            )
            counts[(dropped, sig)] += 1
    return counts


# ---------------------------------------------------------------------------
# prediction by explicit transition tables
# ---------------------------------------------------------------------------


def _outgoing_mass(tables, d: int) -> list[np.ndarray]:
    """Per-y outgoing mass sum_n (1/n!) sum_x t[m][n](x | y), one array per m."""
    totals = []
    for m, row in enumerate(tables):
        total = np.zeros((d,) * m)
        for n, arr in enumerate(row):
            total = total + arr.reshape((-1,) + (d,) * m).sum(axis=0) / math.factorial(n)
        totals.append(total)
    return totals


class TransitionModel:
    """Explicit multi-object transition tensors on a single finite space.

    tables[m][n] has shape (d,)*n + (d,)*m: leading axes are the predicted
    x-tuple, trailing axes the conditioning y-tuple. For every y-tuple the
    outgoing mass sum_n (1/n!) sum_x must be one, short of at most the
    recorded truncation_mass (cardinality growth clipped at n_max).
    """

    def __init__(
        self,
        space: FiniteSpace,
        tables: Sequence[Sequence[np.ndarray | float]],
        *,
        truncation_mass: float = 0.0,
    ):
        self.space = space
        d = space.size
        fixed: list[list[np.ndarray]] = []
        n_len = None
        for m, row in enumerate(tables):
            row_fixed: list[np.ndarray] = []
            if n_len is None:
                n_len = len(row)
            elif len(row) != n_len:
                raise ValueError("every conditioning cardinality needs the same n range")
            for n, raw in enumerate(row):
                arr = np.asarray(raw, dtype=float)
                want = (d,) * (n + m)
                if arr.shape != want:
                    raise ValueError(
                        f"table [m={m}][n={n}] has shape {arr.shape}, expected {want}"
                    )
                if not np.all(np.isfinite(arr)) or np.any(arr < 0):
                    raise ValueError(f"table [m={m}][n={n}] must be finite, nonnegative")
                row_fixed.append(arr.copy())
            fixed.append(row_fixed)
        if not fixed or n_len == 0:
            raise ValueError("at least the [m=0][n=0] table is required")
        self.tables = fixed
        self.truncation_mass = float(truncation_mass)
        self._check_outgoing_mass()

    @property
    def m_max(self) -> int:
        return len(self.tables) - 1

    @property
    def n_max(self) -> int:
        return len(self.tables[0]) - 1

    def _check_outgoing_mass(self) -> None:
        slack = self.truncation_mass + NORMALIZATION_TOL
        for m, total in enumerate(_outgoing_mass(self.tables, self.space.size)):
            defect = 1.0 - total
            if float(defect.min()) < -NORMALIZATION_TOL or float(defect.max()) > slack:
                raise ValueError(
                    f"outgoing mass for m={m} ranges over "
                    f"[{float(total.min()):.12f}, {float(total.max()):.12f}],"
                    " outside the declared truncation budget"
                )

    def propagate(self, posterior: MultiObjectDensity) -> MultiObjectDensity:
        """Contract the tables with the posterior tensors in the y argument."""
        out: list[np.ndarray] = []
        for n in range(self.n_max + 1):
            acc = np.zeros((posterior.space.size,) * n)
            for m in range(posterior.n_max + 1):
                t = self.tables[m][n]
                p = posterior.tensor(m)
                contrib = np.tensordot(t, p, axes=m) if m else t * float(p)
                acc = acc + contrib / math.factorial(m)
            out.append(acc)
        return MultiObjectDensity(posterior.space, out, symmetrize_input=True)


def build_multiplicative(
    survival: np.ndarray | Sequence[float],
    motion: np.ndarray,
    birth: MultiObjectDensity,
    *,
    n_max: int,
    m_max: int | None = None,
    max_dropped: float = 1e-9,
) -> TransitionModel:
    """Expand survive-or-die motion plus independent birth into tables.

    Each of the m prior objects independently survives with probability
    p_S(y) and moves by the column-stochastic matrix motion[x, y], or
    vanishes. Births superpose independently. The table entry for (x | y)
    sums over which predicted positions are survivors and which prior object
    each survivor descends from (injectively); the remaining predicted
    positions carry the birth density and the unmatched prior objects the
    death probability.

    The method is plain enumeration of survivors times injections, kept as
    an oracle; each term starts from the scalar 1.0 and takes its factors through
    None-indexed broadcasting, so only the accumulation spans all
    d^(n+m) entries. The inputs are validated by constructing the
    SurviveMoveBirth model, which computes the same prediction by
    composition; these tables are its test and verify oracle.

    Raises TruncationOverflow if clipping predicted cardinality at n_max
    drops more than max_dropped probability for some y-tuple.
    """
    model = SurviveMoveBirth(survival, motion, birth, n_max=n_max)
    space, move, die = model.space, model.move, model.die
    d = space.size
    if m_max is None:
        m_max = n_max
    tables: list[list[np.ndarray]] = []
    for m in range(m_max + 1):
        row: list[np.ndarray] = []
        for n in range(n_max + 1):
            acc = np.zeros((d,) * (n + m))
            for a in range(0, min(n, m) + 1):
                if n - a > birth.n_max:
                    continue
                for survivors in itertools.combinations(range(n), a):
                    rest = [i for i in range(n) if i not in survivors]
                    for tau in itertools.permutations(range(m), a):
                        term = 1.0
                        for i, j in zip(survivors, tau):
                            sl = [None] * (n + m)
                            sl[i] = slice(None)
                            sl[n + j] = slice(None)
                            term = term * move[tuple(sl)]
                        for j in range(m):
                            if j in tau:
                                continue
                            sl = [None] * (n + m)
                            sl[n + j] = slice(None)
                            term = term * die[tuple(sl)]
                        b = birth.tensor(n - a)
                        if rest:
                            sl = [None] * (n + m)
                            for i in rest:
                                sl[i] = slice(None)
                            term = term * b[tuple(sl)]
                        else:
                            term = term * float(b)
                        acc += term
            row.append(acc)
        tables.append(row)

    # per-y dropped mass: survivors plus births pushed past n_max
    worst = max(0.0, *(float((1.0 - total).max()) for total in _outgoing_mass(tables, d)))
    dropped = max(worst, birth.truncation_mass)
    if dropped > max_dropped:
        raise TruncationOverflow(
            f"cardinality cap {n_max} drops up to {dropped:.3e} transition mass,"
            f" over the {max_dropped:.1e} budget",
            dropped,
        )
    return TransitionModel(space, tables, truncation_mass=dropped)


def conditional_slice(model: TransitionModel, n: int, x_tuple: tuple[int, ...]):
    """The y-argument functional of one output tuple, as coefficient tensors.

    Useful for checking predict against the scalar product definition:
    predicted_n(x_tuple) == scalar_product(conditional_slice(...), posterior).
    """
    tensors = [row[n][tuple(x_tuple)] for row in model.tables]
    return MultiObjectDensity(model.space, tensors, symmetrize_input=True)


def predicted_entry(model: TransitionModel, posterior: MultiObjectDensity, n: int, x_tuple) -> float:
    """Scalar-product form of a single predicted tensor entry."""
    x_idx = model.space.indices(x_tuple)
    return scalar_product(conditional_slice(model, n, x_idx), posterior)
