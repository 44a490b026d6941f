"""Multi-object Bayes updates on finite spaces, three ways.

Given a prior multi-object density, a per-object measurement-group kernel
and an observed measurement set Z, the posterior is computed by

* posterior_direct: brute force over all (n+1)^m assignments of measurements
  to objects (and optionally clutter). This is the oracle everything else is
  checked against.
* posterior_partition / posterior_partition_clutter: the generating-
  functional route. Each set partition of Z contributes one variation of the
  prior functional taken at the missed-detection profile, with one increment
  per block; clutter adds an outer sum over the subset of Z explained by the
  clutter process. Evidence is the same sum with no free measurement points.
  There is one numeric path: the evidence is a signed log-sum-exp over the
  terms, and each term's numerator is scaled by its weight over the
  evidence, so evidences far below the smallest double never underflow.
  Every variation is one call of finite_pp.contract; the numerator tensors
  are the prior's times one finite_pp.product, of the block functional
  sum_terms scale * prod_i v_i[h] and exp(p0[h]).
* posterior_bivariate: a slow numeric oracle that differentiates the joint
  functional of (psi, eta) in both arguments and takes the ratio of
  variations; it exercises the defining limit rather than any closed form.

Partition terms are grouped by the multiset of block contents (sorted
z-labels per block) and accumulated in sorted signature order. The value of
a term depends only on that signature, so grouping is lossless; it makes
results bitwise invariant under reordering of Z and collapses the many
content-equal partitions that arise when measurements repeat.

posterior_intensity* evaluate the first factorial moment directly from the
partition sum: each partition contributes an appended-increment term (one
extra Dirac increment weighted by the missed-detection profile) plus one
replaced-increment term per block (that block's increment localized at the
query point). Poisson priors additionally get closed forms in which every
variation collapses to a product of scalars mu[P_block].
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .combinatorics import Partition, SubsetSplit, partitions, subsets
from .finite_pp import (
    NORMALIZATION_TOL,
    FiniteSpace,
    MultiObjectDensity,
    PoissonSpec,
    _as_test_function,
    contract,
    evaluate,
    poisson as poisson_density,
    powers,
    product,
    symmetrize,  # unused here; bench/spans.py wraps mobayes.bayes.symmetrize
    symmetrize_axes,
)
from .functional_calculus import numeric_differential

MeasurementSet = Sequence[str | int]
ClutterProcess = MultiObjectDensity


class ZeroEvidence(RuntimeError):
    """The update denominator vanished: Z is impossible under the model."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


@dataclass
class Posterior:
    """Normalized posterior density, its intensity, and log evidence."""

    density: MultiObjectDensity
    intensity: np.ndarray
    log_evidence: float


class ObservationKernel:
    """Measurement-group densities of a single object.

    tables[m] has shape (d_x,) + (d_z,)*m and holds r_{m|1}(z_1..z_m | x),
    the joint density of an object at x producing exactly the group
    (z_1..z_m); tables[0] is the missed-detection profile. For every state,
    sum_m (1/m!) sum over z-tuples must equal one.
    """

    def __init__(
        self,
        state_space: FiniteSpace,
        obs_space: FiniteSpace,
        tables: Sequence[np.ndarray],
        *,
        symmetrize_input: bool = False,
    ):
        self.state_space = state_space
        self.obs_space = obs_space
        d_x, d_z = state_space.size, obs_space.size
        fixed: list[np.ndarray] = []
        for m, raw in enumerate(tables):
            arr = np.asarray(raw, dtype=float)
            want = (d_x,) + (d_z,) * m
            if arr.shape != want:
                raise ValueError(f"table {m} has shape {arr.shape}, expected {want}")
            if not np.all(np.isfinite(arr)) or np.any(arr < 0):
                raise ValueError(f"table {m} must be finite and nonnegative")
            if m >= 2:
                if symmetrize_input:
                    arr = symmetrize_axes(arr, [tuple(range(1, m + 1))])
                else:
                    for i in range(1, m):
                        if not np.array_equal(arr, np.swapaxes(arr, i, i + 1)):
                            raise ValueError(
                                f"table {m} is not symmetric in its z axes"
                            )
            fixed.append(arr.copy())
        if not fixed:
            raise ValueError("at least the missed-detection table is required")
        totals = sum(
            t.reshape(d_x, -1).sum(axis=1) / math.factorial(m)
            for m, t in enumerate(fixed)
        )
        if np.any(np.abs(totals - 1.0) > NORMALIZATION_TOL):
            worst = float(np.max(np.abs(totals - 1.0)))
            raise ValueError(
                f"kernel tables are not normalized per state (off by {worst:.3e})"
            )
        self.tables = fixed

    @property
    def m_max(self) -> int:
        return len(self.tables) - 1

    def missed_profile(self) -> np.ndarray:
        return self.tables[0].copy()

    def group_vector(self, z_idx: tuple[int, ...]) -> np.ndarray:
        """r_{|group| | 1}(group | x) as a vector over states; zero past m_max."""
        m = len(z_idx)
        if m > self.m_max:
            return np.zeros(self.state_space.size)
        return self.tables[m][(slice(None),) + tuple(z_idx)]

    def group_value(self, x: int, z_idx: tuple[int, ...]) -> float:
        m = len(z_idx)
        if m > self.m_max:
            return 0.0
        return float(self.tables[m][(x,) + tuple(z_idx)])

    def emission_weights(self) -> np.ndarray:
        """Per-state probabilities of emitting a group of each size."""
        d_x = self.state_space.size
        out = np.zeros((d_x, self.m_max + 1))
        for m, t in enumerate(self.tables):
            out[:, m] = t.reshape(d_x, -1).sum(axis=1) / math.factorial(m)
        return out

    @classmethod
    def from_detection(
        cls,
        state_space: FiniteSpace,
        obs_space: FiniteSpace,
        p_detect: np.ndarray | Sequence[float],
        likelihood: np.ndarray,
    ) -> "ObservationKernel":
        """Detect-or-miss kernel: at most one measurement per object."""
        pd = _as_test_function(state_space, p_detect)
        if np.any(pd < 0) or np.any(pd > 1):
            raise ValueError("detection probabilities must lie in [0, 1]")
        g = np.asarray(likelihood, dtype=float)
        if g.shape != (state_space.size, obs_space.size):
            raise ValueError("likelihood must have shape (d_x, d_z)")
        if np.any(g < 0) or np.any(np.abs(g.sum(axis=1) - 1.0) > NORMALIZATION_TOL):
            raise ValueError("likelihood rows must be densities over the obs space")
        return cls(state_space, obs_space, [1.0 - pd, pd[:, None] * g])


def _clutter_value(clutter: MultiObjectDensity | None, group: tuple[int, ...]) -> float:
    if clutter is None:
        return 1.0 if not group else 0.0
    if len(group) > clutter.n_max:
        return 0.0
    return float(clutter.tensors[len(group)][tuple(group)])


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
        value = _clutter_value(clutter, ())
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
            factor = _clutter_value(clutter, tuple(groups[n]))
        for i in range(n):
            if factor == 0.0:
                break
            factor *= kernel.group_value(x_idx[i], tuple(groups[i]))
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
                t[perm] = like * float(prior.tensors[n][perm])
        numerators.append(t)
        evidence += t.sum() / math.factorial(n)
    if not evidence > 0.0:
        raise ZeroEvidence(f"measurement set {list(Z)!r} has zero likelihood")
    tensors = [t / evidence for t in numerators]
    density = MultiObjectDensity(prior.space, tensors)
    intensity = np.zeros(d)
    for n in range(1, density.n_max + 1):
        t = density.tensors[n]
        for axis in range(n):
            others = tuple(a for a in range(n) if a != axis)
            intensity += t.sum(axis=others) / math.factorial(n)
    return Posterior(density, intensity, math.log(evidence))


# ---------------------------------------------------------------------------
# partition-sum engine
# ---------------------------------------------------------------------------


def _check_update_spaces(prior, kernel, clutter) -> None:
    if prior.space.labels != kernel.state_space.labels:
        raise ValueError("prior and kernel disagree on the state space")
    if clutter is not None and clutter.space.labels != kernel.obs_space.labels:
        raise ValueError("clutter process must live on the observation space")


def _signature_counts(
    z_idx: tuple[int, ...],
    m_cap: int | None,
    with_clutter: bool = True,
) -> Counter:
    """Multiset of content signatures over all (subset, partition) terms.

    A signature is (clutter part, blocks): the sorted labels handed to
    clutter and the sorted tuple of per-block sorted z-labels. Without a
    clutter process only the split that keeps every measurement is walked,
    so the clutter part is always empty. Terms with equal signatures have
    equal values, so only counts are kept.
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


def _block_functional(terms, d: int) -> list[np.ndarray]:
    """Coefficients B_p of sum over terms of scale * prod_i v_i[h].

    B_p = sum over the terms with p blocks of scale * p! * v_1 (x) ... (x)
    v_p, unsymmetrized, accumulated in the given (sorted signature) order.
    """
    top = max((len(vecs) for _, vecs in terms), default=0)
    coeffs = [np.zeros((d,) * p) for p in range(top + 1)]
    for scale, vecs in terms:
        first = np.asarray(scale * math.factorial(len(vecs)))
        coeffs[len(vecs)] += functools.reduce(np.multiply.outer, vecs, first)
    return coeffs


def _intensity_term(prior, p0, block_vecs) -> np.ndarray:
    """One partition's contribution to the unnormalized intensity.

    Appended term: the (p+1)-th variation with one extra Dirac increment,
    weighted pointwise by the missed-detection profile. Replaced terms: the
    p-th variation with block i's increment localized at the query point and
    weighted by that block's density there.
    """
    total = p0 * contract(prior.tensors, block_vecs, p0, free=1)
    for i, v in enumerate(block_vecs):
        others = block_vecs[:i] + block_vecs[i + 1 :]
        total += v * contract(prior.tensors, others, p0, free=1)
    return total


def _partition_engine(
    prior: MultiObjectDensity,
    kernel: ObservationKernel,
    Z: MeasurementSet,
    clutter: MultiObjectDensity | None,
    prune: bool,
) -> tuple[float, list[tuple[float, list[np.ndarray]]]]:
    """Log evidence and the normalized terms of the partition-sum update.

    Each distinct signature is one term. Its weight w is the signature count
    times the clutter density of its clutter part, and its denominator den is
    the variation of the prior functional at the missed-detection profile
    with one increment per block. The evidence sum w * den is a log-sum-exp
    over log|w| + log|den| that carries each term's sign, so evidences far
    below the smallest double do not underflow. Returns the log evidence
    and, in sorted signature order, (w / evidence, block vectors) for every
    term; a term whose denominator is 0 is kept, since its numerator need
    not vanish.
    """
    _check_update_spaces(prior, kernel, clutter)
    z_idx = tuple(kernel.obs_space.indices(Z))
    m_cap = kernel.m_max if prune else None
    counts = _signature_counts(z_idx, m_cap, clutter is not None)
    p0 = kernel.tables[0]

    vec_cache: dict[tuple[int, ...], np.ndarray] = {}

    def block_vectors(blocks):
        vecs = []
        for content in blocks:
            if content not in vec_cache:
                vec_cache[content] = kernel.group_vector(content)
            vecs.append(vec_cache[content])
        return vecs

    terms = []  # (weight, block vectors)
    logs, signs = [], []  # log|weight * den| and its sign, for den != 0
    for (dropped, blocks), cnt in sorted(counts.items()):
        weight = cnt * _clutter_value(clutter, dropped)
        if weight == 0.0 or len(blocks) > prior.n_max:
            continue
        vecs = block_vectors(blocks)
        terms.append((weight, vecs))
        den = float(contract(prior.tensors, vecs, p0))
        if den != 0.0:
            logs.append(math.log(abs(weight)) + math.log(abs(den)))
            signs.append(-1.0 if (weight < 0.0) != (den < 0.0) else 1.0)
    peak = max(logs, default=0.0)
    total = sum(s * math.exp(v - peak) for s, v in zip(signs, logs))
    if not total > 0.0:
        raise ZeroEvidence(f"measurement set {list(Z)!r} has zero likelihood")
    log_evidence = peak + math.log(total)
    return log_evidence, [
        (math.copysign(math.exp(math.log(abs(w)) - log_evidence), w), vecs)
        for w, vecs in terms
    ]


def posterior_partition(
    prior: MultiObjectDensity,
    kernel: ObservationKernel,
    Z: MeasurementSet,
    *,
    prune: bool = True,
) -> Posterior:
    """Partition-sum Bayes update without clutter.

    The returned intensity is the first factorial moment of the computed
    density (differentiate-the-posterior path); posterior_intensity evaluates
    the same quantity from the partition sum directly.
    """
    return posterior_partition_clutter(prior, kernel, None, Z, prune=prune)


def posterior_intensity(
    prior: MultiObjectDensity,
    kernel: ObservationKernel,
    Z: MeasurementSet,
    *,
    prune: bool = True,
) -> np.ndarray:
    """Posterior intensity from the partition sum (no density assembly)."""
    return posterior_intensity_clutter(prior, kernel, None, Z, prune=prune)


def posterior_partition_clutter(
    prior: MultiObjectDensity,
    kernel: ObservationKernel,
    clutter: MultiObjectDensity | None,
    Z: MeasurementSet,
    *,
    prune: bool = True,
) -> Posterior:
    """Partition-sum update with an independent clutter process.

    Sums over the subset of Z attributed to objects; the complement is
    weighted by the clutter process's density at those points. clutter=None
    means no clutter process: every measurement comes from an object.
    """
    log_evidence, terms = _partition_engine(prior, kernel, Z, clutter, prune)
    n, d = prior.n_max, prior.space.size
    likelihood = product(_block_functional(terms, d), powers(kernel.tables[0], n), n, d)
    tensors = [t * f for t, f in zip(prior.tensors, likelihood)]
    density = MultiObjectDensity(prior.space, tensors, symmetrize_input=True)
    return Posterior(density, density.intensity_vector(), log_evidence)


def posterior_intensity_clutter(
    prior: MultiObjectDensity,
    kernel: ObservationKernel,
    clutter: MultiObjectDensity | None,
    Z: MeasurementSet,
    *,
    prune: bool = True,
) -> np.ndarray:
    """Posterior intensity under clutter, from the partition sum directly."""
    _, terms = _partition_engine(prior, kernel, Z, clutter, prune)
    p0 = kernel.tables[0]
    intensity = np.zeros(prior.space.size)
    for scale, vecs in terms:
        intensity += scale * _intensity_term(prior, p0, vecs)
    return intensity


# ---------------------------------------------------------------------------
# Poisson closed forms
# ---------------------------------------------------------------------------


def _poisson_partition_terms(mu, kernel, z_idx, prune: bool):
    """Sorted signature terms with their scalar products mu[P_block]."""
    m_cap = kernel.m_max if prune else None
    counts = _signature_counts(z_idx, m_cap, with_clutter=False)
    terms = []
    for (_, blocks), cnt in sorted(counts.items()):
        vecs = [kernel.group_vector(content) for content in blocks]
        scalars = [float(mu @ v) for v in vecs]
        terms.append((float(cnt), vecs, scalars))
    return terms


def poisson_posterior(
    spec: PoissonSpec,
    kernel: ObservationKernel,
    Z: MeasurementSet,
    *,
    n_max: int | None = None,
    prune: bool = True,
) -> Posterior:
    """Closed-form update of a Poisson prior: no generic differentiation.

    Every variation of the exponential functional factorizes, so each
    partition contributes just the product of scalars mu[P_block]; the
    posterior is the superposition of a Poisson with intensity mu * p0 and a
    partition mixture of per-block point densities mu * P_block, one
    finite_pp.product of the block functional and exp(nu[h]).
    """
    if not isinstance(spec, PoissonSpec):
        spec = PoissonSpec(np.asarray(spec, dtype=float))
    mu = _as_test_function(kernel.state_space, spec.intensity)
    reference = poisson_density(spec, kernel.state_space, n_max)
    n_max = reference.n_max
    z_idx = tuple(kernel.obs_space.indices(Z))
    p0 = kernel.tables[0]
    nu = mu * p0
    terms = _poisson_partition_terms(mu, kernel, z_idx, prune)
    partition_total = 0.0
    for cnt, _, scalars in terms:
        partition_total += cnt * math.prod(scalars)
    if not partition_total > 0.0:
        raise ZeroEvidence(f"measurement set {list(Z)!r} has zero likelihood")
    d = kernel.state_space.size
    scale = math.exp(-float(nu.sum())) / partition_total
    kept = [(cnt * scale, [mu * v for v in vs]) for cnt, vs, _ in terms if len(vs) <= n_max]
    tensors = product(_block_functional(kept, d), powers(nu, n_max), n_max, d)
    density = MultiObjectDensity(kernel.state_space, tensors, symmetrize_input=True)
    density.truncation_mass = max(0.0, 1.0 - density.total_mass())
    log_evidence = float(mu @ (p0 - 1.0)) + math.log(partition_total)
    return Posterior(
        density, poisson_posterior_intensity(spec, kernel, Z, prune=prune), log_evidence
    )


def poisson_posterior_intensity(
    spec: PoissonSpec,
    kernel: ObservationKernel,
    Z: MeasurementSet,
    *,
    prune: bool = True,
) -> np.ndarray:
    """Closed-form posterior intensity for a Poisson prior.

    M_1(x) = mu(x) * sum over partitions of
    [prod_i mu[P_i] * p0(x) + sum_i prod_{j != i} mu[P_j] * P_i(x)],
    normalized by the partition sum of plain products. The replaced factor is
    expanded without dividing by mu[P_i] so zero-mass blocks stay harmless.
    """
    if not isinstance(spec, PoissonSpec):
        spec = PoissonSpec(np.asarray(spec, dtype=float))
    mu = _as_test_function(kernel.state_space, spec.intensity)
    z_idx = tuple(kernel.obs_space.indices(Z))
    p0 = kernel.tables[0]
    terms = _poisson_partition_terms(mu, kernel, z_idx, prune)
    den = 0.0
    acc = np.zeros(kernel.state_space.size)
    for cnt, vecs, scalars in terms:
        prod_all = math.prod(scalars)
        den += cnt * prod_all
        bracket = prod_all * p0
        for i, v in enumerate(vecs):
            partial = math.prod(scalars[:i] + scalars[i + 1 :])
            bracket = bracket + partial * v
        acc += cnt * bracket
    if not den > 0.0:
        raise ZeroEvidence(f"measurement set {list(Z)!r} has zero likelihood")
    return mu * acc / den


# ---------------------------------------------------------------------------
# bivariate-functional oracle
# ---------------------------------------------------------------------------


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
