"""Multi-object Bayes updates on finite spaces: the partition-sum engine.

Given a prior multi-object density, a per-object measurement-group kernel
and an observed measurement set Z, posterior_partition and
posterior_partition_clutter compute the posterior by the generating-
functional route. Each set partition of Z contributes one variation of the
prior functional taken at the missed-detection profile, with one increment
per block; clutter adds an outer sum over the subset of Z explained by the
clutter process. Evidence is the same sum with no free measurement points.
There is one numeric path: the evidence is a signed log-sum-exp over the
terms, and each term's numerator is scaled by its weight over the evidence,
so evidences far below the smallest double never underflow. Every variation
is one call of finite_pp.contract; the numerator tensors are the prior's
times one finite_pp.product, of the block functional
sum_terms scale * prod_i v_i[h] and exp(p0[h]). The posterior carries the
prior's truncation_mass, so mass dropped at earlier caps is not forgotten.

The brute-force and numeric oracles this engine is checked against live in
mobayes.oracles.

The value of a partition term depends only on its signature: the clutter
part and the multiset of block contents (sorted z-labels per block). So the
engine never walks set partitions. _signature_counts walks the partitions
of the measurement multiset directly, once per signature, and gives each
the number of set partitions it stands for in closed form; blocks the
kernel cannot emit, more blocks than the prior's cap and clutter parts past
the clutter cap are never entered. Terms are accumulated in sorted
signature order, which makes results bitwise invariant under reordering of
Z; the set-partition walk survives as a counting oracle in mobayes.oracles.

posterior_intensity* evaluate the first factorial moment directly from the
partition sum: each partition contributes an appended-increment term (one
extra Dirac increment weighted by the missed-detection profile) plus one
replaced-increment term per block (that block's increment localized at the
query point). Poisson priors additionally get closed forms in which every
variation collapses to a product of scalars mu[P_block]; they share the
signature enumeration, _block_functional, product and powers with the
engine, so they are not independent oracles.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .combinatorics import (
    partitions,  # unused here; bench/spans.py wraps mobayes.bayes.partitions
    subsets,  # unused here; bench/spans.py wraps mobayes.bayes.subsets
)
from .finite_pp import (
    NORMALIZATION_TOL,
    FiniteSpace,
    MultiObjectDensity,
    PoissonSpec,
    _as_test_function,
    contract,
    poisson as poisson_density,
    powers,
    product,
    symmetrize,  # unused here; bench/spans.py wraps mobayes.bayes.symmetrize
    symmetrize_axes,
)

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


# ---------------------------------------------------------------------------
# partition-sum engine
# ---------------------------------------------------------------------------


def _check_update_spaces(prior, kernel, clutter) -> None:
    if prior.space.labels != kernel.state_space.labels:
        raise ValueError("prior and kernel disagree on the state space")
    if clutter is not None and clutter.space.labels != kernel.obs_space.labels:
        raise ValueError("clutter process must live on the observation space")


def _clutter_value(clutter: MultiObjectDensity | None, group: tuple[int, ...]) -> float:
    if clutter is None:
        return 1.0 if not group else 0.0
    return float(clutter.tensors[len(group)][tuple(group)])


def _sub_multisets(labels, counts, room: int):
    """Every sub-multiset of at most `room` labels, by bounded extension.

    The multiset holds counts[i] copies of labels[i]. Returns, per
    sub-multiset, its sorted labels, its count vector and the product of the
    factorials of its counts; prefixes that are already full are extended
    by zero copies only.
    """
    out = [((), (), 1)]
    for z, n in zip(labels, counts):
        out = [
            (lab + (z,) * k, vec + (k,), den * math.factorial(k))
            for lab, vec, den in out
            for k in range(min(n, room - len(lab)) + 1)
        ]
    return out


def _signature_counts(
    z_idx: tuple[int, ...],
    m_cap: int | None,
    with_clutter: bool = True,
    *,
    max_blocks: int | None = None,
    max_clutter: int | None = None,
) -> Counter:
    """Content signatures of all (subset, set partition) terms, with counts.

    A signature is (clutter part, blocks): the sorted labels handed to
    clutter and the sorted tuple of per-block sorted z-labels. Terms with
    equal signatures have equal values, so only counts are kept. The walk
    runs over partitions of the measurement multiset directly (the idea of
    Knuth, TAOCP 4A, 7.2.1.5, Algorithm M): choose the clutter part, then
    split the rest into blocks in canonical order, each block led by the
    smallest label left and no smaller, as a sorted tuple, than the block
    before it. Each signature is reached once, and its count of set
    partitions is prod n_z! / (prod c_z! * prod_blocks prod_z b_z! *
    prod k_g!) for label counts n, clutter part c, block contents b and k_g
    repeats of each distinct block.

    Blocks over m_cap labels, more than max_blocks blocks and clutter parts
    over max_clutter labels are never entered (None: no cap). Without a
    clutter process the clutter part is always empty.
    """
    m = len(z_idx)
    labels = sorted(set(z_idx))
    n = [z_idx.count(z) for z in labels]
    cap = m if m_cap is None else m_cap
    top = m if max_blocks is None else max_blocks
    c_top = (m if max_clutter is None else max_clutter) if with_clutter else 0
    total = math.prod(map(math.factorial, n))
    # block types in sorted-tuple order: those led by one label are contiguous
    types = sorted(
        (blk, [(i, k) for i, k in enumerate(vec) if k], den)
        for blk, vec, den in _sub_multisets(labels, n, cap)[1:]
    )
    firsts = [blk[0] for blk, _, _ in types]
    led_by = [(bisect_left(firsts, z), bisect_right(firsts, z)) for z in labels]
    counts: Counter = Counter()
    blocks: list[tuple[int, ...]] = []

    def walk(rest, left, lead, t0, run, den):
        # rest holds the label counts not yet placed, `left` in all, none
        # below index lead; the last block has type t0 and is the run-th
        # equal one in a row; den is the count's denominator so far, and
        # `dropped` is the clutter part of the loop below
        if not left:
            counts[(dropped, tuple(blocks))] = total // den
            return
        if (top - len(blocks)) * cap < left:  # the blocks left cannot hold it
            return
        while not rest[lead]:
            lead += 1
        lo, hi = led_by[lead]
        for t in range(max(t0, lo), hi):
            blk, parts, block_den = types[t]
            for i, k in parts:
                if rest[i] < k:
                    break
            else:
                for i, k in parts:
                    rest[i] -= k
                blocks.append(blk)
                same = run + 1 if t == t0 else 1
                walk(rest, left - len(blk), lead, t, same, den * block_den * same)
                blocks.pop()
                for i, k in parts:
                    rest[i] += k

    for dropped, c, c_den in _sub_multisets(labels, n, c_top):
        walk([a - b for a, b in zip(n, c)], m - len(dropped), 0, 0, 0, c_den)
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

    Each distinct signature within the caps (kernel.m_max when pruning,
    prior.n_max blocks, clutter.n_max clutter labels) is one term. Its
    weight w is the signature count times the clutter density of its
    clutter part, and its denominator den is the variation of the prior
    functional at the missed-detection profile with one increment per
    block. The evidence sum w * den is a log-sum-exp over log|w| + log|den|
    that carries each term's sign, so evidences far below the smallest
    double do not underflow. Returns the log evidence and, in sorted
    signature order, (w / evidence, block vectors) for every term; a term
    whose denominator is 0 is kept, since its numerator need not vanish.
    """
    _check_update_spaces(prior, kernel, clutter)
    z_idx = tuple(kernel.obs_space.indices(Z))
    counts = _signature_counts(
        z_idx,
        kernel.m_max if prune else None,
        clutter is not None,
        max_blocks=prior.n_max,
        max_clutter=None if clutter is None else clutter.n_max,
    )
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
        if weight == 0.0:
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
    density = MultiObjectDensity(
        prior.space, tensors, symmetrize_input=True, truncation_mass=prior.truncation_mass
    )
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
