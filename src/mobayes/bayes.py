"""Multi-object Bayes updates on finite spaces: the partition-sum engine.

Given a prior multi-object density, a per-object measurement-group kernel,
an optional clutter process and an observed measurement set Z,
posterior_partition_clutter computes the posterior by the generating-
functional route; clutter=None is the update without clutter, the same sum
with the clutter factor set to one. Each set partition of Z contributes one
variation of the prior functional taken at the missed-detection profile,
with one increment per block; clutter adds an outer sum over the subset of
Z explained by the clutter process. Evidence is the same sum with no free
measurement points.
There is one numeric path: the evidence is a signed log-sum-exp over the
terms, and each term's numerator is scaled by its weight over the evidence,
so evidences far below the smallest double never underflow. The engine
works on packed coefficients through the kernels of finite_pp and never
indexes their layout: finite_pp.derivatives gives the prior's variations
D_k at the missed-detection profile once per update, and a term's
denominator is finite_pp.pairings of D_k with the linear_products of its
block vectors. The posterior entries are the prior's times one
finite_pp.multiply of the block functional sum_terms scale * prod_i v_i[h]
and exp(p0[h]). The posterior carries the prior's truncation_mass, so mass
dropped at earlier caps is not forgotten.

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

posterior_intensity_clutter evaluates the first factorial moment directly
from the partition sum: each partition contributes an appended-increment
term (one extra Dirac increment weighted by the missed-detection profile)
plus one replaced-increment term per block (that block's increment
localized at the query point). It reads both kinds, summed over the terms
of each block count, off the normalized block functional B that the
posterior multiplies (the replaced ones by the product rule), so no term
is evaluated on its own. Poisson priors additionally get closed
forms in which every variation collapses to a product of scalars
mu[P_block]; they share the signature enumeration, _block_functional and
finite_pp.multiply with the engine, so they are not independent oracles.
"""

from __future__ import annotations

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
    _is_symmetric,
    _poisson_cap,
    _symmetrized,
    derivatives,
    exp_coefficients,
    linear_products,
    multiply,
    pairings,
    symmetrize,  # unused here; bench/spans.py wraps mobayes.bayes.symmetrize
)

MeasurementSet = Sequence[str | int]


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
            if symmetrize_input:
                arr = _symmetrized(arr, m)
            elif not _is_symmetric(arr, m):
                raise ValueError(f"table {m} is not symmetric in its z axes")
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
    return clutter.entry(group)


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


def _signature_terms(counts: Counter, kernel: ObservationKernel):
    """(count, clutter part, block vectors) per signature, in sorted order.

    Blocks with equal contents share one group vector.
    """
    vectors: dict[tuple[int, ...], np.ndarray] = {}
    for (dropped, blocks), cnt in sorted(counts.items()):
        for content in blocks:
            if content not in vectors:
                vectors[content] = kernel.group_vector(content)
        yield cnt, dropped, [vectors[content] for content in blocks]


def _group_products(blocks, d: int) -> dict:
    """Terms grouped by block count, for every count up to the largest.

    groups[k] = (positions of the terms with k blocks, the packed level k
    of each term's prod_i v_i[h]).
    """
    where: dict[int, list[int]] = {k: [] for k in range(max(map(len, blocks), default=0) + 1)}
    for i, vecs in enumerate(blocks):
        where[len(vecs)].append(i)
    groups = {}
    for k, idx in where.items():
        vectors = np.array([blocks[i] for i in idx]).reshape(len(idx), k, d)
        groups[k] = (np.array(idx, dtype=np.intp), linear_products(vectors))
    return groups


def _block_functional(scales: np.ndarray, groups: dict) -> list[np.ndarray]:
    """Packed levels of sum over terms of scale * prod_i v_i[h].

    Each level adds its terms one at a time in signature order (add.accumulate
    never reassociates), so terms that are exactly zero, such as the blocks
    pruning skips, leave it bitwise unchanged.
    """
    out = []
    for idx, products in groups.values():
        rows = scales[idx, None] * products
        out.append(np.add.accumulate(rows, axis=0)[-1] if len(rows) else rows.sum(axis=0))
    return out


def _partition_engine(
    prior: MultiObjectDensity,
    kernel: ObservationKernel,
    Z: MeasurementSet,
    clutter: MultiObjectDensity | None,
    prune: bool,
    spare: int = 0,
) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """Log evidence and the normalized block functional of the update.

    Each distinct signature within the caps (kernel.m_max when pruning,
    prior.n_max blocks, clutter.n_max clutter labels) is one term. Its
    weight w is the signature count times the clutter density of its
    clutter part, and its denominator den is the variation of the prior
    functional at the missed-detection profile with one increment per
    block. The evidence sum w * den is a log-sum-exp over log|w| + log|den|
    that carries each term's sign, so evidences far below the smallest
    double do not underflow. Returns the log evidence, the packed levels
    B_0..B_K of sum over terms of (w / evidence) * prod_i v_i[h]
    (_block_functional), K the largest block count, and the prior's
    variations D_0..D_(K + spare) at the missed-detection profile; a term
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
    clutter_values: dict[tuple[int, ...], float] = {}
    weights, blocks = [], []
    for cnt, dropped, vecs in _signature_terms(counts, kernel):
        if dropped not in clutter_values:
            clutter_values[dropped] = _clutter_value(clutter, dropped)
        weight = cnt * clutter_values[dropped]
        if weight != 0.0:
            weights.append(weight)
            blocks.append(vecs)
    d = prior.space.size
    groups = _group_products(blocks, d)
    D = derivatives(prior.packed, kernel.tables[0], len(groups) - 1 + spare)
    dens = np.zeros(len(blocks))
    for k, (idx, products) in groups.items():
        dens[idx] = pairings(D[k], products, d, k)
    logs, signs = [], []  # log|weight * den| and its sign, for den != 0
    for weight, den in zip(weights, dens.tolist()):
        if den != 0.0:
            logs.append(math.log(abs(weight)) + math.log(abs(den)))
            signs.append(-1.0 if (weight < 0.0) != (den < 0.0) else 1.0)
    peak = max(logs, default=0.0)
    total = sum(s * math.exp(v - peak) for s, v in zip(signs, logs))
    if not total > 0.0:
        raise ZeroEvidence(f"measurement set {list(Z)!r} has zero likelihood")
    log_evidence = peak + math.log(total)
    scales = np.array(
        [math.copysign(math.exp(math.log(abs(w)) - log_evidence), w) for w in weights]
    )
    return log_evidence, _block_functional(scales, groups), D


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
    means no clutter process: every measurement comes from an object. The
    returned intensity is the first factorial moment of the computed
    density; posterior_intensity_clutter evaluates the same quantity from
    the partition sum directly.
    """
    log_evidence, block, _ = _partition_engine(prior, kernel, Z, clutter, prune)
    n, d = prior.n_max, prior.space.size
    likelihood = multiply(block, exp_coefficients(kernel.tables[0], n), n, d)
    packed = [c * f for c, f in zip(prior.packed, likelihood)]
    density = MultiObjectDensity._from_packed(prior.space, packed, prior.truncation_mass)
    return Posterior(density, density.intensity_vector(), log_evidence)


def posterior_intensity_clutter(
    prior: MultiObjectDensity,
    kernel: ObservationKernel,
    clutter: MultiObjectDensity | None,
    Z: MeasurementSet,
    *,
    prune: bool = True,
) -> np.ndarray:
    """Posterior intensity under clutter, from the partition sum directly.

    Level k of the block functional B contributes its appended terms,
    p0(x) times D_(k+1) shifted by e_x and paired with B_k, and its
    replaced terms. Those sum v_i(x) prod_(j != i) v_j[h] over the blocks
    of each term: prod_j v_j[h] differentiated along e_x. So they pair
    D_k * B_k, shifted by e_x, with every multiset of level k - 1.
    """
    # the appended terms read one variation past the largest block count
    _, block, D = _partition_engine(prior, kernel, Z, clutter, prune, spare=1)
    p0 = kernel.tables[0]
    d = p0.size
    intensity = np.zeros(d)
    for k, level in enumerate(block):
        intensity += p0 * pairings(D[k + 1], level[None], d, k, free=True)[0]
        if k:
            every = np.ones((1, block[k - 1].size))
            intensity += pairings(D[k] * level, every, d, k - 1, free=True)[0]
    return intensity


# ---------------------------------------------------------------------------
# Poisson closed forms
# ---------------------------------------------------------------------------


def _poisson_terms(mu, kernel, Z, prune: bool):
    """Sorted signature terms (count, block vectors, scalars mu[P_block])."""
    z_idx = tuple(kernel.obs_space.indices(Z))
    counts = _signature_counts(z_idx, kernel.m_max if prune else None, with_clutter=False)
    return [
        (float(cnt), vecs, [float(mu @ v) for v in vecs])
        for cnt, _, vecs in _signature_terms(counts, kernel)
    ]


def _poisson_intensity(mu, p0, terms, Z) -> tuple[np.ndarray, float]:
    """Closed-form posterior intensity and the partition sum it divides by.

    M_1(x) = mu(x) * sum over partitions of
    [prod_i mu[P_i] * p0(x) + sum_i prod_{j != i} mu[P_j] * P_i(x)],
    normalized by the partition sum of plain products. The replaced factor is
    expanded without dividing by mu[P_i] so zero-mass blocks stay harmless.
    """
    den = 0.0
    acc = np.zeros(mu.size)
    for cnt, vecs, scalars in terms:
        prod_all = math.prod(scalars)
        den += cnt * prod_all
        bracket = prod_all * p0
        for i, v in enumerate(vecs):
            bracket = bracket + math.prod(scalars[:i] + scalars[i + 1 :]) * v
        acc += cnt * bracket
    if not den > 0.0:
        raise ZeroEvidence(f"measurement set {list(Z)!r} has zero likelihood")
    return mu * acc / den, den


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
    finite_pp.multiply of the block functional and exp(nu[h]). n_max follows
    finite_pp.poisson's rule.
    """
    if not isinstance(spec, PoissonSpec):
        spec = PoissonSpec(np.asarray(spec, dtype=float))
    mu = _as_test_function(kernel.state_space, spec.intensity)
    n_max = _poisson_cap(spec, float(mu.sum()), n_max)
    p0 = kernel.tables[0]
    terms = _poisson_terms(mu, kernel, Z, prune)
    intensity, partition_total = _poisson_intensity(mu, p0, terms, Z)
    d = kernel.state_space.size
    nu = mu * p0
    scale = math.exp(-float(nu.sum())) / partition_total
    kept = [(cnt * scale, [mu * v for v in vs]) for cnt, vs, _ in terms if len(vs) <= n_max]
    groups = _group_products([vs for _, vs in kept], d)
    block = _block_functional(np.array([s for s, _ in kept]), groups)
    packed = multiply(block, exp_coefficients(nu, n_max), n_max, d)
    density = MultiObjectDensity._from_packed(kernel.state_space, packed)
    density.truncation_mass = max(0.0, 1.0 - density.total_mass())
    log_evidence = float(mu @ (p0 - 1.0)) + math.log(partition_total)
    return Posterior(density, intensity, log_evidence)


def poisson_posterior_intensity(
    spec: PoissonSpec,
    kernel: ObservationKernel,
    Z: MeasurementSet,
    *,
    prune: bool = True,
) -> np.ndarray:
    """Closed-form posterior intensity for a Poisson prior.

    It builds no tensor, so it works at any d and at rates past
    finite_pp.POISSON_N_MAX_CAP.
    """
    if not isinstance(spec, PoissonSpec):
        spec = PoissonSpec(np.asarray(spec, dtype=float))
    mu = _as_test_function(kernel.state_space, spec.intensity)
    terms = _poisson_terms(mu, kernel, Z, prune)
    return _poisson_intensity(mu, kernel.tables[0], terms, Z)[0]
