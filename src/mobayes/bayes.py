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
The engine splits the sum in two. The likelihood functional
L[h] = sum over terms of w * prod_i v_i[h], each term's weight w times the
product of its block increments, depends only on the measurement set, the
kernel and the clutter, never on the prior; _likelihood builds its packed
levels W_k (the terms with k blocks) once per measurement set and sensor
model and caches them. An update then does only the prior's work:
finite_pp.derivatives gives the prior's variations D_k at the
missed-detection profile, the evidence is sum_k finite_pp.pairings(D_k,
W_k), and the posterior entries are the prior's times one
finite_pp.multiply of B_k = W_k / evidence and exp(p0[h]). The engine never
indexes the packed layout. There is one numeric path: every measurement
label carries an exact power-of-two scale, so W is stored as 2^-S L with
an integer S, and evidences far below the smallest double neither
underflow nor need a log-sum-exp; the posterior does not depend on S. The
posterior carries the prior's truncation_mass, so mass dropped at earlier
caps is not forgotten.

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

Nothing in that walk reads a value: it sees only the label counts n of Z
in sorted-label order and the caps. So _plan runs it once per such pattern
over label positions and caches the result as numpy arrays, the update
plan: each term's count, clutter part and block count, its block contents
grouped by block count, and the distinct contents and clutter parts. An
update maps positions to its labels, a monotone map that keeps the sorted
order and so the summation order, reads one group vector per distinct
content and the clutter density of each distinct part, and gathers the
terms' vectors for finite_pp.linear_products; measurement sets that differ
only in their labels share one plan.

A filter meets the same measurement sets again and again, so _likelihood
keeps the W levels of the last 64 (measurement set, sensor model, caps)
keys. Its key holds the kernel and clutter objects themselves, which is
sound because both are read-only: ObservationKernel freezes its tables and
MultiObjectDensity its packed levels.

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

import functools
import math
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import groupby
from typing import NamedTuple, Sequence

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

    A kernel is read-only: its tables are private copies with numpy's
    writeable flag off, so writing into one raises ValueError. The update
    caches values computed from a kernel under the kernel itself.
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
            fixed.append(_frozen(arr.copy()))
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


class _Plan(NamedTuple):
    """The partition terms of one measurement pattern, in sorted signature
    order, with labels replaced by their positions 0..len(n) - 1."""

    counts: np.ndarray  # the set partitions each term stands for, as floats
    clutter: np.ndarray  # each term's clutter-part id
    blocks: np.ndarray  # each term's block count
    groups: tuple  # per block count k: (its terms, their (terms, k) content ids)
    contents: tuple  # the distinct block contents, one (count, size) array per size
    parts: tuple  # the distinct clutter parts, one (count, size) array per size
    members: np.ndarray  # each content's, then each part's, count of every position


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _by_size(tuples: set) -> tuple[dict, tuple[np.ndarray, ...]]:
    """Ids of distinct position tuples, numbered by size and then in sorted
    order, and the tuples as one (count, size) array per size present."""
    ordered = sorted(tuples, key=lambda t: (len(t), t))
    arrays = []
    for size, rows in groupby(ordered, key=len):
        rows = list(rows)
        arrays.append(_frozen(np.array(rows, dtype=np.intp).reshape(len(rows), size)))
    return {t: i for i, t in enumerate(ordered)}, tuple(arrays)


@functools.lru_cache(maxsize=64)
def _plan(
    n: tuple[int, ...],
    m_cap: int | None,
    with_clutter: bool,
    max_blocks: int | None,
    max_clutter: int | None,
) -> _Plan:
    """The update's terms for every measurement set with label counts n.

    Runs _signature_counts once over positions, position i standing for the
    i-th smallest label, n[i] times. Mapping positions to labels is
    monotone, so it keeps the sorted signature order, and a term's count
    depends on n alone; only numpy arrays are kept.
    """
    z = tuple(i for i, c in enumerate(n) for _ in range(c))
    terms = sorted(
        _signature_counts(
            z, m_cap, with_clutter, max_blocks=max_blocks, max_clutter=max_clutter
        ).items()
    )
    part_id, parts = _by_size({dropped for (dropped, _), _ in terms})
    content_id, contents = _by_size({c for (_, blocks), _ in terms for c in blocks})
    top = max((len(blocks) for (_, blocks), _ in terms), default=0)
    where: list[list[int]] = [[] for _ in range(top + 1)]
    ids: list[list[list[int]]] = [[] for _ in range(top + 1)]
    for t, ((_, blocks), _) in enumerate(terms):
        where[len(blocks)].append(t)
        ids[len(blocks)].append([content_id[c] for c in blocks])
    groups = tuple(
        (
            _frozen(np.array(w, dtype=np.intp)),
            _frozen(np.array(b, dtype=np.intp).reshape(len(w), k)),
        )
        for k, (w, b) in enumerate(zip(where, ids))
    )
    values = sorted(content_id, key=content_id.get) + sorted(part_id, key=part_id.get)
    members = np.zeros((len(values), len(n)), dtype=np.intp)
    for row, positions in enumerate(values):
        for i in positions:
            members[row, i] += 1
    return _Plan(
        _frozen(np.array([float(cnt) for _, cnt in terms])),
        _frozen(np.array([part_id[dropped] for (dropped, _), _ in terms], dtype=np.intp)),
        _frozen(np.array([len(blocks) for (_, blocks), _ in terms], dtype=np.intp)),
        groups,
        contents,
        parts,
        _frozen(members),
    )


def _pattern(z: Sequence[int]) -> tuple[np.ndarray, tuple[int, ...]]:
    """The distinct observation indices of z, sorted, and how often each
    occurs: the map from plan positions to labels, and the plan's key n."""
    tally = Counter(z)
    labels = sorted(tally)
    return np.array(labels, dtype=np.intp), tuple(tally[i] for i in labels)


def _group_vectors(plan: _Plan, labels: np.ndarray, kernel: ObservationKernel) -> list:
    """The group vector of each distinct block content, in id order."""
    return [kernel.group_vector(tuple(row)) for rows in plan.contents for row in labels[rows]]


def _clutter_values(
    plan: _Plan, labels: np.ndarray, clutter: MultiObjectDensity | None
) -> np.ndarray:
    """The clutter density at each distinct clutter part, in id order."""
    if clutter is None:  # the one clutter part is empty
        return np.ones(1)
    values = [clutter.entries(labels[rows]) for rows in plan.parts]
    return np.concatenate(values) if values else np.zeros(0)


def _kept_products(plan: _Plan, vectors: np.ndarray, keep: np.ndarray) -> dict:
    """The kept terms by block count, for every count up to the largest kept.

    vectors stacks one group vector per content id. groups[k] = (positions
    among the kept terms of those with k blocks, the packed level k of each
    one's prod_i v_i[h]).
    """
    where = np.cumsum(keep) - 1
    groups = {}
    for k in range(int(plan.blocks[keep].max(initial=0)) + 1):
        terms, ids = plan.groups[k]
        sel = keep[terms]
        groups[k] = (where[terms[sel]], linear_products(vectors[ids[sel]]))
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


def _exponents(members: np.ndarray, peaks: np.ndarray) -> np.ndarray:
    """The scale e of each label position: the largest ceil(E / size) over
    the nonzero values whose labels include it, E being a value's frexp
    exponent and size its number of labels; 0 where there is none.

    members holds each value's count of every position, and peaks the
    values' magnitudes. A value's labels then sum to at least its E, so
    every value divided by 2 to that sum lies below 1: no scaled value
    overflows, and exact zeros, such as the groups pruning skips, count for
    nothing.
    """
    scale: list = [None] * members.shape[1]
    for counts, peak in zip(members.tolist(), peaks.tolist()):
        size = sum(counts)
        if peak > 0.0 and size:
            per = -(-math.frexp(peak)[1] // size)
            for i, count in enumerate(counts):
                if count and (scale[i] is None or per > scale[i]):
                    scale[i] = per
    return np.array([0 if e is None else e for e in scale], dtype=np.intp)


@functools.lru_cache(maxsize=64)
def _likelihood(
    kernel: ObservationKernel,
    clutter: MultiObjectDensity | None,
    z: tuple[int, ...],
    prune: bool,
    n_max: int,
) -> tuple[int, tuple[np.ndarray, ...]]:
    """S and the packed levels W_0..W_K of 2^-S L[h], the likelihood
    functional of the sorted observation indices z.

    L[h] sums w * prod_i v_i[h] over the terms of z's plan within the caps
    (kernel.m_max when pruning, n_max blocks, clutter.n_max clutter
    labels), w being a term's count times the clutter density of its
    clutter part; W_k holds the terms with k blocks, up to the largest
    block count K with a nonzero weight. Each label z gets an exponent e_z
    (_exponents). Every group vector and clutter value is divided by 2 to
    the sum of e_z over its labels, exactly, and every term covers each
    label of z once, so each term is divided by 2^S with S = sum_z n_z e_z:
    a product of many small factors stays in range. The levels are summed
    in signature order (_block_functional), so blocks that pruning skips
    add exact zeros, and are frozen copies, since the cache hands them to
    every caller.
    """
    labels, n = _pattern(z)
    plan = _plan(
        n,
        kernel.m_max if prune else None,
        clutter is not None,
        n_max,
        None if clutter is None else clutter.n_max,
    )
    vectors = _group_vectors(plan, labels, kernel)
    vectors = np.array(vectors).reshape(len(vectors), kernel.state_space.size)
    values = _clutter_values(plan, labels, clutter)
    peaks = np.concatenate([np.abs(vectors).max(axis=1, initial=0.0), np.abs(values)])
    exponents = _exponents(plan.members, peaks)
    shifts = plan.members @ exponents
    vectors = np.ldexp(vectors, -shifts[: len(vectors), None])
    values = np.ldexp(values, -shifts[len(vectors) :])
    weights = plan.counts * values[plan.clutter]
    keep = weights != 0.0
    levels = _block_functional(weights[keep], _kept_products(plan, vectors, keep))
    return int(exponents @ n), tuple(_frozen(level.copy()) for level in levels)


def _partition_engine(
    prior: MultiObjectDensity,
    kernel: ObservationKernel,
    Z: MeasurementSet,
    clutter: MultiObjectDensity | None,
    prune: bool,
    spare: int = 0,
) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """Log evidence and the normalized block functional of the update.

    Reads S and W_0..W_K of 2^-S L[h] from _likelihood, which depend on Z,
    the sensor model and prior.n_max only, and does the prior's work: the
    variations D_0..D_(K + spare) at the missed-detection profile and the
    scaled evidence E = sum_k pairings(D_k, W_k), the true evidence times
    2^-S. With (m, e) = frexp(E) the log evidence is log m + (e + S) log 2,
    and B_k = W_k / E; powers of two scale exactly, so neither depends on S.
    Returns the log evidence, B_0..B_K and the variations.
    """
    _check_update_spaces(prior, kernel, clutter)
    z = tuple(sorted(kernel.obs_space.indices(Z)))
    shift, levels = _likelihood(kernel, clutter, z, prune, prior.n_max)
    d = prior.space.size
    D = derivatives(prior.packed, kernel.tables[0], len(levels) - 1 + spare)
    evidence = sum(float(pairings(D[k], w[None], d, k)[0]) for k, w in enumerate(levels))
    if not evidence > 0.0:
        raise ZeroEvidence(f"measurement set {list(Z)!r} has zero likelihood")
    mantissa, exponent = math.frexp(evidence)
    log_evidence = math.log(mantissa) + (exponent + shift) * math.log(2.0)
    return log_evidence, [w / evidence for w in levels], D


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
    """Z's plan without clutter, its group vectors and the scalars mu[v]."""
    labels, n = _pattern(kernel.obs_space.indices(Z))
    plan = _plan(n, kernel.m_max if prune else None, False, None, None)
    vectors = _group_vectors(plan, labels, kernel)
    return plan, vectors, [float(mu @ v) for v in vectors]


def _poisson_intensity(mu, p0, plan, vectors, scalars, Z) -> tuple[np.ndarray, float]:
    """Closed-form posterior intensity and the partition sum it divides by.

    M_1(x) = mu(x) * sum over partitions of
    [prod_i mu[P_i] * p0(x) + sum_i prod_{j != i} mu[P_j] * P_i(x)],
    normalized by the partition sum of plain products. The replaced factor is
    expanded without dividing by mu[P_i] so zero-mass blocks stay harmless.
    """
    contents: list = [None] * len(plan.counts)  # each term's content ids
    for terms, ids in plan.groups:
        for t, row in zip(terms.tolist(), ids.tolist()):
            contents[t] = row
    den = 0.0
    acc = np.zeros(mu.size)
    for cnt, row in zip(plan.counts.tolist(), contents):
        factors = [scalars[j] for j in row]
        prod_all = math.prod(factors)
        den += cnt * prod_all
        bracket = prod_all * p0
        for i, j in enumerate(row):
            bracket = bracket + math.prod(factors[:i] + factors[i + 1 :]) * vectors[j]
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
    plan, vectors, scalars = _poisson_terms(mu, kernel, Z, prune)
    intensity, partition_total = _poisson_intensity(mu, p0, plan, vectors, scalars, Z)
    d = kernel.state_space.size
    nu = mu * p0
    scale = math.exp(-float(nu.sum())) / partition_total
    keep = plan.blocks <= n_max
    groups = _kept_products(plan, mu * np.array(vectors).reshape(len(vectors), d), keep)
    block = _block_functional(plan.counts[keep] * scale, groups)
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
    plan, vectors, scalars = _poisson_terms(mu, kernel, Z, prune)
    return _poisson_intensity(mu, kernel.tables[0], plan, vectors, scalars, Z)[0]
