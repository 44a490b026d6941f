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
On a finite space the update is a pointwise product. The likelihood
functional L[h] = sum over terms of w * prod_i v_i[h], each term's weight
w times the product of its block increments, depends only on the
measurement set, the kernel and the clutter, never on the prior;
_functional builds its packed levels W_k (the terms with k blocks). With
the missed objects' factor exp(p0[h]) it gives the Janossy likelihood
l_Z = finite_pp.multiply(W, exp(p0[h])): l_Z(alpha) is the multi-object
likelihood g(Z | alpha) of the objects alpha, for every multiset alpha of
at most n_max objects. _likelihood caches l_Z as one flat array per
measurement set, sensor model and caps. An update is then the prior's
flat coefficients times l_Z, elementwise; the evidence is that product
dotted with 1/alpha!, and the posterior is the product over the
evidence (_update_flat, which scenario.Filter calls too). A warm update
calls no finite_pp.derivatives, pairings or multiply. The engine never
indexes the packed layout. There is one numeric path: every measurement
label carries an exact power-of-two scale, so W and l_Z are stored as
2^-S L and 2^-S l_Z with an integer S, and evidences far below the
smallest double neither underflow nor need a log-sum-exp; the posterior
does not depend on S. The posterior carries
the prior's truncation_mass, so mass dropped at earlier caps is not
forgotten.

The brute-force and numeric oracles this engine is checked against live in
mobayes.oracles.

The engine never walks set partitions, nor lists terms. For a
sub-multiset S of Z, let f(S) sum prod_blocks v_b[h] over the set
partitions of S; f(empty) = 1, and its level k, the partitions into k
blocks, is a packed polynomial of degree k. Choosing first the block b
that holds one copy of the smallest label l of S gives the recursion that
Faa di Bruno's partition sum satisfies when one increment is added at a
time: f(S) = sum over b of prod_z C(s_z - [z=l], b_z - [z=l]) v_b[h]
f(S - b), over the b within the kernel's m_max. With clutter,
L = sum over clutter parts C within the clutter cap of the clutter density
at C times prod_z C(n_z, c_z) f(Z - C). _levels nests the recursion by
block count: level k of every sub-multiset comes from level k - 1 of every
sub-multiset through one gather, one finite_pp.times_linear and one
np.bincount, and it stops at the prior's cap. The work follows the box
prod_z (n_z + 1) of sub-multisets, not the number of distinct terms, which
with distinct labels and blocks of two grows past a million at twelve
measurements. A level's pairs are taken in chunks of about
CHUNK_ENTRIES row entries, cut at state boundaries, so the temporaries of
a cold update stay bounded. Each sub-multiset adds its blocks in one
fixed order, within one chunk, so blocks whose vector is zero (those past
m_max when prune=False) add exact zeros, and since Z is read in
sorted-label order, results are bitwise invariant under its reordering
and under the chunk size.

Nothing in that recursion reads a value: it sees only the label counts n
of Z in sorted-label order and the caps. So _plan builds it once per such
pattern over label positions and caches it as numpy arrays, the update
plan: the sub-multisets in size order, each one's blocks with their
binomial coefficients, and the clutter parts with theirs. An update maps
positions to its labels, a monotone map that keeps every order, and reads
one group vector per block and the clutter density of each part;
measurement sets that differ only in their labels share one plan. The
plan does not depend on the prior. _signature_counts, a walk over the
distinct terms with their counts, is kept as the counting reference the
recursion is tested against; no update calls it, and the set-partition
walk is a second counting oracle in mobayes.oracles.

A filter meets the same measurement sets again and again, so _likelihood
keeps l_Z for the last 64 (measurement set, sensor model, caps) keys: at
worst n_max + 1 levels each, as many as the W levels it is built from
hold once |Z| >= n_max. Its key holds the kernel and clutter objects
themselves, which is sound because both are read-only: ObservationKernel
freezes its tables and MultiObjectDensity its flat array.

posterior_intensity_clutter evaluates the first factorial moment directly
from the partition sum, by a route the update does not take, so it
checks the engine: it rebuilds W uncached, takes the prior's variations
D_k at the missed-detection profile (finite_pp.derivatives) and the
evidence sum_k finite_pp.pairings(D_k, W_k). Each partition contributes
an appended-increment term (one extra Dirac increment weighted by the
missed-detection profile) plus one replaced-increment term per block
(that block's increment localized at the query point). It reads both
kinds, summed over the terms of each block count, off the normalized
block functional B = W / evidence (the replaced ones by the product
rule), so no term is evaluated on its own.

Poisson priors additionally get closed forms in which every variation
collapses to a product of scalars mu[P_block]: poisson_posterior takes
its block functional from the same value pass with vectors mu * v_b and
no clutter, and poisson_posterior_intensity and the partition total come
from a scalar pass over the same plan that builds no tensor
(_partition_sums). They take the engine's one numeric path: each block's
vector and its scalar mu[P_block] carry the per-label power-of-two scale
of _functional, with the scalars as the peaks, and the log evidence comes
through the same frexp step as the update's (_log_scaled), so partition
totals far outside the double range stay exact. They share the plan,
_levels and finite_pp.multiply with the engine, so they are not
independent oracles.
"""

from __future__ import annotations

import functools
import itertools
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
    _Levels,
    _as_test_function,
    _bin,
    _frozen,
    _is_symmetric,
    _poisson_cap,
    _symmetrized,
    as_levels,
    derivatives,
    exp_coefficients,
    inverse_factorials,
    multiply,
    pairings,
    symmetrize,  # unused here; bench/spans.py wraps mobayes.bayes.symmetrize
    times_linear,
)

MeasurementSet = Sequence[str | int]
# Row entries (pairs times coefficients per row) that one chunk of a level's
# pairs holds in _levels; each temporary of a chunk is about this many floats.
CHUNK_ENTRIES = 2**16


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

    def group_vectors(self, groups: np.ndarray) -> np.ndarray:
        """group_vector of each row of a (count, m) array of observation
        indices, m >= 1, as a (count, d_x) array."""
        count, m = groups.shape
        if m > self.m_max:
            return np.zeros((count, self.state_space.size))
        return self.tables[m][(slice(None),) + tuple(groups.T)].T

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
    z_idx: tuple[int, ...], m_cap: int | None, with_clutter: bool = True
) -> Counter:
    """Content signatures of all (subset, set partition) terms, with counts.

    The counting reference: no update calls it. The recursion (_plan,
    _levels) sums the same terms without listing them, and the tests
    check its counts against this walk.

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
    repeats of each distinct block. Blocks over m_cap labels (None: no cap)
    are never entered; without a clutter process the clutter part is
    always empty.
    """
    m = len(z_idx)
    labels = sorted(set(z_idx))
    n = [z_idx.count(z) for z in labels]
    cap = m if m_cap is None else m_cap
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

    for dropped, c, c_den in _sub_multisets(labels, n, m if with_clutter else 0):
        walk([a - b for a, b in zip(n, c)], m - len(dropped), 0, 0, 0, c_den)
    return counts


class _Plan(NamedTuple):
    """The recursion over the sub-multisets of one measurement pattern, with
    labels replaced by their positions 0..len(n) - 1.

    The states are the count vectors s <= n, in size order: the empty one
    first, n last. A pair is a state S and one of its blocks b: a
    sub-multiset of S that holds one copy of S's smallest position l and
    at most the block cap in all. Pairs come in state order and, within a
    state, in one fixed order of their blocks.
    """

    sizes: np.ndarray  # each state's |S|
    state: np.ndarray  # each pair's state S
    block: np.ndarray  # each pair's block id
    rest: np.ndarray  # each pair's state S - b
    coef: np.ndarray  # prod_z C(s_z - [z = l], b_z - [z = l]), as floats
    blocks: tuple  # the blocks' positions, one (count, size) array per size
    parts: tuple  # the clutter parts' positions, one (count, size) array per size
    part_coef: np.ndarray  # prod_z C(n_z, c_z) per clutter part c, as floats
    part_rest: np.ndarray  # the state n - c per clutter part c
    members: np.ndarray  # each block's, then each part's, count of every position


def _sized(n: tuple[int, ...], room: int) -> tuple[tuple, np.ndarray]:
    """The sub-multisets of at most `room` positions, position i holding
    n[i] copies, ordered by size and then positions: their positions as one
    frozen (count, size) array per size, and their count vectors."""
    subs = sorted(_sub_multisets(range(len(n)), n, room), key=lambda s: (len(s[0]), s[0]))
    groups = []
    for size, rows in groupby((lab for lab, _, _ in subs), key=len):
        rows = list(rows)
        groups.append(_frozen(np.array(rows, dtype=np.intp).reshape(len(rows), size)))
    vecs = np.array([vec for _, vec, _ in subs], dtype=np.intp).reshape(len(subs), len(n))
    return tuple(groups), vecs


@functools.lru_cache(maxsize=64)
def _plan(n: tuple[int, ...], m_cap: int, c_cap: int) -> _Plan:
    """The recursion for label counts n, blocks of at most m_cap labels and
    clutter parts of at most c_cap.

    Position i stands for the i-th smallest label, n[i] times. Mapping
    positions to labels is monotone, so every order here holds for each
    measurement set with the pattern n. A state's blocks are its smallest
    position plus one of the sub-multisets of at most m_cap - 1 positions
    that fit in what is left, so no state's sub-box is listed. Only numpy
    arrays are kept.
    """
    r = len(n)
    strides = np.array([math.prod(k + 1 for k in n[i + 1 :]) for i in range(r)], np.intp)
    box = sorted(itertools.product(*(range(k + 1) for k in n)), key=sum)
    states = np.array(box, dtype=np.intp)
    rank = np.zeros(len(box), dtype=np.intp)  # state id by code, s @ strides
    rank[states @ strides] = np.arange(len(box))
    full = np.array(n, dtype=np.intp)
    top = range(max(n, default=0) + 1)
    comb = np.array([[math.comb(a, b) for b in top] for a in top], dtype=float)
    # pairs: each nonempty state, less one copy of its smallest position,
    # against every remainder of a block that fits (none when m_cap is 0)
    steps = _sized(n, m_cap - 1)[1]
    lead = np.array([next(i for i, c in enumerate(s) if c) for s in box[1:]], dtype=np.intp)
    left = states[1:].copy()
    left[np.arange(len(left)), lead] -= 1
    fits = np.ones((len(left), len(steps)), dtype=bool)
    for i in range(r):
        fits &= steps[:, i] <= left[:, i, None]
    at, step = np.nonzero(fits)
    # per-pair values from per-state and per-step codes, with no (pairs,
    # positions) array: codes are linear, and the coefficient is a product
    # of exact integers taken one position at a time
    step_code = steps @ strides
    coef = np.ones(len(at))
    for i in range(r):
        coef *= comb[left[at, i], steps[step, i]]
    blocks, block_vecs = _sized(n, m_cap)
    blocks, block_vecs = blocks[1:], block_vecs[1:]  # all but the empty one
    block_id = np.full(len(box), -1, dtype=np.intp)
    block_id[block_vecs @ strides] = np.arange(len(block_vecs))
    parts, part_vecs = _sized(n, c_cap)
    return _Plan(
        _frozen(states.sum(axis=1)),
        _frozen(at + 1),
        _frozen(block_id[step_code[step] + strides[lead[at]]]),
        _frozen(rank[(left @ strides)[at] - step_code[step]]),
        _frozen(coef),
        blocks,
        parts,
        _frozen(np.prod(comb[full, part_vecs], axis=1)),
        _frozen(rank[(full - part_vecs) @ strides]),
        _frozen(np.concatenate([block_vecs, part_vecs])),
    )


def _pattern(z: Sequence[int]) -> tuple[np.ndarray, tuple[int, ...]]:
    """The distinct observation indices of z, sorted, and how often each
    occurs: the map from plan positions to labels, and the plan's key n."""
    tally = Counter(z)
    labels = sorted(tally)
    return np.array(labels, dtype=np.intp), tuple(tally[i] for i in labels)


def _recursion(
    kernel: ObservationKernel, z: Sequence[int], prune: bool, c_cap: int
) -> tuple[np.ndarray, tuple[int, ...], _Plan, np.ndarray]:
    """The labels, label counts and plan of the observation indices z, and
    the group vector of each of the plan's blocks, stacked in block order.

    Blocks hold at most kernel.m_max labels when pruning and any number
    otherwise; the vectors of those past m_max are zero.
    """
    labels, n = _pattern(z)
    m = len(z)
    plan = _plan(n, min(kernel.m_max, m) if prune else m, min(c_cap, m))
    d = kernel.state_space.size
    vectors = [np.zeros((0, d))] + [kernel.group_vectors(labels[rows]) for rows in plan.blocks]
    return labels, n, plan, np.concatenate(vectors)


def _chunks(state: np.ndarray, rows: int):
    """(start, stop) ranges over pairs sorted by state, of at most `rows`
    pairs each and cut only where the state changes; a state with more
    pairs than that gets a range of its own."""
    lo, count = 0, len(state)
    while lo < count:
        hi = lo + rows
        if hi >= count:
            hi = count
        elif state[hi - 1] == state[hi]:
            cut = int(np.searchsorted(state, state[hi], side="left"))
            hi = cut if cut > lo else int(np.searchsorted(state, state[hi], side="right"))
        yield lo, hi
        lo = hi


def _levels(plan: _Plan, vectors: np.ndarray, values: np.ndarray, top: int) -> _Levels:
    """Levels 0..top of the sum over clutter parts c of values[c] *
    prod_z C(n_z, c_z) * f(n - c), as finite_pp.as_levels views of one
    array.

    f(S) sums prod_blocks v_b[h] over the set partitions of S, and its
    level k holds the partitions into k blocks. Choosing first the block
    that holds one copy of S's smallest label, F_k(S) = sum over S's
    pairs of coef * v_b[h] * F_(k-1)(S - b), so level k of every state
    comes from level k - 1 of every state: one gather, one
    finite_pp.times_linear and one bincount of the transposed rows
    (finite_pp._bin), which adds in input order, each state's pairs in
    their fixed order. Blocks whose vector is zero, those past m_max when
    not pruning, therefore add exact zeros. Only pairs whose rest can be
    nonzero at level k - 1, of k - 1 to (k - 1) * (largest block) labels,
    are taken, in chunks of about CHUNK_ENTRIES row entries cut at state
    boundaries: each state's sum stays in one chunk, in the same order, so
    chunking changes no bit.
    """
    count, d = len(plan.sizes), vectors.shape[1]
    cap = plan.blocks[-1].shape[1] if plan.blocks else 0
    weights = plan.part_coef * values
    reach = plan.sizes[plan.rest]
    level = np.zeros((count, 1))
    level[0] = 1.0
    out = as_levels(np.empty(math.comb(d + top, top)), d, top)
    for k in range(top + 1):
        if k:
            on = np.nonzero((reach >= k - 1) & (reach <= (k - 1) * cap))[0]
            width = math.comb(d + k - 1, k)
            state = plan.state[on]
            below, level = level, np.zeros((count, width))
            for lo, hi in _chunks(state, max(1, CHUNK_ENTRIES // width)):
                at = on[lo:hi]
                t = times_linear(below[plan.rest[at]], vectors[plan.block[at]], k)
                first, last = int(state[lo]), int(state[hi - 1]) + 1
                rows = t * plan.coef[at, None]
                level[first:last] = _bin(state[lo:hi] - first, rows.T, last - first).T
        out[k][...] = (weights[:, None] * level[plan.part_rest]).sum(axis=0)
    return out


def _partition_sums(plan: _Plan, s: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """f(S) and g(S) for every state S, by the product rule over the pairs.

    f(S) = sum over S's pairs of coef * s_b * f(S - b) sums prod_blocks s_b
    over the set partitions of S. g(S) = sum of coef * (v_b * f(S - b) +
    s_b * g(S - b)) sums v_i * prod_(j != i) s_j over the blocks i of each
    partition. States are taken by size, so each rest is done before the
    states it serves; no scalar is ever divided by.
    """
    count = len(plan.sizes)
    f, g = np.zeros(count), np.zeros((count, v.shape[1]))
    f[0] = 1.0
    ends = np.searchsorted(plan.sizes[plan.state], np.arange(plan.sizes[-1] + 1), side="right")
    for a, b in zip(ends[:-1].tolist(), ends[1:].tolist()):
        state, block, rest, coef = (x[a:b] for x in (plan.state, plan.block, plan.rest, plan.coef))
        terms = v[block] * f[rest, None] + s[block, None] * g[rest]
        g += _bin(state, (coef[:, None] * terms).T, count).T
        f += np.bincount(state, coef * s[block] * f[rest], minlength=count)
    return f, g


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


def _functional(
    kernel: ObservationKernel,
    clutter: MultiObjectDensity | None,
    z: tuple[int, ...],
    prune: bool,
    n_max: int,
) -> tuple[int, list[np.ndarray]]:
    """S and the packed levels W_0..W_K of 2^-S L[h], the likelihood
    functional of the sorted observation indices z, K = min(n_max, |z|).

    L[h] sums, over the clutter parts c of z within clutter.n_max and the
    set partitions of the rest, the clutter density at c times the
    product of the blocks' group vectors v_b[h]; W_k holds the partitions
    into k blocks. _levels sums it by the recursion over z's sub-multisets
    (_plan). Each label z gets an exponent e_z (_exponents). Every group
    vector and clutter value is divided by 2 to the sum of e_z over its
    labels, exactly, and every term covers each label of z once, so each
    term is divided by 2^S with S = sum_z n_z e_z: a product of many small
    factors stays in range.
    """
    labels, n, plan, vectors = _recursion(
        kernel, z, prune, 0 if clutter is None else clutter.n_max
    )
    if clutter is None:  # the one clutter part is empty
        values = np.ones(1)
    else:
        values = np.concatenate([clutter.entries(labels[rows]) for rows in plan.parts])
    peaks = np.concatenate([np.abs(vectors).max(axis=1, initial=0.0), np.abs(values)])
    exponents = _exponents(plan.members, peaks)
    shifts = plan.members @ exponents
    vectors = np.ldexp(vectors, -shifts[: len(vectors), None])
    values = np.ldexp(values, -shifts[len(vectors) :])
    return int(exponents @ n), _levels(plan, vectors, values, min(n_max, len(z)))


@functools.lru_cache(maxsize=64)
def _likelihood(
    kernel: ObservationKernel,
    clutter: MultiObjectDensity | None,
    z: tuple[int, ...],
    prune: bool,
    n_max: int,
) -> tuple[int, np.ndarray]:
    """S and 2^-S l_Z, levels 0..n_max concatenated: the Janossy likelihood
    g(Z | alpha) of the sorted observation indices z at every multiset
    alpha of at most n_max objects.

    l_Z = finite_pp.multiply(W, exp(p0[h])), W from _functional: each
    object not in a block of the partition is missed. It depends on Z and
    the sensor model only, so an update is the prior's coefficients times
    l_Z. The array is frozen, since the cache hands it to every caller.
    """
    shift, levels = _functional(kernel, clutter, z, prune, n_max)
    p0 = kernel.tables[0]
    ell = multiply(levels, exp_coefficients(p0, n_max), n_max, p0.size).flat
    return shift, _frozen(ell)


def _positive(evidence: float, Z: MeasurementSet) -> float:
    """The scaled evidence, or ZeroEvidence if it is not positive."""
    if not evidence > 0.0:
        raise ZeroEvidence(f"measurement set {list(Z)!r} has zero likelihood")
    return evidence


def _log_scaled(value: float, shift: int) -> float:
    """log(value * 2^shift) from frexp, so the scaled value may lie far
    below the smallest double or above the largest."""
    mantissa, exponent = math.frexp(value)
    return math.log(mantissa) + (exponent + shift) * math.log(2.0)


def _update_flat(
    flat: np.ndarray,
    n_max: int,
    kernel: ObservationKernel,
    clutter: MultiObjectDensity | None,
    Z: MeasurementSet,
    prune: bool = True,
) -> tuple[np.ndarray, float]:
    """The posterior's flat coefficients and the log evidence of Z, for the
    prior's flat coefficients of levels 0..n_max on the kernel's state
    space: the prior times the Janossy likelihood l_Z (_likelihood), over
    the evidence sum_alpha prior(alpha) l_Z(alpha) / alpha!. The spaces are
    the caller's to check."""
    z = tuple(sorted(kernel.obs_space.indices(Z)))
    shift, ell = _likelihood(kernel, clutter, z, prune, n_max)
    joint = flat * ell
    d = kernel.state_space.size
    evidence = _positive(float(joint @ inverse_factorials(d, n_max)), Z)
    return joint / evidence, _log_scaled(evidence, shift)


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
    posterior coefficients are the prior's times the Janossy likelihood l_Z
    (_likelihood), over the evidence sum_alpha prior(alpha) l_Z(alpha) /
    alpha!. The returned intensity is the first factorial moment of the
    computed density; posterior_intensity_clutter evaluates the same
    quantity from the partition sum directly.
    """
    _check_update_spaces(prior, kernel, clutter)
    flat, log_evidence = _update_flat(prior.flat, prior.n_max, kernel, clutter, Z, prune)
    density = MultiObjectDensity._from_flat(prior.space, flat, prior.n_max, prior.truncation_mass)
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

    This route does not take the update's: it builds the levels W_k of
    the likelihood functional afresh (_functional, uncached), the prior's
    variations D_k at the missed-detection profile and the scaled evidence
    E = sum_k pairings(D_k, W_k). Level k of the block functional
    B = W / E contributes its appended terms, p0(x) times D_(k+1) shifted
    by e_x and paired with B_k, and its replaced terms. Those sum v_i(x)
    prod_(j != i) v_j[h] over the blocks of each term: prod_j v_j[h]
    differentiated along e_x. So they pair D_k * B_k, shifted by e_x, with
    every multiset of level k - 1.
    """
    _check_update_spaces(prior, kernel, clutter)
    z = tuple(sorted(kernel.obs_space.indices(Z)))
    _, levels = _functional(kernel, clutter, z, prune, prior.n_max)
    p0 = kernel.tables[0]
    d = p0.size
    # the appended terms read one variation past the largest block count
    D = derivatives(prior.packed, p0, len(levels))
    evidence = sum(float(pairings(D[k], w[None], d, k)[0]) for k, w in enumerate(levels))
    evidence = _positive(evidence, Z)
    block = [w / evidence for w in levels]
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


def _poisson_update(mu, kernel, Z, prune: bool):
    """Z's plan without clutter, its group vectors scaled by 2^-e per label,
    the closed-form posterior intensity, and S and the partition sum 2^-S
    times the one it divides by.

    M_1(x) = mu(x) * sum over partitions of [prod_i mu[P_i] * p0(x) +
    sum_i prod_(j != i) mu[P_j] * P_i(x)], normalized by the partition sum
    of plain products; _partition_sums gives both sums as f(Z) and g(Z),
    with no block divided by its mu[P_i], so zero-mass blocks stay harmless.
    Each block's vector and scalar mu[P_b] are scaled as in _functional,
    with the scalars as the peaks, since they bound the entries of
    mu * P_b: every term of f(Z) and g(Z) is divided by 2^S, which the
    intensity cancels, and a product of many block scalars stays in range.
    """
    _, n, plan, vectors = _recursion(kernel, kernel.obs_space.indices(Z), prune, 0)
    s = vectors @ mu
    exponents = _exponents(plan.members, np.append(s, 1.0))  # one empty clutter part
    shifts = (plan.members @ exponents)[: len(s)]
    vectors, s = np.ldexp(vectors, -shifts[:, None]), np.ldexp(s, -shifts)
    f, g = _partition_sums(plan, s, vectors)
    total = _positive(float(f[-1]), Z)
    intensity = mu * (total * kernel.tables[0] + g[-1]) / total
    return plan, vectors, intensity, int(exponents @ n), total


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
    plan, vectors, intensity, shift, partition_total = _poisson_update(mu, kernel, Z, prune)
    d = kernel.state_space.size
    nu = mu * p0
    scale = math.exp(-float(nu.sum())) / partition_total
    top = min(n_max, len(Z))
    blocks = as_levels(_levels(plan, mu * vectors, np.ones(1), top).flat * scale, d, top)
    flat = multiply(blocks, exp_coefficients(nu, n_max), n_max, d).flat
    density = MultiObjectDensity._from_flat(kernel.state_space, flat, n_max)
    density.truncation_mass = max(0.0, 1.0 - density.total_mass())
    log_evidence = float(mu @ (p0 - 1.0)) + _log_scaled(partition_total, shift)
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
    return _poisson_update(mu, kernel, Z, prune)[2]
