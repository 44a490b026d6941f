"""Finite-space point processes as truncated generating functionals.

A multi-object state on a finite space of d points is a truncated
generating functional

    G(psi) = sum_n (1/n!) sum_{x_1..x_n} p_n(x_1..x_n) psi(x_1)...psi(x_n),

whose coefficient tensors p_n are symmetric, so G is a polynomial in d
variables. A density stores each p_n packed: one coefficient c(alpha) per
index multiset, keyed by its count vector alpha (|alpha| = n), and
c(alpha) stands for the n!/alpha! dense entries of its orbit. All integrals
are sums under the counting measure, so a Dirac increment is a one-hot
vector and a differential is a shift of the coefficients.

The layout is known to this module alone: the index tables, pack/unpack
and the kernels the engines call. multiply() is the one product of two
functionals (superposition, prediction and the update numerators),
linear_products() the coefficients of products of linear functionals,
exp_coefficients() those of exp(v[h]), derivatives() the variations of a
functional at a base test function, pairings() their values at given
increments, and substitute() the functional at a linear map of its
argument, which applies a matrix on every axis of each level. The index
tables walk the levels as a tree (each multiset followed by its
extensions), so none sorts and none grows with the square of a level.
tensors/tensor(n) is a dense (d,)*n view, unpacked on first access and
cached, for JSON I/O, sampling and the oracles; evaluate()
and contract() work on it and stay separate from the engines. janossy()
and moment() do not: they read G(0) and G(1) off the packed levels. The
constructor packs every array by orbit mean (symmetrize_input=True) or
requires it exactly symmetric. Every orbit mean and symmetry check in the
package, dense kernel tables included, is one routine over the index
tables. poisson() and the symmetrizing constructor refuse a cap past
MAX_TENSOR_AXES, the most axes a level can have beside one row axis.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

NORMALIZATION_TOL = 1e-10
POISSON_N_MAX_CAP = 16
# numpy arrays have at most 64 axes (32 before numpy 2); the orbit pass and
# the kernel and TensorMap tables put one row axis before a level's n axes.
MAX_TENSOR_AXES = (64 if np.lib.NumpyVersion(np.__version__) >= "2.0.0" else 32) - 1


class TruncationOverflow(RuntimeError):
    """Probability mass past the cardinality cap exceeded the tolerance."""

    def __init__(self, message: str, dropped: float, step: int | None = None):
        super().__init__(message)
        self.dropped = dropped
        self.step = step


@dataclass(frozen=True)
class FiniteSpace:
    """An ordered finite set of labelled points."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.labels) == 0:
            raise ValueError("space needs at least one point")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("labels must be distinct")

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, point: str | int) -> int:
        if isinstance(point, str):
            try:
                return self.labels.index(point)
            except ValueError:
                raise KeyError(f"unknown label {point!r}") from None
        idx = int(point)
        if not 0 <= idx < self.size:
            raise KeyError(f"index {idx} outside space of size {self.size}")
        return idx

    def indices(self, points: Iterable[str | int]) -> tuple[int, ...]:
        return tuple(self.index(p) for p in points)

    def dirac(self, point: str | int) -> np.ndarray:
        out = np.zeros(self.size)
        out[self.index(point)] = 1.0
        return out

    def constant(self, value: float) -> np.ndarray:
        return np.full(self.size, float(value))


def _check_axes(n_max: int) -> None:
    """Refuse a cap whose top level, with one row axis, passes numpy's limit."""
    if n_max > MAX_TENSOR_AXES:
        raise ValueError(f"n_max={n_max} is over the limit of {MAX_TENSOR_AXES} tensor axes")


def symmetrize(arr: np.ndarray) -> np.ndarray:
    """Symmetrize over all axes at once."""
    arr = np.asarray(arr, dtype=float)
    return _symmetrized(arr, arr.ndim)


def is_symmetric(arr: np.ndarray) -> bool:
    """Exact (bitwise) symmetry over all axes at once."""
    arr = np.asarray(arr)
    return arr.shape == arr.shape[:1] * arr.ndim and _is_symmetric(arr, arr.ndim)


@dataclass(frozen=True)
class PoissonSpec:
    """Intensity vector plus the tail mass allowed past the truncation."""

    intensity: np.ndarray
    tail_tol: float = 1e-12

    def __post_init__(self) -> None:
        mu = np.asarray(self.intensity, dtype=float)
        if mu.ndim != 1 or np.any(mu < 0) or not np.all(np.isfinite(mu)):
            raise ValueError("intensity must be a finite nonnegative vector")
        object.__setattr__(self, "intensity", mu)
        if not 0 < self.tail_tol < 1:
            raise ValueError("tail_tol must lie in (0, 1)")


# ---------------------------------------------------------------------------
# packed layout
# ---------------------------------------------------------------------------
#
# Level n holds one entry per index multiset of size n, in lexicographic
# order of the sorted index tuples (the order of
# itertools.combinations_with_replacement(range(d), n)). The levels form a
# tree: level n + 1 lists, for each multiset of level n in turn, its
# extensions by each index from its largest on. Every table walks that
# tree level by level with numpy gathers, so none sorts, none loops per
# entry, and none holds d entries per multiset beyond the (m, d) shift
# tables; all are cached per layout.


class _Level(NamedTuple):
    tuples: np.ndarray  # (m, n) sorted index tuples, in layout order
    parent: np.ndarray  # position at level n - 1 without the largest index
    last: np.ndarray  # the largest index of each multiset (0 at level 0)
    base: np.ndarray  # its extension by x sits at base + x in level n + 1
    run: np.ndarray  # how often the largest index occurs (0 at level 0)
    fact: np.ndarray  # alpha!, an exact integer in floats
    inv_fact: np.ndarray  # 1 / alpha!


@functools.lru_cache(maxsize=None)
def _level(d: int, n: int) -> _Level:
    if n == 0:
        zero, one = np.zeros(1, dtype=np.intp), np.ones(1)
        return _Level(np.zeros((1, 0), dtype=np.intp), zero, zero, zero, zero, one, one)
    prev = _level(d, n - 1)
    parent, last = np.nonzero(np.arange(d) >= prev.last[:, None])
    run = np.where(last == prev.last[parent], prev.run[parent] + 1, 1)
    fact = prev.fact[parent] * run
    tuples = np.concatenate([prev.tuples[parent], last[:, None]], axis=1)
    # extensions by last..d-1 follow those of every earlier multiset
    base = np.cumsum(d - last) - d
    return _Level(tuples, parent, last, base, run, fact, 1.0 / fact)


def _locate(tuples: np.ndarray, d: int) -> np.ndarray:
    """Layout position within its level of each sorted tuple (last axis),
    walking the tree from the empty multiset."""
    pos = np.zeros(tuples.shape[:-1], dtype=np.intp)
    for k in range(tuples.shape[-1]):
        lv = _level(d, k)
        pos = lv.base[pos] + tuples[..., k]
    return pos


@functools.lru_cache(maxsize=64)
def _offsets(d: int, n: int) -> np.ndarray:
    """Start of each level 0..n, and the end, in the levels concatenated."""
    return np.cumsum([0] + [math.comb(d + k - 1, k) for k in range(n + 1)])


@functools.lru_cache(maxsize=64)
def _shift(d: int, n: int) -> np.ndarray:
    """(m_n, d) positions at level n + 1 of alpha + e_x.

    For x from alpha's largest index l on, alpha + e_x is one of alpha's
    extensions. Below l it is the extension by l of (alpha - e_l) + e_x,
    one level down.
    """
    lv = _level(d, n)
    last = lv.last[:, None]
    out = lv.base[:, None] + np.arange(d)
    if n:
        low = _shift(d, n - 1)[lv.parent]
        out = np.where(np.arange(d) < last, lv.base[low] + last, out)
    return out


@functools.lru_cache(maxsize=64)
def _drop(d: int, n: int) -> np.ndarray:
    """(m_n, n) positions at level n - 1 of alpha's tuple with entry p
    removed, for each position p: the parent for the last entry, and for
    an earlier one the extension by alpha's largest index of the parent
    with that entry removed."""
    lv = _level(d, n)
    if n == 1:
        return lv.parent[:, None]
    below = _level(d, n - 2)
    cut = _drop(d, n - 1)[lv.parent]
    inner = below.base[cut] + lv.last[:, None]
    return np.concatenate([inner, lv.parent[:, None]], axis=1)


@functools.lru_cache(maxsize=64)
def _lift(d: int, n: int) -> np.ndarray:
    """(m_n, n) rows (alpha - e_x, x) of a (m_(n-1) * d)-row array, x at
    each position of alpha's tuple."""
    return _drop(d, n) * d + _level(d, n).tuples


class _Stack(NamedTuple):
    """Levels 0..n concatenated; parent positions index the concatenation."""

    columns: np.ndarray  # (n, N) sorted tuples padded with d, by columns
    level: np.ndarray
    parent: np.ndarray
    last: np.ndarray
    fact: np.ndarray
    inv_fact: np.ndarray


@functools.lru_cache(maxsize=64)
def _stacked(d: int, n: int) -> _Stack:
    """The levels' tables concatenated. The tuples are stored by columns, so
    a product over a tuple reduces across rows."""
    off = _offsets(d, n)
    levels = [_level(d, k) for k in range(n + 1)]
    columns = np.full((n, off[-1]), d, dtype=np.intp)
    for k in range(1, n + 1):
        columns[:k, off[k] : off[k + 1]] = levels[k].tuples.T
    return _Stack(
        columns,
        np.repeat(np.arange(n + 1), np.diff(off)),
        np.concatenate([off[max(k - 1, 0)] + lv.parent for k, lv in enumerate(levels)]),
        np.concatenate([lv.last for lv in levels]),
        np.concatenate([lv.fact for lv in levels]),
        np.concatenate([lv.inv_fact for lv in levels]),
    )


@functools.lru_cache(maxsize=64)
def _grow(d: int, n: int) -> np.ndarray:
    """(N, d) positions of beta + e_y in levels 0..n + 1 concatenated, for
    every beta of levels 0..n concatenated."""
    off = _offsets(d, n + 1)
    return np.concatenate([off[k + 1] + _shift(d, k) for k in range(n + 1)])


@functools.lru_cache(maxsize=64)
def _pairs(d: int, n: int, top: int) -> tuple[np.ndarray, ...]:
    """Every pair (beta, gamma) with |beta| <= top and |beta| + |gamma| <= n,
    ordered by beta and then gamma in layout order: the positions of beta,
    gamma and alpha = beta + gamma in levels 0..n concatenated, and the
    weight alpha!/(beta! gamma!). Pairs with a larger top extend this
    list, so sums over it do not depend on top."""
    _, level, parent, last, fact, _ = _stacked(d, n)
    off = _offsets(d, n)
    # each beta meets every gamma up to n - |beta|
    width = off[n + 1 - level[: off[top + 1]]]
    start = np.cumsum(width) - width
    bi = np.repeat(np.arange(len(width)), width)
    gi = np.arange(len(bi)) - np.repeat(start, width)
    # beta + gamma is beta + parent(gamma), grown by gamma's largest index;
    # the pair (beta, parent(gamma)) sits at start[beta] + parent(gamma)
    ti = bi.copy()
    if n:
        grow = _grow(d, n - 1)
        on = level[gi]
        for k in range(1, n + 1):
            at = np.nonzero(on == k)[0]
            g = gi[at]
            ti[at] = grow[ti[start[bi[at]] + parent[g]], last[g]]
    # exact integers, so the quotient is exact
    return bi, gi, ti, fact[ti] / (fact[bi] * fact[gi])


@functools.lru_cache(maxsize=64)
def _dense_index(d: int, n: int) -> np.ndarray:
    """Packed position of every dense entry of shape (d,)*n, flattened."""
    if n == 0:
        return np.zeros(1, dtype=np.intp)
    return _shift(d, n - 1)[_dense_index(d, n - 1)].reshape(-1)


def _rows(arr: np.ndarray, n: int) -> tuple[np.ndarray, int]:
    """arr as one row of d**n entries per index of its leading axes (a
    kernel's states, a map's outputs), and d, the length of its trailing n
    axes, over which the orbit routines below act."""
    d = arr.shape[-1] if n else 1
    if arr.shape[arr.ndim - n :] != (d,) * n:
        raise ValueError(f"the trailing {n} axes of shape {arr.shape} differ in length")
    return arr.reshape(-1, d**n), d


def _orbit_mean(arr: np.ndarray, n: int) -> np.ndarray:
    """Level n packed by orbit mean over arr's trailing n axes, one row per
    leading index. Sums accumulate in dense order and are divided by the
    exact orbit sizes n!/alpha!, so rows do not affect each other."""
    rows, d = _rows(arr, n)
    if n < 2:
        return rows.copy()
    orbit = np.rint(math.factorial(n) * _level(d, n).inv_fact)
    key = _dense_index(d, n)
    return np.stack([np.bincount(key, weights=row) for row in rows]) / orbit


def _canonical(arr: np.ndarray, n: int) -> np.ndarray:
    """Level n packed from the entries at the sorted index tuples of arr's
    trailing n axes, one row per leading index."""
    rows, d = _rows(arr, n)
    return rows[:, _level(d, n).tuples @ d ** np.arange(n - 1, -1, -1)]


def _is_symmetric(arr: np.ndarray, n: int) -> bool:
    """Exact symmetry in the trailing n axes: each row equals the dense
    expansion of its canonical entries."""
    rows, d = _rows(arr, n)
    return np.array_equal(_canonical(arr, n)[:, _dense_index(d, n)], rows)


def _symmetrized(arr: np.ndarray, n: int) -> np.ndarray:
    """arr with each entry replaced by its orbit mean over the last n axes,
    in C order (a fancy-indexed gather over rows would not be)."""
    d = arr.shape[-1] if n else 1
    return np.take(_orbit_mean(arr, n), _dense_index(d, n), axis=1).reshape(arr.shape)


def _pack(arr: np.ndarray, n: int, mean: bool) -> np.ndarray:
    """One packed level from a dense (d,)*n array: the orbit mean, or the
    entry at each sorted index tuple."""
    return (_orbit_mean if mean else _canonical)(arr, n)[0]


def _unpack(entries: np.ndarray, d: int, n: int) -> np.ndarray:
    """The dense (d,)*n tensor of one packed level."""
    return entries[_dense_index(d, n)].reshape((d,) * n)


class MultiObjectDensity:
    """Truncated coefficients of a multi-object generating functional.

    packed[n] holds level n, one entry per index multiset of size n (see
    the module docstring); tensors[n] is its dense (d,)*n view, and
    tensors[0] a scalar array. Entries are ordinarily nonnegative
    (probability densities) but may be any finite real when the instance
    carries an unnormalized numerator. truncation_mass records probability
    dropped past n_max by whatever operation built the instance.
    """

    def __init__(
        self,
        space: FiniteSpace,
        tensors: Sequence[np.ndarray | float | Sequence],
        *,
        symmetrize_input: bool = False,
        truncation_mass: float = 0.0,
    ):
        if symmetrize_input:
            _check_axes(len(tensors) - 1)
        d = space.size
        packed: list[np.ndarray] = []
        for n, raw in enumerate(tensors):
            arr = np.asarray(raw, dtype=float)
            if arr.shape != (d,) * n:
                raise ValueError(
                    f"tensor {n} has shape {arr.shape}, expected {(d,) * n}"
                )
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"tensor {n} contains non-finite entries")
            if not symmetrize_input and not _is_symmetric(arr, n):
                raise ValueError(f"tensor {n} is not symmetric")
            packed.append(_pack(arr, n, symmetrize_input))
        if not packed:
            raise ValueError("at least the cardinality-0 tensor is required")
        self._assign(space, packed, truncation_mass)

    @classmethod
    def _from_packed(
        cls, space: FiniteSpace, packed: list[np.ndarray], truncation_mass: float = 0.0
    ) -> "MultiObjectDensity":
        """A density on packed levels the caller built; nothing is checked."""
        self = cls.__new__(cls)
        self._assign(space, packed, truncation_mass)
        return self

    def _assign(self, space, packed, truncation_mass) -> None:
        self.space = space
        self.packed = packed
        self.truncation_mass = float(truncation_mass)
        self._dense: list[np.ndarray] | None = None

    @property
    def n_max(self) -> int:
        return len(self.packed) - 1

    @property
    def tensors(self) -> list[np.ndarray]:
        """Dense (d,)*n view of every level, read-only, built on first use."""
        if self._dense is None:
            d = self.space.size
            views = [_unpack(c, d, n) for n, c in enumerate(self.packed)]
            for v in views:
                v.flags.writeable = False
            self._dense = views
        return self._dense

    def tensor(self, n: int) -> np.ndarray:
        return self.tensors[n]

    def entry(self, points: Sequence[str | int]) -> float:
        """p_n(x_1..x_n) at one tuple of points, read from its packed level."""
        idx = np.sort(np.array(self.space.indices(points), dtype=np.intp))
        if idx.size > self.n_max:
            raise ValueError(f"tuple of length {idx.size} exceeds n_max={self.n_max}")
        return float(self.packed[idx.size][_locate(idx, self.space.size)])

    def total_mass(self) -> float:
        """G(1), read off the cardinality distribution; evaluate() is the oracle."""
        return float(self.cardinality_distribution().sum())

    def cardinality_distribution(self) -> np.ndarray:
        """sum over alpha of c(alpha)/alpha! per level."""
        d = self.space.size
        return np.array([c @ _level(d, n).inv_fact for n, c in enumerate(self.packed)])

    def is_normalized(self, tol: float = NORMALIZATION_TOL) -> bool:
        return abs(self.total_mass() - 1.0) <= tol

    def scaled(self, c: float) -> "MultiObjectDensity":
        return MultiObjectDensity._from_packed(
            self.space, [t * float(c) for t in self.packed], self.truncation_mass
        )

    def intensity_vector(self) -> np.ndarray:
        """First factorial moment, M_1 = sum over alpha of c(alpha) alpha/alpha!."""
        d, n = self.space.size, self.n_max
        stack = _stacked(d, n)
        # alpha_x counts the positions of alpha's tuple holding x; the
        # padding lands in bin d
        weights = np.tile(np.concatenate(self.packed) * stack.inv_fact, n)
        return np.bincount(stack.columns.reshape(-1), weights=weights, minlength=d + 1)[:d]

    def to_json(self) -> str:
        doc = {
            "labels": list(self.space.labels),
            "n_max": self.n_max,
            "tensors": [t.reshape(-1).tolist() for t in self.tensors],
            "truncation_mass": self.truncation_mass,
        }
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "MultiObjectDensity":
        doc = json.loads(text)
        space = FiniteSpace(tuple(doc["labels"]))
        d = space.size
        tensors = [
            np.asarray(flat, dtype=float).reshape((d,) * n)
            for n, flat in enumerate(doc["tensors"])
        ]
        if len(tensors) != doc["n_max"] + 1:
            raise ValueError("tensor count disagrees with n_max")
        return cls(
            space, tensors, truncation_mass=float(doc.get("truncation_mass", 0.0))
        )


def _as_test_function(space: FiniteSpace, psi: np.ndarray | Sequence[float]) -> np.ndarray:
    arr = np.asarray(psi, dtype=float)
    if arr.shape != (space.size,):
        raise ValueError(
            f"test function has shape {arr.shape}, expected ({space.size},)"
        )
    if not np.all(np.isfinite(arr)):
        raise ValueError("test function contains non-finite entries")
    return arr


def evaluate(P: MultiObjectDensity, psi: np.ndarray | Sequence[float]) -> float:
    """G(psi): contract every dense tensor with psi and sum with 1/n! weights."""
    psi = _as_test_function(P.space, psi)
    total = float(P.tensors[0])
    for n in range(1, P.n_max + 1):
        t = P.tensors[n]
        for _ in range(n):
            t = t @ psi
        total += float(t) / math.factorial(n)
    return total


def contract(tensors, increments, base: np.ndarray, free: int = 0) -> np.ndarray:
    """sum_n c_n[increments, base^(n-k-free)] / (n-k-free)!, free axes open.

    The dense counterpart of derivatives() and pairings(), for the exact
    functionals of functional_calculus. With free=0 this is the k-th
    variation at base of sum_n (1/n!) c_n[psi^n]. n is each tensor's axis
    count, not its list position. Increments, then base, are contracted on
    leading axes through 2-D views, so the free axes are the trailing ones.
    """
    k = len(increments)
    last = tensors[-1]
    total = np.zeros(last.shape[last.ndim - free :])
    for t in tensors:
        r = t.ndim - k - free
        if r < 0:
            continue
        for v in itertools.chain(increments, [base] * r):
            t = v @ t.reshape(v.size, -1)
        total = total + t.reshape(total.shape) / math.factorial(r)
    return total


def differentiate(P: MultiObjectDensity, x: str | int) -> MultiObjectDensity:
    """Differential along a Dirac at x, as a coefficient shift.

    The derivative of a truncated generating functional along a one-hot
    increment is again one, with p'_n(x_1..x_n) = p_{n+1}(x, x_1..x_n): a
    gather of the entries at alpha + e_x. Differentiating past n_max yields
    the zero functional, not an error.
    """
    ix = P.space.index(x)
    d = P.space.size
    if P.n_max == 0:
        return MultiObjectDensity._from_packed(P.space, [np.zeros(1)], P.truncation_mass)
    shifted = [P.packed[n + 1][_shift(d, n)[:, ix]] for n in range(P.n_max)]
    return MultiObjectDensity._from_packed(P.space, shifted, P.truncation_mass)


def janossy(P: MultiObjectDensity, points: Sequence[str | int]) -> float:
    """Density value at an ordered tuple: differentiate repeatedly, then psi=0."""
    idx = P.space.indices(points)
    if len(idx) > P.n_max:
        raise ValueError(f"tuple of length {len(idx)} exceeds n_max={P.n_max}")
    cur = P
    for ix in idx:
        cur = differentiate(cur, ix)
    return float(cur.packed[0][0])  # G(0) is the level-0 entry


def moment(P: MultiObjectDensity, points: Sequence[str | int]) -> float:
    """Factorial moment at an ordered tuple: differentiate, then psi=1."""
    cur = P
    for p in points:
        cur = differentiate(cur, p)
    return cur.total_mass()  # G(1)


def scalar_product(P1: MultiObjectDensity, P2: MultiObjectDensity) -> float:
    """sum_n (1/n!) <p_{1,n}, p_{2,n}>, zero-padding the shorter family."""
    if P1.space.labels != P2.space.labels:
        raise ValueError("scalar product requires a common space")
    d = P1.space.size
    total = 0.0
    for n in range(min(P1.n_max, P2.n_max) + 1):
        total += float((P1.packed[n] * P2.packed[n]) @ _level(d, n).inv_fact)
    return total


def _poisson_tail(lam: float, n: int) -> float:
    """P[Poisson(lam) > n], summed directly."""
    acc = 0.0
    term = math.exp(-lam)
    for k in range(n + 1):
        if k > 0:
            term *= lam / k
        acc += term
    return max(0.0, 1.0 - acc)


def poisson(
    spec: PoissonSpec | np.ndarray | Sequence[float],
    space: FiniteSpace,
    n_max: int | None = None,
) -> MultiObjectDensity:
    """Truncated Poisson process: p_n = exp(-lam) mu(x_1)...mu(x_n).

    With n_max omitted, the smallest truncation whose tail mass stays under
    spec.tail_tol is chosen; if that needs more than POISSON_N_MAX_CAP
    cardinalities the construction refuses.
    """
    if not isinstance(spec, PoissonSpec):
        spec = PoissonSpec(np.asarray(spec, dtype=float))
    mu = _as_test_function(space, spec.intensity)
    lam = float(mu.sum())
    n_max = _poisson_cap(spec, lam, n_max)
    scale = math.exp(-lam)
    packed = [c * scale for c in exp_coefficients(mu, n_max)]
    return MultiObjectDensity._from_packed(space, packed, _poisson_tail(lam, n_max))


def _poisson_cap(spec: PoissonSpec, lam: float, n_max: int | None) -> int:
    """poisson()'s cardinality cap at total intensity lam, checked before
    any tensor is built (bayes.poisson_posterior shares it)."""
    if n_max is None:
        n_max = 0
        while _poisson_tail(lam, n_max) >= spec.tail_tol:
            n_max += 1
            if n_max > POISSON_N_MAX_CAP:
                raise ValueError(
                    f"tail tolerance {spec.tail_tol} needs n_max > "
                    f"{POISSON_N_MAX_CAP} at total intensity {lam}"
                )
    elif n_max < 0:
        raise ValueError("n_max must be nonnegative")
    _check_axes(n_max)
    return n_max


def bernoulli(
    q: float, pdf: np.ndarray | Sequence[float], space: FiniteSpace
) -> MultiObjectDensity:
    """At most one object: present with probability q, located per pdf."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    f = _as_test_function(space, pdf)
    if np.any(f < 0) or abs(f.sum() - 1.0) > NORMALIZATION_TOL:
        raise ValueError("pdf must be nonnegative and sum to 1")
    return MultiObjectDensity(space, [1.0 - q, q * f])


# ---------------------------------------------------------------------------
# kernels on packed levels
# ---------------------------------------------------------------------------
#
# A list of packed levels p_0..p_n stands for the functional
# sum over alpha of p(alpha) h^alpha / alpha!, so a product of functionals
# is a convolution of count vectors and a variation a weighted sum over
# them.


def _levels(flat: np.ndarray, offsets: np.ndarray) -> list[np.ndarray]:
    """Concatenated levels split at offsets (np.split costs more per call)."""
    return [flat[a:b] for a, b in zip(offsets[:-1].tolist(), offsets[1:].tolist())]


def _powers(v: np.ndarray, n: int) -> np.ndarray:
    """v^alpha for every alpha of levels 0..n concatenated."""
    return np.prod(np.append(v, 1.0)[_stacked(v.size, n).columns], axis=0)


def exp_coefficients(v: np.ndarray, n: int) -> list[np.ndarray]:
    """Levels 0..n of exp(v[h]): the entry at alpha is v^alpha."""
    return _levels(_powers(v, n), _offsets(v.size, n))


@functools.lru_cache(maxsize=64)
def _product_index(d: int, n_p: int, n_r: int, cap: int) -> tuple[np.ndarray, ...]:
    """The pairs of _pairs whose beta and gamma fit factors with n_p and
    n_r levels, for a product capped at cap."""
    pairs = _pairs(d, cap, min(n_p, cap))
    if n_r >= cap:
        return pairs  # every gamma fits: share the table
    keep = _stacked(d, cap).level[pairs[1]] <= n_r
    return tuple(a[keep] for a in pairs)


def multiply(
    p: Sequence[np.ndarray], r: Sequence[np.ndarray], cap: int, d: int
) -> list[np.ndarray]:
    """Levels 0..cap of the product of two functionals on d points.

    t(alpha) = sum over beta + gamma = alpha of alpha!/(beta! gamma!) *
    p(beta) * r(gamma); products past cap are dropped. Terms accumulate in a
    fixed order, so equal inputs give bitwise-equal outputs.
    """
    bi, gi, ti, weight = _product_index(d, len(p) - 1, len(r) - 1, cap)
    terms = weight * np.concatenate(p)[bi] * np.concatenate(r)[gi]
    off = _offsets(d, cap)
    return _levels(np.bincount(ti, weights=terms, minlength=off[-1]), off)


def linear_products(vectors: np.ndarray) -> np.ndarray:
    """Level k of prod_i v_i[h], one row per term of a (terms, k, d) stack.

    Multiplying by one linear functional v[h] maps t to
    t'(alpha) = sum_x alpha_x t(alpha - e_x) v(x), a sum over the positions
    of alpha's tuple; rows never mix.
    """
    terms, k, d = vectors.shape
    t = np.ones((terms, 1))
    for i in range(k):
        t = (t[:, _drop(d, i + 1)] * vectors[:, i, _level(d, i + 1).tuples]).sum(axis=2)
    return t


def derivatives(packed: Sequence[np.ndarray], base: np.ndarray, k_max: int) -> list[np.ndarray]:
    """D_0..D_k_max: the k-th variation of the functional at base, packed.

    D_k(beta) = sum over gamma of c(beta + gamma) base^gamma / gamma!, the
    symmetric k-tensor whose value at increments v_1..v_k is the variation
    along them. Levels past n_max are zero. Each entry sums its own terms
    in a fixed order, so D_k does not depend on k_max.
    """
    d, n = base.size, len(packed) - 1
    weights = _powers(base, n) * _stacked(d, n).inv_fact
    top = min(k_max, n)
    bi, gi, ti, _ = _pairs(d, n, top)
    off = _offsets(d, n)
    flat = np.bincount(bi, weights=np.concatenate(packed)[ti] * weights[gi], minlength=off[top + 1])
    return _levels(flat, off[: top + 2]) + [
        np.zeros(len(_level(d, k).inv_fact)) for k in range(top + 1, k_max + 1)
    ]


def pairings(
    level: np.ndarray, products: np.ndarray, d: int, k: int, free: bool = False
) -> np.ndarray:
    """sum over alpha of level(alpha) t(alpha) / alpha!, per row t of products.

    products holds level k on d points, one row per term. With level = D_k
    and rows from linear_products this is the variation along each row's
    increments. With free=True, level is D_(k+1) and one index stays open:
    entry [i, x] pairs row i with D_(k+1) shifted by e_x.
    """
    weighted = products * _level(d, k).inv_fact
    if free:
        return weighted @ level[_shift(d, k)]
    return (weighted * level).sum(axis=1)


def substitute(packed: Sequence[np.ndarray], matrix: np.ndarray) -> list[np.ndarray]:
    """Levels of the functional F(matrix^T h), (matrix^T h)(y) = sum_x
    matrix[x, y] h(x): level j is level j of F with matrix applied on every
    axis, (M^(x)j T)(x) = sum_y prod_i M[x_i, y_i] T(y).

    The substitution moves one factor at a time. F_i(u, h) = (1/i!) d^i/ds^i
    F(h + s matrix^T u) at s = 0 has u-level i, stored as one row per
    u-multiset over h-levels 0..n - i; F_(i+1) is 1/(i+1) times the sum over
    y of (matrix^T u)_y dF_i/dh_y, and F_i's h-level 0 is level i of the
    result. A step holds d times the entries of one row block, so nothing
    grows with the square of a level.
    """
    d, n = matrix.shape[0], len(packed) - 1
    t = np.concatenate(packed)[None, :]
    out = [t[:, 0]]
    for i in range(n):
        grow = _grow(d, n - i - 1)
        # row (a, x), column b: sum_y matrix[x, y] t[a, b + e_y]
        moved = (matrix @ t[:, grow.T]).reshape(-1, len(grow))
        # multiplying by u_x maps a to a + e_x: a sum over the positions of
        # the new row's tuple, as in linear_products
        t = moved[_lift(d, i + 1)].sum(axis=1) / (i + 1)
        out.append(t[:, 0])
    return out


def superpose(P1: MultiObjectDensity, P2: MultiObjectDensity) -> MultiObjectDensity:
    """Coefficients of the product functional G_1(psi) G_2(psi).

    The product is truncated at max(n_max1, n_max2), so superposing with the
    empty process returns the other density. The mass of the products
    dropped past the cap, where the cardinalities j + l exceed it, is added
    to both inputs' truncation masses.
    """
    if P1.space.labels != P2.space.labels:
        raise ValueError("superpose requires a common space")
    k_max = max(P1.n_max, P2.n_max)
    packed = multiply(P1.packed, P2.packed, k_max, P1.space.size)
    c1, c2 = P1.cardinality_distribution(), P2.cardinality_distribution()
    dropped = sum(float(c1[j] * c2[k_max + 1 - j :].sum()) for j in range(c1.size))
    mass = P1.truncation_mass + P2.truncation_mass + max(0.0, dropped)
    return MultiObjectDensity._from_packed(P1.space, packed, mass)
