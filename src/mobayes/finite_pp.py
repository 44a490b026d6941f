"""Finite-space point processes as truncated generating functionals.

A multi-object state on a finite space of d points is stored through its
coefficient tensors p_0, p_1, ..., p_{n_max}: p_n is a symmetric array of
shape (d,)*n and the functional value at a test function psi is

    G(psi) = sum_n (1/n!) sum_{x_1..x_n} p_n(x_1..x_n) psi(x_1)...psi(x_n).

All integrals are sums under the counting measure, so a Dirac increment is
just a one-hot vector. Tensors are kept exactly symmetric, and the
constructor is the one place that enforces it: symmetrize_input=True routes
every array through an orbit canonicalizer that assigns one value per index
multiset, so permutation identities hold bitwise, not merely to round-off.
Code that assembles tensors hands the constructor plain sums. contract() is
the one coefficient contraction the engines share, and product() the one
coefficient product of two functionals (superposition, prediction and the
update numerators); evaluate() stays separate for the oracles, which read a
density only through tensor(n), n_max, space and truncation_mass. poisson()
and the symmetrizing constructor refuse a cap past MAX_TENSOR_AXES, the
most axes an array can have while symmetrize indexes it.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

NORMALIZATION_TOL = 1e-10
POISSON_N_MAX_CAP = 16
# numpy arrays have at most 64 axes (32 before numpy 2), and symmetrizing an
# n-axis tensor goes through an (n + 1)-axis index array.
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


def symmetrize_axes(arr: np.ndarray, groups: Sequence[Sequence[int]]) -> np.ndarray:
    """Average arr over permutations within each axis group.

    The mean of every index orbit is computed once and written to all orbit
    positions, so the output is exactly invariant under those permutations.
    """
    arr = np.asarray(arr, dtype=float)
    if arr.ndim <= 1 or all(len(g) <= 1 for g in groups):
        return arr.copy()
    key, counts = _orbit_maps(arr.shape, tuple(tuple(g) for g in groups))
    flat = arr.reshape(-1)
    sums = np.bincount(key, weights=flat, minlength=flat.size)
    return (sums[key] / counts).reshape(arr.shape)


@functools.lru_cache(maxsize=128)
def _orbit_maps(shape: tuple[int, ...], groups: tuple[tuple[int, ...], ...]):
    """Canonical-position key and orbit size per entry, cached per layout.

    key[i] is the flat position of entry i's orbit representative (indices
    within each permutable axis group sorted); counts[i] is its orbit size.
    """
    idx = np.indices(shape).reshape(len(shape), -1)
    for group in groups:
        axes = list(group)
        if len(axes) > 1:
            idx[axes] = np.sort(idx[axes], axis=0)
    key = np.ravel_multi_index(tuple(idx), shape)
    counts = np.bincount(key, minlength=key.size)[key]
    return key, counts


def _check_axes(n_max: int) -> None:
    """Refuse a cardinality cap whose top tensor symmetrize cannot index."""
    if n_max > MAX_TENSOR_AXES:
        raise ValueError(f"n_max={n_max} is over the limit of {MAX_TENSOR_AXES} tensor axes")


def symmetrize(arr: np.ndarray) -> np.ndarray:
    """Symmetrize over all axes at once."""
    arr = np.asarray(arr, dtype=float)
    return symmetrize_axes(arr, [tuple(range(arr.ndim))])


def is_symmetric(arr: np.ndarray) -> bool:
    """Exact (bitwise) symmetry check via adjacent-transposition generators."""
    for i in range(arr.ndim - 1):
        axes = list(range(arr.ndim))
        axes[i], axes[i + 1] = axes[i + 1], axes[i]
        if not np.array_equal(arr, np.transpose(arr, axes)):
            return False
    return True


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


class MultiObjectDensity:
    """Truncated coefficient tensors of a multi-object generating functional.

    tensors[n] has shape (d,)*n; tensors[0] is a scalar array. Entries are
    ordinarily nonnegative (probability densities) but may be any finite
    real when the instance carries an unnormalized numerator.
    truncation_mass records probability dropped past n_max by whatever
    operation built the instance.
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
        self.space = space
        d = space.size
        fixed: list[np.ndarray] = []
        for n, raw in enumerate(tensors):
            arr = np.asarray(raw, dtype=float)
            if arr.shape != (d,) * n:
                raise ValueError(
                    f"tensor {n} has shape {arr.shape}, expected {(d,) * n}"
                )
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"tensor {n} contains non-finite entries")
            if n >= 2 and not symmetrize_input and not is_symmetric(arr):
                raise ValueError(f"tensor {n} is not symmetric")
            # symmetrize returns a fresh array, so only the other branch copies
            fixed.append(symmetrize(arr) if n >= 2 and symmetrize_input else arr.copy())
        if not fixed:
            raise ValueError("at least the cardinality-0 tensor is required")
        self.tensors = fixed
        self.truncation_mass = float(truncation_mass)

    @property
    def n_max(self) -> int:
        return len(self.tensors) - 1

    def tensor(self, n: int) -> np.ndarray:
        return self.tensors[n]

    def total_mass(self) -> float:
        """G(1), read off the cardinality distribution; evaluate() is the oracle."""
        return float(self.cardinality_distribution().sum())

    def cardinality_distribution(self) -> np.ndarray:
        return np.array(
            [self.tensors[n].sum() / math.factorial(n) for n in range(self.n_max + 1)]
        )

    def is_normalized(self, tol: float = NORMALIZATION_TOL) -> bool:
        return abs(self.total_mass() - 1.0) <= tol

    def scaled(self, c: float) -> "MultiObjectDensity":
        return MultiObjectDensity(
            self.space,
            [t * float(c) for t in self.tensors],
            truncation_mass=self.truncation_mass,
        )

    def intensity_vector(self) -> np.ndarray:
        """First factorial moment at every point, M_1(x) = moment(P, (x,))."""
        out = np.zeros(self.space.size)
        for n in range(1, self.n_max + 1):
            t = self.tensors[n]
            collapsed = t.reshape(self.space.size, -1).sum(axis=1)
            out += collapsed / math.factorial(n - 1)
        return out

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
    """G(psi): contract every tensor with psi and sum with 1/n! weights."""
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

    With free=0 this is the k-th variation at base of sum_n (1/n!) c_n[psi^n].
    n is each tensor's axis count, not its list position. Increments, then
    base, are contracted on leading axes through 2-D views, so the free axes
    are the trailing ones.
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
    increment is again one, with tensors p'_n(x_1..x_n) = p_{n+1}(x, x_1..x_n).
    Differentiating past n_max yields the zero functional, not an error.
    """
    ix = P.space.index(x)
    if P.n_max == 0:
        return MultiObjectDensity(P.space, [0.0], truncation_mass=P.truncation_mass)
    shifted = [P.tensors[n][ix] for n in range(1, P.n_max + 1)]
    return MultiObjectDensity(P.space, shifted, truncation_mass=P.truncation_mass)


def janossy(P: MultiObjectDensity, points: Sequence[str | int]) -> float:
    """Density value at an ordered tuple: differentiate repeatedly, then psi=0."""
    idx = P.space.indices(points)
    if len(idx) > P.n_max:
        raise ValueError(f"tuple of length {len(idx)} exceeds n_max={P.n_max}")
    cur = P
    for ix in idx:
        cur = differentiate(cur, ix)
    return evaluate(cur, cur.space.constant(0.0))


def moment(P: MultiObjectDensity, points: Sequence[str | int]) -> float:
    """Factorial moment at an ordered tuple: differentiate, then psi=1."""
    cur = P
    for p in points:
        cur = differentiate(cur, p)
    return evaluate(cur, cur.space.constant(1.0))


def scalar_product(P1: MultiObjectDensity, P2: MultiObjectDensity) -> float:
    """sum_n (1/n!) <p_{1,n}, p_{2,n}>, zero-padding the shorter family."""
    if P1.space.labels != P2.space.labels:
        raise ValueError("scalar product requires a common space")
    total = 0.0
    for n in range(min(P1.n_max, P2.n_max) + 1):
        total += float(np.sum(P1.tensors[n] * P2.tensors[n])) / math.factorial(n)
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
    scale = math.exp(-lam)
    tensors = [t * scale for t in powers(mu, n_max)]
    return MultiObjectDensity(
        space, tensors, symmetrize_input=True, truncation_mass=_poisson_tail(lam, n_max)
    )


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


def powers(v: np.ndarray, n: int) -> list[np.ndarray]:
    """[v^(x)l for l <= n]: the coefficients of exp(v[h]), by successive outer products."""
    out = [np.ones(())]
    for _ in range(n):
        out.append(np.multiply.outer(out[-1], v))
    return out


def product(p, r, cap: int, d: int) -> list[np.ndarray]:
    """Coefficients of the product of two functionals, unsymmetrized.

    t_k = sum_j C(k, j) p_j (x) r_{k-j} for k <= cap, j bounded by both list
    lengths. Callers hand the t_k to MultiObjectDensity(...,
    symmetrize_input=True), which symmetrizes each of them once.
    """
    out = []
    for k in range(cap + 1):
        acc = np.zeros((d,) * k)
        for j in range(max(0, k - len(r) + 1), min(k, len(p) - 1) + 1):
            acc += math.comb(k, j) * np.multiply.outer(p[j], r[k - j])
        out.append(acc)
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
    tensors = product(P1.tensors, P2.tensors, k_max, P1.space.size)
    c1, c2 = P1.cardinality_distribution(), P2.cardinality_distribution()
    dropped = sum(float(c1[j] * c2[k_max + 1 - j :].sum()) for j in range(c1.size))
    mass = P1.truncation_mass + P2.truncation_mass + max(0.0, dropped)
    return MultiObjectDensity(
        P1.space, tensors, symmetrize_input=True, truncation_mass=mass
    )
