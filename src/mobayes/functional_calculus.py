"""Gateaux differentials of functionals on finite spaces.

Two kinds of objects live here. Exact functionals expose value(psi) and
variation(psi, increments) computed from stored coefficients, so their
differentials carry no discretization error. Black-box functionals expose
only values; numeric_differential recovers their differentials by nested
central differences with Richardson extrapolation, which is exact (to
round-off) for polynomial functionals whose degree exceeds the differential
order by at most 2*levels + 1.

On top of those sit the composition rules: faa_di_bruno (chain rule as a sum
over set partitions), leibniz (product rule as a sum over subset splits) and
differential_of_variation (differentiating an n-th variation whose increments
themselves depend on the base point through the inner map).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .combinatorics import partitions, subsets
from .finite_pp import FiniteSpace, MultiObjectDensity, _as_test_function
from .finite_pp import contract, evaluate, symmetrize_axes

MAX_NUMERIC_ORDER = 4
MAX_PARTITION_ORDER = 6

Increment = np.ndarray


@dataclass
class BlackBoxFunctional:
    """A functional known only through point evaluations."""

    space: FiniteSpace
    fn: Callable[[np.ndarray], float]

    def __call__(self, psi: np.ndarray) -> float:
        return float(self.fn(np.asarray(psi, dtype=float)))


class TensorFunctional:
    """Exact functional backed by stored coefficient tensors."""

    def __init__(self, density: MultiObjectDensity):
        self.density = density
        self.space = density.space

    def value(self, psi: np.ndarray) -> float:
        return evaluate(self.density, psi)

    def variation(self, psi: np.ndarray, increments: Sequence[Increment]) -> float:
        """sum_{n >= k} (1/(n-k)!) c_n[eta_1, ..., eta_k, psi^(n-k)]."""
        psi = _as_test_function(self.space, psi)
        incs = [_as_test_function(self.space, e) for e in increments]
        return float(contract(self.density.tensors, incs, psi))

    def __call__(self, psi: np.ndarray) -> float:
        return self.value(psi)


class PoissonFunctional:
    """The exponential functional exp(mu[psi - 1]).

    Every variation factorizes: the k-th differential at psi with increments
    eta_i equals exp(mu[psi - 1]) prod_i mu[eta_i].
    """

    def __init__(self, space: FiniteSpace, intensity: np.ndarray):
        self.space = space
        self.intensity = _as_test_function(space, intensity)

    def value(self, psi: np.ndarray) -> float:
        psi = _as_test_function(self.space, psi)
        return math.exp(float(self.intensity @ (psi - 1.0)))

    def variation(self, psi: np.ndarray, increments: Sequence[Increment]) -> float:
        out = self.value(psi)
        for inc in increments:
            out *= float(self.intensity @ _as_test_function(self.space, inc))
        return out

    def __call__(self, psi: np.ndarray) -> float:
        return self.value(psi)


class TensorMap:
    """Function-valued polynomial map between finite spaces.

    coefficients[j] has shape (d_out,) + (d_in,)*j, symmetric over the input
    axes; the map sends psi on the input space to the vector
    g(psi) = sum_j (1/j!) c_j[psi^j] on the output space. Variations follow
    the same coefficient-shift rule as scalar functionals, one free axis kept.
    The coefficients are stored with the output axis moved last, where
    finite_pp.contract leaves its free axis.
    """

    def __init__(
        self,
        space_in: FiniteSpace,
        space_out: FiniteSpace,
        coefficients: Sequence[np.ndarray],
    ):
        self.space_in = space_in
        self.space_out = space_out
        fixed = []
        for j, raw in enumerate(coefficients):
            arr = np.asarray(raw, dtype=float)
            want = (space_out.size,) + (space_in.size,) * j
            if arr.shape != want:
                raise ValueError(f"coefficient {j} has shape {arr.shape}, expected {want}")
            arr = symmetrize_axes(arr, [tuple(range(1, j + 1))])
            fixed.append(np.ascontiguousarray(np.moveaxis(arr, 0, -1)))
        self.coefficients = fixed

    def value(self, psi: np.ndarray) -> np.ndarray:
        return self.variation(psi, [])

    def variation(self, psi: np.ndarray, increments: Sequence[Increment]) -> np.ndarray:
        psi = _as_test_function(self.space_in, psi)
        incs = [_as_test_function(self.space_in, e) for e in increments]
        return contract(self.coefficients, incs, psi, free=1)


def numeric_differential(
    F: Callable[[np.ndarray], float] | BlackBoxFunctional,
    psi: np.ndarray,
    increments: Sequence[Increment],
    *,
    step: float = 0.5,
    levels: int = 1,
) -> float:
    """Nested central differences with Richardson extrapolation in h^2.

    The order equals len(increments) (at most MAX_NUMERIC_ORDER; the cost
    doubles per order). For a polynomial functional the result is exact to
    round-off whenever degree - order <= 2*levels + 1; the default single
    extrapolation level covers degree overshoots up to three. An O(1) step
    keeps the (2h)^-order round-off amplification harmless for polynomials,
    where no truncation error is traded away.
    """
    if len(increments) > MAX_NUMERIC_ORDER:
        raise ValueError(f"at most {MAX_NUMERIC_ORDER} increments are supported")
    if step <= 0 or levels < 0:
        raise ValueError("step must be positive and levels nonnegative")
    psi = np.asarray(psi, dtype=float)
    incs = [np.asarray(e, dtype=float) for e in increments]
    order = len(incs)

    def eval_at(point: np.ndarray) -> float:
        val = float(F(point))
        if not math.isfinite(val):
            raise ValueError("functional returned a non-finite value")
        return val

    if order == 0:
        return eval_at(psi)

    def nested(h: float) -> float:
        total = 0.0
        for signs in itertools.product((1.0, -1.0), repeat=order):
            point = psi + h * sum(s * e for s, e in zip(signs, incs))
            total += math.prod(signs) * eval_at(point)
        return total / (2.0 * h) ** order

    stack = [nested(step / 2.0**j) for j in range(levels + 1)]
    for lev in range(1, levels + 1):
        weight = 4.0**lev
        stack = [
            (weight * stack[j + 1] - stack[j]) / (weight - 1.0)
            for j in range(len(stack) - 1)
        ]
    return stack[0]


def faa_di_bruno(
    outer,
    inner,
    y: np.ndarray,
    increments: Sequence[Increment],
    *,
    max_block: int | None = None,
) -> float:
    """Chain rule for composite functionals as a partition sum.

    Computes the n-th variation of psi -> outer(inner(psi)) at y:
    each partition pi of the increments contributes the |pi|-th variation of
    outer at inner(y), its arguments being the block variations of inner.
    max_block prunes partitions whose blocks cannot contribute (for instance
    an inner map of polynomial degree k has vanishing variations past k).
    """
    if len(increments) > MAX_PARTITION_ORDER:
        raise ValueError(f"at most {MAX_PARTITION_ORDER} increments are supported")
    incs = list(increments)
    if not incs:
        return float(outer.value(inner.value(y)))
    base = inner.value(y)
    total = 0.0
    for part in partitions(len(incs), max_block):
        block_incs = [
            inner.variation(y, [incs[i] for i in block]) for block in part.blocks
        ]
        total += outer.variation(base, block_incs)
    return total


def leibniz(f, g, y: np.ndarray, increments: Sequence[Increment]) -> float:
    """Product rule: the n-th variation of psi -> f(psi) g(psi) at y.

    Every kept/dropped split of the increments contributes the product of the
    corresponding variations of the factors.
    """
    if len(increments) > MAX_PARTITION_ORDER:
        raise ValueError(f"at most {MAX_PARTITION_ORDER} increments are supported")
    incs = list(increments)
    total = 0.0
    for split in subsets(len(incs)):
        total += f.variation(y, [incs[i] for i in split.kept]) * g.variation(
            y, [incs[i] for i in split.dropped]
        )
    return total


def differential_of_variation(
    f,
    g,
    y: np.ndarray,
    inner_increment_lists: Sequence[Sequence[Increment]],
    eta: Increment,
) -> float:
    """Differentiate y -> delta^n f(g(y); xi_1(y), ..., xi_n(y)) along eta.

    Each xi_i is itself a variation of the inner map g with a fixed increment
    list (the only y-dependence supported), so its own differential along eta
    is one more variation of g. The result is the appended-increment term
    delta^{n+1} f(g(y); xi_1..xi_n, delta g(y; eta)) plus the sum of
    replaced-increment terms where one xi_i picks up eta.
    """
    if len(inner_increment_lists) > MAX_NUMERIC_ORDER:
        raise ValueError(f"at most {MAX_NUMERIC_ORDER} inner increments are supported")
    xs = [g.variation(y, list(lst)) for lst in inner_increment_lists]
    base = g.value(y)
    total = f.variation(base, xs + [g.variation(y, [eta])])
    for w, lst in enumerate(inner_increment_lists):
        replaced = list(xs)
        replaced[w] = g.variation(y, list(lst) + [eta])
        total += f.variation(base, replaced)
    return total
