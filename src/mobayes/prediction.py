"""Time prediction of multi-object densities.

The survive-move-birth model (each object survives with probability p_S(y)
and moves by a column-stochastic matrix M, or vanishes; births superpose
independently) predicts by composing generating functionals:

    G_pred[h] = G_birth[h] * G_post[1 - p_S + p_S (M h)].

Its coefficients are the survivor tensors

    q_j = move^(x)j applied to sum_k p_k[die^(k-j)] / (k-j)!,

with move = M p_S and die = 1 - p_S, times the birth functional through one
finite_pp.multiply. SurviveMoveBirth.composition computes them on packed
coefficients and never indexes their layout: finite_pp.derivatives gives
the sums at base die, and finite_pp.substitute applies move^(x)j to every
level by moving one factor at a time, so no matrix of a level's square
size is built. The composition is the definition of the prediction.

The prediction is linear in the packed coefficients: for a fixed model it
is one N x N matrix, N = C(d + n_max, n_max). On its first propagate the
model builds that operator by running the composition once on the
identity, one row per unit vector through the kernels' leading row axis,
and keeps it read-only; each later propagate is one matrix-vector
product, and a posterior with a smaller cap uses the first columns, since
its levels are a prefix of the layout. Past OPERATOR_BYTES the model keeps no operator
and runs the composition on every call. propagate_flat does this on flat
coefficients, for scenario.Filter, and propagate wraps its result in a
density; _checked_drop is the drop check both predict and the Filter run.

predict runs any model with space, m_max and propagate; the explicit
Chapman-Kolmogorov tables it is checked against (oracles.TransitionModel,
oracles.build_multiplicative) are such a model.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .finite_pp import (
    NORMALIZATION_TOL,
    FiniteSpace,
    MultiObjectDensity,
    TruncationOverflow,
    _as_test_function,
    _check_axes,
    _frozen,
    as_levels,
    derivatives,
    multiply,
    substitute,
)

# The largest prediction operator SurviveMoveBirth keeps, in bytes: N x N
# doubles, N = C(d + n_max, n_max), so N <= 256. Past it, propagate runs the
# composition on every call. Set from a sweep of step, build time and build
# peak against N (CHANGES.md): up to N = 220 the operator step is 28-52x
# faster than the composition and its build costs at most about 180
# composition steps; by N = 455 the build costs over 400 steps, and from
# N = 680 a matvec under default BLAS threads is slower than the composition.
# Within it the whole identity goes through the composition in one call,
# which peaks at about 26 MiB (N = 220).
OPERATOR_BYTES = 512 * 2**10


class SurviveMoveBirth:
    """Survive-or-die motion plus independent birth, as a composition.

    Each object at y survives with probability survival[y] and moves to x
    with probability motion[x, y], or vanishes; the birth process superposes
    independently. Predicted cardinalities are capped at n_max, which is
    also the largest posterior cap accepted (m_max). The model is
    read-only: its arrays are frozen, so the operator built from them stays
    valid.
    """

    def __init__(
        self,
        survival: np.ndarray | Sequence[float],
        motion: np.ndarray,
        birth: MultiObjectDensity,
        *,
        n_max: int,
    ):
        space = birth.space
        d = space.size
        p_s = _as_test_function(space, survival)
        if np.any(p_s < 0) or np.any(p_s > 1):
            raise ValueError("survival probabilities must lie in [0, 1]")
        f = np.asarray(motion, dtype=float)
        if f.shape != (d, d):
            raise ValueError("motion must be a (d, d) matrix")
        if not (np.all(f >= 0) and np.all(np.abs(f.sum(axis=0) - 1.0) <= NORMALIZATION_TOL)):
            raise ValueError("motion columns must be distributions over successors")
        if birth.n_max > n_max:
            raise ValueError("birth process exceeds the requested cardinality cap")
        _check_axes(n_max)
        self.space = space
        self.n_max = n_max
        self.survival = _frozen(p_s.copy())
        self.motion = _frozen(f.copy())
        self.birth = birth
        self.move = _frozen(f * p_s)  # move[x, y] = p_S(y) f(x|y)
        self.die = _frozen(1.0 - p_s)
        self.size = math.comb(d + n_max, n_max)  # N, the levels 0..n_max
        self._operator: np.ndarray | None = None

    @property
    def m_max(self) -> int:
        return self.n_max

    def composition(self, packed: list[np.ndarray]) -> np.ndarray:
        """Levels 0..n_max of the prediction of the posterior levels packed,
        concatenated: the survivor coefficients q_j times the birth
        functional. packed may carry leading row axes, one functional per
        row, as finite_pp.as_levels views of a flat array."""
        kept = derivatives(packed, self.die, len(packed) - 1)
        survivors = substitute(kept, self.move)
        return multiply(survivors, self.birth.packed, self.n_max, self.space.size).flat

    def operator(self) -> np.ndarray | None:
        """The N x N matrix M of the prediction, read-only, built on first
        use when it fits OPERATOR_BYTES, else None. Column j is the
        composition of the j-th unit vector; the identity goes through
        composition in one call, one row per unit vector, so M is the
        composition itself."""
        if self._operator is None and 8 * self.size**2 <= OPERATOR_BYTES:
            unit = as_levels(np.eye(self.size), self.space.size, self.n_max)
            self._operator = _frozen(np.ascontiguousarray(self.composition(unit).T))
        return self._operator

    def propagate_flat(self, flat: np.ndarray, n_max: int) -> np.ndarray:
        """Levels 0..self.n_max of the prediction of the flat coefficients x
        of levels 0..n_max: M x, x's levels being a prefix of M's columns,
        or the composition past the operator budget."""
        M = self.operator()
        if M is None:
            return self.composition(as_levels(flat, self.space.size, n_max))
        return M[:, : flat.size] @ flat

    def propagate(self, posterior: MultiObjectDensity) -> MultiObjectDensity:
        """The prediction, capped at n_max (propagate_flat)."""
        flat = self.propagate_flat(posterior.flat, posterior.n_max)
        return MultiObjectDensity._from_flat(self.space, flat, self.n_max)


def _check_model(space: FiniteSpace, n_max: int, model) -> None:
    """Refuse a model on another space, or one whose tables accept fewer
    objects than n_max."""
    if space.labels != model.space.labels:
        raise ValueError("posterior and transition model live on different spaces")
    if n_max > model.m_max:
        raise ValueError(
            f"transition tables accept at most {model.m_max} objects,"
            f" posterior allows {n_max}"
        )


def _checked_drop(before: float, after: float, max_dropped: float) -> float:
    """The mass a prediction dropped past the cap, max(0, before - after)
    for the total masses before and after it; TruncationOverflow if that
    exceeds max_dropped."""
    dropped = max(0.0, before - after)
    if dropped > max_dropped:
        raise TruncationOverflow(
            f"prediction dropped {dropped:.3e} mass past the cardinality cap,"
            f" over the {max_dropped:.1e} budget",
            dropped,
        )
    return dropped


def predict(
    posterior: MultiObjectDensity,
    model: SurviveMoveBirth,
    *,
    max_dropped: float = 1e-9,
) -> MultiObjectDensity:
    """Chapman-Kolmogorov step through the model's propagate: a composition
    for SurviveMoveBirth, a table contraction for oracles.TransitionModel.

    The result keeps the model's cardinality cap. Mass lost to that cap
    (plus whatever the inputs already carried) is recorded on the output;
    if the newly dropped part exceeds max_dropped, TruncationOverflow.
    """
    _check_model(posterior.space, posterior.n_max, model)
    predicted = model.propagate(posterior)
    dropped = _checked_drop(posterior.total_mass(), predicted.total_mass(), max_dropped)
    predicted.truncation_mass = posterior.truncation_mass + dropped
    return predicted
