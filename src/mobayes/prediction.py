"""Time prediction of multi-object densities.

The survive-move-birth model (each object survives with probability p_S(y)
and moves by a column-stochastic matrix M, or vanishes; births superpose
independently) predicts by composing generating functionals:

    G_pred[h] = G_birth[h] * G_post[1 - p_S + p_S (M h)].

Its coefficients are the survivor tensors

    q_j = move^(x)j applied to sum_k p_k[die^(k-j)] / (k-j)!,

with move = M p_S and die = 1 - p_S, times the birth functional through one
finite_pp.product. SurviveMoveBirth.propagate computes them with one
finite_pp.contract per survivor count; this is the scenario path.

predict runs any model with space, m_max and propagate; the explicit
Chapman-Kolmogorov tables it is checked against (oracles.TransitionModel,
oracles.build_multiplicative) are such a model.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .finite_pp import (
    NORMALIZATION_TOL,
    MultiObjectDensity,
    TruncationOverflow,
    _as_test_function,
    _check_axes,
    contract,
    product,
)


class SurviveMoveBirth:
    """Survive-or-die motion plus independent birth, as a composition.

    Each object at y survives with probability survival[y] and moves to x
    with probability motion[x, y], or vanishes; the birth process superposes
    independently. Predicted cardinalities are capped at n_max, which is
    also the largest posterior cap accepted (m_max).
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
        self.survival = p_s
        self.motion = f
        self.birth = birth
        self.move = f * p_s  # move[x, y] = p_S(y) f(x|y)
        self.die = 1.0 - p_s

    @property
    def m_max(self) -> int:
        return self.n_max

    def propagate(self, posterior: MultiObjectDensity) -> MultiObjectDensity:
        """Survivor coefficients q_j times the birth functional, capped at n_max."""
        d = self.space.size
        survivors: list[np.ndarray] = []
        for j in range(posterior.n_max + 1):
            q = contract(posterior.tensors, [], self.die, free=j)
            for _ in range(j):
                # contract the leading y axis; its successor x goes last
                q = q.reshape(d, -1).T @ self.move.T
            survivors.append(q.reshape((d,) * j))
        tensors = product(survivors, self.birth.tensors, self.n_max, d)
        return MultiObjectDensity(self.space, tensors, symmetrize_input=True)


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
    if posterior.space.labels != model.space.labels:
        raise ValueError("posterior and transition model live on different spaces")
    if posterior.n_max > model.m_max:
        raise ValueError(
            f"transition tables accept at most {model.m_max} objects,"
            f" posterior allows {posterior.n_max}"
        )
    predicted = model.propagate(posterior)
    dropped = max(0.0, posterior.total_mass() - predicted.total_mass())
    if dropped > max_dropped:
        raise TruncationOverflow(
            f"prediction dropped {dropped:.3e} mass past the cardinality cap,"
            f" over the {max_dropped:.1e} budget",
            dropped,
        )
    predicted.truncation_mass = posterior.truncation_mass + dropped
    return predicted
