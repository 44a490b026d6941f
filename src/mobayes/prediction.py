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

The general Chapman-Kolmogorov form stores explicit conditional tensors
t[m][n] with t[m][n][x_1..x_n, y_1..y_m] = density of the n successors
(x-tuple) of m objects at the y-tuple, and predicts by the Fock-space scalar
product in the y argument:

    predicted_n(x) = sum_m (1/m!) sum_y t[m][n](x | y) posterior_m(y).

TransitionModel holds such tables. build_multiplicative expands the
survive-move-birth model into them by enumerating which predicted objects
descend from which prior object; it is the oracle the composition is tested
and verified against, not a hot path. Tables are dense arrays of d^(n+m)
entries, so they are meant for small spaces and low cardinality caps.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from .finite_pp import (
    NORMALIZATION_TOL,
    FiniteSpace,
    MultiObjectDensity,
    TruncationOverflow,
    _as_test_function,
    contract,
    product,
    scalar_product,
    symmetrize_axes,
)


class TransitionModel:
    """Explicit multi-object transition tensors on a single finite space.

    tables[m][n] has shape (d,)*n + (d,)*m: leading axes are the predicted
    x-tuple, trailing axes the conditioning y-tuple. For every y-tuple the
    outgoing mass sum_n (1/n!) sum_x must be one, short of at most the
    recorded truncation_mass (cardinality growth clipped at n_max).
    """

    def __init__(
        self,
        space: FiniteSpace,
        tables: Sequence[Sequence[np.ndarray | float]],
        *,
        truncation_mass: float = 0.0,
        symmetrize_input: bool = False,
    ):
        self.space = space
        d = space.size
        fixed: list[list[np.ndarray]] = []
        n_len = None
        for m, row in enumerate(tables):
            row_fixed: list[np.ndarray] = []
            if n_len is None:
                n_len = len(row)
            elif len(row) != n_len:
                raise ValueError("every conditioning cardinality needs the same n range")
            for n, raw in enumerate(row):
                arr = np.asarray(raw, dtype=float)
                want = (d,) * (n + m)
                if arr.shape != want:
                    raise ValueError(
                        f"table [m={m}][n={n}] has shape {arr.shape}, expected {want}"
                    )
                if not np.all(np.isfinite(arr)) or np.any(arr < 0):
                    raise ValueError(f"table [m={m}][n={n}] must be finite, nonnegative")
                groups = [g for g in (tuple(range(n)), tuple(range(n, n + m))) if len(g) >= 2]
                if groups and symmetrize_input:
                    arr = symmetrize_axes(arr, groups)
                row_fixed.append(arr.copy())
            fixed.append(row_fixed)
        if not fixed or n_len == 0:
            raise ValueError("at least the [m=0][n=0] table is required")
        self.tables = fixed
        self.truncation_mass = float(truncation_mass)
        self._check_outgoing_mass()

    @property
    def m_max(self) -> int:
        return len(self.tables) - 1

    @property
    def n_max(self) -> int:
        return len(self.tables[0]) - 1

    def _check_outgoing_mass(self) -> None:
        d = self.space.size
        slack = self.truncation_mass + NORMALIZATION_TOL
        for m, row in enumerate(self.tables):
            total = np.zeros((d,) * m)
            for n, arr in enumerate(row):
                total = total + arr.reshape((-1,) + (d,) * m).sum(axis=0) / math.factorial(n)
            defect = 1.0 - total
            if float(defect.min()) < -NORMALIZATION_TOL or float(defect.max()) > slack:
                raise ValueError(
                    f"outgoing mass for m={m} ranges over "
                    f"[{float(total.min()):.12f}, {float(total.max()):.12f}],"
                    " outside the declared truncation budget"
                )

    def propagate(self, posterior: MultiObjectDensity) -> MultiObjectDensity:
        """Contract the tables with the posterior tensors in the y argument."""
        out: list[np.ndarray] = []
        for n in range(self.n_max + 1):
            acc = np.zeros((posterior.space.size,) * n)
            for m in range(posterior.n_max + 1):
                t = self.tables[m][n]
                contrib = (
                    np.tensordot(t, posterior.tensors[m], axes=m) if m else t * float(posterior.tensors[0])
                )
                acc = acc + contrib / math.factorial(m)
            out.append(acc)
        return MultiObjectDensity(posterior.space, out, symmetrize_input=True)


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


def build_multiplicative(
    survival: np.ndarray | Sequence[float],
    motion: np.ndarray,
    birth: MultiObjectDensity,
    *,
    n_max: int,
    m_max: int | None = None,
    max_dropped: float = 1e-9,
) -> TransitionModel:
    """Expand survive-or-die motion plus independent birth into tables.

    Each of the m prior objects independently survives with probability
    p_S(y) and moves by the column-stochastic matrix motion[x, y], or
    vanishes. Births superpose independently. The table entry for (x | y)
    sums over which predicted positions are survivors and which prior object
    each survivor descends from (injectively); the remaining predicted
    positions carry the birth density and the unmatched prior objects the
    death probability.

    The inputs are validated by constructing the SurviveMoveBirth model,
    which computes the same prediction by composition; these tables are its
    test and verify oracle.

    Raises TruncationOverflow if clipping predicted cardinality at n_max
    drops more than max_dropped probability for some y-tuple.
    """
    model = SurviveMoveBirth(survival, motion, birth, n_max=n_max)
    space, move, die = model.space, model.move, model.die
    d = space.size
    if m_max is None:
        m_max = n_max
    tables: list[list[np.ndarray]] = []
    for m in range(m_max + 1):
        row: list[np.ndarray] = []
        for n in range(n_max + 1):
            shape = (d,) * (n + m)
            acc = np.zeros(shape)
            for a in range(0, min(n, m) + 1):
                if n - a > birth.n_max:
                    continue
                for survivors in itertools.combinations(range(n), a):
                    rest = [i for i in range(n) if i not in survivors]
                    for tau in itertools.permutations(range(m), a):
                        term = np.ones(shape)
                        for i, j in zip(survivors, tau):
                            sl = [None] * (n + m)
                            sl[i] = slice(None)
                            sl[n + j] = slice(None)
                            term = term * move[tuple(sl)]
                        for j in range(m):
                            if j in tau:
                                continue
                            sl = [None] * (n + m)
                            sl[n + j] = slice(None)
                            term = term * die[tuple(sl)]
                        b = birth.tensors[n - a]
                        if rest:
                            sl = [None] * (n + m)
                            for i in rest:
                                sl[i] = slice(None)
                            term = term * b[tuple(sl)]
                        else:
                            term = term * float(b)
                        acc += term
            row.append(acc)
        tables.append(row)

    # per-y dropped mass: survivors plus births pushed past n_max
    worst = 0.0
    for m in range(m_max + 1):
        total = np.zeros((d,) * m)
        for n in range(n_max + 1):
            total = total + tables[m][n].reshape((-1,) + (d,) * m).sum(axis=0) / math.factorial(n)
        worst = max(worst, float((1.0 - total).max()))
    dropped = max(worst, birth.truncation_mass)
    if dropped > max_dropped:
        raise TruncationOverflow(
            f"cardinality cap {n_max} drops up to {dropped:.3e} transition mass,"
            f" over the {max_dropped:.1e} budget",
            dropped,
        )
    return TransitionModel(space, tables, truncation_mass=dropped)


def predict(
    posterior: MultiObjectDensity,
    model: TransitionModel | SurviveMoveBirth,
    *,
    max_dropped: float = 1e-9,
) -> MultiObjectDensity:
    """Chapman-Kolmogorov step through the model's propagate: a table
    contraction for TransitionModel, a composition for SurviveMoveBirth.

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


def conditional_slice(model: TransitionModel, n: int, x_tuple: tuple[int, ...]):
    """The y-argument functional of one output tuple, as coefficient tensors.

    Useful for checking predict against the scalar product definition:
    predicted_n(x_tuple) == scalar_product(conditional_slice(...), posterior).
    """
    tensors = []
    for m in range(model.m_max + 1):
        tensors.append(model.tables[m][n][tuple(x_tuple)])
    return MultiObjectDensity(model.space, tensors, symmetrize_input=True)


def predicted_entry(model: TransitionModel, posterior: MultiObjectDensity, n: int, x_tuple) -> float:
    """Scalar-product form of a single predicted tensor entry."""
    x_idx = model.space.indices(x_tuple)
    return scalar_product(conditional_slice(model, n, x_idx), posterior)
