"""Randomized desk-scale instances for property sweeps.

Every generator takes a numpy Generator so callers control seeding; nothing
here owns randomness. Sizes default to the regime the exact engines are
meant for (a handful of states, cardinality caps of a few objects).
"""

from __future__ import annotations

import math

import numpy as np

from .bayes import ObservationKernel
from .finite_pp import FiniteSpace, MultiObjectDensity, PoissonSpec, _symmetrized, poisson, symmetrize

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def space(d: int, prefix: str = "") -> FiniteSpace:
    if d > len(_LETTERS):
        raise ValueError("instance spaces stay small")
    return FiniteSpace(tuple(prefix + c for c in _LETTERS[:d]))


def random_density(
    rng: np.random.Generator,
    sp: FiniteSpace,
    n_max: int,
    *,
    min_weight: float = 0.05,
) -> MultiObjectDensity:
    """Normalized density with strictly positive mass at every cardinality."""
    weights = rng.uniform(min_weight, 1.0, n_max + 1)
    weights /= weights.sum()
    tensors: list[np.ndarray] = []
    for n in range(n_max + 1):
        raw = rng.uniform(0.1, 1.0, (sp.size,) * n)
        raw = symmetrize(raw) if n >= 2 else raw
        tensors.append(raw * (weights[n] * math.factorial(n) / raw.sum()))
    return MultiObjectDensity(sp, tensors)


def random_kernel(
    rng: np.random.Generator,
    state_space: FiniteSpace,
    obs_space: FiniteSpace,
    m_max: int,
) -> ObservationKernel:
    """Group kernel with random split of per-state mass across group sizes."""
    d_x, d_z = state_space.size, obs_space.size
    split = rng.uniform(0.2, 1.0, (d_x, m_max + 1))
    split /= split.sum(axis=1, keepdims=True)
    tables: list[np.ndarray] = [split[:, 0]]
    for m in range(1, m_max + 1):
        raw = rng.uniform(0.1, 1.0, (d_x,) + (d_z,) * m)
        raw = _symmetrized(raw, m)
        mass = raw.reshape(d_x, -1).sum(axis=1) / math.factorial(m)
        tables.append(raw * (split[:, m] / mass).reshape((d_x,) + (1,) * m))
    return ObservationKernel(state_space, obs_space, tables)


def random_detection_kernel(
    rng: np.random.Generator,
    state_space: FiniteSpace,
    obs_space: FiniteSpace,
) -> ObservationKernel:
    p_d = rng.uniform(0.3, 0.95, state_space.size)
    g = rng.uniform(0.1, 1.0, (state_space.size, obs_space.size))
    g /= g.sum(axis=1, keepdims=True)
    return ObservationKernel.from_detection(state_space, obs_space, p_d, g)


def random_clutter(
    rng: np.random.Generator,
    obs_space: FiniteSpace,
    n_max: int,
) -> MultiObjectDensity:
    return random_density(rng, obs_space, n_max)


def random_poisson_clutter(
    rng: np.random.Generator,
    obs_space: FiniteSpace,
    *,
    scale: float = 0.4,
    n_max: int | None = None,
) -> MultiObjectDensity:
    rate = rng.uniform(0.05, scale, obs_space.size)
    return poisson(PoissonSpec(rate, tail_tol=1e-14), obs_space, n_max)


def random_measurements(
    rng: np.random.Generator,
    obs_space: FiniteSpace,
    m: int,
) -> list[str]:
    """m labels drawn uniformly with replacement (repeats intended)."""
    return [obs_space.labels[i] for i in rng.integers(0, obs_space.size, m)]


def feasible_measurements(
    rng: np.random.Generator,
    obs_space: FiniteSpace,
    m: int,
    capacity: int,
) -> list[str]:
    """Measurement draw capped so some assignment can explain it."""
    return random_measurements(rng, obs_space, min(m, capacity))
