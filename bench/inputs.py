"""Seeded raw inputs for the three benchmark workloads, built with numpy alone.

Nothing here imports mobayes, so a change to the package cannot change what
the benchmark feeds it. `--seed n` selects input set n mod N_SETS; the
reference outputs under reference/ were recorded for every one of those sets,
so every full-size op of every seed is checked against a recorded value.

Cost depends on the structure of the inputs (sizes, caps, label repeats) and
not on the drawn values, so the seed varies values and op order while the
per-op work stays comparable from seed to seed:

* burst cycles through every multiset of |Z| labels exactly once per pass,
  each listed in a seeded order, so the mix of repeat patterns is the same
  for every seed;
* dense cycles through every set of |Z| distinct labels, so every op
  evaluates the same number of partition terms;
* track fixes every rate (detection, clutter, survival, birth) and runs the
  same episode seeds for every input set, drawing only the shapes (where
  objects move, which labels they emit). The simulation then draws the same
  object and measurement counts for every seed, and only labels differ.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

N_SETS = 16
WORKLOADS = ("burst", "dense", "track")

# Input properties; BENCHMARK.json and README.md state the same numbers.
BURST = {"d": 3, "d_z": 3, "n_max": 4, "m_max": 2, "z_size": 8, "clutter_cap": 2}
DENSE = {"d": 4, "d_z": 5, "n_max": 9, "m_max": 1, "z_size": 4, "clutter_cap": 2}
TRACK = {
    "d": 3,
    "d_z": 3,
    "n_max": 5,
    "m_max": 1,
    "clutter_cap": 3,
    "clutter_rate": 0.9,
    "survival": 0.7,
    "birth_rate": 0.15,
    "p_detect": 0.85,
    "max_dropped": 0.05,
    "steps": 50,
    "episodes": 48,
}
# Down-sized copies of the same inputs that the brute-force oracle can afford.
ORACLE_Z_SIZE = 5  # burst: first 5 labels of an op's Z
ORACLE_N_MAX = 4  # dense: prior tensors 0..4


def input_set(seed: int) -> int:
    return seed % N_SETS


def _rng(workload: str, seed: int, stream: int = 0) -> np.random.Generator:
    return np.random.default_rng([WORKLOADS.index(workload), input_set(seed), stream])


def _labels(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{i}" for i in range(n)]


def _measurement_pool(rng, labels, size, repeats: bool) -> list[list[str]]:
    """Every multiset (or set) of `size` labels, each in a seeded order."""
    combos = itertools.combinations_with_replacement if repeats else itertools.combinations
    pool = []
    for combo in combos(labels, size):
        pool.append([combo[i] for i in rng.permutation(size)])
    return pool


def _prior_tensors(rng, d: int, n_max: int) -> list[np.ndarray]:
    """Normalized general prior; tensors are not symmetric until constructed."""
    card = rng.dirichlet(np.ones(n_max + 1))
    tensors = [np.asarray(card[0])]
    for n in range(1, n_max + 1):
        raw = rng.uniform(0.2, 1.0, (d,) * n)
        tensors.append(raw * (card[n] * math.factorial(n) / raw.sum()))
    return tensors


def burst(seed: int) -> dict:
    p = BURST
    rng = _rng("burst", seed)
    d, d_z = p["d"], p["d_z"]
    # per state: probabilities of emitting nothing, one label, or a pair
    emit = rng.dirichlet([2.0, 3.0, 2.0], size=d)
    single = rng.dirichlet(np.ones(d_z), size=d)
    pair = rng.uniform(0.2, 1.0, (d, d_z, d_z))
    pair /= pair.sum(axis=(1, 2), keepdims=True)
    obs_labels = _labels("z", d_z)
    return {
        "state_labels": _labels("x", d),
        "obs_labels": obs_labels,
        "prior": _prior_tensors(rng, d, p["n_max"]),
        "kernel": [
            emit[:, 0],
            emit[:, 1, None] * single,
            2.0 * emit[:, 2, None, None] * pair,
        ],
        "clutter_intensity": rng.uniform(0.2, 0.6, d_z),
        "clutter_cap": p["clutter_cap"],
        "pool": _measurement_pool(rng, obs_labels, p["z_size"], repeats=True),
    }


def dense(seed: int) -> dict:
    p = DENSE
    rng = _rng("dense", seed)
    d, d_z = p["d"], p["d_z"]
    obs_labels = _labels("z", d_z)
    return {
        "state_labels": _labels("x", d),
        "obs_labels": obs_labels,
        "prior": _prior_tensors(rng, d, p["n_max"]),
        "p_detect": rng.uniform(0.6, 0.95, d),
        "likelihood": rng.dirichlet(2.0 * np.ones(d_z), size=d),
        "clutter_intensity": rng.uniform(0.1, 0.4, d_z),
        "clutter_cap": p["clutter_cap"],
        "pool": _measurement_pool(rng, obs_labels, p["z_size"], repeats=False),
    }


def track(seed: int) -> dict:
    p = TRACK
    rng = _rng("track", seed)
    d, d_z = p["d"], p["d_z"]
    config = {
        "version": 1,
        "state_labels": _labels("s", d),
        "obs_labels": _labels("o", d_z),
        "n_max": p["n_max"],
        "prior": {
            "kind": "poisson",
            "intensity": (0.6 * rng.dirichlet(np.ones(d))).tolist(),
        },
        "kernel": {
            "kind": "detection",
            "p_detect": [p["p_detect"]] * d,
            "likelihood": rng.dirichlet(2.0 * np.ones(d_z), size=d).tolist(),
        },
        "clutter": {
            "kind": "poisson",
            "intensity": (p["clutter_rate"] * rng.dirichlet(np.ones(d_z))).tolist(),
            "n_max": p["clutter_cap"],
        },
        "transition": {
            "survival": [p["survival"]] * d,
            # column-stochastic: motion[x, y] = P(move to x | at y)
            "motion": rng.dirichlet(2.0 * np.ones(d), size=d).T.tolist(),
            "birth": {
                "kind": "poisson",
                "intensity": (p["birth_rate"] * rng.dirichlet(np.ones(d))).tolist(),
            },
            "max_dropped": p["max_dropped"],
        },
        "steps": p["steps"],
        "seed": 0,
    }
    return {"config": config, "pool": list(range(p["episodes"]))}


def make(workload: str, seed: int) -> dict:
    return {"burst": burst, "dense": dense, "track": track}[workload](seed)


def op_order(workload: str, seed: int, pool_size: int) -> list[int]:
    """Seeded order in which a run cycles through the pool."""
    return _rng(workload, seed, stream=1).permutation(pool_size).tolist()
