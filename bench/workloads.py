"""The benchmark workloads, driven through the exported mobayes API.

Each workload builds its model from the raw inputs of inputs.py (`build`), runs
one op on a pool item (`op`), and reduces the op's result to the numbers the
correctness gate compares with the recorded reference (`outcome`). The calls
into mobayes go through attribute lookups on the package at call time, so the
tracer in spans.py can wrap them from outside the package.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

import inputs

ORACLE_TOL = 1e-10  # same tolerance as the package's acceptance checks
MASS_TOL = 1e-10


class GateFailure(Exception):
    """An op returned, but its output failed the correctness gate."""


@dataclass
class Outcome:
    """What the gate compares: reference values, mass error, output bytes."""

    values: list[float]
    mass_error: float
    blob: bytes | None = None


def _posterior_mismatch(a, b, tol: float) -> str | None:
    """None if two posteriors agree within tol (tol=0: bitwise)."""
    if abs(a.log_evidence - b.log_evidence) > tol:
        return f"log evidence {a.log_evidence!r} vs {b.log_evidence!r}"
    if a.density.n_max != b.density.n_max:
        return "cardinality caps differ"
    gaps = [np.max(np.abs(a.intensity - b.intensity), initial=0.0)]
    gaps += [
        np.max(np.abs(ta - tb), initial=0.0)
        for ta, tb in zip(a.density.tensors, b.density.tensors)
    ]
    worst = float(max(gaps))
    if worst > tol:
        return f"worst gap {worst:.3e} over tolerance {tol:.0e}"
    return None


class _Update:
    """An op is one measurement update of a general prior under clutter."""

    m_max: int

    def __init__(self, mb, raw: dict):
        self.mb = mb
        self.raw = raw
        self.pool = raw["pool"]

    def _kernel(self):
        raise NotImplementedError

    def build(self) -> None:
        mb, raw = self.mb, self.raw
        self.X = mb.FiniteSpace(tuple(raw["state_labels"]))
        self.Zs = mb.FiniteSpace(tuple(raw["obs_labels"]))
        self.prior = mb.MultiObjectDensity(self.X, raw["prior"], symmetrize_input=True)
        self.kernel = self._kernel()
        self.clutter = mb.poisson(raw["clutter_intensity"], self.Zs, n_max=raw["clutter_cap"])

    def _update(self, prior, Z):
        return self.mb.posterior_partition_clutter(prior, self.kernel, self.clutter, Z)

    def op(self, item: int):
        return self._update(self.prior, self.pool[item])

    def outcome(self, post) -> Outcome:
        card = post.density.cardinality_distribution()
        values = [float(post.log_evidence), *post.intensity.tolist(), *card.tolist()]
        return Outcome(values, abs(post.density.total_mass() - 1.0))

    def measurement_sets(self, item: int, result) -> list[list[str]]:
        return [self.pool[item]]

    def permutation_check(self, item: int) -> str | None:
        Z = self.pool[item]
        permuted = sorted(Z) if sorted(Z) != Z else sorted(Z, reverse=True)
        return _posterior_mismatch(
            self._update(self.prior, Z), self._update(self.prior, permuted), 0.0
        )

    def oracle_check(self, item: int) -> str | None:
        prior, Z = self._oracle_inputs(item)
        exact = self.mb.posterior_direct(prior, self.kernel, Z, self.clutter)
        return _posterior_mismatch(self._update(prior, Z), exact, ORACLE_TOL)


class Burst(_Update):
    m_max = inputs.BURST["m_max"]

    def _kernel(self):
        return self.mb.ObservationKernel(self.X, self.Zs, self.raw["kernel"], symmetrize_input=True)

    def _oracle_inputs(self, item):
        return self.prior, self.pool[item][: inputs.ORACLE_Z_SIZE]


class Dense(_Update):
    m_max = inputs.DENSE["m_max"]

    def _kernel(self):
        return self.mb.ObservationKernel.from_detection(
            self.X, self.Zs, self.raw["p_detect"], self.raw["likelihood"]
        )

    def _oracle_inputs(self, item):
        small = self.mb.MultiObjectDensity(self.X, self.prior.tensors[: inputs.ORACLE_N_MAX + 1])
        return small, self.pool[item]


class Track:
    """An op is one episode: simulate, filter, write run.csv and summary.json."""

    m_max = inputs.TRACK["m_max"]

    def __init__(self, mb, raw: dict, out_dir: str):
        self.mb = mb
        self.raw = raw
        self.pool = raw["pool"]
        self.out_dir = out_dir

    def build(self) -> None:
        self.scenario = self.mb.load_config(self.raw["config"])

    def op(self, item: int, measurement_sets=None):
        # the seed is set per episode, as `mobayes run --seed` does
        self.scenario.seed = self.pool[item]
        return self.mb.run(self.scenario, self.out_dir, measurement_sets=measurement_sets)

    def _run_csv(self) -> bytes:
        with open(os.path.join(self.out_dir, "run.csv"), "rb") as fh:
            return fh.read()

    def outcome(self, result) -> Outcome:
        _, failed_step = result
        if failed_step is not None:
            raise GateFailure(f"zero evidence at step {failed_step}")
        blob = self._run_csv()
        lines = blob.decode("utf-8").splitlines()
        header = lines[0].split(",")
        rows = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
        card = [i for i, name in enumerate(header) if name.startswith("card_")]
        mass_error = float(np.max(np.abs(rows[:, card].sum(axis=1) - 1.0)))
        # numeric columns reduced to their sums plus the final row
        values = rows.sum(axis=0).tolist() + rows[-1].tolist()
        return Outcome(values, mass_error, blob)

    def measurement_sets(self, item: int, result) -> list[list[str]]:
        records, _ = result
        return [r.measurements for r in records[1:]]

    def permutation_check(self, item: int) -> str | None:
        self.scenario.seed = self.pool[item]
        _, sets = self.mb.simulate(self.scenario)
        self.op(item, sets)
        plain = self._run_csv()
        self.op(item, [list(reversed(z)) for z in sets])
        if self._run_csv() != plain:
            return "run.csv changed when each measurement set was reversed"
        return None

    oracle_check = None  # the brute-force oracle covers the update workloads


def make(name: str, mb, raw: dict, out_dir: str):
    if name == "track":
        return Track(mb, raw, out_dir)
    return {"burst": Burst, "dense": Dense}[name](mb, raw)


def distinct_signatures(z: list[str], m_cap: int) -> int:
    """Distinct (clutter part, object blocks) content signatures of Z.

    Counted here by brute force over every assignment of the sorted labels to
    the clutter part or to blocks of at most m_cap labels, independently of
    the package's own enumeration.
    """
    z = sorted(z)
    seen: set = set()
    dropped: list[str] = []
    blocks: list[list[str]] = []

    def walk(i: int) -> None:
        if i == len(z):
            seen.add((tuple(dropped), tuple(sorted(tuple(b) for b in blocks))))
            return
        dropped.append(z[i])
        walk(i + 1)
        dropped.pop()
        for b in blocks:
            if len(b) < m_cap:
                b.append(z[i])
                walk(i + 1)
                b.pop()
        blocks.append([z[i]])
        walk(i + 1)
        blocks.pop()

    walk(0)
    return len(seen)
