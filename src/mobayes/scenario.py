"""Scenario configuration, simulation, the filter and its outputs.

A scenario is one JSON document: two label lists, a prior, a per-object
measurement kernel, a clutter process, a survive-or-die transition, a step
count and a seed. simulate() draws ground truth and measurement sets from
the generative model; run() feeds those measurements through the exact
filter and writes one CSV row per step plus a JSON summary.

The filter is a Filter: the belief as one flat vector of packed
coefficients, stepped by the flat prediction (M x) and the flat update
(the product with the cached Janossy likelihood l_Z), an HMM forward pass
on multisets. It calls the helpers that predict and
posterior_partition_clutter call, in their order, so its records are
bitwise those of the one-step API, and it builds no density per step.

Randomness comes from numpy's default generator (PCG64) seeded once, and
every draw goes through a single stream in a fixed order, so outputs are
byte-identical for identical (config, seed) pairs. A missing clutter block
is normalized at load time to an explicit zero-measurement clutter process;
downstream code never branches on it, which keeps the two spellings
byte-identical too.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from .bayes import (
    ObservationKernel,
    ZeroEvidence,
    _check_update_spaces,
    _update_flat,
    posterior_partition_clutter,  # unused here; bench/spans.py wraps mobayes.scenario.posterior_partition_clutter
)
from .finite_pp import (
    MAX_TENSOR_AXES,
    FiniteSpace,
    MultiObjectDensity,
    PoissonSpec,
    TruncationOverflow,
    _frozen,
    bernoulli,
    cardinality,
    intensity,
    poisson,
)
from .oracles import (
    build_multiplicative,  # unused here; bench/spans.py wraps mobayes.scenario.build_multiplicative
)
from .prediction import (
    SurviveMoveBirth,
    _check_model,
    _checked_drop,
    predict,  # unused here; bench/spans.py wraps mobayes.scenario.predict
)

CONFIG_VERSION = 1
# Largest coefficient tensor a Poisson block may ask for: d ** n_max entries.
MAX_TENSOR_ENTRIES = 3**12


class ConfigError(ValueError):
    """A scenario document failed validation; message names the field."""


@dataclass
class RunRecord:
    """One filter step: what was seen and what the posterior says."""

    step: int
    measurements: list[str]
    log_evidence: float
    intensity: np.ndarray
    cardinality: np.ndarray
    truncation_mass: float = 0.0  # cumulative mass dropped at cardinality caps

    @property
    def map_cardinality(self) -> int:
        """Most probable object count (smallest index on ties)."""
        return int(np.argmax(self.cardinality))


@dataclass
class Scenario:
    """Validated, fully constructed scenario components."""

    state_space: FiniteSpace
    obs_space: FiniteSpace
    n_max: int
    m_max: int
    prior: MultiObjectDensity
    kernel: ObservationKernel
    clutter: MultiObjectDensity
    transition: SurviveMoveBirth
    steps: int
    seed: int
    max_dropped: float
    raw: dict = field(repr=False)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _integer(doc: dict, key: str, default: int, field: str | None = None) -> int:
    """doc[key] as a JSON integer (not a bool, float or string), else ConfigError."""
    value = doc.get(key, default)
    _require(type(value) is int, f"{field or key} must be an integer, got {value!r}")
    return value


def _plain_array(value: Any) -> np.ndarray | None:
    """value as a float array if every entry is an int or a float and every
    converted entry lies strictly inside the float range, else None.

    The entries' types are read one nesting level at a time, and the range
    is checked in one numpy pass; both run in C.
    """
    leaves = [value]
    while set(map(type, leaves)) == {list}:
        leaves = list(itertools.chain.from_iterable(leaves))
    if not set(map(type, leaves)) <= {int, float}:
        return None
    try:
        arr = np.asarray(value, dtype=float)
    except OverflowError:  # an int past the float range
        return None
    return arr if np.all(np.abs(arr) < sys.float_info.max) else None


def _numbers(value: Any, field: str, *, scalar: bool = False) -> Any:
    """value as a float array (a float when scalar), else ConfigError.

    Every entry, at any nesting depth, must be a finite JSON number: no
    bools, strings or nulls. Arrays that _plain_array accepts skip the walk
    below, which finds the entry to name in the error.
    """
    if not scalar:
        arr = _plain_array(value)
        if arr is not None:
            return arr
    pending = [value]
    while pending:
        v = pending.pop()
        if isinstance(v, list) and not scalar:
            pending.extend(v)
            continue
        finite = (type(v) is int and abs(v) <= sys.float_info.max) or (
            type(v) is float and math.isfinite(v)
        )
        kind = "a finite number" if scalar else "finite numbers only"
        _require(finite, f"{field} must be {kind}, got {v!r}")
    return float(value) if scalar else np.asarray(value, dtype=float)


def _flag(spec: dict, key: str, field: str) -> bool:
    value = spec.get(key, False)
    _require(type(value) is bool, f"{field} must be true or false, got {value!r}")
    return value


def _labels(raw: Any, key: str) -> tuple[str, ...]:
    _require(isinstance(raw, list) and raw, f"{key} must be a non-empty list")
    _require(all(isinstance(s, str) for s in raw), f"{key} entries must be strings")
    return tuple(raw)


def _density_from_spec(
    spec: Any, sp: FiniteSpace, n_max: int, key: str
) -> MultiObjectDensity:
    _require(isinstance(spec, dict) and "kind" in spec, f"{key} needs a 'kind'")
    kind = spec["kind"]
    try:
        if kind == "poisson":
            cap = _integer(spec, "n_max", n_max, f"{key}.n_max")
            _require(cap <= MAX_TENSOR_AXES, f"{key}.n_max={cap} is over the limit of {MAX_TENSOR_AXES}")
            # 2**20 already exceeds the budget, so the power stays small
            _require(
                sp.size ** min(cap, 20) <= MAX_TENSOR_ENTRIES,
                f"{key}.n_max={cap} needs a {sp.size}**{cap}-entry tensor,"
                f" over the {MAX_TENSOR_ENTRIES}-entry budget",
            )
            rate = _numbers(spec["intensity"], f"{key}.intensity")
            tail = _numbers(spec.get("tail_tol", 1e-9), f"{key}.tail_tol", scalar=True)
            dens = poisson(PoissonSpec(rate, tail_tol=tail), sp, cap)
            # conditioned on the cardinality cap, so it is exactly normalized
            return dens.scaled(1.0 / dens.total_mass())
        if kind == "bernoulli":
            return bernoulli(
                _numbers(spec["q"], f"{key}.q", scalar=True),
                _numbers(spec["pdf"], f"{key}.pdf"),
                sp,
            )
        if kind == "explicit":
            tensors = spec["tensors"]
            _require(isinstance(tensors, list), f"{key}.tensors must be a list")
            levels = [_numbers(t, f"{key}.tensors") for t in tensors]
            # a config block is a probability density; only the library
            # constructor takes signed entries, for unnormalized numerators
            for n, level in enumerate(levels):
                _require(
                    not np.any(level < 0),
                    f"{key}.tensors must be nonnegative, level {n} holds {float(level.min())!r}",
                )
            return MultiObjectDensity(
                sp, levels, symmetrize_input=_flag(spec, "symmetrize", f"{key}.symmetrize")
            )
        if kind == "none":
            return MultiObjectDensity(sp, [1.0])
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"{key}: missing field {exc}") from exc
    except (ValueError, RuntimeError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    raise ConfigError(f"{key}: unknown kind {kind!r}")


def _kernel_from_spec(
    spec: Any, state_space: FiniteSpace, obs_space: FiniteSpace, key: str
) -> ObservationKernel:
    _require(isinstance(spec, dict) and "kind" in spec, f"{key} needs a 'kind'")
    kind = spec["kind"]
    try:
        if kind == "detection":
            return ObservationKernel.from_detection(
                state_space,
                obs_space,
                _numbers(spec["p_detect"], f"{key}.p_detect"),
                _numbers(spec["likelihood"], f"{key}.likelihood"),
            )
        if kind == "tables":
            tables = spec["tables"]
            _require(isinstance(tables, list), f"{key}.tables must be a list")
            return ObservationKernel(
                state_space,
                obs_space,
                [_numbers(t, f"{key}.tables") for t in tables],
                symmetrize_input=_flag(spec, "symmetrize", f"{key}.symmetrize"),
            )
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"{key}: missing field {exc}") from exc
    except (ValueError, RuntimeError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    raise ConfigError(f"{key}: unknown kind {kind!r}")


def load_config(doc: dict | str | os.PathLike) -> Scenario:
    """Validate a scenario document (dict, JSON text, or file path)."""
    if isinstance(doc, (str, os.PathLike)):
        if isinstance(doc, str) and doc.lstrip().startswith("{"):
            text = doc
        else:
            try:
                with open(doc, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except (OSError, UnicodeDecodeError) as exc:
                raise ConfigError(
                    f"cannot read config file {os.fspath(doc)!r}: {exc}"
                ) from exc
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    _require(isinstance(doc, dict), "config must be a JSON object")
    version = _integer(doc, "version", CONFIG_VERSION)
    _require(version == CONFIG_VERSION, f"unsupported config version {version!r}")

    try:
        state_space = FiniteSpace(_labels(doc.get("state_labels"), "state_labels"))
        obs_space = FiniteSpace(_labels(doc.get("obs_labels"), "obs_labels"))
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"labels: {exc}") from exc
    n_max = _integer(doc, "n_max", -1)
    _require(n_max >= 0, "n_max must be a nonnegative integer")

    prior = _density_from_spec(doc.get("prior"), state_space, n_max, "prior")
    _require(
        prior.n_max == n_max,
        f"prior supports up to {prior.n_max} objects, config says n_max={n_max}",
    )
    _require(prior.is_normalized(), "prior is not normalized")

    kernel = _kernel_from_spec(doc.get("kernel"), state_space, obs_space, "kernel")
    m_max = _integer(doc, "m_max", kernel.m_max)
    _require(
        m_max == kernel.m_max,
        f"kernel tables define m_max={kernel.m_max}, config says {m_max}",
    )

    clutter = _density_from_spec(
        doc.get("clutter", {"kind": "none"}), obs_space, n_max, "clutter"
    )
    _require(clutter.is_normalized(), "clutter process is not normalized")

    tr = doc.get("transition")
    _require(isinstance(tr, dict), "transition block is required")
    max_dropped = tr.get("max_dropped", 1e-6)
    _require(
        type(max_dropped) in (int, float) and 0 <= max_dropped < math.inf,
        f"transition.max_dropped must be a finite number >= 0, got {max_dropped!r}",
    )
    max_dropped = float(max_dropped)
    try:
        birth = _density_from_spec(
            tr.get("birth", {"kind": "none"}), state_space, n_max, "transition.birth"
        )
        # The budget in max_dropped is enforced per step on the
        # belief-weighted drop, which is what actually leaves the recursion.
        transition = SurviveMoveBirth(
            _numbers(tr["survival"], "transition.survival"),
            _numbers(tr["motion"], "transition.motion"),
            birth,
            n_max=n_max,
        )
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"transition: missing field {exc}") from exc
    except (ValueError, RuntimeError) as exc:
        raise ConfigError(f"transition: {exc}") from exc

    steps = _integer(doc, "steps", 0)
    _require(steps >= 0, "steps must be nonnegative")
    seed = _integer(doc, "seed", 0)
    _require(seed >= 0, "seed must be a nonnegative integer")

    return Scenario(
        state_space=state_space,
        obs_space=obs_space,
        n_max=n_max,
        m_max=m_max,
        prior=prior,
        kernel=kernel,
        clutter=clutter,
        transition=transition,
        steps=steps,
        seed=seed,
        max_dropped=max_dropped,
        raw=doc,
    )


# ---------------------------------------------------------------------------
# sampling the generative model
# ---------------------------------------------------------------------------


def _cdf(p: np.ndarray) -> list[float]:
    """Generator.choice's table for the probabilities p: their cumulative
    sums divided by the last one, as a list of floats.

    _draw on it returns what rng.choice(len(p), p=p) returns, by the same
    right-side search over one rng.random() double, so a table built once
    serves every draw without changing the stream.
    """
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    return cdf.tolist()


def _draw(rng: np.random.Generator, cdf: list[float]) -> int:
    """One index drawn from a _cdf table: bisect_right is the comparison of
    searchsorted(side="right"), without the numpy call."""
    return bisect.bisect_right(cdf, rng.random())


def _tuple_sampler(
    density: MultiObjectDensity,
) -> Callable[[np.random.Generator], tuple[int, ...]]:
    """A draw of one configuration (as state indices) from a normalized density.

    The table of the clipped, normalized cardinality distribution is built
    here and each level's table on first use, so repeated draws only
    consume the stream. A draw reads the dense view, one draw over all d**n
    ordered tuples: a draw over packed entries would consume the stream
    differently and change every simulated episode, and with them the
    recorded references of the track benchmark.
    """
    card = np.clip(density.cardinality_distribution(), 0.0, None)
    card = _cdf(card / card.sum())
    levels: dict[int, list[float]] = {}

    def draw(rng: np.random.Generator) -> tuple[int, ...]:
        n = _draw(rng, card)
        if n == 0:
            return ()
        if n not in levels:
            weights = density.tensors[n].ravel()
            levels[n] = _cdf(weights / weights.sum())
        flat = _draw(rng, levels[n])
        return tuple(int(i) for i in np.unravel_index(flat, density.tensors[n].shape))

    return draw


def _group_sampler(
    kernel: ObservationKernel,
) -> Callable[[np.random.Generator, int], list[int]]:
    """A draw of one object's measurement group (observation indices) from
    its state. Each state's table of group sizes is built here and its
    table of groups of one size on first use; a size a state never emits
    gets none."""
    sizes = [_cdf(w / w.sum()) for w in kernel.emission_weights()]
    groups: dict[tuple[int, int], list[float]] = {}

    def draw(rng: np.random.Generator, x: int) -> list[int]:
        m = _draw(rng, sizes[x])
        if m == 0:
            return []
        table = kernel.tables[m][x]
        if (x, m) not in groups:
            weights = table.ravel()
            groups[x, m] = _cdf(weights / weights.sum())
        flat = _draw(rng, groups[x, m])
        return [int(i) for i in np.unravel_index(flat, table.shape)]

    return draw


def _evolve(
    rng: np.random.Generator,
    survival: list[float],
    moves: list[list[float]],
    objects: tuple[int, ...],
    births: Callable[[np.random.Generator], tuple[int, ...]],
) -> tuple[int, ...]:
    """One step of per-object survive-or-die motion plus fresh births;
    moves[y] is the table of motion column y."""
    survivors: list[int] = []
    for y in objects:
        if rng.random() < survival[y]:
            survivors.append(_draw(rng, moves[y]))
    return tuple(survivors) + births(rng)


def simulate(
    scenario: Scenario, *, rng: np.random.Generator | None = None
) -> tuple[list[tuple[str, ...]], list[list[str]]]:
    """Ground truth and measurement sets for the configured horizon.

    Returns (truths, measurement_sets): truths[k] is the object tuple after
    k steps (index 0 is the initial draw from the prior), and
    measurement_sets[k-1] is what step k observed: per-object groups first,
    then the clutter draw. Fully determined by the scenario seed.
    """
    if rng is None:
        rng = np.random.default_rng(scenario.seed)
    model = scenario.transition
    survival = model.survival.tolist()
    moves = [_cdf(column) for column in model.motion.T]
    births = _tuple_sampler(model.birth)
    clutter = _tuple_sampler(scenario.clutter)
    group = _group_sampler(scenario.kernel)
    state = _tuple_sampler(scenario.prior)(rng)
    truths = [tuple(scenario.state_space.labels[i] for i in state)]
    measurement_sets: list[list[str]] = []
    for _ in range(scenario.steps):
        state = _evolve(rng, survival, moves, state, births)
        truths.append(tuple(scenario.state_space.labels[i] for i in state))
        z: list[int] = []
        for x in state:
            z.extend(group(rng, x))
        z.extend(clutter(rng))
        measurement_sets.append([scenario.obs_space.labels[i] for i in z])
    return truths, measurement_sets


# ---------------------------------------------------------------------------
# the filter recursion and its outputs
# ---------------------------------------------------------------------------


class Filter:
    """The exact filter as one flat vector, stepped by predict and update.

    The belief is held as its flat packed coefficients, with the mass its
    cardinality caps have dropped so far and its last total mass. A step
    is the flat prediction (SurviveMoveBirth.propagate_flat: M x, or the
    composition past OPERATOR_BYTES), the drop check of predict, a scaling
    back to mass one and the flat update of posterior_partition_clutter
    (the cached Janossy likelihood l_Z, one product and one dot): the
    helpers predict and posterior_partition_clutter call, in their order,
    so a run through a Filter is bitwise a run through those two. No
    MultiObjectDensity or Posterior is built per step.
    """

    def __init__(
        self,
        prior: MultiObjectDensity,
        transition: SurviveMoveBirth,
        kernel: ObservationKernel,
        clutter: MultiObjectDensity | None,
        *,
        max_dropped: float,
    ):
        _check_model(prior.space, prior.n_max, transition)
        _check_update_spaces(prior, kernel, clutter)
        self.transition = transition
        self.kernel = kernel
        self.clutter = clutter
        self.max_dropped = max_dropped
        self.flat = prior.flat
        self.n_max = prior.n_max
        self.truncation_mass = prior.truncation_mass
        self.total_mass = prior.total_mass()
        self.steps = 0

    def step(self, z: Sequence[str]) -> RunRecord:
        """Predict, then update on the measurement set z; the next step's
        record. TruncationOverflow and ZeroEvidence carry that step's
        number in .step and leave the belief as it was."""
        k = self.steps + 1
        d, n = self.transition.space.size, self.transition.n_max
        predicted = self.transition.propagate_flat(self.flat, self.n_max)
        total = float(cardinality(predicted, d, n).sum())
        try:
            dropped = _checked_drop(self.total_mass, total, self.max_dropped)
        except TruncationOverflow as exc:
            exc.step = k
            raise
        try:
            flat, log_evidence = _update_flat(
                predicted * (1.0 / total), n, self.kernel, self.clutter, z
            )
        except ZeroEvidence as exc:
            exc.step = k
            raise
        card = cardinality(flat, d, n)
        if abs(card.sum() - 1.0) > 1e-9:
            raise RuntimeError(f"step {k}: cardinality distribution sums to {card.sum()!r}")
        self.flat, self.n_max, self.steps = flat, n, k
        self.truncation_mass += dropped
        self.total_mass = float(card.sum())
        return RunRecord(
            step=k,
            measurements=list(z),
            log_evidence=log_evidence,
            intensity=intensity(flat, d, n),
            cardinality=_frozen(card),
            truncation_mass=self.truncation_mass,
        )


def run(
    scenario: Scenario,
    out_dir: str | os.PathLike | None = None,
    *,
    measurement_sets: Sequence[Sequence[str]] | None = None,
) -> tuple[list[RunRecord], int | None]:
    """Step a Filter over the scenario horizon.

    Measurements default to a fresh simulate() draw. Returns the records
    plus the step at which evidence hit zero (None when the run finished).
    A TruncationOverflow from a prediction propagates with its step set,
    after the outputs of the completed steps are written. Row 0 describes
    the prior itself. When out_dir is given, writes run.csv and
    summary.json there.
    """
    if measurement_sets is None:
        _, measurement_sets = simulate(scenario)
    prior = scenario.prior
    records = [
        RunRecord(
            step=0,
            measurements=[],
            log_evidence=0.0,
            intensity=prior.intensity_vector(),
            cardinality=prior.cardinality_distribution(),
            truncation_mass=prior.truncation_mass,
        )
    ]
    belief = Filter(
        prior,
        scenario.transition,
        scenario.kernel,
        scenario.clutter,
        max_dropped=scenario.max_dropped,
    )
    failed_step: int | None = None
    overflow: TruncationOverflow | None = None
    for z in measurement_sets:
        try:
            records.append(belief.step(z))
        except TruncationOverflow as exc:
            overflow = exc
            break
        except ZeroEvidence as exc:
            failed_step = exc.step
            break
    if out_dir is not None:
        write_outputs(
            scenario,
            records,
            failed_step,
            out_dir,
            overflow_step=None if overflow is None else overflow.step,
        )
    if overflow is not None:
        raise overflow
    return records, failed_step


def write_outputs(
    scenario: Scenario,
    records: list[RunRecord],
    failed_step: int | None,
    out_dir: str | os.PathLike,
    *,
    overflow_step: int | None = None,
) -> None:
    """run.csv (fixed column order) and summary.json, both reproducible.

    failed_step and overflow_step name the step at which evidence hit zero
    or prediction overflowed its truncation budget; None when it did not.
    Each summary record carries the belief's cumulative truncation_mass;
    run.csv has no such column.
    """
    os.makedirs(out_dir, exist_ok=True)
    labels = scenario.state_space.labels
    header = (
        ["step", "log_evidence"]
        + [f"intensity_{s}" for s in labels]
        + [f"card_{n}" for n in range(scenario.n_max + 1)]
    )
    lines = [",".join(header)]
    for r in records:
        cells = [str(r.step), repr(float(r.log_evidence))]
        cells += map(repr, r.intensity.tolist())
        cells += map(repr, r.cardinality.tolist())
        lines.append(",".join(cells))
    with open(os.path.join(out_dir, "run.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")

    summary = {
        "version": CONFIG_VERSION,
        "seed": scenario.seed,
        "steps": scenario.steps,
        "state_labels": list(labels),
        "obs_labels": list(scenario.obs_space.labels),
        "n_max": scenario.n_max,
        "completed_steps": len(records) - 1,
        "zero_evidence_step": failed_step,
        "total_log_evidence": sum(r.log_evidence for r in records),
        "truncation_overflow_step": overflow_step,
        "records": [
            {
                "step": r.step,
                "measurements": r.measurements,
                "log_evidence": r.log_evidence,
                "map_cardinality": r.map_cardinality,
                "truncation_mass": r.truncation_mass,
            }
            for r in records
        ],
    }
    with open(
        os.path.join(out_dir, "summary.json"), "w", encoding="utf-8", newline="\n"
    ) as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
