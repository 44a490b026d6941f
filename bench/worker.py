"""One benchmark child: set up one workload, measure it, check every op.

run.py starts several of these in turn, each a fresh interpreter with BLAS
and OpenMP pinned to one thread, so that peak RSS and the package's caches do
not carry over from one set-up to the next. The child prints one JSON object
as its last line of stdout; run.py combines the children's objects.

    python3 bench/worker.py --workload burst --seed 0 --seconds 4 --trace 0

Untraced, the child times set-up (model construction plus one warm-up op) and
then runs ops in a closed loop for --seconds, timing a calibration kernel
after every op so run.py can scale latencies to a reference machine speed.
Traced, it times half the budget untraced and half with spans on, so the
trace reports its own overhead, then samples tracemalloc peaks on a few
extra updates.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

import inputs  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

REFERENCE_DIR = BENCH / "reference"
WORK_DIR = ROOT / ".bench_work"  # track writes run.csv here; removed after
PEAK_SAMPLES = 3  # updates (burst, dense) or episodes (track) under tracemalloc
MAX_MESSAGES = 5
# Calibration kernel per workload: Python loop iterations, numpy gather
# repetitions over 2**17 floats, and the kernel's reference time in seconds.
# The kernel mimics the workload's kind of work (interpreter-bound for burst
# and track, memory-bound numpy as well for dense) and uses no mobayes code.
CALIBRATION = {
    "burst": (20000, 0, 1.5e-3),
    "dense": (8000, 3, 3.4e-3),
    "track": (20000, 0, 1.5e-3),
}
SETUP_CALIBRATIONS = 3  # kernel runs before and after set-up


def import_package():
    """Import mobayes from this checkout's src/, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    import mobayes

    where = Path(mobayes.__file__).resolve().parent
    if where != SRC / "mobayes":
        raise SystemExit(f"mobayes imported from {where}, not from {SRC}")
    return mobayes


def load_reference(workload: str) -> dict:
    with open(REFERENCE_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def machine() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


class Gate:
    """Counts ops and failures; any raise or mismatch fails the op."""

    def __init__(self, reference: list[list[float]], tol: dict):
        self.reference = reference
        self.rel, self.abs = tol["rel"], tol["abs"]
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.first_blob: dict[int, bytes] = {}

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.messages) < MAX_MESSAGES:
            self.messages.append(what)

    def check(self, item: int, outcome) -> None:
        """Reference values, total mass, and byte-identical repeats."""
        self.attempted += 1
        if isinstance(outcome, str):
            return self.fail(f"item {item}: {outcome}")
        ref = self.reference[item]
        if len(ref) != len(outcome.values):
            return self.fail(f"item {item}: {len(outcome.values)} values, reference has {len(ref)}")
        for k, (got, want) in enumerate(zip(outcome.values, ref)):
            if not abs(got - want) <= self.rel * abs(want) + self.abs:
                return self.fail(f"item {item}: value {k} is {got!r}, reference {want!r}")
        if not outcome.mass_error <= workloads.MASS_TOL:
            return self.fail(f"item {item}: total mass off by {outcome.mass_error:.3e}")
        if outcome.blob is not None:
            first = self.first_blob.setdefault(item, outcome.blob)
            if outcome.blob != first:
                return self.fail(f"item {item}: output bytes differ on a repeat")

    def extra(self, what: str, check) -> None:
        """A gate-only op (oracle or permuted input); counts as attempted."""
        self.attempted += 1
        try:
            problem = check()
        except Exception as exc:  # the harness keeps running and reports it
            problem = f"{type(exc).__name__}: {exc}"
        if problem:
            self.fail(f"{what}: {problem}")


class Calibrator:
    """Times a fixed kernel; its time tracks the machine's current speed."""

    def __init__(self, workload: str):
        self.iters, self.reps, self.ref_s = CALIBRATION[workload]
        size = (1 << 17) if self.reps else 0  # no arrays to add to burst's RSS
        self.key = np.random.default_rng(0).integers(0, size, size)
        self.x = np.linspace(0.0, 1.0, size)

    def __call__(self) -> float:
        t0 = perf_counter()
        acc = 0
        for i in range(self.iters):
            acc += i * i
        for _ in range(self.reps):
            np.bincount(self.key, weights=self.x, minlength=self.x.size)[self.key]
        return perf_counter() - t0


def run_op(wl, item: int):
    """One timed op; returns (latency, raw result or an error string)."""
    t0 = perf_counter()
    try:
        result = wl.op(item)
    except Exception as exc:  # ZeroEvidence, TruncationOverflow, ConfigError, ...
        return perf_counter() - t0, f"{type(exc).__name__}: {exc}"
    return perf_counter() - t0, result


def outcome_of(wl, result):
    """The op's gated outcome, or an error string if it cannot be read."""
    if isinstance(result, str):
        return result
    try:
        return wl.outcome(result)
    except (workloads.GateFailure, OSError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def measure(
    wl, items, start: int, budget: float, gate: Gate,
    tracer=None, on_result=None, calibrate=None,
):
    """Closed loop over items from `start` until `budget` seconds pass.

    With `calibrate`, the kernel runs after every op, outside its latency.
    """
    latencies, cals = [], []
    i = start
    t_begin = perf_counter()
    while True:
        item = items[i % len(items)]
        if tracer is not None:
            tracer.op = i
            root = tracer.open("op")
        latency, result = run_op(wl, item)
        if tracer is not None:
            tracer.close(root)
        latencies.append(latency)
        if on_result is not None and not isinstance(result, str):
            on_result(item, result)
        gate.check(item, outcome_of(wl, result))
        if calibrate is not None:
            cals.append(calibrate())
        i += 1
        if perf_counter() - t_begin >= budget:
            break
    return latencies, cals, perf_counter() - t_begin, i


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", type=int, default=0, help="index of this child in the run")
    ap.add_argument("--children", type=int, default=1)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be nonnegative and --seconds positive")

    mb = import_package()
    ref_doc = load_reference(args.workload)
    gate = Gate(ref_doc["values"][inputs.input_set(args.seed)], ref_doc["tolerance"])
    raw = inputs.make(args.workload, args.seed)
    order = inputs.op_order(args.workload, args.seed, len(raw["pool"]))
    start = args.child * len(order) // args.children
    os.makedirs(WORK_DIR, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="bench-", dir=WORK_DIR)
    try:
        wl = workloads.make(args.workload, mb, raw, out_dir)
        report = {"machine": machine()}
        tracer = spans.Tracer() if args.trace else None

        calibrate = Calibrator(args.workload)
        setup_cals = [calibrate() for _ in range(SETUP_CALIBRATIONS)]
        if tracer:
            tracer.install()
            setup_root = tracer.open("setup")
        t0 = perf_counter()
        wl.build()
        _, warm = run_op(wl, order[start])
        report["setup_s"] = perf_counter() - t0
        if tracer:
            tracer.close(setup_root)
            tracer.uninstall()
        setup_cals += [calibrate() for _ in range(SETUP_CALIBRATIONS)]
        gate.check(order[start], outcome_of(wl, warm))
        report.update(cal_ref_s=calibrate.ref_s, setup_cal_s=setup_cals)

        if not tracer:
            lat, cals, wall, _ = measure(wl, order, start, args.seconds, gate, calibrate=calibrate)
            report.update(latencies=lat, cal_s=cals, wall_s=wall)
            report["rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        else:
            report.update(trace_report(wl, order, start, args.seconds, gate, tracer, calibrate))

        item = order[start]
        if wl.oracle_check is not None:
            gate.extra(f"oracle item {item}", lambda: wl.oracle_check(item))
        gate.extra(f"permuted item {item}", lambda: wl.permutation_check(item))
        report.update(attempted=gate.attempted, failed=gate.failed, messages=gate.messages)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps(report))
    return 0


def trace_report(wl, order, start, seconds, gate, tracer, calibrate) -> dict:
    """Half the budget untraced, half traced; then tracemalloc peaks.

    Both halves run the calibration kernel after every op, so the tracing
    overhead is compared at the same reference speed.
    """
    plain_lat, plain_cal, _, i = measure(wl, order, start, seconds / 2, gate, calibrate=calibrate)
    seen_sets: list[list[str]] = []

    def keep_sets(item, result):
        seen_sets.extend(wl.measurement_sets(item, result))

    tracer.install()
    first = i
    try:
        traced_lat, traced_cal, _, i = measure(
            wl, order, first, seconds / 2, gate, tracer, keep_sets, calibrate
        )
    finally:
        tracer.uninstall()
    traced_ops = list(range(first, i))
    # counted by the benchmark itself, after the traced interval
    counted: dict[tuple, int] = {}
    for z in seen_sets:
        key = tuple(sorted(z))
        if key not in counted:
            counted[key] = workloads.distinct_signatures(list(key), wl.m_max)
    signatures = sum(counted[tuple(sorted(z))] for z in seen_sets)

    probe = spans.PeakProbe()
    probe.install()
    try:
        for k in range(PEAK_SAMPLES):
            wl.op(order[(i + k) % len(order)])
    finally:
        probe.uninstall()

    return {
        "setup_spans": tracer.layer_totals({-1}),
        "spans": tracer.layer_totals(set(traced_ops)),
        "traced_ops": len(traced_ops),
        "plain": {"latencies": plain_lat, "cal_s": plain_cal},
        "traced": {"latencies": traced_lat, "cal_s": traced_cal},
        "signatures": signatures,
        "update_peak_bytes": max(probe.peaks, default=0),
    }


if __name__ == "__main__":
    sys.exit(main())
