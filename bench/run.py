"""Benchmark entry point: one workload, measured in fresh child processes.

    python3 bench/run.py --workload burst --seed 0 --seconds 38 --trace 0

Runs worker.py CHILDREN times in turn, each child a fresh interpreter with
OpenBLAS and OpenMP pinned to one thread, measuring --seconds / CHILDREN
seconds of ops after its own set-up. Times are scaled to a reference
machine speed with a calibration kernel (README.md). Prints a report line
(machine, sample counts, failures, unscaled wall-clock figures) and then, as
the last line, one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics of BENCHMARK.json with --trace 0, its
per-layer metrics with --trace 1. Exits with a nonzero code and no result
if a child fails or the run overruns.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILDREN = 3  # fresh processes per run; each end-to-end metric is their median
DEADLINE_S = 170.0
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_child(args, k: int, seconds: float, timeout: float) -> dict:
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(seconds), "--trace", str(args.trace),
        "--child", str(k), "--children", str(CHILDREN),
    ]
    done = subprocess.run(
        cmd, cwd=ROOT, env={**os.environ, **CHILD_ENV},
        stdout=subprocess.PIPE, text=True, timeout=timeout,
    )
    if done.returncode != 0:
        raise RuntimeError(f"child {k} exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _p90(latencies: list[float]) -> float:
    if len(latencies) < 2:
        return latencies[0]
    return statistics.quantiles(latencies, n=10, method="inclusive")[8]


def _reference_latencies(c: dict) -> list[float]:
    """Op latencies scaled to the calibration kernel's reference speed.

    The kernel ran after every op; each latency is scaled by the kernel's
    reference time over the median of its 9 runs nearest that op.
    """
    cal, ref = c["cal_s"], c["cal_ref_s"]
    return [
        x * ref / statistics.median(cal[max(0, i - 4) : i + 5])
        for i, x in enumerate(c["latencies"])
    ]


def end_to_end(children: list[dict]) -> dict[str, float]:
    """Each metric per child, then the median over children.

    Times are in reference seconds (see _reference_latencies); set-up is
    scaled by the median of the kernel runs just before and after it. The
    median over fresh processes keeps one child that ran through a slow
    spell of the shared machine from moving the run's figures.
    """
    per_child = []
    for c in children:
        lat = _reference_latencies(c)
        per_child.append({
            "setup_s": c["setup_s"] * c["cal_ref_s"] / statistics.median(c["setup_cal_s"]),
            "ops_per_s": len(lat) / sum(lat),
            "op_s_p50": statistics.median(lat),
            "op_s_p90": _p90(lat),
            "peak_rss_mb": c["rss_kib"] / 1024,
        })
    return {k: statistics.median(p[k] for p in per_child) for k in per_child[0]}


def wall_clock(children: list[dict]) -> dict[str, float]:
    """Unscaled figures and the kernel's measured time, medians over children."""
    per_child = [
        {
            "setup_s": c["setup_s"],
            "ops_per_s": len(c["latencies"]) / c["wall_s"],
            "op_s_p50": statistics.median(c["latencies"]),
            "calibration_s": statistics.median(c["cal_s"]),
        }
        for c in children
    ]
    return {k: statistics.median(p[k] for p in per_child) for k in per_child[0]}


def _merge(children: list[dict], key: str) -> dict[str, dict[str, float]]:
    merged: dict[str, dict[str, float]] = {}
    for c in children:
        for name, fields in c[key].items():
            into = merged.setdefault(name, dict.fromkeys(fields, 0))
            for field, value in fields.items():
                into[field] += value
    return merged


def per_layer(children: list[dict]) -> dict[str, float]:
    ops = sum(c["traced_ops"] for c in children)
    setups = len(children)
    spans = _merge(children, "spans")
    setup = _merge(children, "setup_spans")

    def op(name, field="busy"):
        return spans.get(name, {}).get(field, 0) / ops

    def su(name, field="busy"):
        return setup.get(name, {}).get(field, 0) / setups

    partitions = op("combinatorics.partitions", "count")
    signatures = sum(c["signatures"] for c in children) / ops

    def rate(phase):
        lat = []
        for c in children:
            lat += _reference_latencies({**c[phase], "cal_ref_s": c["cal_ref_s"]})
        return len(lat) / sum(lat)

    return {
        "combinatorics.partitions_s": op("combinatorics.partitions"),
        "combinatorics.partitions_yielded": partitions,
        "combinatorics.subsets_s": op("combinatorics.subsets"),
        "combinatorics.subsets_yielded": op("combinatorics.subsets", "count"),
        "bayes.update_s": op("bayes.update"),
        "bayes.update_calls": op("bayes.update", "calls"),
        "bayes.self_s": op("bayes.update", "self"),
        "bayes.signatures_distinct": signatures,
        "bayes.signature_yield": signatures / partitions if partitions else 0.0,
        "bayes.update_peak_bytes": max(c["update_peak_bytes"] for c in children),
        "finite_pp.symmetrize_s": op("finite_pp.symmetrize"),
        "finite_pp.symmetrize_calls": op("finite_pp.symmetrize", "calls"),
        "finite_pp.symmetrize_bytes": op("finite_pp.symmetrize", "bytes"),
        "finite_pp.density_init_s": op("finite_pp.density_init"),
        "finite_pp.density_init_calls": op("finite_pp.density_init", "calls"),
        "prediction.build_s": su("prediction.build"),
        "prediction.table_bytes": su("prediction.build", "bytes"),
        "prediction.predict_s": op("prediction.predict"),
        "prediction.predict_calls": op("prediction.predict", "calls"),
        "scenario.load_config_s": su("scenario.load_config"),
        "scenario.simulate_s": op("scenario.simulate"),
        "scenario.write_outputs_s": op("scenario.write_outputs"),
        "scenario.output_bytes": op("scenario.write_outputs", "bytes"),
        "scenario.run_self_s": op("scenario.run", "self"),
        "trace.op_wall_s": op("op"),
        "trace.self_sum_s": sum(s["self"] for s in spans.values()) / ops,
        "trace.setup_wall_s": su("setup"),
        "trace.overhead_frac": 1.0 - rate("traced") / rate("plain"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be nonnegative and --seconds positive")
    t_begin = perf_counter()
    # turn SIGTERM into an exception, so subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "mobayes" / "__init__.py").is_file() or not spec_path.is_file():
        print("bench: no src/mobayes or BENCHMARK.json in this checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    children = []
    try:
        for k in range(CHILDREN):
            remaining = DEADLINE_S - (perf_counter() - t_begin)
            children.append(run_child(args, k, args.seconds / CHILDREN, remaining))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            os.rmdir(ROOT / ".bench_work")
        except OSError:
            pass

    values = per_layer(children) if args.trace else end_to_end(children)
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    samples = sum(len(c.get("latencies", ())) for c in children) or sum(
        c["traced_ops"] for c in children
    )
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "input_set": inputs.input_set(args.seed),
        "properties": getattr(inputs, args.workload.upper()),
        "children": CHILDREN,
        "samples": samples,
        "failed_frac": failed / attempted,
        "failed_frac_base": "timed ops, warm-ups, and per child one permuted-input op and (burst, dense) one oracle op",
        "failures": [m for c in children for m in c["messages"]],
        "wall_clock": None if args.trace else wall_clock(children),
        "machine": children[0]["machine"],
    }
    print(json.dumps(report))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
