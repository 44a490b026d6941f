"""Self-tests of the benchmark harness (not part of the package's suite).

    python3 -m pytest -q bench/tests

Smoke runs use the full-size workloads for a fraction of a second, since the
recorded references cover full-size ops only.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from run import CHILD_ENV, _reference_latencies  # noqa: E402
import worker  # noqa: E402
from worker import REFERENCE_DIR, WORK_DIR, import_package  # noqa: E402

mb = import_package()


@pytest.fixture(scope="module", autouse=True)
def _remove_work_dir():
    yield
    try:
        os.rmdir(WORK_DIR)  # workers remove their own directories inside it
    except OSError:
        pass


def _last_json(cmd: list[str]) -> dict:
    done = subprocess.run(
        cmd, cwd=ROOT, env={**os.environ, **CHILD_ENV},
        stdout=subprocess.PIPE, text=True, timeout=170, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _worker(workload: str, trace: int) -> dict:
    return _last_json([
        sys.executable, str(BENCH / "worker.py"), "--workload", workload,
        "--seed", "5", "--seconds", "0.2", "--trace", str(trace),
    ])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_smoke_every_workload(workload, trace):
    out = _worker(workload, trace)
    assert out["failed"] == 0, out["messages"]
    assert out["attempted"] >= 3  # warm-up, >= 1 timed op, permuted input
    if trace:
        assert out["traced_ops"] >= 1 and out["spans"]["op"]["calls"] == out["traced_ops"]


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_metric_of_benchmark_json(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    out = _last_json([
        sys.executable, str(BENCH / "run.py"), "--workload", "burst",
        "--seed", "21", "--seconds", "1", "--trace", str(trace),
    ])
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in out["metrics"].items()
    }
    if not trace:
        assert all(m["value"] > 0 for m in out["metrics"].values())


def test_perturbed_reference_fails_the_gate(monkeypatch, capsys):
    ref = json.loads((REFERENCE_DIR / "burst.json").read_text(encoding="utf-8"))
    for row in ref["values"][inputs.input_set(5)]:
        row[0] *= 1.0 + 1e-6  # log evidence, far outside the 1e-9 tolerance
    monkeypatch.setattr(worker, "load_reference", lambda workload: ref)
    worker.main(["--workload", "burst", "--seed", "5", "--seconds", "0.2"])
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["failed"] > 0 and out["failed"] / out["attempted"] > 0
    assert any("reference" in m for m in out["messages"])


def test_every_wrapped_name_exists():
    assert spans.missing_targets() == []


def test_missing_name_records_zero_and_warns(capsys):
    tracer = spans.Tracer([("mobayes.bayes", "no_such_function", "x.y", "call", None, None)])
    tracer.install()
    tracer.uninstall()
    assert "mobayes.bayes.no_such_function" in capsys.readouterr().err
    assert tracer.layer_totals({-1}) == {}


@pytest.mark.parametrize(
    "z, m_cap",
    [(["a", "a", "b", "c", "a"], 2), (["a", "b", "b", "a"], 1), (["c"] * 5, 2), (list("abcab"), 1)],
)
def test_signature_counter_matches_package(z, m_cap):
    labels = sorted(set(z))
    idx = tuple(labels.index(v) for v in z)
    expected = len(mb.bayes._signature_counts(idx, m_cap, with_clutter=True))
    assert workloads.distinct_signatures(z, m_cap) == expected


def test_seed_determines_inputs():
    a, b = inputs.make("dense", 3), inputs.make("dense", 3 + inputs.N_SETS)
    assert a["pool"] == b["pool"]
    assert all((x == y).all() for x, y in zip(a["prior"], b["prior"]))
    assert inputs.make("dense", 4)["pool"] != a["pool"]


def test_reference_latencies_cancel_a_speed_change():
    # the machine halves its speed after the 10th op: ops and kernel both slow
    child = {
        "latencies": [0.1] * 10 + [0.2] * 10,
        "cal_s": [0.001] * 10 + [0.002] * 10,
        "cal_ref_s": 0.001,
    }
    scaled = _reference_latencies(child)
    assert all(abs(x - 0.1) < 1e-12 for x in scaled[:6] + scaled[14:])
