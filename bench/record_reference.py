"""Record the reference outputs the correctness gate compares every op with.

    python3 bench/record_reference.py [burst dense track]

For every input set 0..N_SETS-1 and every pool item, in pool order, this
stores the values a workload's `outcome` reduces an op to: log evidence,
intensity and cardinality distribution for burst and dense; per-column sums
and the final row of run.csv's numeric columns for track. Rerun it only when
the package's results are meant to change, and say so in the change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import inputs
import workloads
from worker import REFERENCE_DIR, WORK_DIR, import_package, machine

# |got - want| <= REL * |want| + ABS for every recorded value
TOLERANCE = {"rel": 1e-9, "abs": 1e-12}


def record(name: str, mb) -> dict:
    os.makedirs(WORK_DIR, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="bench-", dir=WORK_DIR)
    try:
        values = []
        for s in range(inputs.N_SETS):
            wl = workloads.make(name, mb, inputs.make(name, s), out_dir)
            wl.build()
            per_item = []
            for item in range(len(wl.pool)):
                outcome = wl.outcome(wl.op(item))
                if outcome.mass_error > workloads.MASS_TOL:
                    raise SystemExit(f"{name} set {s} item {item}: mass off by {outcome.mass_error}")
                per_item.append(outcome.values)
            values.append(per_item)
            print(f"{name}: set {s} recorded", file=sys.stderr)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return {"workload": name, "tolerance": TOLERANCE, "machine": machine(), "values": values}


def write(doc: dict, path) -> None:
    """One input set per line, floats at full precision."""
    head = {k: v for k, v in doc.items() if k != "values"}
    lines = [json.dumps(row, separators=(",", ":")) for row in doc["values"]]
    text = json.dumps(head, sort_keys=True)[:-1] + ', "values": [\n' + ",\n".join(lines) + "\n]}\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def main(names) -> int:
    mb = import_package()
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or inputs.WORKLOADS:
        write(record(name, mb), REFERENCE_DIR / f"{name}.json")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
