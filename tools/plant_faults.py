#!/usr/bin/env python3
"""Plant single-line faults in a copy of the package and report which the
checks catch.

    python3 tools/plant_faults.py            # every fault
    python3 tools/plant_faults.py NAME ...   # the named faults only

Each fault is a (file, old text, new text) triple under src/mobayes. For
each one the tool copies src/ to a temporary directory, replaces the old
text, which must occur exactly once, and runs the tier-1 suite (pytest on
tests/) and `mobayes verify --level fast` against the copy. A fault is
caught when either fails. The tool prints one line per fault, with the
number of failing tests, the first of them and the failing verify checks,
and a summary; a fault marked equivalent carries the reason it cannot
change a result.

It is not part of tier-1: every fault costs one run of the suite. It exits
with 2 when a fault's old text no longer occurs exactly once, so the list
is kept in step with the code, and with 1 when a fault that is not marked
equivalent escapes both checks.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 600


class Fault(NamedTuple):
    name: str
    file: str  # under src/mobayes
    old: str
    new: str
    equivalent: str | None = None  # why no result can change, if none can


FAULTS = [
    # mass accounting at the caps
    Fault(
        "superpose-dropped-slice",
        "finite_pp.py",
        "c2[k_max + 1 - j :]",
        "c2[k_max + 2 - j :]",
    ),
    Fault(
        "superpose-drops-second-mass",
        "finite_pp.py",
        "mass = P1.truncation_mass + P2.truncation_mass + max(0.0, dropped)",
        "mass = P1.truncation_mass + max(0.0, dropped)",
    ),
    Fault(
        "poisson-tail-extra-term",
        "finite_pp.py",
        "for k in range(n + 1):\n        if k > 0:",
        "for k in range(n + 2):\n        if k > 0:",
    ),
    Fault(
        "predict-forgets-carried-mass",
        "prediction.py",
        "predicted.truncation_mass = posterior.truncation_mass + dropped",
        "predicted.truncation_mass = dropped",
    ),
    Fault(
        "overflow-budget-doubled",
        "prediction.py",
        "if dropped > max_dropped:",
        "if dropped > 2 * max_dropped:",
    ),
    Fault(
        "poisson-posterior-reports-no-truncation",
        "bayes.py",
        "density.truncation_mass = max(0.0, 1.0 - density.total_mass())",
        "density.truncation_mass = 0.0",
    ),
    Fault(
        "filter-forgets-carried-mass",
        "scenario.py",
        "self.truncation_mass += dropped",
        "self.truncation_mass = dropped",
    ),
    Fault(
        "run-skips-renormalization",
        "scenario.py",
        "predicted * (1.0 / total)",
        "predicted",
    ),
    Fault(
        "exponents-floor-for-ceil",
        "bayes.py",
        "per = -(-math.frexp(peak)[1] // size)",
        "per = math.frexp(peak)[1] // size",
        "scaled values then stay below 2 rather than below 1, and the scale "
        "cancels exactly in every posterior and evidence",
    ),
    # faults planted by hand while earlier changes were made
    Fault(
        "motion-transposed",
        "prediction.py",
        "self.move = _frozen(f * p_s)",
        "self.move = _frozen(f.T * p_s)",
    ),
    Fault(
        "likelihood-key-missing-cap",
        "bayes.py",
        "shift, ell = _likelihood(kernel, clutter, z, prune, n_max)",
        # a cache in front of _likelihood keyed without the prior's cap
        'shift, ell = vars(_likelihood).setdefault("by_z", {}).setdefault('
        "(kernel, clutter, z, prune), _likelihood(kernel, clutter, z, prune, n_max))",
    ),
    Fault(
        "likelihood-kept-as-view",
        "bayes.py",
        "return shift, _frozen(ell)",
        # the cached l_Z a view into an array that also holds W
        "return shift, _frozen(np.concatenate([ell, levels.flat])[: ell.size])",
    ),
    # faults in the flat kernels
    Fault(
        "bin-reverses-row-order",
        "finite_pp.py",
        "out = np.bincount(flat, weights=weights.reshape(-1), minlength=rows * bins)",
        "out = np.bincount(flat[::-1], weights=weights.reshape(-1)[::-1], minlength=rows * bins)",
    ),
    Fault(
        "differentiate-wrong-position",
        "finite_pp.py",
        "flat = P.flat[_grow(P.space.size, P.n_max - 1)[:, ix]]",
        "flat = P.flat[_grow(P.space.size, P.n_max - 1)[:, ix - 1]]",
    ),
]


def plant(fault: Fault, dest: Path) -> Path:
    """A copy of src/ under dest with the fault planted; its src path."""
    src = dest / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    path = src / "mobayes" / fault.file
    text = path.read_text()
    count = text.count(fault.old)
    if count != 1:
        raise LookupError(f"{fault.name}: old text occurs {count} times in {fault.file}")
    path.write_text(text.replace(fault.old, fault.new))
    return src


def failures(output: str) -> str:
    """How many tests a pytest run failed, and the first of them."""
    lines = output.strip().splitlines()
    failed = [line.split()[1] for line in lines if line.startswith(("FAILED ", "ERROR "))]
    if not failed:
        return lines[-1] if lines else "no output"
    return f"{len(failed)} failed, first {failed[0]}"


def check(src: Path) -> tuple[str | None, str | None]:
    """What catches the planted copy: the tier-1 failures and the failing
    verify checks, each None when that check passes."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    where = subprocess.run(
        [sys.executable, "-c", "import mobayes; print(mobayes.__file__)"],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    if not where.stdout.startswith(str(src)):
        raise RuntimeError(f"the copy is not the package imported: {where.stdout or where.stderr}")
    tier1 = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-rfE",
         "--continue-on-collection-errors", "tests"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
    )
    verify = subprocess.run(
        [sys.executable, "-m", "mobayes.cli", "verify", "--level", "fast"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
    )
    failed_test = None if tier1.returncode == 0 else failures(tier1.stdout)
    failed_verify = None
    if verify.returncode != 0:
        fails = [line.split()[1] for line in verify.stdout.splitlines() if line.startswith("FAIL ")]
        failed_verify = ", ".join(fails) or (verify.stdout + verify.stderr).strip().splitlines()[-1]
    return failed_test, failed_verify


def main(names: list[str]) -> int:
    chosen = [f for f in FAULTS if not names or f.name in names]
    unknown = set(names) - {f.name for f in FAULTS}
    if unknown:
        print(f"unknown faults: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    caught, equivalent, escaped = [], [], []
    for fault in chosen:
        with tempfile.TemporaryDirectory(prefix="plant-") as tmp:
            try:
                src = plant(fault, Path(tmp))
            except LookupError as exc:
                print(exc, file=sys.stderr)
                return 2
            test, verify = check(src)
        if test or verify:
            status = f"caught: tier-1 {test or 'passed'}; verify {verify or 'passed'}"
            caught.append(fault.name)
        elif fault.equivalent:
            status = f"equivalent: {fault.equivalent}"
            equivalent.append(fault.name)
        else:
            status = "ESCAPED tier-1 and verify"
            escaped.append(fault.name)
        print(f"{fault.name}: {status}", flush=True)
    print(
        f"{len(chosen)} faults: {len(caught)} caught, {len(equivalent)} equivalent,"
        f" {len(escaped)} escaped"
    )
    return 1 if escaped else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
