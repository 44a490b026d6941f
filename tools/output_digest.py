#!/usr/bin/env python3
"""One digest of the outputs of every benchmark `track` episode.

    PYTHONPATH=src python3 tools/output_digest.py

Runs the 48 episodes of each of the 16 `track` input sets that
bench/inputs.py builds (768 episodes, each seeded as the benchmark seeds
it) through mobayes.run, and prints one SHA-256 over the run.csv and
summary.json bytes of all of them, in order. Two checkouts whose outputs
are byte-identical print the same line; run it once with PYTHONPATH on
each package's src/ to compare them. The package imported is printed to
stderr. bench/inputs.py is read, not changed.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import inputs  # noqa: E402

import mobayes  # noqa: E402


def main() -> int:
    print(f"package: {Path(mobayes.__file__).parent}", file=sys.stderr)
    digest = hashlib.sha256()
    episodes = 0
    with tempfile.TemporaryDirectory(prefix="output-digest-") as out:
        for input_set in range(inputs.N_SETS):
            raw = inputs.track(input_set)
            scenario = mobayes.load_config(raw["config"])
            for seed in raw["pool"]:
                scenario.seed = seed
                try:
                    mobayes.run(scenario, out)
                except mobayes.TruncationOverflow:
                    pass  # run wrote the completed steps before raising
                for name in ("run.csv", "summary.json"):
                    digest.update((Path(out) / name).read_bytes())
                episodes += 1
    print(f"{episodes} episodes sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
