"""The README's library quick start runs as written.

The first fenced python block of README.md is executed as a script, so a
rename in the public API that the docs still use fails the suite.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert block is not None
    exec(compile(block.group(1), f"{README}:quick-start", "exec"), {})
    intensity, evidence, gap = capsys.readouterr().out.strip().split("\n")
    assert 0.0 < float(evidence) <= 1.0
    assert float(gap) < 1e-12  # the engine agrees with brute force
