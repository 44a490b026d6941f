"""The package names the benchmark's span wrappers patch must keep existing.

bench/spans.py wraps layer functions by dotted name and, when one has gone,
records zero calls for it instead of failing. This test turns such a
rename into a suite failure. The module is loaded from its file and not
registered, so importing it leaves bench/ untouched.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_wrapped_name_exists():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.missing_targets() == []
