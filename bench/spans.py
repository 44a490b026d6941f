"""Spans around the package's layer functions, installed from outside it.

Each wrapper replaces the name that the calling module resolves at run time
(for example `mobayes.bayes.partitions`, which `bayes` looks up in its own
globals), and restores it on `uninstall`. A span records its name, start,
end, parent span, op id, busy time, call or item count and computed bytes;
spans stay in memory until `layer_totals` folds them at the end of the run.

Generators (`partitions`, `subsets`) get one span per generator. Its busy
time is the time spent inside their steps, and its count is the number of
items they yielded; the consumer's self time excludes only those steps.

A name that no longer exists is skipped with a warning on stderr, so its
layer reads zero instead of the harness failing.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import tracemalloc
from time import perf_counter

# span record fields
NAME, START, END, PARENT, OP, BUSY, COUNT, NBYTES = range(8)


def _array_bytes(args, kwargs) -> int:
    return int(getattr(args[0], "size", 0)) * 8 if args else 0


def _table_bytes(args, kwargs) -> int:
    """Computed size of the dense tables build_multiplicative fills."""
    try:
        d = len(args[0])
        n_max = int(kwargs["n_max"])
        m_max = kwargs.get("m_max")
        m_max = n_max if m_max is None else int(m_max)
    except (IndexError, KeyError, TypeError, ValueError):
        return 0
    return sum(d ** (n + m) for m in range(m_max + 1) for n in range(n_max + 1)) * 8


def _output_bytes(args, kwargs) -> int:
    out_dir = kwargs.get("out_dir", args[3] if len(args) > 3 else None)
    if out_dir is None:
        return 0
    total = 0
    for name in ("run.csv", "summary.json"):
        path = os.path.join(out_dir, name)
        if os.path.exists(path):
            total += os.path.getsize(path)
    return total


# (owner, attribute, span name, kind, bytes before the call, bytes after it)
TARGETS = [
    ("mobayes", "load_config", "scenario.load_config", "call", None, None),
    ("mobayes", "run", "scenario.run", "call", None, None),
    ("mobayes", "posterior_partition_clutter", "bayes.update", "call", None, None),
    ("mobayes.scenario", "posterior_partition_clutter", "bayes.update", "call", None, None),
    ("mobayes.scenario", "predict", "prediction.predict", "call", None, None),
    ("mobayes.scenario", "simulate", "scenario.simulate", "call", None, None),
    ("mobayes.scenario", "write_outputs", "scenario.write_outputs", "call", None, _output_bytes),
    ("mobayes.scenario", "build_multiplicative", "prediction.build", "call", _table_bytes, None),
    ("mobayes.bayes", "partitions", "combinatorics.partitions", "generator", None, None),
    ("mobayes.bayes", "subsets", "combinatorics.subsets", "generator", None, None),
    ("mobayes.bayes", "symmetrize", "finite_pp.symmetrize", "call", _array_bytes, None),
    ("mobayes.finite_pp", "symmetrize", "finite_pp.symmetrize", "call", _array_bytes, None),
    ("mobayes.finite_pp.MultiObjectDensity", "__init__", "finite_pp.density_init", "method", None, None),
]
UPDATE_TARGETS = [t for t in TARGETS if t[2] == "bayes.update"]


def _resolve(owner: str):
    """Import the longest module prefix of a dotted owner, then getattr."""
    parts = owner.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr, None)
            if obj is None:
                return None
        return obj
    return None


def missing_targets(targets=TARGETS) -> list[str]:
    """Dotted names of wrap targets that do not exist in the package."""
    missing = []
    for owner, attr, *_ in targets:
        obj = _resolve(owner)
        if obj is None or not hasattr(obj, attr):
            missing.append(f"{owner}.{attr}")
    return missing


class _Patcher:
    """Swap attributes for wrappers and put the originals back."""

    def __init__(self, targets):
        self.targets = targets
        self.saved: list[tuple[object, str, object]] = []
        self.warned = False

    def _wrap(self, fn, target):
        raise NotImplementedError

    def install(self) -> None:
        missing = []
        for target in self.targets:
            owner, attr = target[0], target[1]
            obj = _resolve(owner)
            fn = getattr(obj, attr, None) if obj is not None else None
            if fn is None:
                missing.append(f"{owner}.{attr}")
                continue
            self.saved.append((obj, attr, fn))
            setattr(obj, attr, self._wrap(fn, target))
        if missing and not self.warned:
            self.warned = True
            print(
                f"trace: not found, recording zero calls: {', '.join(missing)}",
                file=sys.stderr,
            )

    def uninstall(self) -> None:
        while self.saved:
            obj, attr, fn = self.saved.pop()
            setattr(obj, attr, fn)


class Tracer(_Patcher):
    """Span recorder; `op` is the id stamped on new spans (-1 during set-up)."""

    def __init__(self, targets=TARGETS):
        super().__init__(targets)
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1

    def open(self, name: str, nbytes: int = 0) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.op, 0.0, 1, nbytes])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span[END] = perf_counter()
        span[BUSY] = span[END] - span[START]
        self.stack.pop()

    def _wrap(self, fn, target):
        _, _, name, kind, before, after = target
        if kind == "generator":
            return self._wrap_generator(fn, name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            call_args = args[1:] if kind == "method" else args
            idx = tracer.open(name, before(call_args, kwargs) if before else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)
                if after:
                    tracer.spans[idx][NBYTES] = after(call_args, kwargs)

        return wrapper

    def _wrap_generator(self, fn, name):
        tracer = self

        def steps(gen):
            idx = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            span = [name, perf_counter(), 0.0, parent, tracer.op, 0.0, 0, 0]
            tracer.spans.append(span)
            try:
                while True:
                    tracer.stack.append(idx)
                    t0 = perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        span[BUSY] += perf_counter() - t0
                        tracer.stack.pop()
                    span[COUNT] += 1
                    yield item
            finally:
                span[END] = perf_counter()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return steps(fn(*args, **kwargs))

        return wrapper

    def layer_totals(self, ops: set[int]) -> dict[str, dict[str, float]]:
        """Per span name: summed busy, self time, count, calls and bytes.

        Only spans stamped with an id in `ops` count. A span's self time is
        its busy time minus the busy time of its child spans.
        """
        child_busy = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_busy[span[PARENT]] += span[BUSY]
        totals: dict[str, dict[str, float]] = {}
        for idx, span in enumerate(self.spans):
            if span[OP] not in ops:
                continue
            t = totals.setdefault(
                span[NAME], {"busy": 0.0, "self": 0.0, "count": 0, "calls": 0, "bytes": 0}
            )
            t["busy"] += span[BUSY]
            t["self"] += span[BUSY] - child_busy[idx]
            t["count"] += span[COUNT]
            t["calls"] += 1
            t["bytes"] += span[NBYTES]
        return totals


class PeakProbe(_Patcher):
    """tracemalloc peak above the starting level, per update call.

    Kept apart from Tracer because tracemalloc slows every allocation.
    """

    def __init__(self):
        super().__init__(UPDATE_TARGETS)
        self.peaks: list[int] = []

    def _wrap(self, fn, target):
        probe = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                return fn(*args, **kwargs)
            finally:
                probe.peaks.append(tracemalloc.get_traced_memory()[1] - base)

        return wrapper

    def install(self) -> None:
        tracemalloc.start()
        super().install()

    def uninstall(self) -> None:
        super().uninstall()
        tracemalloc.stop()
