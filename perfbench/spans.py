"""Outside-in tracing of the siglex layers.

The tracer replaces public functions of the siglex modules with wrappers
that record a span (name, start, end, parent, iteration) per call and exact
work counts taken from the arguments and results.  Nothing under `src/` is
edited: `cli` imports the `operators` and `uncertainty` functions into its
own namespace, so those are wrapped as `siglex.cli.<name>`; `scla`, `mcla`
and `pattern` are called through their module attributes and wrapped there.

Work the tracer adds inside a traced call (counting, the np.convolve
reference timing) runs in a `trace.harness` span, so it is subtracted from
the caller's self time and shows up only in the tracing overhead.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

HARNESS = "trace.harness"

# (module whose attribute is patched, attribute, span name)
LAYERS = [
    ("siglex.cli", "main", "cli.main"),
    ("siglex.cli", "ingest_csv", "cli.ingest_csv"),
    ("siglex.cli", "run_pipeline", "cli.run_pipeline"),
    ("siglex.cli", "apply_streaming", "operators.apply_streaming"),
    ("siglex.cli", "extract_local_kernel", "operators.extract_local_kernel"),
    ("siglex.cli", "assemble_ldo", "operators.assemble_ldo"),
    ("siglex.cli", "solve_inverse", "operators.solve_inverse"),
    ("siglex.cli", "solution_operator", "operators.solution_operator"),
    ("siglex.cli", "propagate_inverse", "uncertainty.propagate_inverse"),
    ("siglex.cli", "estimate_residual_variance", "uncertainty.estimate_residual_variance"),
    ("siglex.cli", "confidence_band", "uncertainty.confidence_band"),
    ("siglex.scla", "quantize", "scla.quantize"),
    ("siglex.scla", "compress_runs", "scla.compress_runs"),
    ("siglex.scla", "tokens_to_csv", "scla.tokens_to_csv"),
    ("siglex.mcla", "align_and_combine", "mcla.align_and_combine"),
    ("siglex.mcla", "histogram", "mcla.histogram"),
    ("siglex.mcla", "classify_operation", "mcla.classify_operation"),
    ("siglex.mcla", "multi_tokens", "mcla.multi_tokens"),
    ("siglex.pattern", "compile_pattern", "pattern.compile_pattern"),
    ("siglex.pattern", "find_all", "pattern.find_all"),
    ("siglex.pattern", "matches_to_csv", "pattern.matches_to_csv"),
]

# Work counts fixed by the input: exact, required to repeat between
# iterations, and printed, but not per-layer metrics, because a change in
# them is a defect rather than a gain.
INVARIANTS = [
    "cli.ingest_csv.rows", "cli.output_bytes",
    "operators.apply_streaming.samples",
    "operators.assemble_ldo.n", "operators.assemble_ldo.rank",
    "operators.assemble_ldo.null_dim",
    "scla.quantize.samples", "scla.compress_runs.tokens",
    "mcla.align_and_combine.samples",
    "pattern.find_all.symbols", "pattern.find_all.runs", "pattern.find_all.matches",
]
# A smaller automaton for the same pattern is a gain: reported, lower is better.
STATES = "pattern.compile_pattern.states"
COUNTS = INVARIANTS + [STATES]

# apply_streaming self time over np.convolve of the same input, the floor
OVER_NUMPY = "operators.apply_streaming.over_numpy"
OVERHEAD = "trace.overhead_s"


def metric_names() -> list:
    """Every per-layer metric the traced run reports, with its unit."""
    out = []
    for _, _, name in LAYERS:
        out.append((f"{name}.calls", "count"))
        out.append((f"{name}.self_s", "s"))
    out.append((STATES, "count"))
    out.append((OVER_NUMPY, "ratio"))
    out.append((OVERHEAD, "s"))
    return out


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    iteration: int


def self_times(spans: list) -> list:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, lo, hi = 0.0, None, None
        for c in sorted(children[i], key=lambda c: spans[c].start):
            a, b = max(spans[c].start, s.start), min(spans[c].end, s.end)
            if b <= a:
                continue
            if hi is None or a > hi:
                covered += 0.0 if hi is None else hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        covered += 0.0 if hi is None else hi - lo
        out.append((s.end - s.start) - covered)
    return out


def _arg(args, kwargs, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


def _runs(symbols) -> int:
    if len(symbols) == 0:
        return 0
    codes = np.frombuffer("".join(symbols).encode("utf-32-le"), dtype=np.uint32)
    return 1 + int(np.count_nonzero(codes[1:] != codes[:-1]))


def _convolve_seconds(kernel, values, repeats: int = 3) -> float:
    """Fastest of `repeats` np.convolve runs of the kernel over the same input."""
    x = np.asarray(values, dtype=np.float64)
    w = np.asarray(kernel.weights)[::-1]
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.convolve(x, w, mode="valid")
        best = min(best, time.perf_counter() - t0)
    return best


def _count_hooks():
    """span name -> f(tracer, args, kwargs, result) recording counts."""

    def ingest(tr, a, k, r):
        tr.count("cli.ingest_csv.rows", next(iter(r.values()))[0].n if r else 0)

    def streaming(tr, a, k, r):
        values = _arg(a, k, 1, "stream")
        tr.count("operators.apply_streaming.samples", len(values))
        tr.count("operators.apply_streaming.numpy_s",
                 _convolve_seconds(_arg(a, k, 0, "kernel"), values))

    def ldo(tr, a, k, r):
        tr.count("operators.assemble_ldo.n", r.grid.n)
        tr.count("operators.assemble_ldo.rank", r.rank)
        tr.count("operators.assemble_ldo.null_dim", r.null_dim)

    def find_all(tr, a, k, r):
        stream = _arg(a, k, 1, "stream")
        syms = getattr(stream, "symbols", stream)
        tr.count("pattern.find_all.symbols", len(syms))
        tr.count("pattern.find_all.runs", _runs(syms))
        tr.count("pattern.find_all.matches", len(r))

    return {
        "cli.ingest_csv": ingest,
        "operators.apply_streaming": streaming,
        "operators.assemble_ldo": ldo,
        "scla.quantize": lambda tr, a, k, r: tr.count("scla.quantize.samples", len(r)),
        "scla.compress_runs": lambda tr, a, k, r: tr.count("scla.compress_runs.tokens",
                                                           len(r)),
        "mcla.align_and_combine": lambda tr, a, k, r: tr.count(
            "mcla.align_and_combine.samples", len(r)),
        "pattern.compile_pattern": lambda tr, a, k, r: tr.count(
            STATES, r.n_states),
        "pattern.find_all": find_all,
    }


class Tracer:
    """Spans and counts kept in memory, grouped by benchmark iteration."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.counts: dict = defaultdict(lambda: defaultdict(float))
        self.iteration = 0
        self._stack: list = []
        self._hooks = _count_hooks()

    def count(self, key: str, value) -> None:
        self.counts[self.iteration][key] += value

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, 0.0, 0.0, parent, self.iteration))
        self._stack.append(len(self.spans) - 1)
        self.spans[-1].start = self.clock()
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx].end = self.clock()
        self._stack.pop()

    def wrap(self, name: str, fn):
        hook = self._hooks.get(name)

        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                h = self._open(HARNESS)
                try:
                    hook(self, args, kwargs, result)
                finally:
                    self._close(h)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Patch every layer function present; restore them on exit."""
        patched, missing = [], []
        try:
            for module_name, attr, name in LAYERS:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if fn is None:
                    missing.append(name)
                    continue
                setattr(module, attr, self.wrap(name, fn))
                patched.append((module, attr, fn))
            if missing:
                print(f"perfbench: not traced (absent): {', '.join(missing)}",
                      file=sys.stderr)
            yield self
        finally:
            for module, attr, fn in reversed(patched):
                setattr(module, attr, fn)

    def iteration_metrics(self) -> dict:
        """iteration -> calls, self seconds and counts, by metric name."""
        per = {}
        for it in sorted({s.iteration for s in self.spans} | set(self.counts)):
            out = per[it] = {}
            for _, _, name in LAYERS:
                out[f"{name}.calls"] = 0
                out[f"{name}.self_s"] = 0.0
        for span, st in zip(self.spans, self_times(self.spans)):
            if span.name != HARNESS:
                per[span.iteration][f"{span.name}.calls"] += 1
                per[span.iteration][f"{span.name}.self_s"] += st
        for it, out in per.items():
            counts = self.counts[it]
            for c in COUNTS:
                out[c] = int(counts.get(c, 0))
            numpy_s = counts.get("operators.apply_streaming.numpy_s", 0.0)
            out[OVER_NUMPY] = (
                out["operators.apply_streaming.self_s"] / numpy_s if numpy_s > 0 else 0.0)
        return per

    def to_json_obj(self) -> dict:
        return {"fields": ["name", "start", "end", "parent", "iteration"],
                "spans": [[s.name, s.start, s.end, s.parent, s.iteration]
                          for s in self.spans]}


def summarize(per_iteration: list) -> tuple:
    """Median timings and exact counts over iterations; lists count drifts."""
    out, drift = {}, []
    for key in per_iteration[0]:
        values = [m[key] for m in per_iteration]
        if key.endswith(".calls") or key in COUNTS:
            if len(set(values)) != 1:
                drift.append(f"{key} differs between iterations: {values}")
            out[key] = values[0]
        else:
            out[key] = statistics.median(values)
    return out, drift
