"""The benchmark's tracer (`perfbench/spans.py`) patches siglex attributes by
name and counts work with `len()` of their results.  These tests read its
`LAYERS` and run its count hooks on real results, so a refactor of the
library cannot silently drop a traced name or zero a per-layer count."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from siglex import Alphabet, Grid, compile_pattern, usd_alphabet
from siglex import mcla, pattern, scla

from loop_oracles import align_and_combine_loop, compress_runs_loop

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
# removed from the library, still listed by the tracer
ABSENT = {"operators.solution_operator", "uncertainty.propagate_inverse",
          "mcla.classify_operation"}


def _spans():
    name = "perfbench_spans"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, SPANS)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def test_every_traced_name_resolves():
    missing = {name for module, attr, name in _spans().LAYERS
               if not callable(getattr(importlib.import_module(module), attr, None))}
    assert missing == ABSENT


def test_count_hooks_count_samples_runs_and_matches():
    spans = _spans()
    hooks, tracer = spans._count_hooks(), spans.Tracer()

    def counted(name, fn, *args):
        result = fn(*args)
        hooks[name](tracer, args, {}, result)
        return result

    rng = np.random.default_rng(5)
    n = 500
    grids = [Grid(n, 0.1), Grid(n // 2, 0.2)]
    values = [np.repeat(rng.uniform(-1.0, 1.0, n // 5), 5), rng.uniform(0.0, 1.0, n // 2)]
    alphabets = [usd_alphabet(0.3), Alphabet(tuple("lmh"), (0.3, 0.7))]
    streams = [counted("scla.quantize", scla.quantize, v, a, g)
               for v, a, g in zip(values, alphabets, grids)]
    runs = [counted("scla.compress_runs", scla.compress_runs, s) for s in streams]
    counted("mcla.align_and_combine", mcla.align_and_combine, streams)
    matches = counted("pattern.find_all", pattern.find_all,
                      compile_pattern("u+d", alphabets[0]), streams[0])
    # a counted one-sample body is one instruction, whatever its bound
    window = counted("pattern.compile_pattern", pattern.compile_pattern,
                     "d.{0,40}u", alphabets[0])

    counts = tracer.counts[0]
    run_counts = [len(compress_runs_loop(s.symbols)) for s in streams]
    assert counts["scla.quantize.samples"] == n + n // 2
    assert counts["scla.compress_runs.tokens"] == sum(run_counts) == sum(map(len, runs))
    assert counts["mcla.align_and_combine.samples"] == \
        len(align_and_combine_loop(streams, grids)) == n // 2
    assert counts["pattern.find_all.symbols"] == n
    assert counts["pattern.find_all.runs"] == run_counts[0]
    assert counts["pattern.find_all.matches"] == len(matches) > 0
    assert counts["pattern.compile_pattern.states"] == len(window.program) <= 6
