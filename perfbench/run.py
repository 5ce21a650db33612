"""siglex benchmark: seeded workloads, checked outputs, metrics by name.

    python3 perfbench/run.py --workload stream_symbolic --seed 1 --seconds 20 --trace 0

Run from the root of a checkout (the package is imported from `src/`).
The command generates the workload's inputs from the seed, then starts a
worker process that runs whole CLI invocations through
`siglex.cli.main(argv)` in a closed loop (one client, one invocation after
another, no extra threads beyond OpenBLAS's own) and checks every output.
Between iterations the worker also measures the CPU time a fresh
interpreter needs to import `siglex.cli` and load the config (`setup_s`).
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones (setup_s, run_s,
rows_per_s, cpu_s, peak_rss_mb); with `--trace 1` they are the per-layer
calls and self times of a traced run.  The lines above it report the
environment, the quartiles and sample counts, error_rate and, when traced,
the exact work counts (rows, samples, tokens, matches, ...).

Workloads (see gen.py for the inputs):
  stream_symbolic  1e5-row log, three channels: streamed derivatives, the
                   whole symbolic stack and long-run matching; no LDO.
  ldo_band         one LDO channel, y'' = g at n = 2000: the dense inverse
                   solve and its Student-t band; the symbolic layers idle.
  match_chatter    6000 rows of chattering symbols, four patterns: the
                   matcher on short runs, including a quadratic scan case.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import spans  # noqa: E402

# the whole command must end within 180 s
DEADLINE_S = 175.0


def run_worker(manifest_path: Path, work: Path, seconds: float, trace: bool,
               spans_path: Path, timeout: float) -> dict:
    result = work / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), str(manifest_path),
           "--work", str(work / "out"), "--seconds", str(seconds),
           "--trace", str(int(trace)), "--result", str(result)]
    if trace:
        cmd += ["--spans", str(spans_path)]
    # the worker's stdout goes to stderr: the last stdout line is ours
    subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=timeout)
    return json.loads(result.read_text(encoding="utf-8"))


def _spread(values: list) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"p25 {q1:.4f}  p75 {q3:.4f}  max {max(values):.4f}  n={len(values)}"


def end_to_end(manifest: dict, res: dict) -> dict:
    run_s = statistics.median(res["run_s"])
    rows = manifest["rows"] * len(manifest["invocations"])
    return {
        "setup_s": {"value": statistics.median(res["setup_s"]), "unit": "s"},
        "run_s": {"value": run_s, "unit": "s"},
        "rows_per_s": {"value": rows / run_s, "unit": "1/s"},
        "cpu_s": {"value": statistics.median(res["cpu_s"]), "unit": "s"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
    }


def per_layer(res: dict) -> tuple:
    """Per-layer metrics, the invariant work counts, and count drifts."""
    summary, drift = spans.summarize(res["layers"])
    overhead = statistics.median(res["traced_run_s"]) - statistics.median(res["run_s"])
    summary[spans.OVERHEAD] = overhead
    metrics = {name: {"value": summary[name], "unit": unit}
               for name, unit in spans.metric_names()}
    return metrics, {c: summary[c] for c in spans.INVARIANTS}, drift


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="siglex benchmark")
    p.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "siglex" / "cli.py").is_file():
        print(f"perfbench: no siglex package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2

    start = time.perf_counter()
    trace = bool(args.trace)
    base = ROOT / ".perfbench"
    work = base / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    spans_path = base / f"spans-{args.workload}-seed{args.seed}.json"
    try:
        manifest = gen.make_inputs(args.workload, args.seed, work / "inputs")
        res = run_worker(work / "inputs" / "manifest.json", work, args.seconds,
                         trace, spans_path, DEADLINE_S - (time.perf_counter() - start))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = res["env"]
    print(f"workload {args.workload}  seed {args.seed}  rows {manifest['rows']}  "
          f"invocations/iteration {len(manifest['invocations'])}  "
          f"closed loop, 1 in-process client")
    print("env " + "  ".join(f"{k} {v}" for k, v in env.items()))
    print("host " + "  ".join(f"{k} {v:.3f}" for k, v in res["host"].items()
                              if v is not None))
    for msg in res["messages"]:
        print(f"FAILED {msg}")
    drift = []
    if trace:
        metrics, invariants, drift = per_layer(res)
        for msg in drift:
            print(f"FAILED {msg}")
        print("work counts " + "  ".join(f"{k} {v}" for k, v in invariants.items()))
        print(f"traced run_s {_spread(res['traced_run_s'])}  untraced run_s "
              f"{_spread(res['run_s'])}  spans {spans_path.relative_to(ROOT)}")
    else:
        metrics = end_to_end(manifest, res)
        samples = {k: res[k] for k in ("setup_s", "run_s", "cpu_s")}
        for name, m in metrics.items():
            extra = _spread(samples[name]) if name in samples else ""
            print(f"{name:<12} {m['value']:.6g} {m['unit']}  {extra}")
        print(f"{'':<12} with the checks' references loaded, peak RSS reached "
              f"{res['peak_rss_with_checks_mb']:.6g} MB")
    print(f"{'error_rate':<12} {res['failed'] / res['attempted']:.6g}  "
          f"({res['failed']} of {res['attempted']} invocations failed)")
    print(json.dumps({"correct": res["failed"] == 0 and not drift,
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
