"""Closed-loop worker: one client runs a workload's CLI invocations in-process.

    python3 perfbench/worker.py MANIFEST --work DIR --seconds S --trace 0|1
        --result PATH [--spans PATH]

Each iteration runs every invocation of the manifest through
`siglex.cli.main(argv)` into a fresh output directory, one after another;
only that is timed.  The outputs are then checked and the directory is
removed.  An untimed warm-up iteration comes first.  With `--trace 1` half
of the time is spent untraced and half traced, so the difference of the two
medians is the tracing overhead.

Between timed iterations of an untraced run, fresh interpreters import
`siglex.cli` and load the config; their user+sys CPU time is the set-up
cost.  They run with one OpenBLAS thread: start-up does no BLAS work, and
on a 2-vCPU host the idle spinning of a second BLAS thread added ~0.05 s of
CPU time to a ~0.07 s start-up, and stretched its wall time by ~50% when
another process kept one CPU busy.  CPU time rather than wall time, and
twelve samples due evenly over the run rather than taken in one burst,
keep the figure steady when the host is busy.  The worker also records the
CPU time stolen by other guests and the load average, as signs of a busy
host beside the timings.

The worker runs in its own process, away from the input generation.  Its
peak RSS is read after the warm-up's invocations, before the checker loads
its references, so it covers the program alone.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MIN_ITERATIONS = 3
SETUP_RUNS = 12
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import siglex.cli; "
              "siglex.cli.load_config(sys.argv[2])")


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _steal_seconds():
    """CPU seconds the hypervisor gave other guests, summed over all CPUs."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            return int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def _fs_type(path: Path):
    """File system type of the mount that holds `path` (from mountinfo)."""
    path = str(path.resolve())
    best, fstype = "", None
    try:
        with open("/proc/self/mountinfo", encoding="utf-8") as fh:
            for line in fh:
                left, _, right = line.partition(" - ")
                mount = left.split()[4]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, fstype = mount, right.split()[0]
    except OSError:
        return None
    return fstype


def environment(work: Path) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        threads = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "process_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "out_fs": _fs_type(work),
    }


def setup_cpu_seconds(config: str) -> float:
    """User+sys CPU seconds of a fresh interpreter, with one BLAS thread,
    importing siglex.cli and loading the config."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), config],
                   check=True, stdout=subprocess.DEVNULL, timeout=60, env=env)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(manifest: dict, work, seconds: float, trace: bool, spans_path=None) -> dict:
    """Warm up, then time iterations for `seconds`; returns the raw samples."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    import spans
    import verify
    from siglex import cli

    work = Path(work)
    work.mkdir(parents=True, exist_ok=True)
    invocations = manifest["invocations"]
    res = {"attempted": 0, "failed": 0, "messages": [], "setup_s": []}
    checker = None

    def argv(inv, out):
        return [inv[0], "--config", manifest["config"], "--input", manifest["input"],
                "--out", str(out), *inv[1:]]

    def call(args):
        try:
            return cli.main(args)
        except Exception as exc:  # a traceback is a failed invocation, not a crash
            return f"{type(exc).__name__}: {exc}"

    def iteration(out: Path, tracer=None):
        nonlocal checker
        t0, c0 = time.perf_counter(), time.process_time()
        codes = [call(argv(inv, out)) for inv in invocations]
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if checker is None:
            res["peak_rss_mb"] = _peak_rss_mb()
            checker = verify.Checker(manifest)
        failures = checker.check(out, codes)
        if tracer is not None:
            tracer.count("cli.output_bytes",
                         checker.output_bytes(out) if out.is_dir() else 0)
        shutil.rmtree(out, ignore_errors=True)
        res["attempted"] += len(codes)
        res["failed"] += len(failures)
        res["messages"].extend(failures[k] for k in sorted(failures))
        return wall, cpu

    def loop(tag: str, budget: float, tracer=None):
        walls, cpus = [], []
        while len(walls) < MIN_ITERATIONS or sum(walls) < budget:
            if tracer is not None:
                tracer.iteration = len(walls)
            wall, cpu = iteration(work / f"{tag}{len(walls):04d}", tracer)
            walls.append(wall)
            cpus.append(cpu)
            if not trace:
                # set-up samples fall due evenly over the timed budget
                done = min(sum(walls) / budget, 1.0) if budget > 0 else 1.0
                while len(res["setup_s"]) < max(1, round(SETUP_RUNS * done)):
                    res["setup_s"].append(setup_cpu_seconds(manifest["config"]))
        return walls, cpus

    iteration(work / "warmup")
    res["env"] = environment(work)
    steal = _steal_seconds()
    budget = seconds / 2 if trace else seconds
    res["run_s"], res["cpu_s"] = loop("run", budget)
    if trace:
        tracer = spans.Tracer()
        with tracer.installed():
            res["traced_run_s"], _ = loop("traced", budget, tracer)
        res["layers"] = [m for _, m in sorted(tracer.iteration_metrics().items())]
        if spans_path is not None:
            Path(spans_path).write_text(json.dumps(tracer.to_json_obj()), encoding="utf-8")
    res["peak_rss_with_checks_mb"] = _peak_rss_mb()
    # signs of a busy host: time stolen by other guests, and this guest's load
    res["host"] = {"steal_s": None if steal is None else _steal_seconds() - steal,
                   "load1": os.getloadavg()[0]}
    return res


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("manifest")
    p.add_argument("--work", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--spans", default=None)
    args = p.parse_args(argv)
    manifest = json.loads(Path(args.manifest).read_text(encoding="utf-8"))
    res = run(manifest, args.work, args.seconds, bool(args.trace), args.spans)
    Path(args.result).write_text(json.dumps(res), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
