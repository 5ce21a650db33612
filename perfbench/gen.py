"""Seeded input generation for the siglex benchmark workloads.

Every input a workload needs (sensor log CSV, pipeline config, reference
histograms) is derived from the seed alone and written before any timing
starts.  `make_inputs` returns the manifest that the worker and the checks
read; it records the CLI invocations of one iteration and the parameters
the checks need.

Values are rounded to 6 decimals and written with `repr`, so the text in
the CSV parses back to exactly the floats the checks use as references.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

WORKLOADS = ("stream_symbolic", "ldo_band", "match_chatter")

# Full-size rows per workload; tests pass a smaller `rows`.
DEFAULT_ROWS = {"stream_symbolic": 100_000, "ldo_band": 2000, "match_chatter": 6000}


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOADS.index(workload), int(seed)])


def _fmt(v: float) -> str:
    return "NaN" if np.isnan(v) else repr(float(v))


def _write_csv(path: Path, columns: dict) -> None:
    names = list(columns)
    cols = [[_fmt(v) for v in columns[c]] for c in names]
    lines = [",".join(names)]
    lines.extend(",".join(row) for row in zip(*cols))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _times(n: int, h: float) -> np.ndarray:
    # k * h rounded to 6 decimals keeps the grid uniform to ~1e-16 relative
    return np.round(np.arange(n) * h, 6)


def _segments(rng, n: int, lo: int, hi: int) -> list:
    """Consecutive segment lengths covering n samples."""
    out, total = [], 0
    while total < n:
        ln = int(rng.integers(lo, hi))
        out.append(min(ln, n - total))
        total += ln
    return out


def _stream_symbolic(rng, n: int) -> dict:
    h = 0.1
    t = _times(n, h)
    # drive: ramps and plateaus; a rise is followed by a fall half the time,
    # so `u{3,}d+` has matches, and plateaus give long stationary runs
    slopes = []
    kind = "flat"
    for ln in _segments(rng, n, 40, 400):
        if kind == "up":
            kind = "down" if rng.random() < 0.5 else "flat"
        elif kind == "down":
            kind = "up" if rng.random() < 0.5 else "flat"
        else:
            kind = "up" if rng.random() < 0.5 else "down"
        mag = rng.uniform(0.2, 1.0)
        slopes.extend([{"up": mag, "down": -mag, "flat": 0.0}[kind]] * ln)
    drive = np.cumsum(np.array(slopes) * h) + rng.normal(0.0, 5e-4, n)
    # level: slow oscillation over the l/m/h boundaries with 0.1% dropouts
    p1, p2 = rng.uniform(300.0, 900.0), rng.uniform(40.0, 120.0)
    level = (0.5 + 0.3 * np.sin(2 * np.pi * t / p1)
             + 0.1 * np.sin(2 * np.pi * t / p2) + rng.normal(0.0, 0.01, n))
    level[rng.random(n) < 1e-3] = np.nan
    # temp: piecewise-constant drift with measurement noise
    drift = []
    for ln in _segments(rng, n, 500, 3000):
        d = rng.choice([-1.0, 0.0, 1.0]) * rng.uniform(0.15, 0.5)
        drift.extend([d] * ln)
    temp = 20.0 + np.cumsum(np.array(drift) * h) + rng.normal(0.0, 2e-3, n)
    columns = {"t": t, "drive": np.round(drive, 6), "level": np.round(level, 6),
               "temp": np.round(temp, 6)}
    config = {
        "time_column": "t",
        "channels": [
            {"name": "drive", "csv_column": "drive",
             "alphabet": {"kind": "usd", "epsilon": 0.05},
             "operator": {"order": 1, "accuracy": 4}, "pattern": "u{3,}d+"},
            {"name": "level", "csv_column": "level",
             "alphabet": {"symbols": "lmh", "boundaries": [0.3, 0.7], "nan": "gap"}},
            {"name": "temp", "csv_column": "temp",
             "alphabet": {"kind": "usd", "epsilon": 0.1},
             "operator": {"order": 1, "accuracy": 2}, "pattern": "s+(u|d)"},
        ],
        "combine": ["drive", "level", "temp"],
    }
    # three operation modes, each a histogram over drive x level x temp
    prefs = {"idle": ("s", None, "s"), "ramping": ("u", None, None),
             "heating": (None, "h", "u")}
    references = {}
    for label, (pd, pl, pt) in prefs.items():
        counts = {}
        for d in "dsu":
            for lv in "lmh":
                for tp in "dsu":
                    w = ((6.0 if d == pd else 1.0) * (6.0 if lv == pl else 1.0)
                         * (6.0 if tp == pt else 1.0))
                    counts[d + lv + tp] = int(round(w * rng.uniform(5.0, 15.0)))
        references[label] = counts
    invocations = [
        ["classify", "--references", "{references}", "--window", "600"],
        ["derive"],
        ["symbolize"],
        ["combine"],
        ["hist"],
    ]
    return {"h": h, "columns": columns, "config": config,
            "references": references, "invocations": invocations}


def _ldo_band(rng, n: int) -> dict:
    h = 0.01
    t = _times(n, h)
    omega, phase = rng.uniform(0.8, 1.2), rng.uniform(0.0, 2 * np.pi)
    g = np.sin(omega * t + phase) + rng.normal(0.0, 0.05, n)
    c0, c1 = np.round(rng.uniform(-1.0, 1.0, 2), 6)
    config = {
        "time_column": "t",
        "channels": [
            {"name": "y", "csv_column": "g",
             "alphabet": {"symbols": "lmh", "boundaries": [-0.5, 0.5]},
             "ldo": {"degree": 2, "coefficients": [0.0, 0.0, 1.0], "accuracy": 2,
                     "constraints": [[0, float(c0)], [n - 1, float(c1)]]}},
        ],
        "band": {"level": 0.95},
    }
    return {"h": h, "columns": {"t": t, "g": np.round(g, 6)}, "config": config,
            "references": None, "invocations": [["solve"]]}


def _chatter(rng, n: int, symbols: str, probs, longest: int) -> str:
    """Runs of each length 1..longest in equal numbers, shuffled; adjacent
    runs always differ in symbol.  Fixing the run-length multiset keeps the
    run count, and with it the matcher's work, nearly the same for every seed."""
    copies = -(-n // (longest * (longest + 1) // 2))  # the multiset sums to >= n
    lengths = rng.permutation(np.repeat(np.arange(1, longest + 1), copies))
    out, prev, total = [], None, 0
    probs = np.asarray(probs, dtype=float)
    for ln in lengths:
        if total >= n:
            break
        p = probs.copy()
        if prev is not None:
            p[symbols.index(prev)] = 0.0
        sym = symbols[int(rng.choice(len(symbols), p=p / p.sum()))]
        ln = min(int(ln), n - total)
        out.append(sym * ln)
        prev, total = sym, total + ln
    return "".join(out)


def _match_chatter(rng, n: int) -> dict:
    level = {"d": -1.0, "s": 0.0, "u": 1.0}
    xs = _chatter(rng, n, "dsu", [0.47, 0.47, 0.06], 3)  # u on ~10% of runs
    ys = _chatter(rng, n, "ds", [0.5, 0.5], 6)

    def values(syms):
        base = np.array([level[c] for c in syms])
        return np.round(base + rng.uniform(-0.2, 0.2, n), 6)

    usd = {"kind": "usd", "epsilon": 0.5}
    channels = [("x_window", "x", "d.{0,40}u"),
                ("x_alternate", "x", "(ud|du|sd|ds){2,}"),
                ("x_rise_fall", "x", "u{2,}d+"),
                # y never rises, so every scan for `s.*u` runs to the end:
                # quadratic in the run count
                ("y_tail", "y", "d+(s.*u)?")]
    config = {
        "time_column": "t",
        "channels": [{"name": name, "csv_column": col, "alphabet": usd,
                      "pattern": pat} for name, col, pat in channels],
    }
    return {"h": 1.0, "columns": {"t": _times(n, 1.0), "x": values(xs), "y": values(ys)},
            "config": config, "references": None, "invocations": [["match"]]}


_BUILDERS = {"stream_symbolic": _stream_symbolic, "ldo_band": _ldo_band,
             "match_chatter": _match_chatter}


def make_inputs(workload: str, seed: int, directory, rows: int | None = None) -> dict:
    """Write the workload's inputs under `directory` and return its manifest."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    n = DEFAULT_ROWS[workload] if rows is None else int(rows)
    spec = _BUILDERS[workload](_rng(workload, seed), n)
    _write_csv(directory / "log.csv", spec["columns"])
    (directory / "config.json").write_text(json.dumps(spec["config"], indent=2),
                                           encoding="utf-8")
    refs = None
    if spec["references"] is not None:
        refs = str(directory / "references.json")
        Path(refs).write_text(json.dumps(spec["references"], indent=2),
                              encoding="utf-8")
    invocations = [[refs if a == "{references}" else a for a in inv]
                   for inv in spec["invocations"]]
    manifest = {
        "workload": workload,
        "seed": int(seed),
        "rows": n,
        "h": spec["h"],
        "config": str(directory / "config.json"),
        "input": str(directory / "log.csv"),
        "references": refs,
        "invocations": invocations,
    }
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2),
                                             encoding="utf-8")
    return manifest
