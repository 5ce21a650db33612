"""Per-sample and per-row loop implementations kept as test oracles.

These are the straightforward loops the vectorized code replaced: the
per-row ``np.dot`` dense apply, the deque-based per-sample streaming kernel,
the per-sample quantize and LOCF alignment, the ``itertools.groupby``
run-length compress, the ``Counter`` histogram, the per-window classify,
the ``csv.reader`` / ``float()`` CSV ingest and the per-row ``str.format``
CSV writer.  They are slow and are used only to check the production code.
``np.dot`` does not fix its summation order, so the stencil oracles agree
with the stencil engine to rounding, not bitwise; `stencil_tolerance` gives
the bound.
"""

from __future__ import annotations

import csv
import math
from collections import Counter, deque
from itertools import groupby

import numpy as np

from siglex.csvout import BLOCK_ROWS
from siglex.errors import (
    BothEmptyError,
    MalformedCsvError,
    NoReferencesError,
    NonMonotoneTimeError,
    NonUniformGridError,
)
from siglex.grid import Grid
from siglex.operators import _stencil

EPS = float(np.finfo(np.float64).eps)


def row_window(n: int, w: int, r: int) -> int:
    """Leftmost column of row r's stencil window."""
    if r < w:
        return 0
    if r > n - 1 - w:
        return n - (2 * w + 1)
    return r - w


def banded_apply_loop(band: np.ndarray, x) -> np.ndarray:
    """Row-banded L @ x from the (n, 2w+1) band, one np.dot per row."""
    x = np.asarray(x, dtype=np.float64)
    n, width = band.shape
    out = np.empty(n)
    for r in range(n):
        lo = row_window(n, width // 2, r)
        out[r] = np.dot(band[r], x[lo:lo + width])
    return out


def banded_abs_sum(band: np.ndarray, x) -> np.ndarray:
    """sum_j |L[r, j] * x[j]| over each row's window (the rounding scale)."""
    return banded_apply_loop(np.abs(band), np.abs(x))


def stencil_tolerance(width: int, abs_sum: np.ndarray) -> np.ndarray:
    """Largest gap between two summation orders of a width-term dot product.

    Each order is within gamma_width * sum|w_j x_j| of the exact value
    (Higham, Accuracy and Stability of Numerical Algorithms, sec. 3.1), so
    two orders differ by at most 2 * gamma_width ~= width * eps of it.
    """
    return 1.01 * width * EPS * abs_sum


class DequeStreamingKernel:
    """Per-sample streaming convolution over a 2w+1-sample deque."""

    def __init__(self, kernel, boundary: str = "valid"):
        self.kernel = kernel
        self.boundary = boundary
        self._w = kernel.half_width
        self._buf = deque(maxlen=2 * self._w + 1)
        self._seen = 0

    def _row(self, pos: int) -> np.ndarray:
        width = 2 * self._w + 1
        return _stencil([j - pos for j in range(width)], self.kernel.accuracy,
                        self.kernel.order, self.kernel.h)

    def push(self, sample: float) -> list[float]:
        self._buf.append(float(sample))
        self._seen += 1
        width = 2 * self._w + 1
        if self._seen < width:
            return []
        window = np.array(self._buf)
        out = []
        if self._seen == width and self.boundary == "one_sided":
            out.extend(float(np.dot(self._row(r), window)) for r in range(self._w))
        out.append(float(np.dot(self.kernel.weights, window)))
        return out

    def finish(self) -> list[float]:
        w = self._w
        if self.boundary != "one_sided" or self._seen < 2 * w + 1:
            return []
        window = np.array(self._buf)
        return [float(np.dot(self._row(w + 1 + r), window)) for r in range(w)]


def apply_streaming_loop(kernel, stream, boundary: str = "valid") -> np.ndarray:
    sk = DequeStreamingKernel(kernel, boundary)
    out: list[float] = []
    for sample in stream:
        out.extend(sk.push(sample))
    out.extend(sk.finish())
    return np.array(out)


def align_and_combine_loop(streams, grids) -> list[str]:
    """Per-sample LOCF combination on the coarsest grid's overlap samples."""
    coarse = max(grids, key=lambda g: g.h)
    start = max(g.t0 for g in grids)
    end = min(g.t_end for g in grids)
    k_lo = int(np.ceil((start - coarse.t0) / coarse.h - 1e-9))
    k_hi = int(np.floor((end - coarse.t0) / coarse.h + 1e-9))
    samples = []
    for k in range(k_lo, k_hi + 1):
        t = coarse.t0 + coarse.h * k
        combo = ""
        for s, g in zip(streams, grids):
            i = int(np.floor((t - g.t0) / g.h + 1e-9))
            combo += s.symbols[min(max(i, 0), g.n - 1)]
        samples.append(combo)
    return samples


def quantize_loop(values, alphabet) -> str:
    """Symbol of each sample by a scan of the boundaries."""
    out = []
    for v in values:
        if not np.isfinite(v):
            out.append("_")
        elif alphabet.valid_range and not (
                alphabet.valid_range[0] <= v < alphabet.valid_range[1]):
            out.append(alphabet.catch_all)
        else:
            out.append(alphabet.symbols[sum(1 for b in alphabet.boundaries if v >= b)])
    return "".join(out)


def compress_runs_loop(symbols) -> list[tuple]:
    """(symbol, length, start) of each maximal run of a str or a list of str."""
    runs = []
    pos = 0
    for sym, grp in groupby(symbols):
        ln = sum(1 for _ in grp)
        runs.append((sym, ln, pos))
        pos += ln
    return runs


def histogram_loop(samples) -> dict:
    """Occurrence count of each sample value."""
    return dict(Counter(samples))


def classify_loop(samples, size: int, references, measure: str = "l1",
                  exclude=()) -> list[tuple[str, float]]:
    """(label, score) of each window samples[s:s + size], one at a time.

    A window's `histogram_loop` and each reference's counts are compared
    over the sorted union of their keys, less `exclude`.  l1 is a running
    float sum of |p_a - p_b| in key order; cosine is an exact Python-int
    dot product over the product of the `math.sqrt` norms, 0 if a side is
    empty.  The label is the first sorted label with the best score.
    """
    if not references:
        raise NoReferencesError("no reference histograms given")
    if measure not in ("l1", "cosine"):
        raise ValueError(f"unknown measure {measure!r}")
    drop = set(exclude)
    refs = {label: {k: v for k, v in references[label].counts.items() if k not in drop}
            for label in sorted(references)}
    out = []
    for s in range(0, len(samples), size):
        win = {k: v for k, v in histogram_loop(samples[s:s + size]).items()
               if k not in drop}
        best = None
        for label, ref in refs.items():
            keys = sorted(set(win) | set(ref))
            ta, tb = sum(win.values()), sum(ref.values())
            if measure == "l1":
                score = 0.0
                for k in keys:
                    pa = win.get(k, 0) / ta if ta else 0.0
                    pb = ref.get(k, 0) / tb if tb else 0.0
                    score += abs(pa - pb)
            else:
                if ta == tb == 0:
                    raise BothEmptyError("cosine similarity undefined for two empty "
                                         "histograms")
                dot = sum(win.get(k, 0) * ref.get(k, 0) for k in keys)
                norm = (math.sqrt(sum(v * v for v in win.values()))
                        * math.sqrt(sum(v * v for v in ref.values())))
                score = dot / norm if norm else 0.0
            if best is None or (score < best[1] if measure == "l1" else score > best[1]):
                best = (label, score)
        out.append(best)
    return out


def ingest_csv_loop(path, time_column: str, value_columns) -> dict:
    """Line-by-line ``csv.reader`` ingest with ``float()`` per cell.  Each
    line is its own record: a quoted field still open at the line's end,
    which ``csv`` would continue on the next line, is an error there."""
    times: list[float] = []
    line_nos: list[int] = []
    cols: dict[str, list[float]] = {c: [] for c in value_columns}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = iter(fh)
        try:
            header = next(csv.reader([next(lines)]))
        except StopIteration:
            raise MalformedCsvError(1, "empty file") from None
        header = [h.strip() for h in header]
        if time_column not in header:
            raise MalformedCsvError(1, f"missing time column '{time_column}'")
        t_idx = header.index(time_column)
        idx = {}
        for c in value_columns:
            if c not in header:
                raise MalformedCsvError(1, f"missing value column '{c}'")
            idx[c] = header.index(c)
        for line_no, line in enumerate(lines, start=2):
            row = next(csv.reader([line.rstrip("\r\n") + "\n"]), [])
            if any("\n" in field for field in row):
                raise MalformedCsvError(line_no, "quoted field does not end on its line")
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(header):
                raise MalformedCsvError(
                    line_no, f"expected {len(header)} fields, got {len(row)}")
            try:
                t = float(row[t_idx])
            except ValueError:
                raise MalformedCsvError(
                    line_no, f"bad timestamp {row[t_idx]!r}") from None
            if not np.isfinite(t):
                raise MalformedCsvError(line_no, f"non-finite timestamp {t!r}")
            times.append(t)
            line_nos.append(line_no)
            for c in value_columns:
                cell = row[idx[c]].strip()
                if cell == "" or cell == "NaN":
                    cols[c].append(np.nan)
                else:
                    try:
                        cols[c].append(float(cell))
                    except ValueError:
                        raise MalformedCsvError(
                            line_no, f"bad value {cell!r} in column '{c}'") from None
    n = len(times)
    if n < 2:
        raise MalformedCsvError(n + 1, f"need at least 2 data rows, got {n}")
    t_arr = np.array(times)
    with np.errstate(over="ignore"):
        deltas = np.diff(t_arr)
        h = float(t_arr[-1] - t_arr[0]) / (n - 1)
    if np.any(deltas <= 0):
        bad = int(np.argmax(deltas <= 0))
        raise NonMonotoneTimeError(
            f"timestamps not strictly increasing at line {line_nos[bad + 1]}")
    if not (np.isfinite(h) and np.isfinite(deltas).all()):
        raise NonUniformGridError(
            f"time span {t_arr[0]:.6g} to {t_arr[-1]:.6g} overflows: the step is "
            "not finite")
    if np.abs(deltas - h).max() > 1e-6 * h:
        raise NonUniformGridError(
            f"time deltas deviate by {np.abs(deltas - h).max():.3e} "
            f"from uniform step {h:.6g} (tolerance 1e-6 relative)")
    grid = Grid(n, h, float(t_arr[0]))
    return {c: (grid, np.array(cols[c])) for c in value_columns}


def write_csv_loop(path, header: str, fmt: str, n: int, block) -> None:
    """`header`, then rows 0..n-1 a block at a time, one ``fmt.format``
    call per row; `block(a, b)` returns the columns of rows a..b-1."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header)
        for a in range(0, n, BLOCK_ROWS):
            columns = [c.tolist() if isinstance(c, np.ndarray) else c
                       for c in block(a, min(a + BLOCK_ROWS, n))]
            fh.write("".join(map(fmt.format, *columns)))
