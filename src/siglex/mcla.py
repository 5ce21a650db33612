"""Multi-channel lexical analysis.

Per-sensor symbol streams are aligned onto the coarsest common grid and
combined per sample.  A combined stream is a plain `SymbolStream` whose
table holds combination strings like "ud" (one symbol per channel, in
channel order), so a histogram is a `bincount` of its codes.  Histograms,
sorted into frequency dictionaries, characterize operation modes; simple
similarity measures (l1 on normalized frequencies, cosine on counts)
support mode classification.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import (
    BothEmptyError,
    EmptyInputError,
    InvalidWindowError,
    NoOverlapError,
    NoReferencesError,
)
from .grid import Grid
from .scla import Runs, SymbolStream, compress_runs


def align_and_combine(streams: Sequence[SymbolStream]) -> SymbolStream:
    """Resample streams onto the coarsest grid (LOCF) and combine them into
    one `SymbolStream` over combination strings.

    The output grid is the input grid with the largest step, restricted to
    the time overlap of all inputs; each channel contributes the symbol of
    its latest sample at or before the grid time (last observation carried
    forward, so no unseen symbols are invented).  The table holds the
    combinations that occur, each once, in the order of the channels' tables.
    """
    if len(streams) < 2:
        raise EmptyInputError(f"need at least 2 streams, got {len(streams)}")
    grids = [s.source_grid for s in streams]
    if any(g is None for g in grids):
        raise EmptyInputError("every stream needs a grid for alignment")
    if any(len(s) != g.n for s, g in zip(streams, grids)):
        raise EmptyInputError("stream length differs from its grid")

    coarse = max(grids, key=lambda g: g.h)
    start = max(g.t0 for g in grids)
    end = min(g.t_end for g in grids)
    tol = 1e-9 * coarse.h
    if start > end + tol:
        raise NoOverlapError(
            f"overlap [{start}, {end}] is empty across the given grids")

    k_lo = int(np.ceil((start - coarse.t0) / coarse.h - 1e-9))
    k_hi = int(np.floor((end - coarse.t0) / coarse.h + 1e-9))
    if k_hi < k_lo:
        raise NoOverlapError("no coarse-grid sample falls inside the overlap")

    t = coarse.time_at(np.arange(k_lo, k_hi + 1))
    # add one channel at a time as a mixed-radix digit, then renumber to the
    # combinations that occur, so keys stay below (combinations x table size)
    codes, table = np.zeros(len(t), dtype=np.uint8), ("",)
    for s, g in zip(streams, grids):
        radix = len(s.table)
        span = len(table) * radix
        key = (codes.astype(np.min_scalar_type(span)) * radix
               + s.codes[g.index_at_or_before(t)])
        if span <= len(key):  # a count per key value costs no more than a sort
            present = np.bincount(key, minlength=span) > 0
            keys = np.flatnonzero(present)
            codes = (np.cumsum(present) - 1).astype(np.min_scalar_type(len(keys) - 1)).take(key)
        else:
            keys = np.unique(key)
            codes = np.searchsorted(keys, key).astype(np.min_scalar_type(len(keys) - 1))
        table = tuple(table[k // radix] + s.table[k % radix] for k in keys.tolist())
    # tables with entries longer than one character (a combined stream as an
    # input) can spell one combination two ways: give each string one code
    first: dict = {}
    codes = np.array([first.setdefault(c, len(first)) for c in table], codes.dtype).take(codes)
    table = tuple(first)
    # a degenerate single-sample overlap has no representable grid
    out_grid = Grid(len(t), coarse.h, coarse.time_at(k_lo)) if len(t) >= 2 else None
    return SymbolStream(codes, None, out_grid, table)


def multi_tokens(ms: SymbolStream) -> Runs:
    """Run-length tokens over the combined per-sample symbols."""
    return compress_runs(ms)


# ---------------------------------------------------------------------------
# histograms / frequency dictionaries
# ---------------------------------------------------------------------------

@dataclass
class FrequencyDict:
    """Occurrence counts of symbol combinations; all counts are positive."""

    counts: dict
    total: int

    @classmethod
    def from_counts(cls, counts: Mapping[str, int]) -> "FrequencyDict":
        clean = {k: int(v) for k, v in counts.items() if v}
        if any(v < 0 for v in clean.values()):
            raise ValueError(f"negative count in {counts}")
        return cls(clean, sum(clean.values()))

    def to_json(self) -> str:
        """`{"<key>": count, ..., "total": N}`, keys sorted, two-space indent."""
        obj = dict(sorted(self.counts.items()))
        obj["total"] = self.total
        return json.dumps(obj, indent=2) + "\n"

    @classmethod
    def from_json_obj(cls, obj) -> "FrequencyDict":
        """Parse a loaded `to_json` object; "total" is recomputed, not read.

        Raises ValueError unless `obj` maps keys to non-negative integers
        below 2^53, which float64 holds exactly.
        """
        if not isinstance(obj, dict):
            raise ValueError(f"histogram must be an object, got {type(obj).__name__}")
        counts = {k: v for k, v in obj.items() if k != "total"}
        for k, v in counts.items():
            if isinstance(v, bool) or not isinstance(v, int):
                raise ValueError(f"count of {k!r} is not an integer: {v!r}")
            if v >= 2 ** 53:
                raise ValueError(f"count of {k!r} is 2^53 or more, which float64 "
                                 "does not hold exactly")
        return cls.from_counts(counts)


def histogram(ms: SymbolStream, window: Optional[tuple] = None) -> FrequencyDict:
    """Count symbol combinations per sample over [start, stop)."""
    n = len(ms)
    if window is None:
        start, stop = 0, n
    else:
        start, stop = window
        if not (0 <= start <= stop <= n):
            raise InvalidWindowError(f"window {window} out of bounds for length {n}")
    counts = np.bincount(ms.codes[start:stop], minlength=len(ms.table)).tolist()
    return FrequencyDict.from_counts(dict(zip(ms.table, counts)))


def frequency_dictionary(fd: FrequencyDict) -> list[tuple[str, int]]:
    """Entries sorted by decreasing count, ties by key ascending."""
    return sorted(fd.counts.items(), key=lambda kv: (-kv[1], kv[0]))


def exclude_symbols(fd: FrequencyDict, keys: Iterable[str]) -> FrequencyDict:
    """Drop the listed combination keys (e.g. the dominant stationary bins)."""
    drop = set(keys)
    return FrequencyDict.from_counts(
        {k: v for k, v in fd.counts.items() if k not in drop})


def window_classifier(ms: SymbolStream, size: int,
                      references: Mapping[str, FrequencyDict], measure: str = "l1",
                      exclude: Iterable[str] = ()):
    """Label the windows [s, s + size) of `ms` (the last one cut at the end)
    with their best-matching reference histograms, a block at a time.

    The `exclude` keys (e.g. the dominant stationary bins) are dropped from
    the windows and the references, and each window is scored against each
    reference over the sorted union of the keys left.  l1 adds |p_w - p_r|
    of the normalized frequencies in key order, a running sum, in [0, 2]
    (0 identical, 2 disjoint).  cosine divides the count dot product by the
    product of the `math.sqrt` norms, on exact Python ints, whose products
    int64 would overflow; it lies in [0, 1] (1 identical, 0 disjoint) and
    is undefined for an empty window against an empty reference.  l1 picks
    the least distance, cosine the largest similarity; ties go to the
    lexicographically first label.

    Returns `classify(first, stop)`: the label, as an index into
    `sorted(references)`, and the score of windows first..stop-1.  Each
    window is scored on its own row, so blocks give the bits of one whole
    call, in memory that grows with the block.  Every error is raised
    here, before any block is scored.
    """
    if not references:
        raise NoReferencesError("no reference histograms given")
    if measure not in ("l1", "cosine"):
        raise ValueError(f"unknown measure {measure!r}")
    drop = set(exclude)
    labels = sorted(references)
    keys = sorted(set(ms.table).union(*(references[r].counts for r in labels)) - drop)
    # reference counts over `keys` as exact Python ints, one row per label
    b = np.array([[references[r].counts.get(k, 0) for k in keys] for r in labels],
                 dtype=object)
    n, width = len(ms), len(ms.table)
    column = {k: i for i, k in enumerate(keys)}
    kept = [i for i, k in enumerate(ms.table) if k in column]
    if measure == "l1":
        pb = (b / np.maximum(b.sum(axis=1), 1)[:, None]).astype(float)
    else:
        if (b.sum(axis=1) == 0).any():
            # an empty window against an empty reference has no cosine
            dropped = np.ones(width, dtype=bool)
            dropped[kept] = False
            if np.logical_and.reduceat(dropped[ms.codes], np.arange(0, n, size)).any():
                raise BothEmptyError("cosine similarity undefined for two empty histograms")
        nb = np.array([math.sqrt(v) for v in (b * b).sum(axis=1)], dtype=object)

    def classify(first: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi, windows = first * size, min(stop * size, n), stop - first
        counts = np.bincount((np.arange(lo, hi) // size - first) * width + ms.codes[lo:hi],
                             minlength=windows * width).reshape(windows, width)
        a = np.zeros((windows, len(keys)), dtype=np.int64)
        a[:, [column[ms.table[i]] for i in kept]] = counts[:, kept]
        if measure == "l1":
            pa = a / np.maximum(a.sum(axis=1), 1)[:, None]
            # a running sum in key order, not numpy's pairwise sum
            scores = sum((np.abs(pa[:, None, j] - pb[:, j]) for j in range(len(keys))),
                         np.zeros((windows, len(labels))))
            best = scores.argmin(axis=1)
        else:
            a = a.astype(object)
            na = np.array([math.sqrt(v) for v in (a * a).sum(axis=1)], dtype=object)
            norms = np.multiply.outer(na, nb)
            norms[norms == 0] = 1.0  # an empty side has a zero dot product
            scores = (a @ b.T / norms).astype(float)
            best = scores.argmax(axis=1)
        return best, scores[np.arange(windows), best]

    return classify
