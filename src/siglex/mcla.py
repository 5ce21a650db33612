"""Multi-channel lexical analysis.

Per-sensor symbol streams are aligned onto the coarsest common grid and
combined into per-sample symbol tuples (rendered as strings like "ud").
Histograms over those combinations, sorted into frequency dictionaries,
characterize operation modes; simple similarity measures (l1 on normalized
frequencies, cosine on counts) support mode classification.
"""

from __future__ import annotations

import json
from collections import Counter
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
from .scla import SymbolStream, Token, compress_runs


@dataclass
class MultiStream:
    """Sample-aligned symbol combinations for several channels.

    `samples[j]` concatenates one symbol per channel (all symbols are single
    characters, so channel i is `samples[j][i]`).
    """

    channels: tuple
    samples: list
    source_grid: Optional[Grid]

    def __len__(self) -> int:
        return len(self.samples)

    def channel(self, i: int) -> str:
        """Aligned symbol sequence of channel i."""
        return "".join(s[i] for s in self.samples)


def align_and_combine(streams: Sequence[SymbolStream],
                      channels: Optional[Sequence[str]] = None) -> MultiStream:
    """Resample streams onto the coarsest grid (LOCF) and zip them.

    The output grid is the input grid with the largest step, restricted to
    the time overlap of all inputs; each channel contributes the symbol of
    its latest sample at or before the grid time (last observation carried
    forward, so no unseen symbols are invented).
    """
    if len(streams) < 2:
        raise EmptyInputError(f"need at least 2 streams, got {len(streams)}")
    grids = [s.source_grid for s in streams]
    if any(g is None for g in grids):
        raise EmptyInputError("every stream needs a grid for alignment")
    if any(len(s.symbols) != g.n for s, g in zip(streams, grids)):
        raise EmptyInputError("stream length differs from its grid")
    if channels is None:
        channels = tuple(f"ch{i}" for i in range(len(streams)))
    else:
        channels = tuple(channels)

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
    columns = [[s.symbols[i] for i in g.index_at_or_before(t).tolist()]
               for s, g in zip(streams, grids)]
    samples = list(map("".join, zip(*columns)))
    # a degenerate single-sample overlap has no representable grid
    out_grid = (Grid(len(samples), coarse.h, coarse.time_at(k_lo))
                if len(samples) >= 2 else None)
    return MultiStream(channels, samples, out_grid)


def multi_tokens(ms: MultiStream) -> list[Token]:
    """Run-length tokens over the combined per-sample symbols."""
    return compress_runs(ms.samples)


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

    @classmethod
    def from_samples(cls, samples: Iterable[str]) -> "FrequencyDict":
        return cls.from_counts(Counter(samples))

    def to_json(self) -> str:
        """`{"<key>": count, ..., "total": N}`, keys sorted, two-space indent."""
        obj = dict(sorted(self.counts.items()))
        obj["total"] = self.total
        return json.dumps(obj, indent=2) + "\n"

    @classmethod
    def from_json_obj(cls, obj) -> "FrequencyDict":
        """Parse a loaded `to_json` object; "total" is recomputed, not read.

        Raises ValueError unless `obj` maps keys to non-negative integers.
        """
        if not isinstance(obj, dict):
            raise ValueError(f"histogram must be an object, got {type(obj).__name__}")
        counts = {k: v for k, v in obj.items() if k != "total"}
        for k, v in counts.items():
            if isinstance(v, bool) or not isinstance(v, int):
                raise ValueError(f"count of {k!r} is not an integer: {v!r}")
        return cls.from_counts(counts)


def histogram(ms: MultiStream, window: Optional[tuple] = None) -> FrequencyDict:
    """Count symbol combinations per sample over [start, stop)."""
    n = len(ms.samples)
    if window is None:
        start, stop = 0, n
    else:
        start, stop = window
        if not (0 <= start <= stop <= n):
            raise InvalidWindowError(f"window {window} out of bounds for length {n}")
    return FrequencyDict.from_samples(ms.samples[start:stop])


def frequency_dictionary(fd: FrequencyDict) -> list[tuple[str, int]]:
    """Entries sorted by decreasing count, ties by key ascending."""
    return sorted(fd.counts.items(), key=lambda kv: (-kv[1], kv[0]))


def frequency_dictionary_json(fd: FrequencyDict) -> str:
    """Ordered dictionary as a JSON array of [key, count] pairs."""
    return json.dumps([[k, c] for k, c in frequency_dictionary(fd)],
                      separators=(", ", ": "))


def exclude_symbols(fd: FrequencyDict, keys: Iterable[str]) -> FrequencyDict:
    """Drop the listed combination keys (e.g. the dominant stationary bins)."""
    drop = set(keys)
    return FrequencyDict.from_counts(
        {k: v for k, v in fd.counts.items() if k not in drop})


def compare_histograms(a: FrequencyDict, b: FrequencyDict,
                       measure: str = "l1") -> float:
    """Histogram similarity.

    l1: sum |p_a - p_b| of normalized frequencies over the key union, in
    [0, 2] (0 identical, 2 disjoint).  cosine: normalized count dot product
    in [0, 1] (1 identical, 0 disjoint); undefined for two empty histograms.
    """
    keys = set(a.counts) | set(b.counts)
    if measure == "l1":
        if not keys:
            return 0.0
        ta = a.total or 1
        tb = b.total or 1
        return float(sum(abs(a.counts.get(k, 0) / ta - b.counts.get(k, 0) / tb)
                         for k in keys))
    if measure == "cosine":
        if a.total == 0 and b.total == 0:
            raise BothEmptyError("cosine similarity undefined for two empty histograms")
        if a.total == 0 or b.total == 0:
            return 0.0
        dot = sum(a.counts.get(k, 0) * b.counts.get(k, 0) for k in keys)
        na = np.sqrt(sum(v * v for v in a.counts.values()))
        nb = np.sqrt(sum(v * v for v in b.counts.values()))
        return float(dot / (na * nb))
    raise ValueError(f"unknown measure {measure!r}")


def classify_operation(window: FrequencyDict,
                       references: Mapping[str, FrequencyDict],
                       measure: str = "l1",
                       excluded: Iterable[str] = ()) -> tuple[str, float]:
    """Best-matching reference label for a window histogram.

    Exclusions are applied to the window and every reference before
    scoring.  l1 picks the minimum distance, cosine the maximum similarity;
    ties go to the lexicographically first label.
    """
    if not references:
        raise NoReferencesError("no reference histograms given")
    w = exclude_symbols(window, excluded)
    best = None
    for label in sorted(references):
        ref = exclude_symbols(references[label], excluded)
        score = compare_histograms(w, ref, measure)
        better = (best is None
                  or (measure == "l1" and score < best[1])
                  or (measure == "cosine" and score > best[1]))
        if better:
            best = (label, score)
    return best
