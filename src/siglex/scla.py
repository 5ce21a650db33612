"""Single-channel lexical analysis: quantize a signal and run-length pack it.

One channel = optional derivative kernel, interval quantization against an
alphabet, run-length compression.  Symbols are single characters so the
downstream pattern machinery can treat streams as text.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Optional, Sequence, Union

import numpy as np

from .csvout import write_csv
from .errors import (
    AlphabetError,
    MalformedTokensError,
    NonFiniteSampleError,
    NonpositiveEpsilonError,
    OutOfRangeError,
)
from .grid import Grid
from .operators import LocalKernel, apply_streaming

GAP_SYMBOL = "_"


@dataclass(frozen=True)
class Alphabet:
    """Ordered interval partition of the signal range.

    `boundaries[i]` separates `symbols[i]` from `symbols[i+1]`; intervals are
    half-open [lo, hi), so a value exactly on a boundary belongs to the upper
    symbol.  Without an explicit `valid_range` the lowest interval extends to
    -inf and the highest to +inf.  With one, values outside map to
    `catch_all` if set, otherwise quantize raises OutOfRangeError.

    nan_policy: "reject" raises on non-finite samples, "gap" maps them to
    the reserved gap symbol '_'.
    """

    symbols: tuple
    boundaries: tuple
    nan_policy: str = "reject"
    valid_range: Optional[tuple] = None
    catch_all: Optional[str] = None

    def __post_init__(self):
        syms = tuple(self.symbols)
        bounds = tuple(float(b) for b in self.boundaries)
        object.__setattr__(self, "symbols", syms)
        object.__setattr__(self, "boundaries", bounds)
        if len(bounds) != len(syms) - 1:
            raise AlphabetError(
                f"{len(syms)} symbols need {len(syms) - 1} boundaries, got {len(bounds)}")
        if any(not (isinstance(s, str) and len(s) == 1) for s in syms):
            raise AlphabetError("symbols must be single characters")
        if len(set(syms)) != len(syms):
            raise AlphabetError(f"symbols not distinct: {syms}")
        if GAP_SYMBOL in syms:
            raise AlphabetError(f"{GAP_SYMBOL!r} is reserved for gaps")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise AlphabetError(f"boundaries not strictly increasing: {bounds}")
        if self.nan_policy not in ("reject", "gap"):
            raise AlphabetError(f"unknown nan_policy {self.nan_policy!r}")
        if self.catch_all is not None and (
                not isinstance(self.catch_all, str) or len(self.catch_all) != 1):
            raise AlphabetError("catch_all must be a single character")
        rng = self.valid_range
        if rng is not None and not (len(rng) == 2 and rng[0] < rng[1]):
            raise AlphabetError(f"valid_range must be (lo, hi) with lo < hi, got {rng}")


def usd_alphabet(epsilon: float, nan_policy: str = "reject") -> Alphabet:
    """Three-symbol down/stationary/up alphabet for derivative channels.

    d on (-inf, -epsilon), s on [-epsilon, epsilon), u on [epsilon, inf).
    """
    if not epsilon > 0:
        raise NonpositiveEpsilonError(f"epsilon must be > 0, got {epsilon}")
    return Alphabet(("d", "s", "u"), (-epsilon, epsilon), nan_policy=nan_policy)


@dataclass
class SymbolStream:
    """Sequence of alphabet symbols with its originating grid."""

    symbols: str
    alphabet: Optional[Alphabet]
    source_grid: Optional[Grid] = None

    def __len__(self) -> int:
        return len(self.symbols)


def quantize(values, alphabet: Alphabet, grid: Optional[Grid] = None) -> SymbolStream:
    """Map each sample to its interval symbol (binary search on boundaries)."""
    vals = np.asarray(values, dtype=np.float64)
    if vals.size == 0:
        return SymbolStream("", alphabet, grid)
    bad = ~np.isfinite(vals)
    if bad.any():
        if alphabet.nan_policy == "reject":
            raise NonFiniteSampleError(
                f"non-finite sample at index {int(np.argmax(bad))}")
    idx = np.searchsorted(np.array(alphabet.boundaries), vals, side="right")
    lut = np.array(list(alphabet.symbols))
    out = lut[np.where(bad, 0, idx)]
    if alphabet.valid_range is not None:
        lo, hi = alphabet.valid_range
        outside = ((vals < lo) | (vals >= hi)) & ~bad
        if outside.any():
            if alphabet.catch_all is None:
                raise OutOfRangeError(
                    f"sample {vals[outside][0]!r} outside [{lo}, {hi}) "
                    "and no catch-all symbol configured")
            out[outside] = alphabet.catch_all
    if bad.any():
        out[bad] = GAP_SYMBOL
    return SymbolStream("".join(out), alphabet, grid)


@dataclass(frozen=True)
class Token:
    """Maximal run of one symbol: the symbol, its length, and where it starts."""

    symbol: str
    run_length: int
    start_index: int


def compress_runs(stream: Union[SymbolStream, str, Sequence[str]]) -> list[Token]:
    """Run-length compress; adjacent tokens always carry distinct symbols."""
    syms = stream.symbols if isinstance(stream, SymbolStream) else stream
    tokens = []
    pos = 0
    for sym, grp in groupby(syms):
        ln = sum(1 for _ in grp)
        tokens.append(Token(sym, ln, pos))
        pos += ln
    return tokens


def validate_tokens(tokens: Sequence[Token]) -> int:
    """Check the run-length invariants; returns the decompressed length.

    Runs are at least 1 long, each starts where the previous one ended
    (the first at 0), and adjacent runs carry distinct symbols.
    """
    pos = 0
    prev = None
    for t in tokens:
        if t.run_length < 1:
            raise MalformedTokensError(f"run_length must be >= 1: {t}")
        if t.start_index != pos:
            raise MalformedTokensError(
                f"token {t} starts at {t.start_index}, expected {pos}")
        if prev is not None and t.symbol == prev:
            raise MalformedTokensError(f"adjacent tokens share symbol {t.symbol!r}")
        prev = t.symbol
        pos += t.run_length
    return pos


def decompress(tokens: Sequence[Token]) -> SymbolStream:
    """Exact inverse of compress_runs; validates the token invariants."""
    validate_tokens(tokens)
    return SymbolStream("".join(t.symbol * t.run_length for t in tokens), None)


def run_scla(raw, kernel: Optional[LocalKernel], alphabet: Alphabet,
             grid: Optional[Grid] = None) -> list[Token]:
    """Full single-channel pipeline: kernel (optional) -> quantize -> compress.

    With a kernel the output covers the interior samples only (boundary
    "valid"); the returned tokens index into that trimmed sequence.
    """
    if kernel is None:
        values = np.asarray(raw, dtype=np.float64)
    else:
        values = apply_streaming(kernel, raw)
        if grid is not None:
            grid = grid.interior(kernel.half_width)
    return compress_runs(quantize(values, alphabet, grid))


def tokens_to_csv(tokens: Sequence[Token], path) -> None:
    write_csv(path, "symbol,runLength,startIndex\n", "{},{},{}\n", len(tokens),
              lambda a, b: ([t.symbol for t in tokens[a:b]],
                            [t.run_length for t in tokens[a:b]],
                            [t.start_index for t in tokens[a:b]]))

