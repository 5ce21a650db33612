"""Single-channel lexical analysis: quantize a signal and run-length pack it.

One channel = interval quantization of its (maybe derived) samples against
an alphabet, run-length compression.  A symbol sequence is a small-int code
array plus its table: code k stands for `table[k]`.  A channel's table is
its alphabet's symbols, then the catch-all (if set and not a symbol),
then the gap symbol '_'; no string has two codes.  Runs are three int
arrays (code, length, start) over the same table.  Text appears only at
the edges: constructors that take a `str`, the `symbols` property, `Token`
iteration and indexing over runs, and the token CSV writer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

import numpy as np

from .csvout import Text, write_csv
from .errors import (
    AlphabetError,
    MalformedTokensError,
    NonFiniteSampleError,
    NonpositiveEpsilonError,
    OutOfRangeError,
    UnknownSymbolError,
)
from .grid import Grid

GAP_SYMBOL = "_"
# Characters no symbol or CSV label may hold: NUL reads back as "" from
# numpy's U1 arrays, the others split a CSV field.
UNWRITABLE = frozenset("\0,\"\n\r")


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
        if self.catch_all == GAP_SYMBOL:
            raise AlphabetError(f"catch_all {GAP_SYMBOL!r} is reserved for gaps")
        bad = UNWRITABLE.intersection((*syms, self.catch_all))
        if bad:
            raise AlphabetError(
                f"symbol {min(bad)!r} cannot be carried by a stream or CSV")
        rng = self.valid_range
        if rng is not None and not (len(rng) == 2 and rng[0] < rng[1]):
            raise AlphabetError(f"valid_range must be (lo, hi) with lo < hi, got {rng}")

    @property
    def table(self) -> tuple:
        """Symbol of each code: the symbols, the catch-all if set and not
        one of them, then '_'.  No string appears twice."""
        extra = () if self.catch_all in (None, *self.symbols) else (self.catch_all,)
        return (*self.symbols, *extra, GAP_SYMBOL)


def usd_alphabet(epsilon: float, nan_policy: str = "reject") -> Alphabet:
    """Three-symbol down/stationary/up alphabet for derivative channels.

    d on (-inf, -epsilon), s on [-epsilon, epsilon), u on [epsilon, inf).
    """
    if not epsilon > 0:
        raise NonpositiveEpsilonError(f"epsilon must be > 0, got {epsilon}")
    return Alphabet(("d", "s", "u"), (-epsilon, epsilon), nan_policy=nan_policy)


@dataclass(eq=False)
class SymbolStream:
    """A channel's samples as codes into `table`, with its originating grid.

    A combined stream (`mcla.align_and_combine`) is one too: it has no
    alphabet, and its table holds combination strings.  The table defaults
    to the alphabet's.  Given text (a str, or a sized sequence of str)
    instead of a code array, the constructor encodes it against that table,
    or without one against the sorted distinct items.
    """

    codes: np.ndarray
    alphabet: Optional[Alphabet] = None
    source_grid: Optional[Grid] = None
    table: Optional[tuple] = None

    def __post_init__(self):
        if self.table is None and self.alphabet is not None:
            self.table = self.alphabet.table
        if isinstance(self.codes, np.ndarray):
            return
        text = self.codes
        if self.table is None:
            self.table = tuple(sorted(set(text)))
        index = {sym: code for code, sym in enumerate(self.table)}
        try:
            self.codes = np.fromiter(map(index.__getitem__, text),
                                     np.min_scalar_type(len(self.table)), len(text))
        except KeyError as exc:
            raise UnknownSymbolError(
                f"symbol {exc.args[0]!r} is not in the table {self.table}") from None

    def __len__(self) -> int:
        return len(self.codes)

    @property
    def symbols(self) -> str:
        """The stream as text, one table entry per sample."""
        widths = {len(s) for s in self.table}
        if len(widths) != 1 or 0 in widths:
            # a U array would pad a shorter or empty entry with NUL
            return "".join(map(self.table.__getitem__, self.codes.tolist()))
        # the buffer of a little-endian U array of equal-length strings is
        # their UTF-32-LE text
        return np.array(self.table, dtype="<U")[self.codes].tobytes().decode("utf-32-le")


# comparisons cost a pass over the samples per boundary, a binary search
# log2(k) compares per sample.  On 1e5 samples comparisons stay faster up to
# about 40 boundaries on a smooth signal and about 250 on white noise (0.43
# against 0.50 and 2.3 ms at 32), so up to 32 neither input loses with them
_COMPARE_BOUNDARIES = 32


def _interval_codes(bounds: tuple, vals: np.ndarray, dtype) -> np.ndarray:
    """`searchsorted(bounds, vals, side="right")` as `dtype`: the number of
    boundaries at or below each value, a NaN's being all of them."""
    if len(bounds) > _COMPARE_BOUNDARIES:
        return np.searchsorted(bounds, vals, side="right").astype(dtype)
    # a NaN is below no boundary
    codes = np.full(len(vals), len(bounds), dtype)
    for b in bounds:
        codes -= vals < b
    return codes


def quantize(values, alphabet: Alphabet, grid: Optional[Grid] = None) -> SymbolStream:
    """Map each sample to its interval's code."""
    vals = np.asarray(values, dtype=np.float64)
    bad = ~np.isfinite(vals)
    if alphabet.nan_policy == "reject" and bad.any():
        raise NonFiniteSampleError(f"non-finite sample at index {int(np.argmax(bad))}")
    table = alphabet.table
    codes = _interval_codes(alphabet.boundaries, vals, np.min_scalar_type(len(table)))
    if alphabet.valid_range is not None:
        lo, hi = alphabet.valid_range
        outside = ((vals < lo) | (vals >= hi)) & ~bad
        if outside.any():
            if alphabet.catch_all is None:
                raise OutOfRangeError(
                    f"sample {vals[outside][0]!r} outside [{lo}, {hi}) "
                    "and no catch-all symbol configured")
            codes[outside] = table.index(alphabet.catch_all)
    codes[bad] = len(table) - 1
    return SymbolStream(codes, alphabet, grid)


class Token(NamedTuple):
    """Maximal run of one symbol: the symbol, its length, and where it starts."""

    symbol: str
    run_length: int
    start_index: int


@dataclass(frozen=True, eq=False)
class Runs:
    """Maximal runs over a code table: run i is `lengths[i]` samples of code
    `codes[i]` from sample `starts[i]` on.

    Iterating or indexing yields `Token`s; slicing yields `Runs`.
    """

    codes: np.ndarray
    lengths: np.ndarray
    starts: np.ndarray
    table: tuple

    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self):
        return map(Token._make, zip(map(self.table.__getitem__, self.codes.tolist()),
                                    self.lengths.tolist(), self.starts.tolist()))

    def __getitem__(self, i: Union[int, slice]) -> Union[Token, "Runs"]:
        if isinstance(i, slice):
            return Runs(self.codes[i], self.lengths[i], self.starts[i], self.table)
        return Token(self.table[self.codes[i]], int(self.lengths[i]), int(self.starts[i]))


def compress_runs(stream: Union[SymbolStream, str]) -> Runs:
    """Run-length compress a coded stream (channel or combined) or text;
    adjacent runs always carry distinct codes."""
    stream = SymbolStream(stream) if isinstance(stream, str) else stream
    codes = stream.codes
    n = len(codes)
    change = np.ones(n + 1, dtype=bool)
    np.not_equal(codes[1:], codes[:-1], out=change[1:n])
    bounds = np.flatnonzero(change)  # the run starts, then n
    starts = bounds[:-1]
    return Runs(codes[starts], np.diff(bounds), starts, stream.table)


def validate_tokens(runs: Runs) -> int:
    """Check the run-length invariants; returns the decompressed length.

    Codes index the table, runs are at least 1 long, each starts where the
    previous one ended (the first at 0), and adjacent runs carry distinct
    codes.
    """
    ends = np.cumsum(runs.lengths)
    gaps = runs.starts != ends - runs.lengths
    repeats = np.r_[False, runs.codes[1:] == runs.codes[:-1]]
    for bad, what in ((runs.codes >= len(runs.table), "has a code past its table"),
                      (runs.lengths < 1, "is shorter than 1"),
                      (gaps, "does not start where the last ended"),
                      (repeats, "repeats the last symbol")):
        if bad.any():
            raise MalformedTokensError(f"run {int(np.argmax(bad))} {what}")
    return int(ends[-1]) if len(ends) else 0


def decompress(runs: Runs) -> SymbolStream:
    """Exact inverse of compress_runs; validates the run invariants."""
    validate_tokens(runs)
    return SymbolStream(np.repeat(runs.codes, runs.lengths), table=runs.table)


def tokens_to_csv(runs: Runs, path) -> None:
    write_csv(path, "symbol,runLength,startIndex\n", len(runs),
              lambda a, b: (Text(runs.codes[a:b], runs.table), runs.lengths[a:b],
                            runs.starts[a:b]))
