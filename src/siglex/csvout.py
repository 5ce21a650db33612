"""The one CSV writer: every numeric table siglex writes goes through it.

A table is written a block of `BLOCK_ROWS` rows at a time, so memory stays
at one block however long the table.  Each column of a block becomes a
matrix of UTF-8 bytes, one row per table row, padded with NUL.  The
matrices are laid side by side with the ``,`` and ``\\n`` columns, and the
nonzero bytes are written.  No field can hold a NUL: numbers are digits,
symbols and labels reject it (`scla.UNWRITABLE`), and a `Text` entry that
holds one raises ValueError.

Columns are typed by what `block` returns:

* a float array is written as ``'{:.17g}'`` writes each value;
* an integer array (non-negative) as ``'{}'`` writes it;
* a `Text` as the table entry each code names.

The text equals Python's own byte for byte.

**Floats.**  ``format(v, '.17g')`` is the correctly rounded 17-digit
decimal of v (Gay 1990).  For |v| in [1e-250, 1e250) it is found here on
whole arrays.  With ``k = floor(log10|v|)`` and ``p = 16 - k``, the product
``|v| * 10**p`` is formed as ``hi + r``:

* 10**p is the double-double ``P + Q`` of a table built on first use, with
  ``|10**p - P - Q| <= 2**-106 * 10**p``;
* ``hi = fl(|v| * P)`` and its exact error ``e = |v| * P - hi`` come from
  Dekker's split product (Dekker 1971);
* ``r = fl(e + fl(|v| * Q))``.

Each double in [1e16, 1e17] is an integer, so ``hi`` is one.  Where
``hi + r`` falls outside [1e16, 1e17), k was off by one (``log10`` rounds);
k is moved and the product formed again.  The test is made on the unrounded
``hi + r``: the rounded mantissa of 9.9999999999999998e-249 is 1e16, which
would print 1e-248.  The 17-digit integer is ``N = hi + rint(r)``, and
``N = 10**17`` carries into ``k + 1``.  The digits of N are laid out by the
``g`` rules: fixed notation for -4 <= k < 17, else scientific with an
``e±XX`` exponent; trailing zeros and a bare ``.`` are dropped.  Rows are
sorted by layout (one per k in the fixed range, one scientific), so that
each layout is plain column slicing of a group of rows.

``hi + r`` differs from the exact product by less than 1e-14: the table's
error and the rounding of ``|v| * Q`` are each at most ``2**-106 * 1e17``,
and the sum ``e + fl(|v| * Q)`` (below 32 in magnitude) rounds by at most
``2**-49``.  So r decides the rounding of N unless it lies within that
bound of a half-integer; the guard is far wider: a row whose r lies within
1e-6 of a half-integer (exact ties among them) is left to ``format``, as
are:

* ±0, infinities and NaN;
* |v| outside [1e-250, 1e250), where the split product could overflow or
  lose bits to underflow;
* a row whose exponent did not settle after one move.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import cache
from typing import NamedTuple, Sequence

import numpy as np

BLOCK_ROWS = 8192


class Text(NamedTuple):
    """A text column: each code in `codes` names an entry of `table`."""

    codes: np.ndarray
    table: Sequence[str]


def write_csv(path, header: str, n: int, block) -> None:
    """Write `header`, then rows 0..n-1.

    `block(a, b)` returns the columns of rows a..b-1: float arrays, integer
    arrays of non-negative values, or `Text` columns (see the module
    docstring).
    """
    with open_output(path) as fh:
        fh.write(header.encode("utf-8"))
        for a in range(0, n, BLOCK_ROWS):
            fields = [_field(c) for c in block(a, min(a + BLOCK_ROWS, n))]
            line = np.empty((len(fields[0]), sum(f.shape[1] + 1 for f in fields)),
                            np.uint8)
            at = 0
            for f in fields:
                line[:, at:at + f.shape[1]] = f
                at += f.shape[1]
                line[:, at] = ord(",")
                at += 1
            line[:, -1] = ord("\n")
            # bytes.translate drops the NULs several times faster than a mask
            fh.write(line.tobytes().translate(None, b"\0"))


@contextmanager
def open_output(path):
    """Open `path` to write bytes.  An OSError raised while it is opened,
    written or closed is raised again with `path` as its filename: an error
    from a write or a close names no file."""
    try:
        with open(path, "wb") as fh:
            yield fh
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from exc


def _field(column) -> np.ndarray:
    if isinstance(column, Text):
        return _text_field(column)
    kind = column.dtype.kind
    if kind == "f":
        return _float_field(column)
    if kind in "iu":
        return _int_field(column)
    raise TypeError(f"no CSV field for a column of dtype {column.dtype}")


def _text_field(column: Text) -> np.ndarray:
    if any("\0" in s for s in column.table):
        raise ValueError("a CSV text entry may not hold NUL")
    encoded = [s.encode("utf-8") for s in column.table]
    width = max(1, max(map(len, encoded), default=0))
    table = np.array(encoded or [b""], dtype=f"S{width}").view(np.uint8)
    return table.reshape(-1, width)[column.codes]


@cache
def _quads() -> np.ndarray:
    """The four ASCII digits of each of 0..9999, as one uint32."""
    i = np.arange(10000)
    chars = np.stack([i // 1000, i // 100 % 10, i // 10 % 10, i % 10], axis=1)
    return (chars + ord("0")).astype(np.uint8).view(np.uint32).ravel()


def _digits(values: np.ndarray, width: int) -> np.ndarray:
    """(len(values), width) ASCII decimal digits of non-negative ints below
    10**width, most significant first, with leading zeros."""
    quads = -(-width // 4)
    out = np.empty((len(values), quads), np.uint32)
    values = values.astype(np.int64)
    for j in range(quads - 1, -1, -1):
        high = values // 10000
        out[:, j] = _quads()[values - high * 10000]
        values = high
    return out.view(np.uint8)[:, 4 * quads - width:]


def _int_field(values: np.ndarray) -> np.ndarray:
    top = int(values.max())
    if int(values.min()) < 0 or top >= 2**63:
        raise ValueError("integer CSV columns must lie in [0, 2**63)")
    width = len(str(top))
    values = values.astype(np.int64)
    # a value reaching k of 10, 100, ..., 10**18 keeps its last k + 1 digits
    reached = np.searchsorted(10 ** np.arange(1, 19), values, side="right")
    keep = np.arange(width - 1, -1, -1) <= np.arange(19)[:, None]
    return _digits(values, width) * np.take(keep, reached, axis=0)


# -- floats -----------------------------------------------------------------

_P_MIN, _P_MAX = -240, 270          # 10**p needed for |v| in [1e-250, 1e250)
_SPLIT = 134217729.0                # 2**27 + 1, Veltkamp's splitter
_WIDTH = 24                         # longest '.17g' text: -1.2345678901234567e-100


def _split(a: np.ndarray):
    c = _SPLIT * a
    high = c - (c - a)
    return high, a - high


@cache
def _powers():
    """10**p for p in [_P_MIN, _P_MAX] as the double-double P + Q, with P
    split for Dekker's product.  Integer true division rounds correctly."""
    p_hi, p_lo = [], []
    for p in range(_P_MIN, _P_MAX + 1):
        num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
        a, b = (num / den).as_integer_ratio()
        p_hi.append(a / b)
        p_lo.append((num * b - a * den) / (den * b))
    p_hi = np.array(p_hi)
    return (*_split(p_hi), p_hi, np.array(p_lo))


def _scaled(ax: np.ndarray, k: np.ndarray):
    """|v| * 10**(16 - k) as hi + r, hi = fl(|v| * P)."""
    i = 16 - _P_MIN - k
    ph, pl, p, q = (t[i] for t in _powers())
    hi = ax * p
    ah, al = _split(ax)
    err = ((ah * ph - hi) + ah * pl + al * ph) + al * pl
    return hi, err + ax * q


def _unsettled(hi: np.ndarray, r: np.ndarray):
    """Rows where hi + r < 1e16, and rows where hi + r >= 1e17."""
    return ((hi < 1e16) | ((hi == 1e16) & (r < 0)),
            (hi > 1e17) | ((hi == 1e17) & (r >= 0)))


def _rows(a: np.ndarray) -> np.ndarray:
    """A C-contiguous byte matrix as one opaque item per row, which numpy
    gathers and scatters several times faster than rows of bytes."""
    return a.view(f"V{a.shape[1]}").ravel()


def _float_field(x: np.ndarray) -> np.ndarray:
    """(len(x), 24) NUL-padded UTF-8 of ``format(v, '.17g')`` for each v."""
    x = np.asarray(x, dtype=np.float64)
    ax = np.abs(x)
    fast = (ax >= 1e-250) & (ax < 1e250)
    ax[~fast] = 1.0
    k = np.floor(np.log10(ax)).astype(np.intp)
    hi, r = _scaled(ax, k)
    low, high = _unsettled(hi, r)
    moved = np.flatnonzero(low | high)
    if len(moved):
        k[moved] += high[moved].astype(np.intp) - low[moved]
        hi[moved], r[moved] = _scaled(ax[moved], k[moved])
        low, high = _unsettled(hi[moved], r[moved])
        fast[moved[low | high]] = False
    fast &= np.abs(r - np.floor(r) - 0.5) >= 1e-6
    n17 = hi.astype(np.int64) + np.rint(r).astype(np.int64)
    carry = n17 == 10**17
    n17[carry] = 10**16
    k += carry

    # sign, digits with trailing zeros blanked, point (or NUL) of each row
    digits = _digits(n17, 17)
    significant = 17 - np.argmax(digits[:, ::-1] != ord("0"), axis=1)
    sci = (k < -4) | (k >= 17)
    whole = np.where(sci, 1, np.clip(k + 1, 0, 17))   # digits before the point
    m = len(x)
    src = np.zeros((m, _WIDTH), np.uint8)
    src[:, 0] = np.signbit(x) * np.uint8(ord("-"))
    src[:, 1:18] = digits * (np.arange(17, dtype=np.uint8)
                             < np.maximum(significant, whole).astype(np.uint8)[:, None])
    src[:, 18] = (significant > whole) * np.uint8(ord("."))

    # one layout per exponent: fixed for k = -4..16 (codes 0..20), else
    # scientific (code 21); rows are sorted by code so each is slicing
    code = np.where(sci, 21, k + 4).astype(np.uint8)
    order = np.argsort(code, kind="stable")
    src = _rows(src)[order].view(np.uint8).reshape(m, _WIDTH)
    k = k[order]
    laid = np.zeros((m, _WIDTH), np.uint8)
    a = 0
    for c, count in enumerate(np.bincount(code, minlength=22).tolist()):
        if count == 0:
            continue
        b = a + count
        rows, s = laid[a:b], src[a:b]
        if c == 21:                                    # -d.ddde-XX, -d.ddde-XXX
            rows[:, :2] = s[:, :2]
            rows[:, 2] = s[:, 18]
            rows[:, 3:19] = s[:, 2:18]
            e = np.abs(k[a:b])
            rows[:, 19] = ord("e")
            rows[:, 20] = np.where(k[a:b] < 0, ord("-"), ord("+"))
            rows[:, 21] = np.where(e >= 100, e // 100 + ord("0"), 0)
            rows[:, 22] = e // 10 % 10 + ord("0")
            rows[:, 23] = e % 10 + ord("0")
        elif c >= 4:                                   # -ddd.ddd
            p = c - 2                                  # sign and k + 1 digits
            rows[:, :p] = s[:, :p]
            rows[:, p] = s[:, 18]
            rows[:, p + 1:19] = s[:, p:18]
        else:                                          # -0.000ddd
            z = 4 - c                                  # zeros, -k
            rows[:, 0] = s[:, 0]
            rows[:, 1:3 + z] = ord("0")
            rows[:, 2] = ord(".")
            rows[:, 2 + z:19 + z] = s[:, 1:18]
        a = b
    out = np.empty_like(laid)
    _rows(out)[order] = _rows(laid)

    slow = np.flatnonzero(~fast)
    if len(slow):
        text = [format(v, ".17g").encode() for v in x[slow].tolist()]
        out[slow] = np.array(text, dtype=f"S{_WIDTH}").view(np.uint8).reshape(-1, _WIDTH)
    return out
