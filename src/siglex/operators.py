"""Discrete differential operators, operator assembly, and inverse solving.

Derivative operators are built from local polynomial least-squares stencils:
a window of 2w+1 samples is fitted with a degree-`accuracy` polynomial and
the fit's derivative at the evaluation point gives the row weights.  Interior
rows use a symmetric window, the first/last w rows use the shifted window of
the first/last 2w+1 grid points.  Stencil weights are computed in exact
rational arithmetic and rounded once, so they are exact on polynomials up to
the stated degree to within a single float rounding.

Operators are stored as their (n, 2w+1) row bands; the dense n x n matrix
is built only on request (`entries`).  Band apply and streaming share
one stencil engine: each output sums its 2w+1-sample window left to right
in a fixed order (no ``np.dot``, whose order is not fixed), so a streamed
output is bitwise-identical to its band row.

The LDO path works on the band alone.  A blocked Householder QR of the
band (`_qr_sweep`) gives R, banded upper with 2w superdiagonals, held as
its band.  The rank and null space come from inverse subspace iteration
with R (`assemble_ldo`); the constrained solve and the diagonal of its
covariance come from the QR of the free columns and the Takahashi
recursion on its R (`solve_inverse`).  The sweep takes O(n (b + 2w)^2)
time for windows of b = 32 columns, and each substitution with R, numpy
only, O(n b w); memory is O(n w) beyond the vectors iterated.  No n x n
matrix and no SVD larger than the null space's block are formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import ceil, factorial, inf, isfinite
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    AccuracyTooHighError,
    CoefficientLengthMismatchError,
    ConstraintCountMismatchError,
    ConstraintIndexError,
    GridTooShortError,
    LeadingCoefficientZeroError,
    LengthMismatchError,
    NonFiniteSampleError,
    NullSpaceTooLargeError,
    OrderExceedsAccuracyError,
    SiglexError,
    SingularConstraintSystemError,
    StepOutOfRangeError,
)
from .grid import Grid

_EPS = float(np.finfo(np.float64).eps)


# ---------------------------------------------------------------------------
# stencil construction (exact rational)
# ---------------------------------------------------------------------------

def _solve_fraction_system(G: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Gauss-Jordan solve of a small exact rational system."""
    m = len(G)
    aug = [row[:] + [rhs[i]] for i, row in enumerate(G)]
    for c in range(m):
        p = next(r for r in range(c, m) if aug[r][c] != 0)
        aug[c], aug[p] = aug[p], aug[c]
        piv = aug[c][c]
        aug[c] = [x / piv for x in aug[c]]
        for r in range(m):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [aug[i][m] for i in range(m)]


@lru_cache(maxsize=4096)
def _rational_stencil(offsets: tuple, degree: int, order: int) -> tuple:
    """Weights (unit step) approximating the order-th derivative at offset 0.

    Least-squares fit of a degree-`degree` polynomial over the window
    `offsets`; the returned weights are the derivative of that fit.  Exact on
    any polynomial of degree <= `degree` because the fit then interpolates.
    """
    m = degree + 1
    V = [[Fraction(o) ** k for k in range(m)] for o in offsets]
    G = [[sum(V[j][a] * V[j][b] for j in range(len(offsets))) for b in range(m)]
         for a in range(m)]
    e = [Fraction(1 if i == order else 0) for i in range(m)]
    z = _solve_fraction_system(G, e)
    f = factorial(order)
    return tuple(f * sum(z[k] * V[j][k] for k in range(m))
                 for j in range(len(offsets)))


def _stencil(offsets: Sequence[int], degree: int, order: int, h: float) -> np.ndarray:
    if order == 0:  # the order-0 operator is the identity, not an LS smoother
        return np.array([1.0 if o == 0 else 0.0 for o in offsets])
    try:
        scale = float(h) ** order
    except OverflowError:
        scale = inf
    if scale != 0.0 and isfinite(scale):
        exact = _rational_stencil(tuple(int(o) for o in offsets), degree, order)
        # a subnormal or near-subnormal scale overflows the division
        with np.errstate(over="ignore"):
            weights = np.array([float(x) for x in exact]) / scale
        if np.isfinite(weights).all():
            return weights
    raise StepOutOfRangeError(
        f"time step {float(h)!r} to the power {order} (the derivative order) "
        "does not give finite float64 stencil weights")


MAX_ACCURACY = 12


def check_order(order: int, accuracy: int) -> None:
    """Require 0 <= order <= accuracy <= MAX_ACCURACY.

    The exact rational stencils cost about accuracy**4, so accuracy is
    capped: 12 takes a fraction of a second, 100 would take minutes.
    """
    if order < 0 or accuracy < order:
        raise OrderExceedsAccuracyError(
            f"need 0 <= order <= accuracy, got order={order} accuracy={accuracy}")
    if accuracy > MAX_ACCURACY:
        raise AccuracyTooHighError(
            f"accuracy={accuracy} exceeds the maximum {MAX_ACCURACY}")


def _half_width(accuracy: int) -> int:
    return 0 if accuracy == 0 else ceil(accuracy / 2)


@lru_cache(maxsize=256)
def _window_stencils(order: int, accuracy: int, h: float) -> np.ndarray:
    """Row p evaluates the derivative at position p of a 2w+1-sample window.

    Row w is the central (interior) stencil; rows 0..w-1 are the one-sided
    stencils of the first w outputs against the first window, rows w+1..2w
    those of the last w outputs against the last window.  Read-only.
    """
    width = 2 * _half_width(accuracy) + 1
    rows = np.array([_stencil([j - p for j in range(width)], accuracy, order, h)
                     for p in range(width)])
    rows.setflags(write=False)
    return rows


def _band_columns(n: int, w: int) -> np.ndarray:
    """Column indices of each row's 2w+1-sample stencil window, shape (n, 2w+1)."""
    starts = np.clip(np.arange(n) - w, 0, n - (2 * w + 1))
    return starts[:, None] + np.arange(2 * w + 1)


def _stencil_sum(weights: np.ndarray, windows: np.ndarray) -> np.ndarray:
    """The stencil engine: out[i] = sum_j weights[.., j] * windows[i, j].

    `windows[i]` holds output i's 2w+1 input samples; `weights` is one
    stencil shared by every output, shape (2w+1,), or one per output,
    shape (m, 2w+1).  The sum runs j = 0, 1, ..., 2w in that order for
    every output, so equal weights and samples give equal bits whichever
    caller (and however the stream was chunked) produced them.  A
    non-finite sample gives a non-finite output (NaN for inf - inf), and no
    warning: its channel's NaN policy decides.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        out = weights[..., 0] * windows[:, 0]
        for j in range(1, windows.shape[1]):
            out += weights[..., j] * windows[:, j]
    return out


# ---------------------------------------------------------------------------
# banded operators
# ---------------------------------------------------------------------------

def _dense(band: np.ndarray) -> np.ndarray:
    """The n x n matrix whose row i holds band[i] in its window columns."""
    n, width = band.shape
    out = np.zeros((n, n))
    out[np.arange(n)[:, None], _band_columns(n, width // 2)] = band
    return out


class _BandedOperator:
    """An n x n operator stored as `band`, whose row i holds matrix row i
    over the columns `_band_columns(n, w)[i]`; other entries are zero."""

    @property
    def support(self) -> int:
        """Stencil half-width w."""
        return self.band.shape[1] // 2

    @property
    def entries(self) -> np.ndarray:
        """The dense n x n matrix, built anew on every access."""
        return _dense(self.band)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """L @ x through the stencil engine, one band row per output."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (len(self.band),):
            raise LengthMismatchError(f"expected length {len(self.band)}, got {x.shape}")
        return _stencil_sum(self.band, x[_band_columns(len(x), self.support)])


@dataclass
class DiffOperatorMatrix(_BandedOperator):
    """The order-th derivative on a uniform grid, as its row band."""

    band: np.ndarray


def build_diff_operator(grid: Grid, order: int, accuracy: int) -> DiffOperatorMatrix:
    """Build the discrete derivative matrix D^(order) of the given accuracy.

    Parameters
    ----------
    grid : Grid
    order : int
        Derivative order, >= 0.  Order 0 yields the identity exactly.
    accuracy : int
        Polynomial degree the stencils reproduce exactly; >= order.

    Raises
    ------
    OrderExceedsAccuracyError
        If order > accuracy (or either is negative).
    GridTooShortError
        If the grid cannot host a full stencil window (n < 2w+1).
    """
    check_order(order, accuracy)
    w, n = _half_width(accuracy), grid.n
    if n < 2 * w + 1 or n <= accuracy:
        raise GridTooShortError(
            f"grid n={n} too short for accuracy={accuracy} (needs n >= {2 * w + 1})")

    position = np.arange(n) - _band_columns(n, w)[:, 0]  # of row i in its window
    band = _window_stencils(order, accuracy, grid.h)[position]
    return DiffOperatorMatrix(band)


# ---------------------------------------------------------------------------
# banded least squares
# ---------------------------------------------------------------------------

# Columns per QR window and rows per block of R.  A window holds the 2w rows
# carried from the previous one and the rows that start in its b columns, so
# its shape, and the work per window, does not depend on n.  32 is where the
# LAPACK flops of the windows meet their per-call cost for y'' (2w = 2) at
# n = 2000 on 2 cores; the substitution engine takes b numpy steps per call
# and n/b carry steps.  2w <= 12 under MAX_ACCURACY, so 2w <= b always
# holds.
_BLOCK = 32

# Blocks per numpy call where the work is batched: the rows placed into their
# windows by `_qr_sweep`, the blocks inverted by `gram_inverse_diagonal`.
# Bounds their scratch memory to O(_CHUNK b^2), whatever n.
_CHUNK = 32


def _staircase(band: np.ndarray, fixed: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """The banded matrix without the columns `fixed`, as (weights, starts).

    Row i keeps the weights of band row i whose columns are not fixed,
    left-aligned and zero-padded; the first lies in column `starts[i]` of the
    reduced matrix.  `starts` is nondecreasing.
    """
    n, width = band.shape
    cols = _band_columns(n, width // 2)
    removed = np.zeros(n, dtype=bool)
    removed[list(fixed)] = True
    before = np.cumsum(removed) - removed  # fixed columns left of each column
    keep = ~removed[cols]
    order = np.argsort(~keep, axis=1, kind="stable")
    weights = np.take_along_axis(np.where(keep, band, 0.0), order, axis=1)
    return weights, cols[:, 0] - before[cols[:, 0]]


def _qr_sweep(weights: np.ndarray, starts: np.ndarray, m: int,
              rhs: np.ndarray) -> tuple[_BlockR, np.ndarray]:
    """Blocked Householder QR of an m-column staircase matrix A = Q R.

    Row i of A holds `weights[i]` from column `starts[i]` on (see
    `_staircase`).  Window t factors, with ``np.linalg.qr(mode="raw")``, the
    2w rows carried from window t-1 and the rows starting in columns
    t*b .. t*b+b-1, over columns t*b .. t*b+b+2w-1 and `rhs`.  Its first b
    rows are rows of R, the next 2w are carried, the rest hold only
    residual.  The raw factor holds R on and above the diagonal and the
    reflectors below it; R's band is read on and above the diagonal, and
    the carried triangle is masked, so R is the bits mode "r" (`triu` of
    the same factor) would give.  Returns R and the first m entries of
    Q^T rhs.  O(m (b+2w)^2) time, O(m w) memory beyond one chunk of
    windows.
    """
    n, width = weights.shape
    b, w2 = _BLOCK, width - 1
    nblocks = -(-m // b)
    band = np.empty((nblocks * b, width))
    qtr = np.zeros(m)
    bounds = np.searchsorted(starts, b * np.arange(nblocks + 1))
    bounds[-1] = n
    upper = np.triu(np.ones((w2, w2), dtype=bool))
    diagonals = np.arange(b)[:, None] + np.arange(width)  # R[i, i + k] of a block
    carry = np.zeros((0, w2 + 1))  # the carried rows of R, then of Q^T rhs
    for t in range(nblocks):
        j0, lo, hi = t * b, bounds[t], bounds[t + 1]
        if t % _CHUNK == 0:  # the next windows' rows at their columns, rhs last
            first = lo
            last = bounds[min(t + _CHUNK, nblocks)]
            rows = np.zeros((last - first, b + width))
            rows[np.arange(last - first)[:, None],
                 (starts[first:last] % b)[:, None] + np.arange(width)] = weights[first:last]
            rows[:, -1] = rhs[first:last]
            blocks = np.zeros((_CHUNK, b, b + w2))  # these windows' rows of R
        nb, ncols, c = min(b, m - j0), min(b + w2, m - j0), len(carry)
        win = np.zeros((c + hi - lo, ncols + 1))
        win[:c, :min(w2, ncols)] = carry[:, :min(w2, ncols)]
        win[:c, -1] = carry[:, -1]
        win[c:, :ncols] = rows[lo - first:hi - first, :ncols]
        win[c:, -1] = rows[lo - first:hi - first, -1]
        r = np.linalg.qr(win, mode="raw")[0].T
        if len(r) < ncols:  # fewer rows than columns: the missing pivots are 0
            r = np.concatenate((r, np.zeros((ncols - len(r), r.shape[1]))))
        blocks[t % _CHUNK, :nb, :ncols] = r[:nb, :ncols]
        if t % _CHUNK == _CHUNK - 1 or t == nblocks - 1:
            done = blocks[:t % _CHUNK + 1, diagonals[:, :1], diagonals]
            band[(t - t % _CHUNK) * b:(t + 1) * b] = done.reshape(-1, width)
        qtr[j0:j0 + nb] = r[:nb, -1]
        k = ncols - nb
        carry = np.zeros((k, w2 + 1))
        carry[:, :k] = np.where(upper[:k, :k], r[nb:ncols, nb:ncols], 0.0)
        carry[:, -1] = r[nb:ncols, -1]
    band[m:, 0] = 1.0  # identity rows fill the last block
    return _BlockR(band, m), qtr


def _substitute(coef: np.ndarray, x: np.ndarray, transposed: bool = False) -> np.ndarray:
    """Solve U_t y = x_t (U_t^T y = x_t if `transposed`) for a stack of k
    upper-triangular banded s x s blocks U_t, in place in `x`; returns x.

    `coef[i, j, t, 0]` is U_t[i, i+j]; entries past the block are ignored.
    `x[i, t]` holds row i of block t's right-hand sides, shape (s, k, p):
    rows outermost, so each step works on one contiguous (k, p) row.  The
    substitution runs row by row, s numpy steps of `width - 1`
    multiply-adds over every block and column at once.  Each step is
    elementwise, so a block's bits do not depend on the blocks stacked
    with it, and each row is the exact formula of its own residual row, so
    (U + dU) y = x with |dU| <= width eps |U| to first order, column by
    column (Higham, Accuracy and Stability of Numerical Algorithms, 8.1).
    """
    s, width = coef.shape[:2]
    term = np.empty(x.shape[1:])
    for i in (range(s) if transposed else range(s - 1, -1, -1)):
        row = x[i]
        for j in range(1, min(width, i + 1 if transposed else s - i)):
            if transposed:
                np.multiply(coef[i - j, j], x[i - j], out=term)
            else:
                np.multiply(coef[i, j], x[i + j], out=term)
            row -= term
        row /= coef[i, 0]
    return x


class _BlockR:
    """Upper-triangular R of bandwidth 2w <= b, held as its band.

    Row i of `band` holds R[i, i], ..., R[i, i+2w]; the rows are padded to
    whole blocks of b with identity rows.  Block t, the diagonal block D_t
    of rows t*b .. t*b+b-1, couples through C_t only to the first 2w
    unknowns of block t+1.  Pivots below eps * max|pivot| are raised to
    it, a backward error of the QR's own size, so a singular R (as for an
    L with a null space) still has nonsingular blocks.

    Every substitution runs on one engine (the SPIKE scheme; Polizzi &
    Sameh 2006): `_substitute` solves all diagonal blocks at once, and a
    2w-wide carry recursion couples them block by block through the
    spikes V_t = D_t^-1 C_t and W_t = D_t^-T[:, :2w], computed once per R.
    The spikes are never multiplied across blocks, since with floored
    pivots such products can overflow.  Where a block is ill conditioned
    the spike form cancels, so `solve` adds one step of fixed-precision
    iterative refinement, r = c - R x from the band and x += engine(r),
    which makes it componentwise backward stable again (Skeel 1980);
    inverse iteration with a nearly singular R relies on that.
    `solve_transposed` goes without it: its only caller is the inverse
    iteration's R^-T half-step, whose error the next, refined R^-1
    half-step corrects.  Blocked vectors have shape (b, n/b, p), row i of
    every block together.  O(m * b * 2w) time per call, O(m * 2w) memory.
    """

    def __init__(self, band: np.ndarray, m: int):
        self.band, self.m = band, m
        pivots = band[:, 0]
        floor = _EPS * np.abs(pivots[:m]).max()
        band[:, 0] = np.where(np.abs(pivots) < floor, floor, pivots)
        b, w2 = _BLOCK, band.shape[1] - 1
        blocks = band.reshape(-1, b, w2 + 1)
        self._coef = np.ascontiguousarray(blocks.transpose(1, 2, 0))[..., None]
        # C_t's nonzero rows, the last 2w of block t: R[t*b+i, (t+1)*b+j]
        # lies at band offset b + j - i
        i, j = np.arange(b - w2, b)[:, None], np.arange(w2)
        offset = b + j - i
        self._coupling = np.where(offset <= w2, blocks[:, i, np.minimum(offset, w2)], 0.0)
        spikes = np.zeros((b, len(blocks), w2))
        spikes[b - w2:] = self._coupling.transpose(1, 0, 2)
        self._spikes = _substitute(self._coef, spikes).transpose(1, 0, 2).copy()

    @cached_property
    def _transposed_spikes(self) -> tuple[np.ndarray, np.ndarray]:
        """W_t, and C_t[-2w:]^T W_t[-2w:], which carries block t's correction
        on to block t+1's."""
        b, width, nblocks, _ = self._coef.shape
        w2 = width - 1
        spikes = np.zeros((b, nblocks, w2))
        spikes[np.arange(w2), :, np.arange(w2)] = 1.0
        spikes = _substitute(self._coef, spikes, transposed=True).transpose(1, 0, 2).copy()
        return spikes, self._coupling.transpose(0, 2, 1) @ spikes[:, b - w2:]

    def _blocked(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros((len(self.band), x.size // self.m))
        out[:self.m] = x.reshape(self.m, -1)
        return out.reshape(-1, _BLOCK, out.shape[1]).transpose(1, 0, 2).copy()

    def _flat(self, x: np.ndarray, shape: tuple) -> np.ndarray:
        return x.transpose(1, 0, 2).reshape(-1, x.shape[2])[:self.m].reshape(shape)

    def _back(self, x: np.ndarray) -> np.ndarray:
        """The engine for R y = x, blocked, in place."""
        w2 = self.band.shape[1] - 1
        lead = _substitute(self._coef, x)[:w2].transpose(1, 0, 2).copy()
        heads = [lead[-1]]  # y_t[:2w], last block first
        for y, v in zip(lead[-2::-1], self._spikes[-2::-1, :w2]):
            heads.append(y - v.dot(heads[-1]))
        heads = np.stack(heads[::-1])
        x[w2:, :-1] -= (self._spikes[:-1, w2:] @ heads[1:]).transpose(1, 0, 2)
        x[:w2] = heads.transpose(1, 0, 2)
        return x

    def _times(self, x: np.ndarray) -> np.ndarray:
        """R x for blocked x, summed over the band left to right."""
        b, width = self._coef.shape[:2]
        out = self._coef[:, 0] * x
        for j in range(1, width):  # rows past a block's end reach the next block
            out[:b - j] += self._coef[:b - j, j] * x[j:]
            out[b - j:, :-1] += self._coef[b - j:, j, :-1] * x[:j, 1:]
        return out

    def solve(self, c: np.ndarray) -> np.ndarray:
        """x with R x = c: the engine and one refinement step."""
        blocked = self._blocked(c)
        x = self._back(blocked.copy())
        blocked -= self._times(x)
        x += self._back(blocked)
        return self._flat(x, c.shape)

    def solve_transposed(self, c: np.ndarray) -> np.ndarray:
        """z with R^T z = c: the engine alone (see the class docstring)."""
        b, w2 = _BLOCK, self.band.shape[1] - 1
        z = _substitute(self._coef, self._blocked(c), transposed=True)
        spikes, carry = self._transposed_spikes
        tails = self._coupling.transpose(0, 2, 1) @ z[b - w2:].transpose(1, 0, 2)
        u = [np.zeros(tails.shape[1:])]  # C_t-1^T z_t-1, block t's correction
        for q, p in zip(tails[:-1], carry[:-1]):
            u.append(q - p.dot(u[-1]))
        z -= (spikes @ np.stack(u)).transpose(1, 0, 2)
        return self._flat(z, c.shape)

    def gram_inverse_diagonal(self) -> np.ndarray:
        """diag((R^T R)^-1) by the block form of the Takahashi recursion.

        With Z_t = D_t^-1 C_t, the spike V_t, the diagonal block of the
        inverse is S_t = D_t^-1 D_t^-T + Z_t K_t+1 Z_t^T, where K_t+1 is the
        leading 2w x 2w corner of S_t+1 (Takahashi, Fagan & Chin 1973).  Both
        terms are semidefinite, so nothing cancels, and R^T R, whose
        condition is squared, is never formed.  The engine inverts `_CHUNK`
        diagonal blocks at a time, D_t X = I.  `solve` adds one refinement
        step (r = c - R x, x += engine(r)) because the spike form can cancel
        across blocks; a block inverse has no spikes and needs none, since a
        substitution leaves |D_t X - I| <= (2w + 1) eps |D_t| |X| to first
        order, as small as LAPACK's inverse leaves it.  `solve_transposed`
        goes without refinement too: the refined R^-1 half-step after it
        corrects its error.  The diagonal is formed per chunk; only the
        2w x 2w corner recursion runs block by block.
        """
        b, width, nblocks, _ = self._coef.shape
        w2 = width - 1
        diag = np.empty((nblocks, b))
        corner = np.zeros((w2, w2))
        for hi in range(nblocks, 0, -_CHUNK):
            lo = max(hi - _CHUNK, 0)
            inv = np.zeros((b, hi - lo, b))
            inv[np.arange(b), :, np.arange(b)] = 1.0
            inv = _substitute(self._coef[:, :, lo:hi], inv).transpose(1, 0, 2).copy()
            z = self._spikes[lo:hi]
            head = inv[:, :w2] @ inv[:, :w2].transpose(0, 2, 1)
            corners = []  # K_t+1 for each block t, last first
            for h, v in zip(head[::-1], z[::-1, :w2]):
                corners.append(corner)
                corner = h + v.dot(corner).dot(v.T)
            zc = z @ np.stack(corners[::-1])
            diag[lo:hi] = np.einsum("kij,kij->ki", inv, inv) + np.einsum("kij,kij->ki", zc, z)
        return diag.ravel()[:self.m]


# ---------------------------------------------------------------------------
# assembled linear differential operators
# ---------------------------------------------------------------------------

@dataclass
class LdoSpec:
    """ODE left-hand side sum(a_i(t) * y^(i)), i = 0..degree.

    `coefficients[i]` is either a scalar or a per-grid-point value vector.
    """

    degree: int
    coefficients: list

    def __post_init__(self):
        if len(self.coefficients) != self.degree + 1:
            raise CoefficientLengthMismatchError(
                f"degree {self.degree} needs {self.degree + 1} coefficients, "
                f"got {len(self.coefficients)}")
        lead = self.coefficients[self.degree]
        if np.all(np.asarray(lead, dtype=np.float64) == 0.0):
            raise LeadingCoefficientZeroError(
                f"a_{self.degree} is identically zero")

    def coefficient_values(self, grid: Grid) -> list[np.ndarray]:
        """Each coefficient sampled on the grid (scalars broadcast)."""
        out = []
        for i, c in enumerate(self.coefficients):
            a = np.asarray(c, dtype=np.float64)
            if a.ndim == 0:
                a = np.full(grid.n, float(a))
            elif a.shape != (grid.n,):
                raise CoefficientLengthMismatchError(
                    f"coefficient {i} has length {a.shape}, grid has n={grid.n}")
            out.append(a)
        return out


@dataclass
class LdoMatrix(_BandedOperator):
    """Assembled operator L = sum(diag(a_i) @ D^(i)), as its row band.

    `null_basis` has orthonormal columns spanning the numerical null space
    (the discrete homogeneous solutions); `rank + null_basis.shape[1] == n`.
    Singular values at or below `rank_tolerance` count as null.  The rank
    margins are the smallest non-null Ritz value over `rank_tolerance`
    (`nonnull_margin`) and `rank_tolerance` over the largest null Ritz value
    (`null_margin`), inf where there is no such value.  Both are at least 1;
    near 1 the rank decision is close.
    """

    spec: LdoSpec
    grid: Grid
    band: np.ndarray
    null_basis: np.ndarray
    rank: int
    accuracy: int
    rank_tolerance: float
    nonnull_margin: float
    null_margin: float

    @property
    def null_dim(self) -> int:
        return self.null_basis.shape[1]


_POWER_STEPS = 20
_INVERSE_STEPS = 8

# Widest block of singular vectors the null-space search takes.  A null
# space this wide (a leading coefficient that vanishes on most of the grid)
# is refused: doubling on to n vectors would cost O(n^3) time and n x n
# memory.
_MAX_NULL_BLOCK = 64

# The first non-null Ritz value decides the rank.  A Ritz value overestimates
# its singular value by a factor that falls like (sigma_j / sigma_p+1)^(2 *
# steps), so the last vectors of a block converge slowest: on singular values
# clustered just below the cutoff, 8 steps left the deciding one up to 13%
# high and counted it non-null.  While that value is below _CLOSE cutoffs the
# block is doubled, so that the deciding vector is no longer among its last.
_CLOSE = 2.0


def _null_space_too_large(k: int, degree: int) -> NullSpaceTooLargeError:
    return NullSpaceTooLargeError(
        f"operator null space has at least {k} dimensions, more than the "
        f"{_MAX_NULL_BLOCK - 1} supported (does a_{degree} vanish on most of the grid?)")


def _apply_transposed(band: np.ndarray, cols: np.ndarray, v: np.ndarray) -> np.ndarray:
    """L^T v for the operator whose row i holds band[i] over cols[i]."""
    return np.bincount(cols.ravel(), weights=(band * v[:, None]).ravel(), minlength=len(band))


def _smallest_singular(band: np.ndarray, cols: np.ndarray, r: _BlockR, p: int,
                       cutoff: float, rng) -> tuple[np.ndarray, np.ndarray]:
    """The p smallest singular values of L = QR, ascending, and their right
    vectors.

    Inverse subspace iteration with (R^T R)^-1 = (L^T L)^-1, each step
    followed by Rayleigh-Ritz on the p x p triangle of L x (T. F. Chan, Rank
    revealing QR factorizations, 1987).  A Ritz value is never below the
    singular value it estimates, so one at or below `cutoff` is settled.
    For a Ritz pair (sigma, y) above it, some singular value of L lies
    within rho = ||L^T L y - sigma^2 y|| / sigma of sigma (Kahan's bound for
    the eigenvalues of L^T L; Parlett, The Symmetric Eigenvalue Problem,
    sec. 11.5).  The iteration stops once every such sigma - rho is above
    the cutoff, or after `_INVERSE_STEPS` steps with the last Ritz pairs.
    Rounding y to float64 leaves rho a floor that grows as sigma falls
    relative to ||L||: y'' at n = 1e5, 5.6 cutoffs above, runs all steps.
    """
    x = np.linalg.qr(rng.standard_normal((r.m, p)))[0]
    for _ in range(_INVERSE_STEPS):
        # orthonormal after each solve: one solve may grow the smallest
        # direction past the next by more than 1/eps, and then a whole
        # step would round the next one away
        z = np.linalg.qr(r.solve_transposed(x))[0]
        x = np.linalg.qr(r.solve(z))[0]
        lx = np.einsum("ij,ijk->ik", band, x[cols])
        _, sigma, vt = np.linalg.svd(np.linalg.qr(lx, mode="r"))
        # a copy: a reversed operand takes matmul off BLAS, 40x slower
        sigma, v = sigma[::-1], vt[::-1].T.copy()
        y, ly = x @ v, lx @ v
        above = np.flatnonzero(sigma > cutoff)
        rho = [np.linalg.norm(_apply_transposed(band, cols, ly[:, j]) - sigma[j] ** 2 * y[:, j])
               / sigma[j] for j in above]
        if np.all(sigma[above] - rho > cutoff):
            break
    return sigma, y


def assemble_ldo(spec: LdoSpec, grid: Grid, accuracy: int) -> LdoMatrix:
    """Assemble L = sum(diag(a_i(t)) @ D^(i)) and compute its null space.

    The band is summed from zero, term by term, bitwise equal to the dense
    sum.  The rank rule is the SVD's: singular values at or below
    ``max(n * eps, 1e-10) * s_max`` (`rank_tolerance`) are null.  s_max
    comes from power steps with the band.  The smallest singular values and
    their vectors come from inverse subspace iteration with R of L = QR,
    held as its band.  Each step solves R^T z = x, then R x = z, with the
    numpy substitution engine of `_BlockR`; the R^-1 half-step adds one
    refinement step, which keeps it backward stable on a nearly singular
    R, and the R^-T half-step goes without, since the refined R^-1
    half-step after it corrects its error.  The block holds degree + 2
    vectors and is doubled while every value in it is null or the first
    non-null one is within `_CLOSE` times the cutoff, up to
    `_MAX_NULL_BLOCK` vectors; the null ones give `null_basis`.  Tiny
    pivots of R are not counted: without column pivoting they do not
    reveal the rank.  Seeded, so reruns are bitwise equal; O(n (b w + p^2))
    per step for p vectors, no n x n matrix.  A doubled block makes each
    step a dense QR of n x p: for y'' (h = 0.01, accuracy 2) the first
    non-null value is 5.6 cutoffs at n = 1e5 (about 0.7 s, 466 bytes per
    row traced), but 1.41 at n = 2e5, where the block grows to 64 vectors
    and the call took 44-50 s and 5488 bytes per row (at b = 64, before R
    was held as its band).

    Raises
    ------
    NullSpaceTooLargeError
        If L has `_MAX_NULL_BLOCK` zero rows, or that many vectors, fewer
        than n, are all null.
    """
    n, w = grid.n, _half_width(accuracy)
    band = np.zeros((n, 2 * w + 1))
    with np.errstate(over="ignore"):
        for i, a in enumerate(spec.coefficient_values(grid)):
            band += a[:, None] * build_diff_operator(grid, i, accuracy).band
    if not np.isfinite(band).all():
        raise SiglexError("an operator entry overflows float64")
    # the search runs on L / 2^e with max|entry| in [0.5, 1), so its power
    # steps cannot overflow; a power of two changes no bits
    e = int(np.frexp(np.abs(band).max())[1])
    unit = np.ldexp(band, -e)
    rng = np.random.default_rng(0)
    cols = _band_columns(n, w)
    x = rng.standard_normal(n)
    for _ in range(_POWER_STEPS):  # x <- L^T L x
        x = _apply_transposed(unit, cols, _stencil_sum(unit, x[cols]))
        x /= np.sqrt(np.sum(x * x))
    s_max = float(np.sqrt(np.sum(_stencil_sum(unit, x[cols]) ** 2)))
    cutoff = s_max * max(n * _EPS, 1e-10)

    # each zero row of L is one more null direction: no search needed
    zero_rows = n - int(np.count_nonzero(band.any(axis=1)))
    if zero_rows >= _MAX_NULL_BLOCK:
        raise _null_space_too_large(zero_rows, spec.degree)
    r, _ = _qr_sweep(unit, cols[:, 0], n, np.zeros(n))
    p = min(spec.degree + 2, n)
    while True:
        sigma, vectors = _smallest_singular(unit, cols, r, p, cutoff, rng)
        null = int(np.count_nonzero(sigma <= cutoff))
        settled = null < p and (sigma[null] > _CLOSE * cutoff or p == _MAX_NULL_BLOCK)
        if settled or p == n:
            break
        if p == _MAX_NULL_BLOCK:
            raise _null_space_too_large(p, spec.degree)
        p = min(2 * p, n, _MAX_NULL_BLOCK)
    nonnull_margin = float(sigma[null]) / cutoff if null < p else inf
    null_margin = cutoff / float(sigma[null - 1]) if null and sigma[null - 1] > 0 else inf
    return LdoMatrix(spec, grid, band, vectors[:, :null].copy(), n - null, accuracy,
                     float(np.ldexp(cutoff, e)), nonnull_margin, null_margin)


# ---------------------------------------------------------------------------
# inverse problem
# ---------------------------------------------------------------------------

@dataclass
class InverseSolution:
    """Solution of L y = g under point constraints.

    `variance` is the variance of each y_j under unit white noise on g,
    diag(A A^T) for the linear map A from g to y; it is 0 at pinned points.
    """

    y: np.ndarray
    residual: np.ndarray
    variance: np.ndarray


def _constraint_rows(op: LdoMatrix, indices: Sequence[int]) -> tuple[list, np.ndarray]:
    """Check point-constraint indices; return them and their null-basis rows.

    Exactly `null_dim` distinct indices inside the grid are required, and
    the null basis restricted to them must be numerically full rank.  Its
    columns are orthonormal, so the singular values of those rows lie in
    [0, 1]; one below 1e-10 is a homogeneous solution that the constraint
    points barely see.  (Relative to the largest, the test would be vacuous
    for k = 1.)
    """
    k, n = op.null_dim, op.grid.n
    rows = [int(i) for i in indices]
    if any(i < 0 or i >= n for i in rows):
        raise ConstraintIndexError(f"constraint index outside the grid of {n}: {rows}")
    if len(rows) != k:
        raise ConstraintCountMismatchError(
            f"operator null space has dimension {k}, got {len(rows)} constraints")
    if len(set(rows)) != len(rows):
        raise ConstraintCountMismatchError(f"constraint indices not distinct: {rows}")
    nb = op.null_basis[rows, :]
    if k:
        sv = np.linalg.svd(nb, compute_uv=False)
        if sv[-1] < 1e-10:
            raise SingularConstraintSystemError(
                f"null-basis rows {rows} are numerically rank deficient")
    return rows, nb


def solve_inverse(op: LdoMatrix, g: np.ndarray,
                  constraints: Sequence[tuple[int, float]]) -> InverseSolution:
    """Least-squares solve of L y = g with point constraints fixing the null modes.

    The pinned values move to the right-hand side, and the free columns L_f
    solve min ||L_f y_f - (g - L_c y_c)|| by one banded QR sweep of L_f and
    back substitution, one numpy engine pass plus one refinement step
    (r = c - R y_f from R's band, y_f += engine(r)), which makes it
    componentwise backward stable; no transposed solve is needed here, and
    in `assemble_ldo` the unrefined R^-T half-step is corrected by the
    refined R^-1 one that follows it.  The variance is
    diag((L_f^T L_f)^-1), from the Takahashi recursion on R's diagonal
    blocks, inverted by the same engine.  Exactly `k = null_dim`
    constraints with distinct in-range indices are required.
    O(n * (b + 2w)^2) time for windows of b = 32 columns and O(n * w)
    memory beyond g and y.

    Raises
    ------
    ConstraintCountMismatchError
        If the number of constraints differs from the null-space dimension
        or an index repeats; its subclass ConstraintIndexError if an index
        lies outside the grid.
    SingularConstraintSystemError
        If the constraint rows of the null basis are rank deficient.
    NonFiniteSampleError
        If g holds a NaN or an infinity, which back substitution would
        spread to every free y_j.
    """
    n = op.grid.n
    g = np.asarray(g, dtype=np.float64)
    if g.shape != (n,):
        raise LengthMismatchError(f"g must have length {n}, got {g.shape}")
    bad = ~np.isfinite(g)
    if bad.any():
        raise NonFiniteSampleError(f"non-finite sample at index {int(np.argmax(bad))}")
    constraints = list(constraints)
    rows, _ = _constraint_rows(op, [i for i, _ in constraints])
    y = np.zeros(n)
    y[rows] = [float(v) for _, v in constraints]
    e = int(np.frexp(np.abs(op.band).max())[1])  # L / 2^e, as in assemble_ldo
    free = np.ones(n, dtype=bool)
    free[rows] = False
    variance = np.zeros(n)
    with np.errstate(over="ignore", invalid="ignore"):  # scaled back 2^e: checked below
        weights, starts = _staircase(np.ldexp(op.band, -e), rows)
        r, qtr = _qr_sweep(weights, starts, n - len(rows), np.ldexp(g - op.apply(y), -e))
        y[free] = r.solve(qtr)
        variance[free] = np.ldexp(r.gram_inverse_diagonal(), -2 * e)
    if not (np.isfinite(y).all() and np.isfinite(variance).all()):
        raise SiglexError("the solution or its variance overflows float64")
    return InverseSolution(y, op.apply(y) - g, variance)


# ---------------------------------------------------------------------------
# local kernels and streaming application
# ---------------------------------------------------------------------------

@dataclass
class LocalKernel:
    """Central-row stencil of a derivative operator, for convolutional use."""

    weights: np.ndarray

    @property
    def half_width(self) -> int:
        return (len(self.weights) - 1) // 2


def extract_local_kernel(order: int, accuracy: int, h: float) -> LocalKernel:
    """Central stencil of build_diff_operator, the weights of its interior rows."""
    check_order(order, accuracy)
    w = _half_width(accuracy)
    return LocalKernel(_stencil(range(-w, w + 1), accuracy, order, float(h)))


def apply_streaming(kernel: LocalKernel, stream) -> np.ndarray:
    """The kernel over every full 2w+1-sample window of `stream`, in order.

    Output j is row j + w of build_diff_operator applied to the stream, bit
    for bit; the first and last w rows, which need one-sided stencils, are
    the band's alone.  A stream shorter than 2w+1 gives no output.  Each
    output depends on its own 2w+1 samples only, so a stream may arrive in
    chunks: when every chunk after the first starts with the last 2w samples
    of the one before, the chunks' outputs, concatenated, are the whole
    stream's bytes.
    """
    x = np.asarray(stream, dtype=np.float64)
    width = len(kernel.weights)
    if len(x) < width:
        return np.empty(0)
    return _stencil_sum(kernel.weights, sliding_window_view(x, width))
