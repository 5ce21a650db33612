"""Discrete differential operators, operator assembly, and inverse solving.

Derivative matrices are built from local polynomial least-squares stencils:
a window of 2w+1 samples is fitted with a degree-`accuracy` polynomial and
the fit's derivative at the evaluation point gives the row weights.  Interior
rows use a symmetric window, the first/last w rows use the shifted window of
the first/last 2w+1 grid points.  Stencil weights are computed in exact
rational arithmetic and rounded once, so they are exact on polynomials up to
the stated degree to within a single float rounding.

Dense apply, streaming and the boundary rows share one stencil engine: each
output is the sum over its 2w+1-sample window, accumulated left to right in
a fixed order (no ``np.dot``, whose order is not fixed).  Streaming and dense
outputs are therefore bitwise-identical, boundary rows included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import ceil, factorial
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    CoefficientLengthMismatchError,
    ConstraintCountMismatchError,
    GridTooShortError,
    LeadingCoefficientZeroError,
    LengthMismatchError,
    OrderExceedsAccuracyError,
    SingularConstraintSystemError,
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
    exact = _rational_stencil(tuple(int(o) for o in offsets), degree, order)
    return np.array([float(x) for x in exact]) / h ** order


def check_order(order: int, accuracy: int) -> None:
    """Raise OrderExceedsAccuracyError unless 0 <= order <= accuracy."""
    if order < 0 or accuracy < order:
        raise OrderExceedsAccuracyError(
            f"need 0 <= order <= accuracy, got order={order} accuracy={accuracy}")


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


def _window_starts(n: int, w: int) -> np.ndarray:
    """Leftmost column of each row's stencil window."""
    return np.clip(np.arange(n) - w, 0, n - (2 * w + 1))


def _stencil_sum(weights: np.ndarray, windows: np.ndarray) -> np.ndarray:
    """The stencil engine: out[i] = sum_j weights[.., j] * windows[i, j].

    `windows[i]` holds output i's 2w+1 input samples; `weights` is one
    stencil shared by every output, shape (2w+1,), or one per output,
    shape (m, 2w+1).  The sum runs j = 0, 1, ..., 2w in that order for
    every output, so equal weights and samples give equal bits whichever
    caller (and however the stream was chunked) produced them.
    """
    out = weights[..., 0] * windows[:, 0]
    for j in range(1, windows.shape[1]):
        out += weights[..., j] * windows[:, j]
    return out


# ---------------------------------------------------------------------------
# derivative operator matrices
# ---------------------------------------------------------------------------

@dataclass
class DiffOperatorMatrix:
    """Dense n x n realization of the i-th derivative on a uniform grid.

    `support` is the stencil half-width w; every row has at most 2w+1
    nonzero entries confined to its stencil window.
    """

    order: int
    accuracy: int
    grid: Grid
    entries: np.ndarray
    support: int

    def apply(self, x: np.ndarray) -> np.ndarray:
        return _banded_apply(self.entries, self.grid.n, self.support, x)


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
    w = _half_width(accuracy)
    n = grid.n
    if n < 2 * w + 1 or n <= accuracy:
        raise GridTooShortError(
            f"grid n={n} too short for accuracy={accuracy} (needs n >= {2 * w + 1})")

    rows, lo = np.arange(n), _window_starts(n, w)
    entries = np.zeros((n, n))
    entries[rows[:, None], lo[:, None] + np.arange(2 * w + 1)] = \
        _window_stencils(order, accuracy, grid.h)[rows - lo]
    return DiffOperatorMatrix(order, accuracy, grid, entries, w)


def _banded_apply(entries: np.ndarray, n: int, w: int, x: np.ndarray) -> np.ndarray:
    """Row-banded L @ x through the stencil engine, one band row per output."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (n,):
        raise LengthMismatchError(f"expected length {n}, got {x.shape}")
    cols = _window_starts(n, w)[:, None] + np.arange(2 * w + 1)
    return _stencil_sum(entries[np.arange(n)[:, None], cols], x[cols])


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
class LdoMatrix:
    """Assembled operator L = sum(diag(a_i) @ D^(i)) with its null space.

    `null_basis` has orthonormal columns spanning the numerical null space
    (the discrete homogeneous solutions); `rank + null_basis.shape[1] == n`.
    """

    spec: LdoSpec
    grid: Grid
    entries: np.ndarray
    null_basis: np.ndarray
    rank: int
    accuracy: int
    support: int
    rank_tolerance: float
    _svd: tuple = field(default=None, repr=False, compare=False)

    @property
    def null_dim(self) -> int:
        return self.null_basis.shape[1]

    def _svd_parts(self):
        if self._svd is None:
            self._svd = np.linalg.svd(self.entries)
        return self._svd

    def apply(self, x: np.ndarray) -> np.ndarray:
        return _banded_apply(self.entries, self.grid.n, self.support, x)

    def pseudo_inverse(self) -> np.ndarray:
        """Moore-Penrose inverse with the operator's rank tolerance."""
        u, s, vt = self._svd_parts()
        r = self.rank
        return (vt[:r].T / s[:r]) @ u[:, :r].T


def assemble_ldo(spec: LdoSpec, grid: Grid, accuracy: int) -> LdoMatrix:
    """Assemble L = sum(diag(a_i(t)) @ D^(i)) and compute its null space.

    The numerical rank uses the SVD cutoff ``max(n * eps, 1e-10) * s_max``,
    kept on the result as `rank_tolerance`.
    """
    coeffs = spec.coefficient_values(grid)
    entries = np.zeros((grid.n, grid.n))
    w = _half_width(accuracy)
    for i, a in enumerate(coeffs):
        d = build_diff_operator(grid, i, accuracy)
        entries += a[:, None] * d.entries

    u, s, vt = np.linalg.svd(entries)
    cutoff = s[0] * max(grid.n * _EPS, 1e-10) if s[0] > 0 else 0.0
    rank = int(np.count_nonzero(s > cutoff))
    null_basis = vt[rank:].T.copy()
    return LdoMatrix(spec, grid, entries, null_basis, rank, accuracy, w,
                     cutoff, _svd=(u, s, vt))


# ---------------------------------------------------------------------------
# inverse problem
# ---------------------------------------------------------------------------

@dataclass
class InverseSolution:
    """Solution of L y = g: minimum-norm particular part plus null modes."""

    y_particular: np.ndarray
    alpha: np.ndarray
    y: np.ndarray
    residual: np.ndarray


def _constraint_rows(op: LdoMatrix, indices: Sequence[int]) -> tuple[list, np.ndarray]:
    """Check point-constraint indices; return them and their null-basis rows.

    Exactly `null_dim` distinct indices inside the grid are required, and
    the null basis restricted to them must be numerically full rank.
    """
    k, n = op.null_dim, op.grid.n
    rows = [int(i) for i in indices]
    if len(rows) != k:
        raise ConstraintCountMismatchError(
            f"operator null space has dimension {k}, got {len(rows)} constraints")
    if len(set(rows)) != len(rows):
        raise ConstraintCountMismatchError(f"constraint indices not distinct: {rows}")
    if any(i < 0 or i >= n for i in rows):
        raise ConstraintCountMismatchError(f"constraint index out of range: {rows}")
    nb = op.null_basis[rows, :]
    if k:
        sv = np.linalg.svd(nb, compute_uv=False)
        if sv[0] == 0.0 or sv[-1] < 1e-10 * sv[0]:
            raise SingularConstraintSystemError(
                f"null-basis rows {rows} are numerically rank deficient")
    return rows, nb


def solve_inverse(op: LdoMatrix, g: np.ndarray,
                  constraints: Sequence[tuple[int, float]]) -> InverseSolution:
    """Solve L y = g with point constraints fixing the null-space modes.

    The particular solution is the pseudo-inverse image of g; the null-space
    coefficients solve the k x k system pinning y at the constraint indices.
    Exactly `k = null_dim` constraints with distinct in-range indices are
    required.

    Raises
    ------
    ConstraintCountMismatchError
        If the number of constraints differs from the null-space dimension,
        or an index repeats or lies outside the grid.
    SingularConstraintSystemError
        If the constraint rows of the null basis are rank deficient.
    """
    n = op.grid.n
    g = np.asarray(g, dtype=np.float64)
    if g.shape != (n,):
        raise LengthMismatchError(f"g must have length {n}, got {g.shape}")
    constraints = list(constraints)
    rows, nb = _constraint_rows(op, [i for i, _ in constraints])
    vals = np.array([float(v) for _, v in constraints])

    u, s, vt = op._svd_parts()
    r = op.rank
    y_part = vt[:r].T @ ((u[:, :r].T @ g) / s[:r])
    alpha = np.linalg.solve(nb, vals - y_part[rows]) if rows else np.zeros(0)
    y = y_part + op.null_basis @ alpha
    residual = op.apply(y) - g
    return InverseSolution(y_part, alpha, y, residual)


def solution_operator(op: LdoMatrix, constraint_indices: Sequence[int]) -> np.ndarray:
    """Linear map A with y = A g + (terms from the constraint values).

    Point constraints make the solved y affine in g; A is the g-dependent
    part, which is what covariance propagation needs.  For k = 0 this is
    just the pseudo-inverse.  The indices are checked as in solve_inverse.
    """
    rows, nb = _constraint_rows(op, constraint_indices)
    pinv = op.pseudo_inverse()
    if not rows:
        return pinv
    proj = op.null_basis @ np.linalg.inv(nb)
    return pinv - proj @ pinv[rows, :]


# ---------------------------------------------------------------------------
# local kernels and streaming application
# ---------------------------------------------------------------------------

@dataclass
class LocalKernel:
    """Central-row stencil of a derivative operator, for convolutional use."""

    weights: np.ndarray
    order: int
    accuracy: int
    h: float

    @property
    def half_width(self) -> int:
        return (len(self.weights) - 1) // 2


def extract_local_kernel(order: int, accuracy: int, h: float) -> LocalKernel:
    """Central stencil of build_diff_operator for streaming convolution."""
    check_order(order, accuracy)
    w = _half_width(accuracy)
    weights = _window_stencils(order, accuracy, float(h))[w].copy()
    return LocalKernel(weights, order, accuracy, float(h))


class StreamingKernel:
    """Incremental convolution of a LocalKernel over a sample stream.

    Carries the last window of 2w+1 samples between calls; output j is
    emitted as soon as inputs j-w .. j+w have arrived (latency w).  Single
    consumer per instance; independent instances are unrelated.

    boundary="valid" emits fully-supported outputs only; "one_sided" also
    fills the first/last w outputs with the shifted boundary stencils of the
    equivalent dense matrix (streams shorter than 2w+1 yield no output).
    """

    def __init__(self, kernel: LocalKernel, boundary: str = "valid"):
        if boundary not in ("valid", "one_sided"):
            raise ValueError(f"unknown boundary policy {boundary!r}")
        self.kernel = kernel
        self.boundary = boundary
        self._w = kernel.half_width
        self._window = np.empty(0)
        self._rows = _window_stencils(kernel.order, kernel.accuracy, kernel.h)

    def push(self, sample: float) -> list[float]:
        """Feed one sample; returns the outputs it completes, in order."""
        return self.push_many([sample]).tolist()

    def push_many(self, chunk) -> np.ndarray:
        """Feed a 1-D block of samples; returns the outputs it completes, in order."""
        w, width = self._w, 2 * self._w + 1
        # a full carried window's output went out with the previous call
        emitted = len(self._window) == width
        x = np.concatenate((self._window, np.asarray(chunk, dtype=np.float64)))
        self._window = x[-width:].copy()
        if len(x) < width:
            return np.empty(0)
        out = _stencil_sum(self.kernel.weights,
                           sliding_window_view(x, width)[int(emitted):])
        if self.boundary == "one_sided" and not emitted:
            out = np.concatenate((_stencil_sum(self._rows[:w], x[None, :width]), out))
        return out

    def finish(self) -> list[float]:
        """Flush trailing one-sided outputs (empty for boundary="valid")."""
        if self.boundary != "one_sided" or len(self._window) < 2 * self._w + 1:
            return []
        return _stencil_sum(self._rows[self._w + 1:], self._window[None, :]).tolist()


def apply_streaming(kernel: LocalKernel, stream, boundary: str = "valid") -> np.ndarray:
    """Convolve a kernel over a sample sequence via the streaming path."""
    sk = StreamingKernel(kernel, boundary)
    return np.concatenate((sk.push_many(stream), sk.finish()))
