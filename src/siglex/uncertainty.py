"""Covariance propagation, residual statistics, and Student-t bands.

Covariance flows through a linear map M as M @ Lambda @ M.T; one function
serves both directions: M is the operator itself for the forward direction,
its pseudo-inverse (or any constrained solution map) for the inverse one.
Bands are pointwise: center +/- t * sqrt of the scaled diagonal.  The
t-quantile is computed without external dependencies by bisecting the
regularized incomplete beta CDF.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .csvout import write_csv
from .errors import (
    DimensionMismatchError,
    HorizonTooLargeError,
    InsufficientDofError,
    InvalidDofError,
    InvalidProbabilityError,
    NegativeDiagonalError,
    NotSymmetricError,
)
from .grid import Grid
from .operators import InverseSolution, LdoMatrix, assemble_ldo


# ---------------------------------------------------------------------------
# covariance propagation
# ---------------------------------------------------------------------------

def _as_matrix(m) -> np.ndarray:
    m = np.asarray(getattr(m, "entries", m), dtype=np.float64)
    if m.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-D matrix, got shape {m.shape}")
    return m


def _check_symmetric(lam: np.ndarray) -> np.ndarray:
    if lam.shape[0] != lam.shape[1]:
        raise DimensionMismatchError(f"covariance must be square, got {lam.shape}")
    scale = np.abs(lam).max()
    if scale > 0 and np.abs(lam - lam.T).max() > 1e-8 * scale:
        raise NotSymmetricError(
            f"asymmetry {np.abs(lam - lam.T).max():.3e} exceeds 1e-08 relative")
    return lam


def propagate_forward(L, lambda_x) -> np.ndarray:
    """Lambda_y = L Lambda_x L^T, symmetrized as (M + M^T)/2.

    For the inverse direction pass the pseudo-inverse or a solution map
    (see `solution_operator`) as L.
    """
    L = _as_matrix(L)
    lam = _check_symmetric(_as_matrix(lambda_x))
    if L.shape[1] != lam.shape[0]:
        raise DimensionMismatchError(
            f"cannot propagate {lam.shape} through {L.shape}")
    out = L @ lam @ L.T
    return 0.5 * (out + out.T)


def estimate_residual_variance(residual: np.ndarray, rank: int) -> tuple[float, int]:
    """Unbiased residual variance: (r.T r) / (n - rank), with dof = n - rank."""
    r = np.asarray(residual, dtype=np.float64)
    n = r.shape[0]
    if n <= rank:
        raise InsufficientDofError(f"n={n} residuals with rank={rank} leaves no dof")
    dof = n - rank
    return float(r @ r) / dof, dof


# ---------------------------------------------------------------------------
# Student-t quantiles (regularized incomplete beta, bisection)
# ---------------------------------------------------------------------------

def _beta_cf(a: float, b: float, x: float) -> float:
    """Lentz continued fraction for the incomplete beta integral."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < 1e-300:
        d = 1e-300
    d = 1.0 / d
    h = d
    for m in range(1, 400):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < 1e-300:
            d = 1e-300
        c = 1.0 + aa / c
        if abs(c) < 1e-300:
            c = 1e-300
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < 1e-300:
            d = 1e-300
        c = 1.0 + aa / c
        if abs(c) < 1e-300:
            c = 1e-300
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 3e-16:
            break
    return h


def _betainc_reg(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_bt = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
             + a * math.log(x) + b * math.log1p(-x))
    bt = math.exp(ln_bt)
    if x < (a + 1.0) / (a + b + 2.0):
        return bt * _beta_cf(a, b, x) / a
    return 1.0 - bt * _beta_cf(b, a, 1.0 - x) / b


def student_t_cdf(x: float, dof: int) -> float:
    """CDF of the Student-t distribution with `dof` degrees of freedom."""
    if dof < 1:
        raise InvalidDofError(f"dof must be >= 1, got {dof}")
    if x == 0.0:
        return 0.5
    t2 = x * x
    if t2 <= dof:
        # central branch keeps precision for small |x|, where
        # dof/(dof + x^2) would round to 1
        half = 0.5 * _betainc_reg(0.5, dof / 2.0, t2 / (dof + t2))
        return 0.5 + half if x > 0 else 0.5 - half
    tail = 0.5 * _betainc_reg(dof / 2.0, 0.5, dof / (dof + t2))
    return 1.0 - tail if x > 0 else tail


def student_t_quantile(p: float, dof: int) -> float:
    """Inverse CDF of Student-t, accurate to well below 1e-8 absolute.

    Bisection on the CDF; the bracket is doubled until it encloses p, so
    heavy tails (dof = 1) are handled without special cases.
    """
    if not 0.0 < p < 1.0:
        raise InvalidProbabilityError(f"p must be in (0, 1), got {p}")
    if dof < 1:
        raise InvalidDofError(f"dof must be >= 1, got {dof}")
    if p == 0.5:
        return 0.0
    if p < 0.5:
        return -student_t_quantile(1.0 - p, dof)
    lo, hi = 0.0, 1.0
    while student_t_cdf(hi, dof) < p:
        hi *= 2.0
        if hi > 1e300:
            break
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if student_t_cdf(mid, dof) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# bands
# ---------------------------------------------------------------------------

@dataclass
class ConfidenceBand:
    """Pointwise band: center +/- half_width at the given coverage level."""

    center: np.ndarray
    half_width: np.ndarray
    level: float

    @property
    def lower(self) -> np.ndarray:
        return self.center - self.half_width

    @property
    def upper(self) -> np.ndarray:
        return self.center + self.half_width

    def to_csv(self, path) -> None:
        c, hw = self.center, self.half_width
        write_csv(path, "index,center,lower,upper\n", "{},{:.17g},{:.17g},{:.17g}\n",
                  len(c), lambda a, b: (range(a, b), c[a:b], c[a:b] - hw[a:b],
                                        c[a:b] + hw[a:b]))


def confidence_band(y: np.ndarray, lambda_y: np.ndarray, sigma2: float,
                    dof: int, level: float) -> ConfidenceBand:
    """Pointwise band y_j +/- t_{1-(1-level)/2, dof} * sqrt(sigma2 * Lambda_y[j,j]).

    Small negative diagonal entries (within -1e-10 * trace) are clamped to
    zero; anything more negative raises NegativeDiagonalError.
    """
    if not 0.0 < level < 1.0:
        raise InvalidProbabilityError(f"level must be in (0, 1), got {level}")
    y = np.asarray(y, dtype=np.float64)
    lam = _as_matrix(lambda_y)
    if lam.shape[0] != y.shape[0]:
        raise DimensionMismatchError(
            f"y has length {y.shape[0]}, covariance is {lam.shape}")
    diag = np.diag(lam).copy()
    floor = -1e-10 * max(np.trace(lam), 0.0)
    if np.any(diag < floor):
        raise NegativeDiagonalError(
            f"diagonal minimum {diag.min():.3e} below tolerance {floor:.3e}")
    diag = np.clip(diag, 0.0, None)
    t = student_t_quantile(1.0 - (1.0 - level) / 2.0, dof)
    return ConfidenceBand(y.copy(), t * np.sqrt(sigma2 * diag), level)


# share of the solution's samples the prediction fit uses, and the longest
# horizon it may extrapolate, in tail windows
_TAIL_FRACTION = 0.25
_MAX_HORIZON_FACTOR = 10


def prediction_band(solution: InverseSolution, op: LdoMatrix,
                    horizon: int = 1, level: float = 0.95) -> ConfidenceBand:
    """Extrapolate the solution `horizon` steps and band the prediction.

    The null-space modes of the operator rebuilt on the extended grid are
    ordinary-least-squares fitted to the tail window of the solution (the
    last `_TAIL_FRACTION` of samples) and evaluated on the future points.
    The half width is the Student-t quantile times the prediction standard
    error of that fit, observation noise included, and is made
    non-decreasing in the horizon index.  Noise variance comes from the
    tail-fit residuals.  The horizon may not exceed `_MAX_HORIZON_FACTOR`
    tail windows.

    Requires a spec with constant coefficients (value vectors cannot be
    extended past the grid).
    """
    if horizon < 1:
        raise HorizonTooLargeError(f"horizon must be >= 1, got {horizon}")
    if not 0.0 < level < 1.0:
        raise InvalidProbabilityError(f"level must be in (0, 1), got {level}")
    n = op.grid.n
    for i, c in enumerate(op.spec.coefficients):
        if np.asarray(c).ndim != 0:
            raise ValueError(
                f"prediction needs constant coefficients, coefficient {i} is a vector")

    k = op.null_dim
    m = max(int(round(_TAIL_FRACTION * n)), k + 1, 2)
    m = min(m, n)
    if horizon > _MAX_HORIZON_FACTOR * m:
        raise HorizonTooLargeError(
            f"horizon {horizon} exceeds {_MAX_HORIZON_FACTOR} x tail window ({m})")

    ext_grid = Grid(n + horizon, op.grid.h, op.grid.t0)
    ext = assemble_ldo(op.spec, ext_grid, op.accuracy)
    modes = ext.null_basis
    k_ext = modes.shape[1]

    tail = np.asarray(solution.y, dtype=np.float64)[n - m:n]
    A = modes[n - m:n, :]
    F = modes[n:, :]
    if k_ext:
        beta, *_ = np.linalg.lstsq(A, tail, rcond=None)
        center = F @ beta
        resid = tail - A @ beta
        gram_inv = np.linalg.pinv(A.T @ A)
        leverage = np.einsum("ij,jk,ik->i", F, gram_inv, F)
    else:
        beta = np.zeros(0)
        center = np.zeros(horizon)
        resid = tail
        leverage = np.zeros(horizon)

    dof = max(m - k_ext, 1)
    sigma2 = float(resid @ resid) / dof
    t = student_t_quantile(1.0 - (1.0 - level) / 2.0, dof)
    hw = t * np.sqrt(sigma2 * (np.clip(leverage, 0.0, None) + 1.0))
    hw = np.maximum.accumulate(hw)
    return ConfidenceBand(center, hw, level)
