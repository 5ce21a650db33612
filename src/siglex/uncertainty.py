"""Covariance propagation, residual statistics, and Student-t bands.

Covariance flows through a linear map M as M @ Lambda @ M.T
(`propagate_forward`, dense, for small maps such as the operator's
`entries`).  The inverse solve does not form its n x n map: `solve_inverse`
returns the diagonal of A A^T for the map A from g to y, which is all a
pointwise band needs.  Bands are center +/- t * sqrt(sigma2 * variance).
The t-quantile is computed without external dependencies by bisecting the
regularized incomplete beta CDF.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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
    SiglexError,
)
from .grid import Grid
from .operators import InverseSolution, LdoMatrix, LdoSpec, assemble_ldo


# ---------------------------------------------------------------------------
# covariance propagation
# ---------------------------------------------------------------------------

def _as_matrix(m) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
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

    Dense: L and Lambda_x are 2-D arrays.  For the inverse solve's band use
    `InverseSolution.variance` instead of an n x n map.
    """
    L = _as_matrix(L)
    lam = _check_symmetric(_as_matrix(lambda_x))
    if L.shape[1] != lam.shape[0]:
        raise DimensionMismatchError(
            f"cannot propagate {lam.shape} through {L.shape}")
    out = L @ lam @ L.T
    return 0.5 * (out + out.T)


def estimate_residual_variance(residual: np.ndarray, rank: int) -> tuple[float, int]:
    """Unbiased residual variance: (r.T r) / (n - rank), with dof = n - rank.
    Raises SiglexError if r.T r overflows."""
    r = np.asarray(residual, dtype=np.float64)
    n = r.shape[0]
    if n <= rank:
        raise InsufficientDofError(f"n={n} residuals with rank={rank} leaves no dof")
    dof = n - rank
    with np.errstate(over="ignore"):
        squares = float(r @ r)
    if not np.isfinite(squares):
        raise SiglexError(f"residual sum of squares is {squares}: the residuals are "
                          "too large for float64")
    return squares / dof, dof


# ---------------------------------------------------------------------------
# Student-t quantiles (regularized incomplete beta, bisection)
# ---------------------------------------------------------------------------

def _beta_cf(a: float, b: float, x: float) -> float:
    """Lentz continued fraction 1 / (1 + d_1 / (1 + d_2 / ...)) for the
    incomplete beta integral.  Each term d_j takes the same update; from
    c = inf, d_1's sets h = d = 1 / (1 + d_1) and c = 1."""
    def nonzero(v):  # a vanishing denominator is raised to a tiny one
        return 1e-300 if abs(v) < 1e-300 else v

    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c, d, h = math.inf, 1.0, 1.0
    for m in range(400):
        m2 = 2 * m
        terms = ((-qab * x / qap,) if m == 0 else
                 (m * (b - m) * x / ((qam + m2) * (a + m2)),
                  -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))))
        for aa in terms:
            d = 1.0 / nonzero(1.0 + aa * d)
            c = nonzero(1.0 + aa / c)
            h *= d * c
        if m and abs(d * c - 1.0) < 3e-16:
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


@lru_cache
def _band_quantile(level: float, dof: int) -> float:
    """t_{1-(1-level)/2, dof}, the half-width factor of a two-sided band at
    coverage `level`.  Cached: bands at one level and dof repeat the same
    bisection."""
    if not 0.0 < level < 1.0:
        raise InvalidProbabilityError(f"level must be in (0, 1), got {level}")
    return student_t_quantile(1.0 - (1.0 - level) / 2.0, dof)


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
        write_csv(path, "index,center,lower,upper\n", len(c),
                  lambda a, b: (np.arange(a, b), c[a:b], c[a:b] - hw[a:b],
                                c[a:b] + hw[a:b]))


def confidence_band(y: np.ndarray, variance: np.ndarray, sigma2: float,
                    dof: int, level: float) -> ConfidenceBand:
    """Pointwise band y_j +/- t_{1-(1-level)/2, dof} * sqrt(sigma2 * variance[j]).

    `variance` is the unit-noise variance of each y_j, the diagonal of
    Lambda_y (`InverseSolution.variance`).  Small negative entries (within
    -1e-10 * sum(variance)) are clamped to zero; anything more negative
    raises NegativeDiagonalError.
    """
    t = _band_quantile(level, dof)
    y = np.asarray(y, dtype=np.float64)
    var = np.asarray(variance, dtype=np.float64)
    if var.shape != y.shape or y.ndim != 1:
        raise DimensionMismatchError(
            f"y has shape {y.shape}, variance has shape {var.shape}")
    floor = -1e-10 * max(var.sum(), 0.0)
    if np.any(var < floor):
        raise NegativeDiagonalError(
            f"variance minimum {var.min():.3e} below tolerance {floor:.3e}")
    return ConfidenceBand(y.copy(), t * np.sqrt(sigma2 * np.clip(var, 0.0, None)), level)


# share of the solution's samples the prediction fit uses, and the longest
# horizon it may extrapolate, in tail windows
_TAIL_FRACTION = 0.25
_MAX_HORIZON_FACTOR = 10


@lru_cache(maxsize=64)
def _prediction_fit(degree: int, coefficients: tuple, n: int, m: int, horizon: int,
                    h: float, t0: float, accuracy: int):
    """Null-space modes of the operator on the grid extended by `horizon`:
    their rows on the last `m` samples (A) and on the future points (F), and
    the leverage of each future point.  Read-only: cached, since they depend
    on the operator and the grid only."""
    ext = assemble_ldo(LdoSpec(degree, list(coefficients)),
                       Grid(n + horizon, h, t0), accuracy)
    modes = ext.null_basis
    A = modes[n - m:n, :]
    F = modes[n:, :]
    leverage = np.einsum("ij,jk,ik->i", F, np.linalg.pinv(A.T @ A), F)
    for a in (A, F, leverage):
        a.flags.writeable = False
    return A, F, leverage


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
    n = op.grid.n
    for i, c in enumerate(op.spec.coefficients):
        if np.asarray(c).ndim != 0:
            raise ValueError(
                f"prediction needs constant coefficients, coefficient {i} is a vector")

    m = min(max(int(round(_TAIL_FRACTION * n)), op.null_dim + 1, 2), n)
    if horizon > _MAX_HORIZON_FACTOR * m:
        raise HorizonTooLargeError(
            f"horizon {horizon} exceeds {_MAX_HORIZON_FACTOR} x tail window ({m})")

    A, F, leverage = _prediction_fit(
        op.spec.degree, tuple(float(c) for c in op.spec.coefficients), n, m,
        horizon, op.grid.h, op.grid.t0, op.accuracy)
    tail = np.asarray(solution.y, dtype=np.float64)[n - m:n]
    beta, *_ = np.linalg.lstsq(A, tail, rcond=None)
    center = F @ beta
    resid = tail - A @ beta

    dof = max(m - A.shape[1], 1)
    sigma2 = float(resid @ resid) / dof
    band = confidence_band(center, np.clip(leverage, 0, None) + 1, sigma2, dof, level)
    band.half_width = np.maximum.accumulate(band.half_width)
    return band
