import numpy as np
import pytest

from siglex import (
    Grid,
    LdoSpec,
    assemble_ldo,
    build_diff_operator,
    confidence_band,
    estimate_residual_variance,
    prediction_band,
    propagate_forward,
    solve_inverse,
    student_t_cdf,
    student_t_quantile,
)
from siglex.errors import (
    CoefficientLengthMismatchError,
    DimensionMismatchError,
    HorizonTooLargeError,
    InsufficientDofError,
    InvalidDofError,
    InvalidProbabilityError,
    NegativeDiagonalError,
    NotSymmetricError,
)

from dense_ldo import pseudo_inverse, solution_operator
from frozen_tables import NORMAL_Q975, T_TABLE


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------

def test_propagate_identity():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((8, 8))
    lam = a @ a.T
    out = propagate_forward(np.eye(8), lam)
    assert np.allclose(out, lam, atol=1e-12)


def test_propagate_scaling():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((6, 6))
    lam = a @ a.T
    L = rng.standard_normal((6, 6))
    c = 3.7
    lhs = propagate_forward(c * L, lam)
    rhs = c * c * propagate_forward(L, lam)
    assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(rhs).max()


def test_propagate_output_symmetric_psd():
    rng = np.random.default_rng(2)
    for _ in range(5):
        a = rng.standard_normal((10, 10))
        lam = a @ a.T
        L = rng.standard_normal((10, 10))
        out = propagate_forward(L, lam)
        assert np.array_equal(out, out.T)
        ev = np.linalg.eigvalsh(out)
        assert ev.min() >= -1e-10 * np.trace(out)


def test_propagate_rejects_asymmetric():
    lam = np.eye(4)
    lam[0, 1] = 0.5
    with pytest.raises(NotSymmetricError):
        propagate_forward(np.eye(4), lam)
    with pytest.raises(DimensionMismatchError):
        propagate_forward(np.eye(3), np.eye(4))


def test_propagate_forward_monte_carlo():
    rng = np.random.default_rng(1234)
    grid = Grid(50, 1.0)
    d = build_diff_operator(grid, 1, 2)
    sigma = 0.1
    lam = propagate_forward(d.entries, sigma ** 2 * np.eye(50))
    noise = sigma * rng.standard_normal((20000, 50))
    prop = noise @ d.entries.T
    sample_var = prop.var(axis=0, ddof=1)
    assert np.abs(sample_var / np.diag(lam) - 1.0).max() < 0.10


def test_propagate_inverse_diagonal():
    d = np.array([1.0, 2.0, 4.0, 0.5])
    op = assemble_ldo(LdoSpec(0, [d]), Grid(4, 1.0), 0)
    sigma2 = 2.25
    lam = propagate_forward(pseudo_inverse(op), sigma2 * np.eye(4))
    assert np.allclose(np.diag(lam), sigma2 / d ** 2, atol=1e-12)


def test_propagate_inverse_monte_carlo_constrained():
    rng = np.random.default_rng(99)
    grid = Grid(101, 0.01)
    op = assemble_ldo(LdoSpec(1, [0.0, 1.0]), grid, 2)
    a_map = solution_operator(op, [0])
    sigma = 0.3
    lam = propagate_forward(a_map, sigma ** 2 * np.eye(101))
    noise = sigma * rng.standard_normal((20000, 101))
    prop = noise @ a_map.T
    sample_var = prop.var(axis=0, ddof=1)
    diag = np.diag(lam)
    keep = diag > 1e-3 * diag.max()  # constrained point has ~zero variance
    assert np.abs(sample_var[keep] / diag[keep] - 1.0).max() < 0.10


# ---------------------------------------------------------------------------
# residual variance
# ---------------------------------------------------------------------------

def test_residual_variance_zeros():
    s2, dof = estimate_residual_variance(np.zeros(10), 4)
    assert s2 == 0.0 and dof == 6


def test_residual_variance_mean_square():
    s2, dof = estimate_residual_variance(np.array([1.0, -1.0, 1.0, -1.0]), 0)
    assert s2 == 1.0 and dof == 4


def test_residual_variance_statistical():
    rng = np.random.default_rng(314)
    r = rng.standard_normal(10000)
    s2, dof = estimate_residual_variance(r, 2)
    assert 0.95 <= s2 <= 1.05 and dof == 9998


def test_residual_variance_insufficient_dof():
    with pytest.raises(InsufficientDofError):
        estimate_residual_variance(np.ones(5), 5)


# ---------------------------------------------------------------------------
# t-quantiles
# ---------------------------------------------------------------------------

def test_t_quantile_median_is_zero():
    for dof in (1, 7, 100):
        assert student_t_quantile(0.5, dof) == 0.0


def test_t_quantile_against_table():
    for (p, dof), want in T_TABLE.items():
        assert abs(student_t_quantile(p, dof) - want) <= 1e-8


def test_t_quantile_normal_limit():
    assert abs(student_t_quantile(0.975, 10 ** 6) - NORMAL_Q975) <= 1e-3


def test_t_quantile_symmetry():
    for dof in (1, 4, 23):
        for p in (0.6, 0.9, 0.99):
            assert abs(student_t_quantile(p, dof)
                       + student_t_quantile(1.0 - p, dof)) <= 1e-10


def test_t_cdf_round_trip():
    for (p, dof), want in T_TABLE.items():
        assert abs(student_t_cdf(want, dof) - p) <= 1e-10


def test_t_quantile_invalid():
    with pytest.raises(InvalidProbabilityError):
        student_t_quantile(0.0, 5)
    with pytest.raises(InvalidProbabilityError):
        student_t_quantile(1.0, 5)
    with pytest.raises(InvalidDofError):
        student_t_quantile(0.9, 0)


# ---------------------------------------------------------------------------
# confidence bands
# ---------------------------------------------------------------------------

def test_band_unit_covariance():
    y = np.zeros(7)
    band = confidence_band(y, np.ones(7), 1.0, 10, 0.95)
    assert np.abs(band.half_width - 2.2281388519649385).max() <= 1e-8
    assert np.array_equal(band.lower, -band.half_width)
    assert np.array_equal(band.upper, band.half_width)


def test_band_vanishes_at_low_level():
    band = confidence_band(np.ones(5), np.ones(5), 1.0, 10, 1e-12)
    assert band.half_width.max() <= 1e-11


def test_band_monotone_in_level():
    y = np.zeros(4)
    lam = np.array([0.5, 1.0, 2.0, 4.0])
    prev = None
    for level in (0.5, 0.8, 0.9, 0.95, 0.99):
        hw = confidence_band(y, lam, 1.3, 7, level).half_width
        if prev is not None:
            assert np.all(hw >= prev)
        prev = hw


def test_band_negative_diagonal():
    lam = np.array([1.0, -0.5, 1.0])
    with pytest.raises(NegativeDiagonalError):
        confidence_band(np.zeros(3), lam, 1.0, 5, 0.95)
    # within -1e-10 * sum(variance) an entry is clamped to a zero width
    band = confidence_band(np.zeros(3), np.array([1.0, -1e-11, 1.0]), 1.0, 5, 0.95)
    assert band.half_width[1] == 0.0
    with pytest.raises(DimensionMismatchError):
        confidence_band(np.zeros(3), np.eye(3), 1.0, 5, 0.95)


def test_band_csv(tmp_path):
    band = confidence_band(np.arange(3.0), np.ones(3), 1.0, 10, 0.95)
    path = tmp_path / "band.csv"
    band.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "index,center,lower,upper"
    assert len(lines) == 4


# ---------------------------------------------------------------------------
# prediction bands
# ---------------------------------------------------------------------------

def test_prediction_noiseless_line():
    grid = Grid(60, 0.1)
    op = assemble_ldo(LdoSpec(2, [0.0, 0.0, 1.0]), grid, 2)
    t = grid.times()
    y = 2.0 * t + 1.0
    sol = solve_inverse(op, op.apply(y), [(0, y[0]), (59, y[59])])
    band = prediction_band(sol, op, horizon=10, level=0.95)
    t_future = grid.t0 + grid.h * np.arange(60, 70)
    assert np.abs(band.center - (2.0 * t_future + 1.0)).max() <= 1e-7
    assert band.half_width.max() <= 1e-6


def test_prediction_constant_plus_noise():
    rng = np.random.default_rng(8)
    grid = Grid(200, 1.0)
    op = assemble_ldo(LdoSpec(1, [0.0, 1.0]), grid, 2)
    sigma = 0.5
    y = 3.0 + sigma * rng.standard_normal(200)
    sol = solve_inverse(op, op.apply(y), [(0, y[0])])
    band = prediction_band(sol, op, horizon=4, level=0.95)
    window = 50  # last 25% of samples
    assert np.abs(band.center - 3.0).max() <= 3.0 * sigma / np.sqrt(window)
    assert np.all(np.diff(band.half_width) >= 0)


def test_prediction_halfwidth_monotone():
    rng = np.random.default_rng(21)
    grid = Grid(80, 0.5)
    op = assemble_ldo(LdoSpec(2, [0.0, 0.0, 1.0]), grid, 2)
    t = grid.times()
    y = 0.3 * t + rng.standard_normal(80)
    sol = solve_inverse(op, op.apply(y), [(0, y[0]), (79, y[79])])
    band = prediction_band(sol, op, horizon=20, level=0.9)
    assert np.all(np.diff(band.half_width) >= 0)


def test_prediction_horizon_cap():
    grid = Grid(40, 1.0)
    op = assemble_ldo(LdoSpec(1, [0.0, 1.0]), grid, 2)
    sol = solve_inverse(op, np.zeros(40), [(0, 0.0)])
    with pytest.raises(HorizonTooLargeError):
        prediction_band(sol, op, horizon=500, level=0.95)


def test_prediction_without_null_modes():
    # a degree-0 operator has no null modes to extrapolate: the center is 0
    # and the half width is t * sqrt(tail . tail / m) over the tail window
    rng = np.random.default_rng(3)
    op = assemble_ldo(LdoSpec(0, [2.0]), Grid(40, 1.0), 2)
    assert op.null_dim == 0
    sol = solve_inverse(op, rng.standard_normal(40), [])
    band = prediction_band(sol, op, horizon=3, level=0.9)
    m = 10  # 25% of 40 samples
    tail = sol.y[-m:]
    want = student_t_quantile(0.95, m) * np.sqrt(tail @ tail / m)
    assert np.array_equal(band.center, np.zeros(3))
    assert np.allclose(band.half_width, want, rtol=1e-12, atol=0)


def test_prediction_rejects_vector_coefficients():
    grid = Grid(30, 1.0)
    spec = LdoSpec(1, [0.0, np.ones(30)])
    op = assemble_ldo(spec, grid, 2)
    sol = solve_inverse(op, np.zeros(30), [(0, 0.0)])
    with pytest.raises(CoefficientLengthMismatchError, match="coefficient 1 is a vector"):
        prediction_band(sol, op, horizon=2, level=0.9)
