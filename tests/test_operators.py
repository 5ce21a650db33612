import tracemalloc

import numpy as np
import pytest

from siglex import (
    Grid,
    LdoSpec,
    apply_streaming,
    assemble_ldo,
    build_diff_operator,
    extract_local_kernel,
    operators,
    solve_inverse,
)
from siglex.errors import (
    AccuracyTooHighError,
    CoefficientLengthMismatchError,
    ConstraintCountMismatchError,
    GridTooShortError,
    LeadingCoefficientZeroError,
    LengthMismatchError,
    NonFiniteSampleError,
    NullSpaceTooLargeError,
    OrderExceedsAccuracyError,
    SiglexError,
    SingularConstraintSystemError,
)

from dense_ldo import DenseLdo, solution_operator
from loop_oracles import (
    EPS,
    apply_streaming_loop,
    banded_abs_sum,
    banded_apply_loop,
    stencil_tolerance,
)


def sample_poly(coeffs, t):
    return np.polynomial.polynomial.polyval(t, coeffs)


def poly_derivative(coeffs, order):
    c = np.asarray(coeffs, dtype=float)
    for _ in range(order):
        c = np.polynomial.polynomial.polyder(c)
    return c if c.size else np.zeros(1)


# ---------------------------------------------------------------------------
# derivative matrices
# ---------------------------------------------------------------------------

def test_order_zero_is_identity():
    d = build_diff_operator(Grid(5, 1.0), 0, 2)
    assert np.array_equal(d.entries, np.eye(5))


def test_first_derivative_of_ramp():
    d = build_diff_operator(Grid(5, 1.0), 1, 2)
    assert np.allclose(d.apply([0.0, 1.0, 2.0, 3.0, 4.0]), np.ones(5), atol=1e-13)


def test_second_derivative_of_quartic():
    grid = Grid(101, 0.01)
    d = build_diff_operator(grid, 2, 4)
    t = grid.times()
    got = d.apply(t ** 4)
    want = 12.0 * t ** 2
    assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()


def test_row_support_bounded():
    grid = Grid(30, 0.5)
    for order, accuracy in [(1, 2), (2, 4), (3, 6), (0, 4)]:
        d = build_diff_operator(grid, order, accuracy)
        w = d.support
        for r in range(grid.n):
            assert np.count_nonzero(d.entries[r]) <= 2 * w + 1


def test_polynomial_exactness_fuzz():
    # relative error against max(|derivative|, row conditioning |W||f|):
    # measures stencil-weight correctness independent of float cancellation
    rng = np.random.default_rng(7)
    for n, h in [(16, 1.0), (40, 0.25), (64, 2.0)]:
        grid = Grid(n, h, t0=float(rng.uniform(-1, 1)))
        t = grid.times()
        mid, half = t.mean(), (t[-1] - t[0]) / 2
        for accuracy in range(0, 7):
            for order in range(0, accuracy + 1):
                d = build_diff_operator(grid, order, accuracy)
                for _ in range(2):
                    c = rng.uniform(-1, 1, accuracy + 1)
                    u = (t - mid) / half
                    f = sample_poly(c, u)
                    dc = poly_derivative(c, order)
                    want = sample_poly(dc, u) / half ** order
                    got = d.apply(f)
                    scale = max(np.abs(want).max(),
                                (np.abs(d.entries) @ np.abs(f)).max(), 1e-300)
                    assert np.abs(got - want).max() <= 1e-9 * scale, \
                        (n, h, order, accuracy)


def test_polynomial_exactness_strict_low_order():
    # up to second order the derivative-norm-relative 1e-9 bound is
    # attainable in float64, so enforce it directly
    rng = np.random.default_rng(11)
    for n in (16, 64, 256):
        grid = Grid(n, 1.0)
        t = grid.times()
        mid, half = t.mean(), (t[-1] - t[0]) / 2
        for order, accuracy in [(1, 2), (2, 2), (1, 4), (2, 4), (2, 6)]:
            d = build_diff_operator(grid, order, accuracy)
            c = rng.uniform(0.5, 1.5, accuracy + 1)
            u = (t - mid) / half
            f = sample_poly(c, u)
            want = sample_poly(poly_derivative(c, order), u) / half ** order
            assert np.abs(d.apply(f) - want).max() <= 1e-9 * np.abs(want).max()


def test_annihilates_lower_degree_polynomials():
    rng = np.random.default_rng(3)
    grid = Grid(20, 1.0)
    t = grid.times() - grid.times().mean()
    for order in range(1, 5):
        d = build_diff_operator(grid, order, order)
        c = rng.uniform(-1, 1, order)  # degree < order
        f = sample_poly(c, t / t.max())
        assert np.abs(d.apply(f)).max() <= 1e-9


def test_build_errors():
    with pytest.raises(OrderExceedsAccuracyError):
        build_diff_operator(Grid(10, 1.0), 3, 2)
    with pytest.raises(GridTooShortError):
        build_diff_operator(Grid(4, 1.0), 1, 4)
    with pytest.raises(GridTooShortError):
        build_diff_operator(Grid(6, 1.0), 2, 6)
    with pytest.raises(AccuracyTooHighError):
        build_diff_operator(Grid(40, 1.0), 1, 13)
    with pytest.raises(AccuracyTooHighError):
        extract_local_kernel(1, 100, 1.0)


def test_central_difference_kernel():
    k = extract_local_kernel(1, 2, 1.0)
    assert np.allclose(k.weights, [-0.5, 0.0, 0.5], atol=0)


def test_second_difference_kernel():
    k = extract_local_kernel(2, 2, 1.0)
    assert np.allclose(k.weights, [1.0, -2.0, 1.0], atol=0)


def test_identity_kernel():
    for accuracy in (0, 2, 4):
        k = extract_local_kernel(0, accuracy, 0.5)
        w = k.half_width
        want = np.zeros(2 * w + 1)
        want[w] = 1.0
        assert np.array_equal(k.weights, want)


def test_kernel_matches_matrix_central_row():
    grid = Grid(21, 0.2)
    for order, accuracy in [(1, 2), (2, 4), (1, 5)]:
        k = extract_local_kernel(order, accuracy, grid.h)
        d = build_diff_operator(grid, order, accuracy)
        r = 10
        w = d.support
        assert np.array_equal(k.weights, d.entries[r, r - w:r + w + 1])


# ---------------------------------------------------------------------------
# LDO assembly
# ---------------------------------------------------------------------------

def test_zeroth_order_identity_ldo():
    op = assemble_ldo(LdoSpec(0, [1.0]), Grid(10, 1.0), 2)
    assert np.allclose(op.entries, np.eye(10), atol=0)
    assert op.null_dim == 0 and op.rank == 10


def test_first_derivative_null_space():
    op = assemble_ldo(LdoSpec(1, [0.0, 1.0]), Grid(50, 1.0), 2)
    assert op.null_dim == 1
    n = op.null_basis
    assert np.abs(n.T @ n - np.eye(1)).max() < 1e-10
    assert np.abs(np.abs(n[:, 0]) - 1 / np.sqrt(50)).max() < 1e-8
    assert np.abs(op.entries @ n).max() < op.rank_tolerance * 10


def test_second_derivative_null_space():
    grid = Grid(50, 0.1)
    op = assemble_ldo(LdoSpec(2, [0.0, 0.0, 1.0]), grid, 2)
    assert op.null_dim == 2
    assert op.rank + op.null_dim == grid.n
    t = grid.times()
    for v in (np.ones(50), t):
        assert np.abs(op.apply(v / np.linalg.norm(v))).max() < 1e-9


def test_null_basis_orthonormal_fuzz():
    # diag(a_d) @ D^d with nonvanishing a_d keeps the polynomial null space
    rng = np.random.default_rng(5)
    grid = Grid(40, 0.25)
    t = grid.times()
    for d in (1, 2, 3):
        lead = 1.0 + 0.5 * np.cos(t + rng.uniform(0, 6))
        spec = LdoSpec(d, [0.0] * d + [lead])
        op = assemble_ldo(spec, grid, 2 * d)
        assert op.null_dim == d
        k = op.null_dim
        assert np.abs(op.null_basis.T @ op.null_basis - np.eye(k)).max() < 1e-10
        assert np.abs(op.entries @ op.null_basis).max() <= \
            op.rank_tolerance * np.linalg.norm(op.entries)


def test_null_space_wider_than_the_first_block_matches_the_oracle(monkeypatch):
    # a1 = 0 on rows 20-29 leaves those rows of L empty, so the null space
    # (dimension 10) outgrows the first block of degree + 2 = 3 vectors and
    # the block doubles until it holds a non-null value
    blocks = []
    smallest = operators._smallest_singular

    def counted(band, cols, r, p, cutoff, rng):
        blocks.append(p)
        return smallest(band, cols, r, p, cutoff, rng)

    monkeypatch.setattr(operators, "_smallest_singular", counted)
    a1 = np.ones(60)
    a1[20:30] = 0.0
    op = assemble_ldo(LdoSpec(1, [0.0, a1]), Grid(60, 0.1), 2)
    assert blocks == [3, 6, 12]
    dense = DenseLdo(op).op
    assert op.null_dim == dense.null_dim == 10
    nb, want = op.null_basis, dense.null_basis
    assert np.abs(nb @ nb.T - want @ want.T).max() < 1e-12


def test_spec_validation():
    with pytest.raises(CoefficientLengthMismatchError):
        LdoSpec(1, [1.0])
    with pytest.raises(LeadingCoefficientZeroError):
        LdoSpec(1, [1.0, 0.0])
    with pytest.raises(CoefficientLengthMismatchError):
        assemble_ldo(LdoSpec(1, [0.0, np.ones(7)]), Grid(10, 1.0), 2)


# ---------------------------------------------------------------------------
# forward application
# ---------------------------------------------------------------------------

def test_apply_identity():
    op = assemble_ldo(LdoSpec(0, [1.0]), Grid(3, 1.0), 0)
    assert np.array_equal(op.apply([3.0, 1.0, 4.0]), [3.0, 1.0, 4.0])


def test_apply_first_derivative_quadratic():
    grid = Grid(5, 1.0)
    d = build_diff_operator(grid, 1, 2)
    t = grid.times()
    assert np.allclose(d.apply(t ** 2), [0.0, 2.0, 4.0, 6.0, 8.0], atol=1e-12)


def test_apply_decaying_exponential():
    grid = Grid(2001, 0.001)
    op = assemble_ldo(LdoSpec(1, [2.0, 1.0]), grid, 2)
    y = np.exp(-2.0 * grid.times())
    assert np.abs(op.apply(y)).max() <= 1e-4


def test_apply_linearity():
    rng = np.random.default_rng(17)
    grid = Grid(30, 0.5)
    t = grid.times()
    op = assemble_ldo(LdoSpec(1, [np.cos(t), 1.0]), grid, 2)
    x1, x2 = rng.standard_normal(30), rng.standard_normal(30)
    a, b = 1.7, -0.4
    lhs = op.apply(a * x1 + b * x2)
    rhs = a * op.apply(x1) + b * op.apply(x2)
    assert np.abs(lhs - rhs).max() <= 1e-12 * max(np.abs(rhs).max(), 1.0)


def test_apply_length_check():
    d = build_diff_operator(Grid(10, 1.0), 1, 2)
    with pytest.raises(LengthMismatchError):
        d.apply(np.zeros(9))


# ---------------------------------------------------------------------------
# inverse problems
# ---------------------------------------------------------------------------

def test_integrate_constant():
    grid = Grid(101, 0.01)
    op = assemble_ldo(LdoSpec(1, [0.0, 1.0]), grid, 2)
    sol = solve_inverse(op, np.ones(101), [(0, 0.0)])
    assert np.abs(sol.y - grid.times()).max() <= 1e-8
    assert sol.y[0] == 0.0 and sol.variance[0] == 0.0


def test_identity_inverse_no_constraints():
    op = assemble_ldo(LdoSpec(0, [1.0]), Grid(12, 1.0), 2)
    rng = np.random.default_rng(2)
    g = rng.standard_normal(12)
    sol = solve_inverse(op, g, [])
    assert np.abs(sol.y - g).max() < 1e-12


def test_recover_sine_from_second_derivative():
    grid = Grid(201, 0.01)
    op = assemble_ldo(LdoSpec(2, [0.0, 0.0, 1.0]), grid, 4)
    t = grid.times()
    i_half_pi = int(round(np.pi / 2 / grid.h))
    sol = solve_inverse(op, -np.sin(t), [(0, 0.0), (i_half_pi, 1.0)])
    assert np.abs(sol.y - np.sin(t)).max() <= 1e-6


def test_normal_equation_residual_fuzz():
    rng = np.random.default_rng(23)
    grid = Grid(60, 0.1)
    t = grid.times()
    for _ in range(5):
        spec = LdoSpec(2, [rng.uniform(-1, 1) + np.sin(t + rng.uniform(0, 6)),
                           rng.uniform(-1, 1), 1.0])
        op = assemble_ldo(spec, grid, 2)
        g = rng.standard_normal(60)
        sol = solve_inverse(op, g, [(0, 0.0), (59, 0.0)][:op.null_dim])
        lhs = op.entries.T @ (op.entries @ sol.y - g)
        bound = 1e-8 * np.linalg.norm(op.entries) * np.linalg.norm(g)
        assert np.abs(lhs).max() <= bound


def test_constraint_satisfaction():
    rng = np.random.default_rng(29)
    grid = Grid(80, 0.05)
    op = assemble_ldo(LdoSpec(2, [0.0, 0.0, 1.0]), grid, 2)
    g = rng.standard_normal(80)
    cons = [(3, 1.25), (70, -0.5)]
    sol = solve_inverse(op, g, cons)
    for i, v in cons:
        assert abs(sol.y[i] - v) <= 1e-10


def test_constraint_count_mismatch():
    op = assemble_ldo(LdoSpec(1, [0.0, 1.0]), Grid(20, 0.5), 2)
    with pytest.raises(ConstraintCountMismatchError):
        solve_inverse(op, np.ones(20), [])
    with pytest.raises(ConstraintCountMismatchError):
        solve_inverse(op, np.ones(20), [(0, 0.0), (1, 1.0)])
    with pytest.raises(ConstraintCountMismatchError):
        solve_inverse(op, np.ones(20), [(25, 0.0)])
    with pytest.raises(ConstraintCountMismatchError):
        solve_inverse(op, np.ones(20), [(-1, 0.0)])
    for rows in ([], [0, 1], [-1], [20]):
        with pytest.raises(ConstraintCountMismatchError):
            solution_operator(op, rows)
    with pytest.raises(LengthMismatchError):
        solve_inverse(op, np.ones(19), [(0, 0.0)])
    op2 = assemble_ldo(LdoSpec(2, [0.0, 0.0, 1.0]), Grid(20, 0.5), 2)
    with pytest.raises(ConstraintCountMismatchError, match="not distinct"):
        solve_inverse(op2, np.ones(20), [(3, 0.0), (3, 1.0)])


def test_singular_constraint_system():
    # t*y' - y = g has null mode proportional to t, which vanishes at t=0
    grid = Grid(40, 0.1, t0=0.0)
    spec = LdoSpec(1, [-1.0, grid.times()])
    op = assemble_ldo(spec, grid, 2)
    assert op.null_dim == 1
    with pytest.raises(SingularConstraintSystemError):
        solve_inverse(op, np.zeros(40), [(0, 1.0)])


# ---------------------------------------------------------------------------
# banded path against the dense SVD oracle
# ---------------------------------------------------------------------------

def _random_ldo(rng):
    """A random spec: degree 0-3, accuracy <= 8, n 20-300, constant or
    smooth variable coefficients (which may cross zero)."""
    degree = int(rng.integers(0, 4))
    accuracy = int(rng.integers(max(degree, 1), 9))
    w = -(-accuracy // 2)
    grid = Grid(int(rng.integers(max(20, 2 * w + 2), 301)),
                float(rng.choice([0.01, 0.1, 1.0])), float(rng.uniform(-1, 1)))
    s = (grid.times() - grid.t0) / (grid.t_end - grid.t0)
    if rng.random() < 0.5:
        coeffs = [a + b * np.sin(3 * c * s + 6 * d)
                  for a, b, c, d in rng.uniform(-1, 1, (degree + 1, 4))]
    else:
        coeffs = [float(a) if rng.random() < 0.8 else 0.0 for a in rng.uniform(-1, 1, degree + 1)]
        coeffs[-1] = coeffs[-1] or 1.0
    return assemble_ldo(LdoSpec(degree, coeffs), grid, accuracy)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except SiglexError as exc:
        return type(exc)


def test_banded_path_agrees_with_dense_oracle_fuzz():
    # Both paths solve min ||L y - g|| with y pinned at the constraints.  The
    # oracle drops the null singular values (relative size delta <= the
    # rank cutoff) and both round at eps, so by least-squares perturbation
    # theory (Golub & Van Loan sec. 5.3) y and diag((L_f^T L_f)^-1) move by
    # a small multiple of delta * kappa^2 relative, kappa = cond(L_f).  The
    # largest ratio seen over 600 draws was about 10.
    rng = np.random.default_rng(4242)
    compared = sharp = 0
    for _ in range(300):
        op = _random_ldo(rng)
        n, dense = op.grid.n, DenseLdo(op)
        assert op.null_dim == dense.op.null_dim
        k = op.null_dim
        for size in (k - 1, k + 1):
            if size >= 0:
                rows = [(int(i), 0.0) for i in rng.choice(n, size, replace=False)]
                assert _outcome(solve_inverse, op, np.zeros(n), rows) \
                    is _outcome(dense.solve, np.zeros(n), rows) \
                    is ConstraintCountMismatchError
        g = rng.standard_normal(n)
        cons = [(int(i), float(rng.standard_normal()))
                for i in np.sort(rng.choice(n, k, replace=False))]
        want = _outcome(dense.solve, g, cons)
        got = _outcome(solve_inverse, op, g, cons)
        if isinstance(want, type):
            assert got is want
            continue
        (y, var), free = want, np.setdiff1d(np.arange(n), [i for i, _ in cons])
        sf = np.linalg.svd(op.entries[:, free], compute_uv=False)
        delta = max(EPS, dense.s[n - k] / dense.s[0] if k else 0.0)
        tol = 100 * delta * (sf[0] / sf[-1]) ** 2
        assert np.abs(got.y - y).max() <= tol * np.abs(y).max()
        assert np.abs(got.variance - var).max() <= tol * var.max()
        compared += 1
        sharp += tol < 1e-6
    # most draws are well conditioned, so the tolerance has teeth
    assert compared >= 250 and sharp >= 100, (compared, sharp)


def test_pin_where_the_null_mode_vanishes_raises_like_the_oracle():
    # t*y' - y = g has the null mode y = t, which vanishes at t = 0
    for n, accuracy in ((40, 2), (97, 4), (250, 8)):
        grid = Grid(n, 0.1, t0=0.0)
        op = assemble_ldo(LdoSpec(1, [-1.0, grid.times()]), grid, accuracy)
        assert op.null_dim == 1
        with pytest.raises(SingularConstraintSystemError):
            solve_inverse(op, np.zeros(n), [(0, 1.0)])
        with pytest.raises(SingularConstraintSystemError):
            DenseLdo(op).solve(np.zeros(n), [(0, 1.0)])


def _stress_ldo(rng):
    """A spec whose rank decision is close: clustered near-null values, a
    pair of singular values 0.01x to 100x the cutoff, or a third-order
    operator with small lower terms.  n 30-400, accuracy 2, 4 or 6."""
    kind = int(rng.integers(3))
    accuracy = int(rng.choice([4, 6] if kind == 2 else [2, 4, 6]))
    n = int(rng.integers(30, 401))
    grid = Grid(n, float(rng.choice([0.01, 0.1, 1.0])))
    if kind == 0:
        a1 = np.ones(n)
        length = int(rng.integers(3, min(n, 40) + 1))
        start = int(rng.integers(0, n - length + 1))
        a1[start:start + length] = 10.0 ** rng.uniform(-14, -6)
        spec = LdoSpec(1, [0.0, a1])
    elif kind == 1:
        d2 = build_diff_operator(grid, 2, accuracy).entries
        scale = np.linalg.norm(d2, 2) * max(n * EPS, 1e-10)
        spec = LdoSpec(2, [scale * 10.0 ** rng.uniform(-2, 2), 0.0, 1.0])
    else:
        small = rng.choice([-1.0, 1.0], 3) * 10.0 ** rng.uniform(-12, -2, 3)
        spec = LdoSpec(3, [*small, 1.0])
    return assemble_ldo(spec, grid, accuracy)


def test_rank_decision_near_the_cutoff_agrees_with_dense_oracle_fuzz():
    # Teeth: without the block doubling near the cutoff, the iteration
    # miscounted a clustered value just below the cutoff on one draw.
    rng = np.random.default_rng(1515)
    sharp = 0
    for _ in range(150):
        op = _stress_ldo(rng)
        n, dense = op.grid.n, DenseLdo(op)
        assert op.null_dim == dense.op.null_dim, (op.spec, n, op.accuracy)
        k = op.null_dim
        assert op.nonnull_margin > 1.0 and op.null_margin >= 1.0
        if k and dense.s[n - k] <= 1e-5 * dense.op.rank_tolerance:
            assert op.null_margin >= 1e3, (op.spec, n, op.null_margin)
            sharp += 1
        g = rng.standard_normal(n)
        cons = [(int(i), 0.0) for i in np.sort(rng.choice(n, k, replace=False))]
        want = _outcome(dense.solve, g, cons)
        got = _outcome(solve_inverse, op, g, cons)
        assert (got if isinstance(got, type) else None) is \
            (want if isinstance(want, type) else None), (op.spec, n, got, want)
    assert sharp >= 30, sharp


def _solve_calls(monkeypatch, n):
    calls = {"solve": 0, "solve_transposed": 0}
    for name in calls:
        method = getattr(operators._BlockR, name)

        def counted(self, c, name=name, method=method):
            calls[name] += 1
            return method(self, c)

        monkeypatch.setattr(operators._BlockR, name, counted)
    assemble_ldo(LdoSpec(2, [0.0, 0.0, 1.0]), Grid(n, 0.01), 2)
    monkeypatch.undo()
    return calls


def test_assembly_certifies_y2_in_two_inverse_steps(monkeypatch):
    # a step is one R^-T and one R^-1 substitution; the Ritz-residual
    # certificate stops y'' after 2 steps, where the 8-step cap would take 8
    for n in (2000, 20000):
        calls = _solve_calls(monkeypatch, n)
        assert 1 <= calls["solve"] <= 2 and 1 <= calls["solve_transposed"] <= 2, (n, calls)


def test_deciding_ritz_value_matches_the_oracle(monkeypatch):
    # y'' at n = 500: the first non-null Ritz value reads 224 504 cutoffs
    # against the SVD's 224 106; stopped after 1 step it read 493 771
    n = 500
    op = assemble_ldo(LdoSpec(2, [0.0, 0.0, 1.0]), Grid(n, 0.01), 2)
    want = DenseLdo(op).s[n - op.null_dim - 1] / op.rank_tolerance
    assert abs(op.nonnull_margin / want - 1.0) <= 0.01, (op.nonnull_margin, want)

    # the stress draws whose last Ritz pairs hold the certificate: the
    # deciding value lies within its own residual bound rho of the SVD's
    # (plus the SVD's rounding); the search ran on L / 2^e
    pairs = []
    smallest = operators._smallest_singular

    def recorded(*args):
        pairs.append(smallest(*args))
        return pairs[-1]

    monkeypatch.setattr(operators, "_smallest_singular", recorded)
    rng = np.random.default_rng(1515)
    checked = 0
    for _ in range(150):
        op = _stress_ldo(rng)
        (sigma, y), n, k = pairs[-1], op.grid.n, op.null_dim
        sigma = np.ldexp(sigma, np.frexp(np.abs(op.band).max())[1])
        rng.standard_normal(n)  # the stress fuzz's g and constraints
        rng.choice(n, k, replace=False)
        if k == len(sigma):
            continue
        ly = op.entries @ y[:, k:]
        rho = np.linalg.norm(op.entries.T @ ly - sigma[k:] ** 2 * y[:, k:], axis=0) / sigma[k:]
        if np.all(sigma[k:] - rho > op.rank_tolerance):
            s = DenseLdo(op).s
            assert abs(sigma[k] - s[n - k - 1]) <= rho[0] + 8 * EPS * s[0], (op.spec, n)
            checked += 1
    assert checked >= 100, checked


def test_second_derivative_rank_margins():
    # both sides of the cutoff stay clear of it: 1.4e4 above, 5e5 below
    op = assemble_ldo(LdoSpec(2, [0.0, 0.0, 1.0]), Grid(2000, 0.01), 2)
    assert op.null_dim == 2
    assert op.nonnull_margin >= 1e3 and op.null_margin >= 1e3
    full = assemble_ldo(LdoSpec(0, [1.0]), Grid(50, 1.0), 2)
    assert full.null_dim == 0 and full.null_margin == np.inf


def test_null_space_search_stops_at_the_block_cap():
    # a lead that is tiny, not zero, off one row: no row of L is zero, and
    # the search block doubles 3, 6, ..., 48, 64 and then gives up
    n, a1 = 300, np.full(300, 1e-20)
    a1[n // 2] = 1.0
    with pytest.raises(NullSpaceTooLargeError, match="at least 64 dimensions"):
        assemble_ldo(LdoSpec(1, [0.0, a1]), Grid(n, 0.1), 2)


def test_assembly_memory_is_linear_in_n():
    # R as its band, 24 B per row for y''; the rest is O(n (w + p)).
    # Traced 506 B/row; the bound is that + 25%
    n = 20_000
    tracemalloc.start()
    try:
        assemble_ldo(LdoSpec(2, [0.0, 0.0, 1.0]), Grid(n, 0.01), 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 633 * n, f"traced peak {peak} bytes"


def test_solve_memory_is_linear_in_n():
    # R as its band is 24 B per row for y''; the Takahashi recursion
    # inverts a chunk of diagonal blocks at a time on top of it.  Traced
    # 171 B/row; the bound is that + 25%
    n = 20_000
    grid = Grid(n, 0.01)
    op = assemble_ldo(LdoSpec(2, [0.0, 0.0, 1.0]), grid, 2)
    g = np.sin(grid.times())
    tracemalloc.start()
    try:
        solve_inverse(op, g, [(0, 0.0), (n - 1, 1.0)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 214 * n, f"traced peak {peak} bytes"


def test_solve_refuses_non_finite_samples():
    op = assemble_ldo(LdoSpec(2, [0.0, 0.0, 1.0]), Grid(30, 0.1), 2)
    for bad in (np.nan, np.inf, -np.inf):
        g = np.ones(30)
        g[[7, 12]] = bad
        with pytest.raises(NonFiniteSampleError, match="at index 7$"):
            solve_inverse(op, g, [(0, 0.0), (29, 1.0)])


def _window_shapes(monkeypatch, n):
    shapes = []
    qr = np.linalg.qr

    def counted(a, mode="reduced"):
        if mode == "raw":
            shapes.append(a.shape)
        return qr(a, mode=mode)

    monkeypatch.setattr(np.linalg, "qr", counted)
    grid = Grid(n, 0.01)
    op = assemble_ldo(LdoSpec(2, [0.0, 0.0, 1.0]), grid, 2)
    shapes.clear()
    solve_inverse(op, np.sin(grid.times()), [(0, 0.0), (n - 1, 1.0)])
    monkeypatch.setattr(np.linalg, "qr", qr)
    return shapes


def test_solve_factorizes_fixed_size_windows_linear_in_n(monkeypatch):
    # linear cost by count: the number of QR windows scales with n, and no
    # window grows with n
    small, large = (_window_shapes(monkeypatch, n) for n in (640, 8 * 640))
    assert abs(len(large) - 8 * len(small)) <= 1
    assert max(small) == max(large)
    assert max(max(small)) < 80


def _gram_diagonal(op, pins):
    """`gram_inverse_diagonal` of the R that `solve_inverse` factors for the
    pinned points `pins`, scaled back to L: diag((L_f^T L_f)^-1)."""
    e = int(np.frexp(np.abs(op.band).max())[1])
    weights, starts = operators._staircase(np.ldexp(op.band, -e), pins)
    r, _ = operators._qr_sweep(weights, starts, op.grid.n - len(pins), np.zeros(op.grid.n))
    return np.ldexp(r.gram_inverse_diagonal(), -2 * e)


def test_gram_inverse_diagonal_does_not_depend_on_the_chunk(monkeypatch):
    # the chunk only batches the block inverses and the products with them:
    # chunks of 1 block, 7 blocks and all 32 blocks give the same bytes
    n = 1000
    op = assemble_ldo(LdoSpec(2, [0.0, 0.0, 1.0]), Grid(n, 0.01), 2)
    got = []
    for chunk in (1, 7, n):
        monkeypatch.setattr(operators, "_CHUNK", chunk)
        got.append(_gram_diagonal(op, [0, n - 1]).tobytes())
    assert got[0] == got[1] == got[2]


def test_gram_inverse_diagonal_matches_the_dense_oracle():
    # with L_f of full column rank the oracle's variance at the free points
    # is diag((L_f^T L_f)^-1); both round at eps, so they agree to a small
    # multiple of eps * cond(L_f)^2 (as in the banded-path fuzz).  Grids of
    # less than one block, exactly one, and several with a partial last one
    cases = [(LdoSpec(2, [0.0, 0.0, 1.0]), 0.01, 2, n) for n in (20, 34, 97, 300)]
    cases += [(LdoSpec(1, [1.0, 2.0]), 0.1, 4, 150),
              (LdoSpec(3, [0.0, 0.5, 0.0, 1.0]), 0.05, 6, 200)]
    for spec, h, accuracy, n in cases:
        op = assemble_ldo(spec, Grid(n, h), accuracy)
        pins = sorted({0, n - 1, n // 2})[:op.null_dim]
        free = np.setdiff1d(np.arange(n), pins)
        _, var = DenseLdo(op).solve(np.zeros(n), [(i, 0.0) for i in pins])
        sf = np.linalg.svd(op.entries[:, free], compute_uv=False)
        tol = 100 * EPS * (sf[0] / sf[-1]) ** 2
        got = _gram_diagonal(op, pins)
        assert np.abs(got - var[free]).max() <= tol * var[free].max(), (spec, n)


# ---------------------------------------------------------------------------
# R as its band and the substitution engine
# ---------------------------------------------------------------------------

def _dense_r(r):
    """The m x m matrix of a `_BlockR`."""
    m, width = r.m, r.band.shape[1]
    out = np.zeros((m, m + width))
    i = np.arange(m)[:, None]
    out[i, i + np.arange(width)] = r.band[:m]
    return out[:, :m]


def _block_r(band):
    """A `_BlockR` holding the m x m upper band `band`, padded as
    `_qr_sweep` pads it."""
    m, width = band.shape
    full = np.zeros((-(-m // operators._BLOCK) * operators._BLOCK, width))
    full[:m] = np.where(np.arange(m)[:, None] + np.arange(width) < m, band, 0.0)
    full[m:, 0] = 1.0
    return operators._BlockR(full, m)


def test_qr_sweep_r_lies_in_its_band():
    # R^T R = A^T A and R^T (Q^T rhs) = A^T rhs hold only if the band holds
    # all of R: an entry of a window's R outside it would be lost.
    # Staircases with fixed columns and isolated zero rows; most grids end
    # in a partial block
    rng = np.random.default_rng(27)
    for w in (1, 2, 4, 6):
        for n in (2 * w + 2, 31, 32, 70, 3 * operators._BLOCK + 5):
            for _ in range(5):
                band = rng.standard_normal((n, 2 * w + 1))
                band[rng.choice(n, int(rng.integers(0, 4)), replace=False)] = 0.0
                fixed = sorted(rng.choice(n, int(rng.integers(0, min(4, n - 2 * w))),
                                          replace=False).tolist())
                weights, starts = operators._staircase(band, fixed)
                m = n - len(fixed)
                a = np.zeros((n, m + 2 * w + 1))
                a[np.arange(n)[:, None], starts[:, None] + np.arange(2 * w + 1)] = weights
                assert not a[:, m:].any()
                a = a[:, :m]
                rhs = rng.standard_normal(n)
                r, qtr = operators._qr_sweep(weights, starts, m, rhs)
                dense = _dense_r(r)
                scale = np.abs(a).sum(axis=0).max() ** 2
                assert np.abs(dense.T @ dense - a.T @ a).max() <= 100 * EPS * scale, (w, n)
                assert np.abs(dense.T @ qtr - a.T @ rhs).max() <= \
                    100 * EPS * scale ** 0.5 * np.abs(rhs).sum(), (w, n)


def test_solves_agree_with_lapack_on_the_dense_r():
    # less than one block, exactly one, and three and a partial one
    rng = np.random.default_rng(28)
    b = operators._BLOCK
    for m in (b - 5, b, 3 * b + 5):
        for w in (1, 2, 6):
            band = rng.standard_normal((m, 2 * w + 1))
            band[:, 0] = rng.choice([-1.0, 1.0], m) * (2 * w + 2 + rng.random(m))
            r = _block_r(band)
            dense = _dense_r(r)
            for c in (rng.standard_normal(m), rng.standard_normal((m, 3))):
                for got, want in ((r.solve(c), np.linalg.solve(dense, c)),
                                  (r.solve_transposed(c), np.linalg.solve(dense.T, c))):
                    assert got.shape == c.shape
                    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), (m, w)


def test_refined_solve_is_componentwise_backward_stable():
    # R of singular and nonsingular operators, some of its pivots floored:
    # max |R x - c| / (|R| |x| + |c|) stays below 4 eps.  Without the
    # refinement step it reached 1109 eps on the accuracy-6 R at m = 3b + 5
    rng = np.random.default_rng(29)
    b = operators._BLOCK
    specs = [(LdoSpec(2, [0.0, 0.0, 1.0]), 2), (LdoSpec(1, [0.0, 1.0]), 4),
             (LdoSpec(3, [0.0, 0.0, 0.0, 1.0]), 6), (LdoSpec(2, [1.0, 0.3, 1.0]), 2)]
    for m in (b - 5, b, 3 * b + 5):
        for spec, accuracy in specs:
            op = assemble_ldo(spec, Grid(m, 0.01), accuracy)
            unit = np.ldexp(op.band, -int(np.frexp(np.abs(op.band).max())[1]))
            r, _ = operators._qr_sweep(unit, operators._band_columns(m, unit.shape[1] // 2)[:, 0],
                                       m, np.zeros(m))
            dense = _dense_r(r)
            c = rng.standard_normal((m, 3))
            x = r.solve(c)
            error = np.abs(dense @ x - c) / (np.abs(dense) @ np.abs(x) + np.abs(c))
            assert error.max() <= 4 * EPS, (m, spec, accuracy, error.max() / EPS)


def _inverse_residual(u, x):
    """max |U X - I| / (|U| |X|) over the entries where |U| |X| > 0."""
    num, den = np.abs(u @ x - np.eye(len(u))), np.abs(u) @ np.abs(x)
    assert not num[den == 0].any()
    return (num[den > 0] / den[den > 0]).max()


def test_block_inverses_meet_the_residual_rule():
    # Upper-triangular stacks, N(0,1) off the diagonal (row-scaled by up to
    # 1e6 either way on every other draw), pivots log-uniform over
    # 1e-12..1e12 and floored as _BlockR floors them.  The engine's
    # inverses keep exact zeros below the diagonal and a residual within
    # s eps, at most 4x LAPACK's (measured: 1.53x at most)
    rng = np.random.default_rng(30)
    for s in (1, 2, 3, 31, 32, 33, 64):
        for draw in range(4):
            k = 20
            u = np.triu(rng.standard_normal((k, s, s)), 1)
            if draw % 2:
                u *= 10.0 ** rng.uniform(-6, 6, (k, s, 1))
            pivots = rng.choice([-1.0, 1.0], (k, s)) * 10.0 ** rng.uniform(-12, 12, (k, s))
            floor = EPS * np.abs(pivots).max()
            u[:, np.arange(s), np.arange(s)] = np.where(np.abs(pivots) < floor, floor, pivots)
            i = np.arange(s)[:, None] + np.arange(s)  # band[t, r, j] = U_t[r, r + j]
            band = np.where(i < s, u[:, np.arange(s)[:, None], np.minimum(i, s - 1)], 0.0)
            x = np.zeros((s, k, s))
            x[np.arange(s), :, np.arange(s)] = 1.0
            x = operators._substitute(band.transpose(1, 2, 0)[..., None], x).transpose(1, 0, 2)
            assert not np.tril(x, -1).any()
            ours = max(_inverse_residual(u[t], x[t]) for t in range(k))
            lapack = max(_inverse_residual(u[t], np.linalg.inv(u[t])) for t in range(k))
            assert ours <= s * EPS and ours <= 4 * lapack, (s, draw, ours / EPS, lapack / EPS)


# ---------------------------------------------------------------------------
# streaming
# ---------------------------------------------------------------------------

def test_streaming_interior_trivial():
    k = extract_local_kernel(1, 2, 1.0)
    out = apply_streaming(k, [0.0, 1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(out, [1.0, 1.0, 1.0])


def test_streaming_identity_width_one():
    k = extract_local_kernel(0, 0, 1.0)
    rng = np.random.default_rng(1)
    x = rng.standard_normal(50)
    assert np.array_equal(apply_streaming(k, x), x)


def test_streaming_latency():
    # the derivative at sample j - w needs samples up to j and no later one:
    # streamed over the first j + 1 samples, it is already the last output
    k = extract_local_kernel(1, 4, 1.0)
    w = k.half_width
    x = np.arange(20.0) ** 2
    whole = apply_streaming(k, x)
    for j in range(20):
        out = apply_streaming(k, x[:j + 1])
        assert out.size == max(0, j + 1 - 2 * w)
        if out.size:
            assert out[-1].tobytes() == whole[j - 2 * w].tobytes()
    assert whole.size == 20 - 2 * w


@pytest.mark.parametrize("order,accuracy", [(0, 2), (1, 2), (2, 2), (1, 4), (3, 6)])
def test_streaming_matches_dense_interior_bitwise(order, accuracy):
    rng = np.random.default_rng(42 + order)
    n = 2000
    x = np.cumsum(rng.standard_normal(n))  # random walk
    grid = Grid(n, 0.5)
    dense = build_diff_operator(grid, order, accuracy)
    full = dense.apply(x)
    k = extract_local_kernel(order, accuracy, grid.h)
    w = k.half_width
    stream = apply_streaming(k, x)
    assert stream.shape == (n - 2 * w,)
    assert np.array_equal(stream, full[w:n - w])


def _one_sided(interior, x, order, accuracy, h):
    """The streamed `interior` of `x` between the band's first and last w
    rows, each built from the first or last 2w+1 samples alone."""
    w = (len(x) - len(interior)) // 2
    end = build_diff_operator(Grid(2 * w + 1, h), order, accuracy).apply
    return np.concatenate([end(x[:2 * w + 1])[:w], interior, end(x[-2 * w - 1:])[w + 1:]])


def test_one_sided_streaming_matches_dense_everywhere_bitwise():
    # a boundary row reads only its 2w+1-sample end window, so a stream's
    # one-sided rows need the band of that window, not of the whole grid
    rng = np.random.default_rng(77)
    for order, accuracy in [(1, 2), (2, 4), (0, 2)]:
        k = extract_local_kernel(order, accuracy, 0.25)
        w = k.half_width
        for n in (2 * w + 1, 2 * w + 2, 300):
            x = rng.standard_normal(n)
            dense = build_diff_operator(Grid(n, 0.25), order, accuracy).apply(x)
            out = _one_sided(apply_streaming(k, x), x, order, accuracy, 0.25)
            assert out.shape == (n,)
            assert out.tobytes() == dense.tobytes()


def test_streaming_short_stream():
    k = extract_local_kernel(1, 4, 1.0)
    for x in ([], [1.0, 2.0], np.arange(4.0)):
        out = apply_streaming(k, x)
        assert out.shape == (0,) and out.dtype == np.float64
    out = apply_streaming(extract_local_kernel(1, 2, 1.0), [0, 1, 4])
    assert out.dtype == np.float64 and np.array_equal(out, [2.0])  # (x^2)' at 1


def _overlapped(k, x, size):
    """`x` streamed in chunks of `size` new samples, each chunk led by the
    last 2w samples of the one before."""
    lead = 2 * k.half_width
    return np.concatenate([apply_streaming(k, x[max(i - lead, 0):i + size])
                           for i in range(0, len(x), size)])


@pytest.mark.parametrize("boundary", ["valid", "one_sided"])
@pytest.mark.parametrize("order,accuracy", [(0, 2), (1, 2), (2, 4), (3, 4), (3, 6)])
def test_chunking_and_dense_give_identical_bytes(order, accuracy, boundary):
    rng = np.random.default_rng(10 * order + accuracy)
    k = extract_local_kernel(order, accuracy, 0.3)
    w = k.half_width
    for n in (2 * w, 2 * w + 1, 2 * w + 2, 97):
        x = rng.standard_normal(n)
        want = apply_streaming(k, x)
        for size in (1, 7, n):
            assert _overlapped(k, x, size).tobytes() == want.tobytes()
        if n < 2 * w + 1:
            assert want.shape == (0,)
            continue
        dense = build_diff_operator(Grid(n, 0.3), order, accuracy).apply(x)
        if boundary == "valid":
            assert want.tobytes() == dense[w:n - w].tobytes()
            continue
        for size in (1, 7, n):
            out = _one_sided(_overlapped(k, x, size), x, order, accuracy, 0.3)
            assert out.tobytes() == dense.tobytes()


def test_engine_matches_loop_oracles():
    # np.dot and the engine sum in different orders: agree to rounding only
    rng = np.random.default_rng(31)
    n = 400
    grid = Grid(n, 0.05)
    x = np.cumsum(rng.standard_normal(n))
    for order, accuracy in [(0, 2), (1, 2), (2, 4), (3, 6)]:
        d = build_diff_operator(grid, order, accuracy)
        w = d.support
        tol = stencil_tolerance(2 * w + 1, banded_abs_sum(d.band, x))
        assert np.all(np.abs(d.apply(x) - banded_apply_loop(d.band, x)) <= tol)
        k = extract_local_kernel(order, accuracy, grid.h)
        got, want = apply_streaming(k, x), apply_streaming_loop(k, x)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= tol[w:n - w])
    # row-varying LDO coefficients go through the same engine
    t = grid.times()
    op = assemble_ldo(LdoSpec(2, [np.sin(t), 1.0 + t, 2.0 + np.cos(t)]), grid, 4)
    w = op.support
    tol = stencil_tolerance(2 * w + 1, banded_abs_sum(op.band, x))
    assert np.all(np.abs(op.apply(x) - banded_apply_loop(op.band, x)) <= tol)


def test_streaming_memory_is_linear_in_samples():
    # no n x n and no O(n*w) window matrix: the (n, 2w+1) gather alone would
    # be 5 * 8n bytes here; the engine reads a strided view of the samples
    # and peaks at 2 * 8n (output, one product temporary)
    n = 100_000
    x = np.random.default_rng(2).standard_normal(n)
    k = extract_local_kernel(1, 4, 0.01)
    tracemalloc.start()
    try:
        apply_streaming(k, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * n + 64 * 1024, f"traced peak {peak} bytes"


def test_band_apply_memory_is_linear_in_samples():
    # the operator is stored as its (n, 2w+1) band; an n x n matrix here
    # would be 128 MB, the band is 160 kB
    n, w = 4000, 2
    x = np.random.default_rng(4).standard_normal(n)
    tracemalloc.start()
    try:
        build_diff_operator(Grid(n, 0.1), 1, 4).apply(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * n * (2 * w + 1) * 8, f"traced peak {peak} bytes"


def test_assembled_ldo_holds_band_and_null_basis_only():
    grid = Grid(60, 0.1)
    t = grid.times()
    spec = LdoSpec(2, [np.sin(t), -1.0, 2.0 + np.cos(t)])
    op = assemble_ldo(spec, grid, 4)
    assert op.band.shape == (60, 5) and op.support == 2
    arrays = [v for v in vars(op).values() if isinstance(v, np.ndarray)]
    assert len(arrays) == 2 and arrays[0] is op.band and arrays[1] is op.null_basis
    assert op.null_basis.shape == (60, op.null_dim) and op.null_dim < grid.n
    # the band holds, bit for bit, the weights of the dense sum
    dense = np.zeros((grid.n, grid.n))
    for i, a in enumerate(spec.coefficient_values(grid)):
        dense += a[:, None] * build_diff_operator(grid, i, 4).entries
    assert np.array_equal(op.entries.view(np.int64), dense.view(np.int64))
    assert op.entries is not op.entries
