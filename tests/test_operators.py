import tracemalloc

import numpy as np
import pytest

from siglex import (
    Grid,
    LdoSpec,
    StreamingKernel,
    apply_streaming,
    assemble_ldo,
    build_diff_operator,
    extract_local_kernel,
    solution_operator,
    solve_inverse,
)
from siglex.errors import (
    CoefficientLengthMismatchError,
    ConstraintCountMismatchError,
    GridTooShortError,
    LeadingCoefficientZeroError,
    LengthMismatchError,
    OrderExceedsAccuracyError,
    SingularConstraintSystemError,
)

from loop_oracles import (
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
    assert np.array_equal(sol.y, sol.y_particular + op.null_basis @ sol.alpha)


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
        lhs = op.entries.T @ (op.entries @ sol.y_particular - g)
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


def test_singular_constraint_system():
    # t*y' - y = g has null mode proportional to t, which vanishes at t=0
    grid = Grid(40, 0.1, t0=0.0)
    spec = LdoSpec(1, [-1.0, grid.times()])
    op = assemble_ldo(spec, grid, 2)
    assert op.null_dim == 1
    with pytest.raises(SingularConstraintSystemError):
        solve_inverse(op, np.zeros(40), [(0, 1.0)])


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
    k = extract_local_kernel(1, 4, 1.0)
    sk = StreamingKernel(k)
    w = k.half_width
    emitted = []
    for j in range(20):
        out = sk.push(float(j * j))
        if j < 2 * w:
            assert out == []
        else:
            assert len(out) == 1  # output j-w arrives exactly at sample j
        emitted.extend(out)
    assert len(emitted) == 20 - 2 * w


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


def test_one_sided_streaming_matches_dense_everywhere_bitwise():
    rng = np.random.default_rng(77)
    n = 300
    x = rng.standard_normal(n)
    grid = Grid(n, 0.25)
    for order, accuracy in [(1, 2), (2, 4), (0, 2)]:
        dense = build_diff_operator(grid, order, accuracy).apply(x)
        k = extract_local_kernel(order, accuracy, grid.h)
        out = apply_streaming(k, x, boundary="one_sided")
        assert out.shape == (n,)
        assert np.array_equal(out, dense)


def test_streaming_short_stream():
    k = extract_local_kernel(1, 4, 1.0)
    assert apply_streaming(k, [1.0, 2.0]).size == 0
    assert apply_streaming(k, [1.0, 2.0], boundary="one_sided").size == 0


def _chunked(k, x, boundary, size):
    sk = StreamingKernel(k, boundary)
    parts = [sk.push_many(x[i:i + size]) for i in range(0, len(x), size)]
    return np.concatenate(parts + [sk.finish()])


def _per_sample(k, x, boundary):
    sk = StreamingKernel(k, boundary)
    out = [v for sample in x for v in sk.push(sample)]
    return np.array(out + sk.finish())


@pytest.mark.parametrize("boundary", ["valid", "one_sided"])
@pytest.mark.parametrize("order,accuracy", [(0, 2), (1, 2), (2, 4), (3, 4), (3, 6)])
def test_chunking_and_dense_give_identical_bytes(order, accuracy, boundary):
    rng = np.random.default_rng(10 * order + accuracy)
    k = extract_local_kernel(order, accuracy, 0.3)
    w = k.half_width
    for n in (2 * w, 2 * w + 1, 2 * w + 2, 97):
        x = rng.standard_normal(n)
        want = apply_streaming(k, x, boundary=boundary)
        for size in (1, 7, n):
            assert _chunked(k, x, boundary, size).tobytes() == want.tobytes()
        assert _per_sample(k, x, boundary).tobytes() == want.tobytes()
        if n < 2 * w + 1:
            assert want.size == 0
            continue
        dense = build_diff_operator(Grid(n, 0.3), order, accuracy).apply(x)
        if boundary == "valid":
            dense = dense[w:n - w]
        assert want.tobytes() == dense.tobytes()


def test_push_many_returns_array_and_push_returns_floats():
    k = extract_local_kernel(1, 2, 1.0)
    sk = StreamingKernel(k)
    assert sk.push_many([]).shape == (0,)
    assert sk.push_many([0.0, 1.0]).shape == (0,)
    out = sk.push(4.0)
    assert out == [2.0] and type(out[0]) is float
    assert np.array_equal(sk.push_many(np.array([9.0, 16.0])), [4.0, 6.0])


def test_engine_matches_loop_oracles():
    # np.dot and the engine sum in different orders: agree to rounding only
    rng = np.random.default_rng(31)
    n = 400
    grid = Grid(n, 0.05)
    x = np.cumsum(rng.standard_normal(n))
    for order, accuracy in [(0, 2), (1, 2), (2, 4), (3, 6)]:
        d = build_diff_operator(grid, order, accuracy)
        w = d.support
        tol = stencil_tolerance(2 * w + 1, banded_abs_sum(d.entries, w, x))
        assert np.all(np.abs(d.apply(x) - banded_apply_loop(d.entries, w, x)) <= tol)
        k = extract_local_kernel(order, accuracy, grid.h)
        for boundary, rows in (("valid", slice(w, n - w)), ("one_sided", slice(None))):
            got = apply_streaming(k, x, boundary=boundary)
            want = apply_streaming_loop(k, x, boundary=boundary)
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= tol[rows])
    # row-varying LDO coefficients go through the same engine
    t = grid.times()
    op = assemble_ldo(LdoSpec(2, [np.sin(t), 1.0 + t, 2.0 + np.cos(t)]), grid, 4)
    w = op.support
    tol = stencil_tolerance(2 * w + 1, banded_abs_sum(op.entries, w, x))
    assert np.all(np.abs(op.apply(x) - banded_apply_loop(op.entries, w, x)) <= tol)


def test_streaming_memory_is_linear_in_samples():
    # no n x n and no O(n*w) window matrix: the (n, 2w+1) gather alone would
    # be 5 * 8n bytes here, the engine peaks at 3 * 8n (input copy, output,
    # one product temporary)
    n = 100_000
    x = np.random.default_rng(2).standard_normal(n)
    k = extract_local_kernel(1, 4, 0.01)
    for boundary in ("valid", "one_sided"):
        tracemalloc.start()
        try:
            apply_streaming(k, x, boundary=boundary)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 8 * n, f"{boundary}: traced peak {peak} bytes"
