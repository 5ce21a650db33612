"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Relative error for operator exactness (criterion 1) is measured
against max(|analytic derivative|_inf, ||W| |f||_inf): the second term is
the conditioning scale of the row dot products, below which float64 cannot
represent ANY result.  Weight errors above 1e-9 relative are still caught;
see the strict low-order checks in test_operators.py for the plain
derivative-norm bound where float64 can attain it.
"""

import json
import time
from collections import Counter

import numpy as np

from siglex import (
    Grid,
    LdoSpec,
    Match,
    Token,
    apply_streaming,
    assemble_ldo,
    build_diff_operator,
    compile_pattern,
    compress_runs,
    confidence_band,
    decompress,
    estimate_residual_variance,
    extract_local_kernel,
    find_all,
    find_all_tokens,
    frequency_dictionary,
    histogram,
    prediction_band,
    propagate_forward,
    quantize,
    solve_inverse,
    student_t_quantile,
    usd_alphabet,
    window_classifier,
)
from siglex.cli import main as cli_main
from siglex.scla import SymbolStream

from dense_ldo import pseudo_inverse, solution_operator
from frozen_tables import T_TABLE
from loop_oracles import banded_apply_loop
from naive_match import enumerate_patterns, naive_find_all


def _report(num, text):
    print(f"ACCEPTANCE {num}: {text} ... PASS")


# ---------------------------------------------------------------------------
# 1. operator exactness
# ---------------------------------------------------------------------------

def test_criterion_1_operator_exactness():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for n in (16, 64, 256):
        grid = Grid(n, 1.0)
        t = grid.times()
        mid, half = t.mean(), (t[-1] - t[0]) / 2
        for accuracy in range(0, 7):
            for order in range(0, accuracy + 1):
                d = build_diff_operator(grid, order, accuracy)
                absW = np.abs(d.entries)
                for _ in range(3):
                    c = rng.uniform(-1, 1, accuracy + 1)
                    u = (t - mid) / half
                    f = np.polynomial.polynomial.polyval(u, c)
                    dc = c.copy()
                    for _ in range(order):
                        dc = np.polynomial.polynomial.polyder(dc)
                    want = (np.polynomial.polynomial.polyval(u, dc) / half ** order
                            if dc.size else np.zeros(n))
                    got = d.apply(f)
                    scale = max(np.abs(want).max(), (absW @ np.abs(f)).max(), 1e-300)
                    rel = np.abs(got - want).max() / scale
                    worst = max(worst, rel)
                    assert rel <= 1e-9, (n, order, accuracy, rel)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _report(1, f"operator exactness, worst rel err {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. inverse-problem recovery
# ---------------------------------------------------------------------------

def test_criterion_2_inverse_recovery():
    grid = Grid(101, 0.01)
    op = assemble_ldo(LdoSpec(1, [0.0, 1.0]), grid, 2)
    sol = solve_inverse(op, np.ones(101), [(0, 0.0)])
    err1 = np.abs(sol.y - grid.times()).max()
    assert err1 <= 1e-8

    grid2 = Grid(201, 0.01)
    op2 = assemble_ldo(LdoSpec(2, [0.0, 0.0, 1.0]), grid2, 4)
    t = grid2.times()
    i_half_pi = int(round(np.pi / 2 / grid2.h))
    sol2 = solve_inverse(op2, -np.sin(t), [(0, 0.0), (i_half_pi, 1.0)])
    err2 = np.abs(sol2.y - np.sin(t)).max()
    assert err2 <= 1e-6
    _report(2, f"inverse recovery, integration err {err1:.2e}, sine err {err2:.2e}")


# ---------------------------------------------------------------------------
# 3. streaming equivalence
# ---------------------------------------------------------------------------

def test_criterion_3_streaming_equivalence():
    rng = np.random.default_rng(1003)
    n = 10000
    grid = Grid(n, 0.5)
    x = rng.standard_normal(n)
    for order in (0, 1, 2):
        accuracy = max(order, 2)
        dense = build_diff_operator(grid, order, accuracy)
        full = dense.apply(x)
        sanity = banded_apply_loop(dense.band, x)  # np.dot order, tolerance-level only
        assert np.allclose(full, sanity, atol=1e-10 * max(1.0, np.abs(full).max()))
        k = extract_local_kernel(order, accuracy, grid.h)
        w = k.half_width
        stream = apply_streaming(k, x)
        assert np.array_equal(stream, full[w:n - w]), f"order {order}"
        del dense, full
    _report(3, "streaming bitwise-equal to dense interior rows, n=10000, orders 0-2")


# ---------------------------------------------------------------------------
# 4. covariance propagation
# ---------------------------------------------------------------------------

def test_criterion_4_covariance_monte_carlo():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1004)
    grid = Grid(101, 0.01)
    op = assemble_ldo(LdoSpec(1, [0.0, 1.0]), grid, 2)
    pinv = pseudo_inverse(op)
    sigma = 0.25
    lam = propagate_forward(pinv, sigma ** 2 * np.eye(101))
    noise = sigma * rng.standard_normal((20000, 101))
    samples = noise @ pinv.T
    sample_var = samples.var(axis=0, ddof=1)
    rel = np.abs(sample_var / np.diag(lam) - 1.0).max()
    assert rel < 0.10
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(4, f"pseudo-inverse covariance vs 20000-trial MC, "
               f"max diag dev {rel * 100:.1f}%, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. band coverage
# ---------------------------------------------------------------------------

def test_criterion_5_band_coverage():
    rng = np.random.default_rng(1005)

    # pointwise confidence band at a fixed interior point
    grid = Grid(101, 0.01)
    op = assemble_ldo(LdoSpec(1, [0.0, 1.0]), grid, 2)
    t = grid.times()
    y_true = 0.5 + 2.0 * t
    g_true = op.apply(y_true)
    a_map = solution_operator(op, [0])
    lam_unit = propagate_forward(a_map, np.eye(101))
    sigma = 0.2
    j_star = 50
    hits = 0
    trials = 5000
    for _ in range(trials):
        g = g_true + sigma * rng.standard_normal(101)
        sol = solve_inverse(op, g, [(0, y_true[0])])
        s2, dof = estimate_residual_variance(sol.residual, op.rank)
        band = confidence_band(sol.y, np.diag(lam_unit), s2, dof, 0.95)
        if abs(sol.y[j_star] - y_true[j_star]) <= band.half_width[j_star]:
            hits += 1
    cov_conf = hits / trials
    assert 0.93 <= cov_conf <= 0.97, cov_conf

    # prediction band at horizon 5 against the realized future observation
    grid2 = Grid(80, 1.0)
    op2 = assemble_ldo(LdoSpec(2, [0.0, 0.0, 1.0]), grid2, 2)
    t2 = grid2.times()
    trend = 1.0 + 0.3 * t2
    t_future = grid2.t0 + grid2.h * np.arange(80, 85)
    sigma2 = 0.5
    hits2 = 0
    for _ in range(trials):
        y = trend + sigma2 * rng.standard_normal(80)
        sol = solve_inverse(op2, op2.apply(y), [(0, y[0]), (79, y[79])])
        band = prediction_band(sol, op2, horizon=5, level=0.95)
        future_obs = (1.0 + 0.3 * t_future[4]) + sigma2 * rng.standard_normal()
        if abs(future_obs - band.center[4]) <= band.half_width[4]:
            hits2 += 1
    cov_pred = hits2 / trials
    assert 0.92 <= cov_pred <= 0.98, cov_pred
    _report(5, f"95% band coverage: confidence {cov_conf * 100:.1f}%, "
               f"prediction horizon-5 {cov_pred * 100:.1f}% (5000 trials each)")


# ---------------------------------------------------------------------------
# 6. t-quantile accuracy
# ---------------------------------------------------------------------------

def test_criterion_6_t_quantiles():
    worst = 0.0
    for (p, dof), want in T_TABLE.items():
        got = student_t_quantile(p, dof)
        worst = max(worst, abs(got - want))
        assert abs(got - want) <= 1e-8, (p, dof)
    _report(6, f"t-quantiles vs beta-inversion oracle, worst abs err {worst:.2e}")


# ---------------------------------------------------------------------------
# 7. SCLA round trip
# ---------------------------------------------------------------------------

def test_criterion_7_scla_round_trip():
    rng = np.random.default_rng(1007)
    checked = 0
    for i in range(1000):
        if i < 3:
            n = 100000
        else:
            n = int(10 ** rng.uniform(0, 5))
        k = int(rng.integers(2, 5))
        syms = "abcdefgh"[:k]
        s = "".join(rng.choice(list(syms), n))
        toks = compress_runs(s)
        assert decompress(toks).symbols == s
        assert sum(tk.run_length for tk in toks) == n
        for a, b in zip(toks, toks[1:]):
            assert a.symbol != b.symbol
            assert b.start_index == a.start_index + a.run_length
        checked += 1
    assert checked == 1000
    _report(7, "run-length round trip on 1000 fuzzed streams up to length 1e5")


# ---------------------------------------------------------------------------
# 8. MCLA correctness
# ---------------------------------------------------------------------------

def test_criterion_8_mcla():
    rng = np.random.default_rng(1008)
    for _ in range(100):
        n = int(rng.integers(1, 2000))
        arity = int(rng.integers(2, 4))
        samples = ["".join(rng.choice(list("usd"), arity)) for _ in range(n)]
        ms = SymbolStream(samples, None, Grid(max(n, 2), 1.0))
        fd = histogram(ms)
        assert fd.counts == dict(Counter(samples))
        assert fd.total == n

        ordered = frequency_dictionary(fd)
        counts = [c for _, c in ordered]
        assert counts == sorted(counts, reverse=True)
        for (k1, c1), (k2, c2) in zip(ordered, ordered[1:]):
            if c1 == c2:
                assert k1 < k2

        cut = int(rng.integers(0, n + 1))
        left, right = histogram(ms, (0, cut)), histogram(ms, (cut, n))
        assert dict(Counter(left.counts) + Counter(right.counts)) == fd.counts
        assert left.total + right.total == fd.total
    _report(8, "histograms equal naive tally on 100 fuzzed multistreams; "
               "ordering and window additivity hold")


# ---------------------------------------------------------------------------
# 9. matcher oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_9_matcher_equivalence():
    alpha = usd_alphabet(0.5)
    rng = np.random.default_rng(1009)
    patterns = enumerate_patterns("usd", max_text_len=12)

    streams = [""]
    for ln in (1, 2, 3):
        # exhaustive short streams
        def expand(prefix, k):
            if k == 0:
                streams.append(prefix)
                return
            for c in "usd":
                expand(prefix + c, k - 1)
        expand("", ln)
    long_streams = ["".join(rng.choice(list("usd"), 64)) for _ in range(4)]
    long_streams.append("u" * 64)
    long_streams.append(("ud" * 32))

    discrepancies = 0
    compared = 0
    for text, ast in patterns:
        p = compile_pattern(text, alpha)
        for s in streams + long_streams:
            got = [(m.start, m.end) for m in find_all(p, SymbolStream(s, alpha))]
            want = naive_find_all(ast, s)
            if got != want:
                discrepancies += 1
                print(f"MISMATCH pattern={text!r} stream={s!r} "
                      f"got={got} want={want}")
            compared += 1
    assert discrepancies == 0

    p = compile_pattern("(u+)+d", alpha)
    stream = "u" * 100000
    t0 = time.perf_counter()
    assert find_all(p, SymbolStream(stream, alpha)) == []
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"pathological case took {elapsed:.2f}s"
    _report(9, f"{len(patterns)} patterns x {len(streams) + len(long_streams)} "
               f"streams, {compared} comparisons, 0 discrepancies; "
               f"pathological case {elapsed * 1000:.0f}ms")


# ---------------------------------------------------------------------------
# 10. end-to-end determinism and mode recognition
# ---------------------------------------------------------------------------

SAW, SQR = "saw", "sqr"


def two_mode_signals(n_segments=8, seg=60):
    """Alternating sawtooth/square segments with a complementary channel."""
    labels = []
    x1, x2 = [], []
    for k in range(n_segments):
        mode = SAW if k % 2 == 0 else SQR
        labels.append(mode)
        for j in range(seg):
            jj = j % 12
            if mode == SAW:
                x1.append(float(jj))
                x2.append(3.0)
            else:
                x1.append(5.0 if jj >= 6 else 0.0)
                x2.append(float(jj) if jj <= 6 else float(12 - jj))
    return labels, np.array(x1), np.array(x2)


def _mode_histogram(mode, seg=120):
    _, x1, x2 = ([], None, None)
    x1, x2 = [], []
    for j in range(seg):
        jj = j % 12
        if mode == SAW:
            x1.append(float(jj))
            x2.append(3.0)
        else:
            x1.append(5.0 if jj >= 6 else 0.0)
            x2.append(float(jj) if jj <= 6 else float(12 - jj))
    k = extract_local_kernel(1, 2, 1.0)
    alpha = usd_alphabet(0.5)
    s1 = quantize(apply_streaming(k, x1), alpha)
    s2 = quantize(apply_streaming(k, x2), alpha)
    samples = [a + b for a, b in zip(s1.symbols, s2.symbols)]
    return histogram(SymbolStream(samples))


def test_criterion_10_mode_recognition_and_determinism(tmp_path):
    seg = 60
    labels, x1, x2 = two_mode_signals(8, seg)
    kernel = extract_local_kernel(1, 2, 1.0)
    alpha = usd_alphabet(0.5)
    s1 = quantize(apply_streaming(kernel, x1), alpha)
    s2 = quantize(apply_streaming(kernel, x2), alpha)
    combined = [a + b for a, b in zip(s1.symbols, s2.symbols)]
    total = len(combined)

    references = {SAW: _mode_histogram(SAW), SQR: _mode_histogram(SQR)}

    # combined sample j corresponds to raw sample j+1 (streaming trim), so
    # the first segment is one sample short: score each segment's samples
    # as a stream of one window
    correct = 0
    for k_seg, want in enumerate(labels):
        lo = max(0, k_seg * seg - 1)
        hi = min(total, (k_seg + 1) * seg - 1)
        segment = SymbolStream(combined[lo:hi])
        best, _ = window_classifier(segment, hi - lo, references, "l1")(0, 1)
        label = sorted(references)[int(best[0])]
        assert label == want, (k_seg, label, want)
        correct += 1
    assert correct == len(labels)

    # end-to-end CLI: identical reruns must be byte-identical and the
    # classify output must label every window with the right mode
    config = {
        "time_column": "t",
        "channels": [
            {"name": "x1", "csv_column": "a",
             "alphabet": {"kind": "usd", "epsilon": 0.5},
             "operator": {"order": 1, "accuracy": 2}},
            {"name": "x2", "csv_column": "b",
             "alphabet": {"kind": "usd", "epsilon": 0.5},
             "operator": {"order": 1, "accuracy": 2}},
        ],
        "combine": ["x1", "x2"],
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    lines = ["t,a,b"]
    for j in range(len(x1)):
        lines.append(f"{j},{x1[j]:.17g},{x2[j]:.17g}")
    data = tmp_path / "data.csv"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    refs_obj = {}
    for mode, fd in references.items():
        obj = dict(sorted(fd.counts.items()))
        obj["total"] = fd.total
        refs_obj[mode] = obj
    refs = tmp_path / "refs.json"
    refs.write_text(json.dumps(refs_obj, indent=2), encoding="utf-8")

    blobs = {}
    for tag in ("one", "two"):
        out = tmp_path / tag
        for cmd, extra in [("symbolize", ()), ("combine", ()), ("hist", ()),
                           ("classify", ("--references", str(refs),
                                         "--window", str(seg)))]:
            code = cli_main([cmd, "--config", str(cfg), "--input", str(data),
                             "--out", str(out / cmd), *extra])
            assert code == 0
            for f in sorted((out / cmd).iterdir()):
                blobs.setdefault((cmd, f.name), []).append(f.read_bytes())
    for key, pair in blobs.items():
        assert pair[0] == pair[1], key

    classify_lines = (tmp_path / "one" / "classify" / "classify.csv") \
        .read_text().splitlines()[1:]
    got_labels = [ln.split(",")[2] for ln in classify_lines]
    assert got_labels == labels
    _report(10, f"two-mode scenario: {len(labels)} windows labeled correctly, "
                "CLI reruns byte-identical")
