import numpy as np
import pytest

from siglex import (
    Alphabet,
    Grid,
    Token,
    build_diff_operator,
    compress_runs,
    decompress,
    extract_local_kernel,
    quantize,
    run_scla,
    usd_alphabet,
)
from siglex.errors import (
    AlphabetError,
    MalformedTokensError,
    NonFiniteSampleError,
    NonpositiveEpsilonError,
    OutOfRangeError,
)
from siglex.scla import tokens_to_csv


# ---------------------------------------------------------------------------
# alphabets and quantization
# ---------------------------------------------------------------------------

def test_usd_mapping():
    a = usd_alphabet(0.1)
    # the 0.1 boundary belongs upward, -0.1 to the stationary interval
    assert quantize([-0.5, 0.0, 0.1, -0.1], a).symbols == "dsus"


def test_usd_epsilon_validation():
    with pytest.raises(NonpositiveEpsilonError):
        usd_alphabet(0.0)
    with pytest.raises(NonpositiveEpsilonError):
        usd_alphabet(-1.0)


def test_alphabet_validation():
    with pytest.raises(AlphabetError):
        Alphabet(("a", "b"), (1.0, 2.0))  # wrong boundary count
    with pytest.raises(AlphabetError):
        Alphabet(("a", "a"), (0.0,))
    with pytest.raises(AlphabetError):
        Alphabet(("a", "b", "c"), (1.0, 1.0))
    with pytest.raises(AlphabetError):
        Alphabet(("a", "bb"), (0.0,))
    with pytest.raises(AlphabetError):  # '_' would merge with gap runs
        Alphabet(("l", "h"), (0.5,), "gap", (0.0, 1.0), catch_all="_")
    # NUL vanishes from numpy's U1 arrays; the rest split a token CSV row
    for c in ("\0", ",", '"', "\n", "\r"):
        with pytest.raises(AlphabetError):
            Alphabet((c, "h"), (0.5,))
        with pytest.raises(AlphabetError):
            Alphabet(("l", "h"), (0.5,), valid_range=(0.0, 1.0), catch_all=c)


def test_quantize_basic():
    s = quantize([-1.0, 0.0, 1.0], usd_alphabet(0.5))
    assert s.symbols == "dsu"


def test_quantize_empty():
    assert quantize([], usd_alphabet(0.5)).symbols == ""


def test_quantize_matches_linear_scan():
    rng = np.random.default_rng(10)
    bounds = tuple(np.sort(rng.uniform(-4, 4, 7)))
    alpha = Alphabet(tuple("abcdefgh"), bounds)
    vals = rng.uniform(-6, 6, 10000)
    got = quantize(vals, alpha).symbols

    def scan(v):
        for i, b in enumerate(bounds):
            if v < b:
                return alpha.symbols[i]
        return alpha.symbols[-1]

    want = "".join(scan(v) for v in vals)
    assert got == want


def test_quantize_length_preserved():
    rng = np.random.default_rng(11)
    vals = rng.standard_normal(5000)
    assert len(quantize(vals, usd_alphabet(0.3))) == 5000


def test_nan_policy_reject():
    with pytest.raises(NonFiniteSampleError):
        quantize([0.0, np.nan, 1.0], usd_alphabet(0.5))
    with pytest.raises(NonFiniteSampleError):
        quantize([np.inf], usd_alphabet(0.5))


def test_nan_policy_gap():
    a = usd_alphabet(0.5, nan_policy="gap")
    assert quantize([1.0, np.nan, -1.0], a).symbols == "u_d"


def test_explicit_range_catch_all():
    a = Alphabet(("l", "h"), (0.5,), valid_range=(0.0, 1.0), catch_all="x")
    assert quantize([-0.1, 0.2, 0.7, 1.0], a).symbols == "xlhx"


def test_explicit_range_without_catch_all():
    a = Alphabet(("l", "h"), (0.5,), valid_range=(0.0, 1.0))
    with pytest.raises(OutOfRangeError):
        quantize([2.0], a)


def test_monotone_relabel_invariance():
    # strictly increasing transforms of values and boundaries together
    # leave the symbol stream unchanged
    rng = np.random.default_rng(12)
    bounds = tuple(np.sort(rng.uniform(-2, 2, 4)))
    alpha = Alphabet(tuple("vwxyz"), bounds)
    vals = rng.uniform(-3, 3, 2000)
    f = lambda x: np.exp(x / 2.0) + 3.0 * x
    alpha2 = Alphabet(tuple("vwxyz"), tuple(f(np.array(bounds))))
    assert quantize(vals, alpha).symbols == quantize(f(vals), alpha2).symbols


# ---------------------------------------------------------------------------
# run-length compression
# ---------------------------------------------------------------------------

def test_compress_basic():
    toks = compress_runs("uuussd")
    assert toks == [Token("u", 3, 0), Token("s", 2, 3), Token("d", 1, 5)]


def test_compress_empty():
    assert compress_runs("") == []


def test_decompress_basic():
    assert decompress([Token("a", 2, 0), Token("b", 1, 2)]).symbols == "aab"
    assert decompress([]).symbols == ""


def test_round_trip_fuzz():
    rng = np.random.default_rng(13)
    for _ in range(30):
        n = int(rng.integers(0, 2000))
        s = "".join(rng.choice(list("usd"), n))
        toks = compress_runs(s)
        assert decompress(toks).symbols == s
        assert sum(t.run_length for t in toks) == len(s)
        for a, b in zip(toks, toks[1:]):
            assert a.symbol != b.symbol
            assert b.start_index == a.start_index + a.run_length


def test_large_round_trip():
    rng = np.random.default_rng(14)
    s = "".join(rng.choice(list("ab"), 100000))
    assert decompress(compress_runs(s)).symbols == s


def test_tokens_round_trip_of_compress():
    rng = np.random.default_rng(15)
    for _ in range(20):
        syms = "xyz"
        toks = []
        pos = 0
        prev = None
        for _ in range(int(rng.integers(0, 40))):
            sym = syms[int(rng.integers(3))]
            if sym == prev:
                continue
            ln = int(rng.integers(1, 9))
            toks.append(Token(sym, ln, pos))
            pos += ln
            prev = sym
        assert compress_runs(decompress(toks).symbols) == toks


def test_decompress_rejects_malformed():
    with pytest.raises(MalformedTokensError):
        decompress([Token("a", 2, 0), Token("a", 1, 2)])  # adjacent equal
    with pytest.raises(MalformedTokensError):
        decompress([Token("a", 2, 0), Token("b", 1, 3)])  # index gap
    with pytest.raises(MalformedTokensError):
        decompress([Token("a", 0, 0)])


def test_tokens_csv_round_trip(tmp_path):
    toks = compress_runs("uuddss")
    path = tmp_path / "tokens.csv"
    tokens_to_csv(toks, path)
    header, *rows = path.read_text().splitlines()
    assert header == "symbol,runLength,startIndex"
    assert [Token(s, int(n), int(i)) for s, n, i in (r.split(",") for r in rows)] == toks


# ---------------------------------------------------------------------------
# channel pipeline
# ---------------------------------------------------------------------------

def test_scla_constant_slope():
    k = extract_local_kernel(1, 2, 1.0)
    toks = run_scla([0.0, 1.0, 2.0, 3.0, 4.0], k, usd_alphabet(0.5))
    assert toks == [Token("u", 3, 0)]


def test_scla_constant_signal():
    k = extract_local_kernel(1, 2, 1.0)
    n = 40
    toks = run_scla(np.full(n, 2.5), k, usd_alphabet(0.5))
    assert toks == [Token("s", n - 2, 0)]


def test_scla_without_kernel_is_identity_stage():
    toks = run_scla([1.0, 1.0, -1.0], None, usd_alphabet(0.5))
    assert toks == [Token("u", 2, 0), Token("d", 1, 2)]


def test_scla_triangle_wave_matches_dense_pipeline():
    rng = np.random.default_rng(16)
    n = 600
    period = 24
    t = np.arange(n)
    tri = np.abs((t % period) - period / 2.0)
    tri = tri + rng.uniform(-1e-6, 1e-6, n)  # break exact plateaus
    grid = Grid(n, 1.0)
    k = extract_local_kernel(1, 2, 1.0)
    alpha = usd_alphabet(1e-3)
    got = run_scla(tri, k, alpha, grid=grid)

    dense = build_diff_operator(grid, 1, 2)
    w = dense.support
    derived = dense.apply(tri)[w:n - w]
    want = compress_runs(quantize(derived, alpha))
    assert got == want
    # rising and falling flanks alternate; apex samples may quantize to s
    syms = {tok.symbol for tok in got}
    assert {"u", "d"} <= syms
    flanks = [t.symbol for t in got if t.symbol in "ud"]
    assert all(a != b for a, b in zip(flanks, flanks[1:]))


def test_scla_trims_grid():
    grid = Grid(10, 0.5, t0=2.0)
    k = extract_local_kernel(1, 4, grid.h)
    toks = run_scla(np.arange(10.0), k, usd_alphabet(0.1), grid=grid)
    assert sum(t.run_length for t in toks) == 10 - 2 * k.half_width
