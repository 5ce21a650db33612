import numpy as np
import pytest

from siglex import (
    Alphabet,
    Grid,
    Runs,
    SymbolStream,
    apply_streaming,
    build_diff_operator,
    compress_runs,
    decompress,
    extract_local_kernel,
    quantize,
    usd_alphabet,
)
from siglex.errors import (
    AlphabetError,
    MalformedTokensError,
    NonFiniteSampleError,
    NonpositiveEpsilonError,
    OutOfRangeError,
    UnknownSymbolError,
)
from siglex.scla import _COMPARE_BOUNDARIES, _interval_codes, tokens_to_csv


def make_runs(table, codes, lengths, starts):
    return Runs(np.array(codes, dtype=np.uint8), np.array(lengths, dtype=np.intp),
                np.array(starts, dtype=np.intp), tuple(table))


def columns(runs):
    """(codes, lengths, starts) of runs as lists."""
    return runs.codes.tolist(), runs.lengths.tolist(), runs.starts.tolist()


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
    assert s.codes.dtype == np.uint8 and s.codes.tolist() == [0, 1, 2]
    assert s.table == ("d", "s", "u", "_")


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


def test_interval_codes_equal_searchsorted():
    # comparisons up to _COMPARE_BOUNDARIES boundaries, a binary search past
    # them; values on a boundary, either side of one, signed zeros, +-inf, NaN
    rng = np.random.default_rng(12)
    for k in (0, 1, 2, 7, _COMPARE_BOUNDARIES, _COMPARE_BOUNDARIES + 1, 60):
        for zero in (0.0, -0.0):
            bounds = np.unique(np.append(rng.uniform(-4, 4, k - 1), zero)) if k else \
                np.empty(0)
            vals = np.concatenate([
                bounds, np.nextafter(bounds, -np.inf), np.nextafter(bounds, np.inf),
                [0.0, -0.0, np.inf, -np.inf, np.nan], rng.uniform(-6, 6, 500)])
            rng.shuffle(vals)
            want = np.searchsorted(bounds, vals, side="right")
            got = _interval_codes(tuple(bounds.tolist()), vals, np.uint8)
            assert got.dtype == np.uint8 and got.tolist() == want.tolist(), (k, zero)


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
    a = Alphabet(("l", "h"), (0.5,), "gap", valid_range=(0.0, 1.0), catch_all="x")
    s = quantize([-0.1, 0.2, 0.7, 1.0, np.nan], a)
    assert s.symbols == "xlhx_"
    # the table: symbols, then the catch-all, then the gap symbol
    assert s.table == ("l", "h", "x", "_") and s.codes.tolist() == [2, 0, 1, 2, 3]


def test_catch_all_that_repeats_a_symbol_shares_its_code():
    a = Alphabet(("l", "h"), (0.5,), "gap", valid_range=(0.0, 1.0), catch_all="h")
    assert a.table == ("l", "h", "_")
    s = quantize([0.7, 1.5, -0.2, 0.2, np.nan], a)
    assert s.codes.tolist() == [1, 1, 1, 0, 2] and s.symbols == "hhhl_"
    # one run of h, as the text "hhh" has: no two adjacent runs share a symbol
    assert [tuple(t) for t in compress_runs(s)] == [("h", 3, 0), ("l", 1, 3), ("_", 1, 4)]


def test_stream_table_defaults_to_the_alphabet():
    a = usd_alphabet(0.5)
    s = SymbolStream(np.array([2, 2, 0], dtype=np.uint8), a)
    assert s.table == a.table and s.symbols == "uud"
    assert [tuple(t) for t in compress_runs(s)] == [("u", 2, 0), ("d", 1, 2)]


def test_symbols_of_a_table_with_unequal_entries():
    assert SymbolStream(["ab", "c", "ab"]).symbols == "abcab"
    assert SymbolStream(["", "x", ""]).symbols == "x"
    assert SymbolStream([]).symbols == ""
    assert SymbolStream(np.array([1, 0], dtype=np.uint8), table=("", "")).symbols == ""


def test_stream_from_text_uses_the_alphabet_table():
    a = usd_alphabet(0.5, nan_policy="gap")
    s = SymbolStream("u_d", a)
    assert s.codes.tolist() == [2, 3, 0] and s.table == a.table
    assert s.symbols == "u_d" and len(s) == 3
    # without an alphabet, the table is the sorted distinct characters
    s = SymbolStream("Ωéé")
    assert s.table == ("é", "Ω") and s.codes.tolist() == [1, 0, 0]
    assert s.symbols == "Ωéé"
    with pytest.raises(UnknownSymbolError):
        SymbolStream("ux", a)


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
    runs = compress_runs(quantize([1, 1, 1, 0, 0, -1], usd_alphabet(0.5)))
    assert columns(runs) == ([2, 1, 0], [3, 2, 1], [0, 3, 5])
    assert runs.table == ("d", "s", "u", "_")
    # the text edge: a str gets the table of its sorted distinct characters
    runs = compress_runs("uuussd")
    assert runs.table == ("d", "s", "u")
    assert columns(runs) == ([2, 1, 0], [3, 2, 1], [0, 3, 5])
    assert [tuple(t) for t in runs] == [("u", 3, 0), ("s", 2, 3), ("d", 1, 5)]
    assert columns(runs[1:]) == ([1, 0], [2, 1], [3, 5])


def test_runs_index_to_tokens():
    runs = compress_runs("uuussd")
    assert runs[0] == ("u", 3, 0) and runs[0].start_index == 0
    assert runs[-1].symbol == "d" and runs[-1].run_length == 1
    assert type(runs[1].run_length) is int and type(runs[1].start_index) is int
    with pytest.raises(IndexError):
        runs[3]


def test_compress_empty():
    runs = compress_runs("")
    assert len(runs) == 0 and list(runs) == []
    assert columns(compress_runs(quantize([], usd_alphabet(0.5)))) == ([], [], [])


def test_decompress_basic():
    assert decompress(make_runs("ab", [0, 1], [2, 1], [0, 2])).symbols == "aab"
    assert decompress(make_runs("ab", [], [], [])).symbols == ""


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
        codes, lengths, starts = [], [], []
        pos = 0
        for _ in range(int(rng.integers(0, 40))):
            code = int(rng.integers(3))
            if codes and code == codes[-1]:
                continue
            ln = int(rng.integers(1, 9))
            codes.append(code)
            lengths.append(ln)
            starts.append(pos)
            pos += ln
        stream = decompress(make_runs(syms, codes, lengths, starts))
        assert columns(compress_runs(stream)) == (codes, lengths, starts)


def test_decompress_rejects_malformed():
    with pytest.raises(MalformedTokensError):
        decompress(make_runs("ab", [0, 0], [2, 1], [0, 2]))  # adjacent equal
    with pytest.raises(MalformedTokensError):
        decompress(make_runs("ab", [0, 1], [2, 1], [0, 3]))  # index gap
    with pytest.raises(MalformedTokensError):
        decompress(make_runs("ab", [0], [0], [0]))
    with pytest.raises(MalformedTokensError):
        decompress(make_runs("ab", [0, 2], [1, 1], [0, 1]))  # code past the table


def test_tokens_csv_round_trip(tmp_path):
    toks = compress_runs("uuddssΩ")
    path = tmp_path / "tokens.csv"
    tokens_to_csv(toks, path)
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    assert header == "symbol,runLength,startIndex"
    assert [(s, int(n), int(i)) for s, n, i in (r.split(",") for r in rows)] == \
        [tuple(t) for t in toks]


# ---------------------------------------------------------------------------
# channel pipeline
# ---------------------------------------------------------------------------

def test_scla_constant_slope():
    k = extract_local_kernel(1, 2, 1.0)
    toks = compress_runs(quantize(apply_streaming(k, [0.0, 1.0, 2.0, 3.0, 4.0]),
                                  usd_alphabet(0.5)))
    assert columns(toks) == ([2], [3], [0])


def test_scla_constant_signal():
    k = extract_local_kernel(1, 2, 1.0)
    n = 40
    toks = compress_runs(quantize(apply_streaming(k, np.full(n, 2.5)), usd_alphabet(0.5)))
    assert columns(toks) == ([1], [n - 2], [0])


def test_scla_without_kernel_is_identity_stage():
    toks = compress_runs(quantize([1.0, 1.0, -1.0], usd_alphabet(0.5)))
    assert columns(toks) == ([2, 0], [2, 1], [0, 2])


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
    got = compress_runs(quantize(apply_streaming(k, tri), alpha,
                                 grid.interior(k.half_width)))

    dense = build_diff_operator(grid, 1, 2)
    w = dense.support
    derived = dense.apply(tri)[w:n - w]
    want = compress_runs(quantize(derived, alpha))
    assert columns(got) == columns(want)
    # rising and falling flanks alternate; apex samples may quantize to s
    syms = {tok.symbol for tok in got}
    assert {"u", "d"} <= syms
    flanks = [t.symbol for t in got if t.symbol in "ud"]
    assert all(a != b for a, b in zip(flanks, flanks[1:]))


def test_scla_trims_grid():
    grid = Grid(10, 0.5, t0=2.0)
    k = extract_local_kernel(1, 4, grid.h)
    stream = quantize(apply_streaming(k, np.arange(10.0)), usd_alphabet(0.1),
                      grid.interior(k.half_width))
    assert sum(t.run_length for t in compress_runs(stream)) == 10 - 2 * k.half_width
