import json
from collections import Counter

import numpy as np
import pytest

from siglex import (
    Alphabet,
    FrequencyDict,
    Grid,
    align_and_combine,
    classify_operation,
    classify_windows,
    compare_histograms,
    exclude_symbols,
    frequency_dictionary,
    histogram,
    multi_tokens,
    quantize,
    usd_alphabet,
)
from siglex.errors import (
    BothEmptyError,
    EmptyInputError,
    InvalidWindowError,
    NoOverlapError,
    NoReferencesError,
)
from siglex.scla import SymbolStream

from loop_oracles import align_and_combine_loop, histogram_loop

ALPHA = usd_alphabet(0.5)


def stream(symbols, grid):
    return SymbolStream(symbols, ALPHA, grid)


def ms_from_samples(samples):
    return SymbolStream(list(samples), None, Grid(max(len(samples), 2), 1.0))


def combos(ms):
    """The per-sample combination strings of a combined stream."""
    return [ms.table[c] for c in ms.codes.tolist()]


# ---------------------------------------------------------------------------
# alignment
# ---------------------------------------------------------------------------

def test_combine_equal_grids():
    g = Grid(2, 1.0)
    ms = align_and_combine([stream("ud", g), stream("du", g)])
    assert combos(ms) == ["ud", "du"]
    # combinations that occur, in the order of the channels' tables (d, s, u)
    assert ms.table == ("du", "ud") and ms.codes.tolist() == [1, 0]
    assert ms.codes.dtype == np.uint8


def test_combine_multirate_locf():
    ga = Grid(4, 1.0)   # t = 0,1,2,3
    gb = Grid(2, 2.0)   # t = 0,2
    ms = align_and_combine([SymbolStream("abcd", None, ga), SymbolStream("xy", None, gb)])
    assert combos(ms) == ["ax", "cy"]
    assert ms.source_grid.h == 2.0


def test_combine_single_sample_overlap():
    ga = Grid(4, 1.0, t0=0.0)   # ends at 3
    gb = Grid(2, 3.0, t0=3.0)   # starts at 3
    ms = align_and_combine([stream("uuuu", ga), stream("dd", gb)])
    assert combos(ms) == ["ud"]
    assert ms.source_grid is None


def test_combine_no_overlap():
    ga = Grid(3, 1.0, t0=0.0)
    gb = Grid(3, 1.0, t0=100.0)
    with pytest.raises(NoOverlapError):
        align_and_combine([stream("uuu", ga), stream("ddd", gb)])


def test_combine_channels_with_256_codes():
    # 255 symbols plus the gap, and 254 plus a catch-all plus the gap: each
    # table fills a byte, so the first mixed-radix key must outgrow uint8
    chars = [chr(0x100 + i) for i in range(255)]
    full = Alphabet(tuple(chars), tuple(range(254)), "gap")
    caught = Alphabet(tuple(chars[:254]), tuple(range(253)), "gap", (0, 300), "x")
    assert len(full.table) == len(caught.table) == 256
    g = Grid(4, 1.0)
    a = quantize([-1.0, 300.0, np.nan, 100.5], full, g)
    b = quantize([400.0, np.nan, 252.5, 0.0], caught, g)
    ms = align_and_combine([a, b])
    assert combos(ms) == align_and_combine_loop([a, b], [g, g])
    assert combos(ms) == [chars[0] + "x", chars[254] + "_", "_" + chars[253],
                          chars[101] + chars[1]]


def test_combine_gives_each_combination_one_code():
    # combined streams as inputs spell "abc" as "ab" + "c" and as "a" + "bc"
    g = Grid(3, 1.0)
    a = SymbolStream(["ab", "a", "ab"], None, g)
    b = SymbolStream(["c", "bc", "bc"], None, g)
    ms = align_and_combine([a, b])
    assert ms.table == ("abc", "abbc") and ms.codes.tolist() == [0, 0, 1]
    assert histogram(ms).counts == {"abc": 2, "abbc": 1}
    assert [tuple(t) for t in multi_tokens(ms)] == [("abc", 2, 0), ("abbc", 1, 2)]


def test_combine_needs_two_streams():
    with pytest.raises(EmptyInputError):
        align_and_combine([stream("uu", Grid(2, 1.0))])


def test_channel_projection_fuzz():
    rng = np.random.default_rng(20)
    for _ in range(10):
        n1 = int(rng.integers(10, 60))
        h2 = float(rng.choice([1.0, 2.0, 3.0]))
        t1 = float(rng.integers(0, 4))
        g1 = Grid(n1, 1.0, t0=t1)
        n2 = int(rng.integers(5, 30))
        g2 = Grid(n2, h2, t0=float(rng.integers(0, 4)))
        s1 = "".join(rng.choice(list("usd"), n1))
        s2 = "".join(rng.choice(list("usd"), n2))
        try:
            ms = align_and_combine([stream(s1, g1), stream(s2, g2)])
        except NoOverlapError:
            continue
        # projecting channel i reproduces that channel's LOCF resample
        coarse = g2 if g2.h >= g1.h else g1
        for j, combo in enumerate(combos(ms)):
            t = (ms.source_grid.t0 if ms.source_grid else
                 max(g1.t0, g2.t0)) + coarse.h * j
            assert combo[0] == s1[g1.index_at_or_before(t)]
            assert combo[1] == s2[g2.index_at_or_before(t)]


def test_multi_tokens():
    ms = ms_from_samples(["ud", "ud", "ss", "ss", "ss"])
    assert ms.table == ("ss", "ud")
    toks = multi_tokens(ms)
    assert toks.table == ms.table
    assert (toks.codes.tolist(), toks.lengths.tolist(), toks.starts.tolist()) == \
        ([1, 0], [2, 3], [0, 2])


def test_vectorized_locf_matches_loop_oracle():
    rng = np.random.default_rng(44)
    jitter = 1.0 + 1e-10
    cases = [
        [Grid(500, 0.1, t0=0.05), Grid(170, 0.3, t0=0.0)],
        [Grid(333, 0.25, t0=1.0), Grid(120, 0.7, t0=0.35), Grid(800, 0.1, t0=0.9)],
        # ~1e-10 relative jitter puts coarse times just below fine sample
        # times, some within the 1e-9 index tolerance and most beyond it
        [Grid(900, 0.1), Grid(300, 0.3 / jitter)],
        [Grid(300, 0.3), Grid(900, 0.1 * jitter, t0=-1e-11)],
    ]
    for grids in cases:
        streams = [stream("".join(rng.choice(list("usd"), g.n)), g) for g in grids]
        ms = align_and_combine(streams)
        want = align_and_combine_loop(streams, grids)
        assert combos(ms) == want
        coarse = max(grids, key=lambda g: g.h)
        assert ms.source_grid.h == coarse.h and ms.source_grid.n == len(want)


# ---------------------------------------------------------------------------
# histograms
# ---------------------------------------------------------------------------

def test_histogram_basic():
    ms = ms_from_samples(["ud", "ud", "ss"])
    fd = histogram(ms)
    assert fd.counts == {"ud": 2, "ss": 1} and fd.total == 3


def test_histogram_empty_window():
    ms = ms_from_samples(["ud", "ud"])
    fd = histogram(ms, (1, 1))
    assert fd.counts == {} and fd.total == 0


def test_histogram_invalid_window():
    ms = ms_from_samples(["ud", "ud"])
    with pytest.raises(InvalidWindowError):
        histogram(ms, (0, 5))
    with pytest.raises(InvalidWindowError):
        histogram(ms, (-1, 1))


def test_histogram_matches_naive_tally():
    rng = np.random.default_rng(21)
    syms = ["".join(p) for p in
            zip(rng.choice(list("usd"), 50000), rng.choice(list("usd"), 50000))]
    ms = ms_from_samples(syms)
    fd = histogram(ms)
    assert fd.counts == histogram_loop(syms)
    assert fd.total == 50000


def test_window_additivity():
    rng = np.random.default_rng(22)
    syms = ["".join(p) for p in
            zip(rng.choice(list("ud"), 3000), rng.choice(list("ud"), 3000))]
    ms = ms_from_samples(syms)
    for _ in range(10):
        cut = int(rng.integers(0, 3001))
        left = histogram(ms, (0, cut))
        right = histogram(ms, (cut, 3000))
        merged = Counter(left.counts) + Counter(right.counts)
        assert dict(merged) == histogram(ms).counts
        assert left.total + right.total == 3000


# ---------------------------------------------------------------------------
# frequency dictionaries
# ---------------------------------------------------------------------------

def test_frequency_dictionary_order():
    fd = FrequencyDict.from_counts({"ud": 2, "ss": 1})
    assert frequency_dictionary(fd) == [("ud", 2), ("ss", 1)]


def test_frequency_dictionary_tie_break():
    fd = FrequencyDict.from_counts({"bb": 3, "aa": 3})
    assert frequency_dictionary(fd) == [("aa", 3), ("bb", 3)]


def test_frequency_dictionary_is_permutation():
    rng = np.random.default_rng(23)
    for _ in range(20):
        keys = rng.choice(["aa", "ab", "ba", "bb", "cc", "cd"],
                          size=int(rng.integers(1, 6)), replace=False)
        counts = {k: int(rng.integers(1, 50)) for k in keys}
        fd = FrequencyDict.from_counts(counts)
        out = frequency_dictionary(fd)
        assert dict(out) == counts
        cs = [c for _, c in out]
        assert cs == sorted(cs, reverse=True)


def test_exclude_symbols():
    fd = FrequencyDict.from_counts({"ud": 2, "ss": 5})
    out = exclude_symbols(fd, {"ss"})
    assert out.counts == {"ud": 2} and out.total == 2
    unchanged = exclude_symbols(fd, set())
    assert unchanged.counts == fd.counts and unchanged.total == 7
    empty = exclude_symbols(fd, {"ud", "ss"})
    assert empty.counts == {} and empty.total == 0


def test_frequency_dict_json_round_trip():
    fd = FrequencyDict.from_counts({"ud": 2, "ss": 5})
    back = FrequencyDict.from_json_obj(json.loads(fd.to_json()))
    assert back == fd
    assert '"total": 7' in fd.to_json()
    for bad in ([["ud", 2]], {"ud": -1}, {"ud": "2"}, {"ud": 1.5}, {"ud": True}):
        with pytest.raises(ValueError):
            FrequencyDict.from_json_obj(bad)
    # every count is exact in float64
    assert FrequencyDict.from_json_obj({"ud": 2 ** 53 - 1}).total == 2 ** 53 - 1
    with pytest.raises(ValueError, match="'ud' is 2\\^53 or more"):
        FrequencyDict.from_json_obj({"ss": 1, "ud": 2 ** 53})


# ---------------------------------------------------------------------------
# similarity and classification
# ---------------------------------------------------------------------------

def test_self_similarity():
    fd = FrequencyDict.from_counts({"uu": 3, "dd": 1})
    assert compare_histograms(fd, fd, "l1") == 0.0
    assert abs(compare_histograms(fd, fd, "cosine") - 1.0) <= 1e-12


def test_disjoint_keys():
    a = FrequencyDict.from_counts({"uu": 3})
    b = FrequencyDict.from_counts({"dd": 2})
    assert abs(compare_histograms(a, b, "l1") - 2.0) <= 1e-12
    assert compare_histograms(a, b, "cosine") == 0.0


def test_measure_matches_direct_summation():
    rng = np.random.default_rng(24)
    keys = ["aa", "ab", "ba", "bb"]
    for _ in range(50):
        a = {k: int(rng.integers(0, 20)) for k in keys}
        b = {k: int(rng.integers(0, 20)) for k in keys}
        fa = FrequencyDict.from_counts(a)
        fb = FrequencyDict.from_counts(b)
        if fa.total == 0 or fb.total == 0:
            continue
        l1 = sum(abs(a[k] / fa.total - b[k] / fb.total) for k in keys)
        assert abs(compare_histograms(fa, fb, "l1") - l1) <= 1e-12
        dot = sum(a[k] * b[k] for k in keys)
        cos = dot / (np.sqrt(sum(v * v for v in a.values()))
                     * np.sqrt(sum(v * v for v in b.values())))
        assert abs(compare_histograms(fa, fb, "cosine") - cos) <= 1e-12


def test_l1_symmetry_and_bounds():
    rng = np.random.default_rng(25)
    keys = ["xx", "xy", "yx", "yy"]
    for _ in range(30):
        fa = FrequencyDict.from_counts(
            {k: int(rng.integers(0, 9)) for k in keys})
        fb = FrequencyDict.from_counts(
            {k: int(rng.integers(0, 9)) for k in keys})
        l1 = compare_histograms(fa, fb, "l1")
        assert abs(l1 - compare_histograms(fb, fa, "l1")) <= 1e-15
        assert 0.0 <= l1 <= 2.0


def test_cosine_of_counts_whose_squares_pass_int64():
    # a sum of squares of 2^64 or more is a Python int numpy cannot take
    # the root of; math.sqrt rounds it to float first
    for big in (2 ** 32, 2 ** 40, 2 ** 53 - 1):
        a = FrequencyDict.from_counts({"uu": big, "dd": 3})
        b = FrequencyDict.from_counts({"uu": 1, "ss": 1})
        want = big / (float(big * big + 9) ** 0.5 * 2 ** 0.5)
        assert abs(compare_histograms(a, b, "cosine") - want) <= 1e-15
        assert compare_histograms(a, a, "cosine") == 1.0


def test_cosine_both_empty():
    e = FrequencyDict.from_counts({})
    with pytest.raises(BothEmptyError):
        compare_histograms(e, e, "cosine")
    assert compare_histograms(e, e, "l1") == 0.0


def test_classify_exact_match():
    w = FrequencyDict.from_counts({"uu": 4, "dd": 1})
    refs = {"mode1": w, "mode2": FrequencyDict.from_counts({"ss": 5})}
    label, score = classify_operation(w, refs, "l1")
    assert label == "mode1" and score == 0.0


def test_classify_hand_computed():
    window = FrequencyDict.from_counts({"dd": 5, "ud": 5})
    refs = {
        "mode1": FrequencyDict.from_counts({"uu": 10}),
        "mode2": FrequencyDict.from_counts({"dd": 4, "ud": 6}),
    }
    label, score = classify_operation(window, refs, "l1")
    assert label == "mode2"
    assert abs(score - 0.2) <= 1e-12  # |.5-.4| + |.5-.6|


def test_classify_tie_break():
    w = FrequencyDict.from_counts({"uu": 2})
    refs = {"b": w, "a": w}
    label, _ = classify_operation(w, refs, "l1")
    assert label == "a"


def test_classify_with_exclusion():
    # dominant stationary bins masked out before scoring
    window = FrequencyDict.from_counts({"ss": 90, "ud": 8, "dd": 2})
    refs = {
        "work": FrequencyDict.from_counts({"ss": 5, "ud": 4, "dd": 1}),
        "idle": FrequencyDict.from_counts({"ss": 100, "ud": 1, "dd": 9}),
    }
    refs = {label: exclude_symbols(fd, {"ss"}) for label, fd in refs.items()}
    label, _ = classify_operation(exclude_symbols(window, {"ss"}), refs, "l1")
    assert label == "work"


def test_classify_no_references():
    with pytest.raises(NoReferencesError):
        classify_operation(FrequencyDict.from_counts({"a": 1}), {}, "l1")


def test_classify_windows_equals_each_window():
    # bit for bit, also for reference totals past 2^53 (l1) and count
    # products past int64 (cosine), with keys excluded
    rng = np.random.default_rng(60)
    table = ("uu", "ud", "du", "ss", "sd")
    for trial in range(40):
        n = int(rng.integers(1, 400))
        codes = rng.integers(0, len(table), n).astype(np.uint8)
        ms = SymbolStream(codes, None, None, table)
        top = 2 ** 52 if trial % 2 else 9
        # "xx" is never excluded: no reference empties, so cosine is defined
        refs = {label: FrequencyDict.from_counts(
                    {k: int(rng.integers(1, top)) for k in (*rng.choice(table, 2), "xx")})
                for label in ("c", "a", "b")}
        exclude = set(rng.choice(table, size=int(rng.integers(0, 3))).tolist())
        kept = {label: exclude_symbols(fd, exclude) for label, fd in refs.items()}
        size = int(rng.integers(1, n + 1))
        for measure in ("l1", "cosine"):
            labels, scores = classify_windows(ms, size, refs, measure, exclude)
            starts = range(0, n, size)
            assert len(labels) == len(scores) == len(starts)
            for start, label, score in zip(starts, labels.tolist(), scores.tolist()):
                stop = min(start + size, n)
                window = exclude_symbols(histogram(ms, (start, stop)), exclude)
                assert (sorted(refs)[label], score) == \
                    classify_operation(window, kept, measure), (trial, measure, start)
    with pytest.raises(NoReferencesError):
        classify_windows(ms, 1, {})
