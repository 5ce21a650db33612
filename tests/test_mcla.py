import json
from collections import Counter

import numpy as np
import pytest

from siglex import (
    Alphabet,
    FrequencyDict,
    Grid,
    align_and_combine,
    exclude_symbols,
    frequency_dictionary,
    histogram,
    multi_tokens,
    quantize,
    usd_alphabet,
    window_classifier,
)
from siglex.errors import (
    BothEmptyError,
    EmptyInputError,
    InvalidWindowError,
    NoOverlapError,
    NoReferencesError,
)
from siglex.scla import SymbolStream

from loop_oracles import align_and_combine_loop, classify_loop, histogram_loop

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

def classify(samples, references, measure="l1", exclude=(), size=None):
    """(label, score) of each window of `window_classifier`, held bit for bit
    to the loop oracle; one window of all samples by default."""
    size = size or len(samples)
    labels, scores = window_classifier(SymbolStream(list(samples)), size, references,
                                       measure, exclude)(0, -(-len(samples) // size))
    want = classify_loop(samples, size, references, measure, exclude)
    assert [label for label, _ in want] == [sorted(references)[i] for i in labels.tolist()]
    assert np.array([score for _, score in want]).tobytes() == scores.tobytes()
    return want


def similarity(window: dict, reference: dict, measure: str) -> float:
    """Score of a window holding the `window` counts against one reference."""
    samples = [k for k, v in sorted(window.items()) for _ in range(v)]
    [(_, score)] = classify(samples, {"r": FrequencyDict.from_counts(reference)}, measure)
    return score


def test_self_similarity():
    counts = {"uu": 3, "dd": 1}
    assert similarity(counts, counts, "l1") == 0.0
    assert abs(similarity(counts, counts, "cosine") - 1.0) <= 1e-12


def test_disjoint_keys():
    assert abs(similarity({"uu": 3}, {"dd": 2}, "l1") - 2.0) <= 1e-12
    assert similarity({"uu": 3}, {"dd": 2}, "cosine") == 0.0


def test_measure_matches_direct_summation():
    rng = np.random.default_rng(24)
    keys = ["aa", "ab", "ba", "bb"]
    for _ in range(50):
        a = {k: int(rng.integers(0, 20)) for k in keys}
        b = {k: int(rng.integers(0, 20)) for k in keys}
        ta, tb = sum(a.values()), sum(b.values())
        if ta == 0 or tb == 0:
            continue
        l1 = sum(abs(a[k] / ta - b[k] / tb) for k in keys)
        assert abs(similarity(a, b, "l1") - l1) <= 1e-12
        dot = sum(a[k] * b[k] for k in keys)
        cos = dot / (np.sqrt(sum(v * v for v in a.values()))
                     * np.sqrt(sum(v * v for v in b.values())))
        assert abs(similarity(a, b, "cosine") - cos) <= 1e-12


def test_l1_symmetry_and_bounds():
    rng = np.random.default_rng(25)
    keys = ["xx", "xy", "yx", "yy"]
    for _ in range(30):
        a = {k: int(rng.integers(0, 9)) for k in keys}
        b = {k: int(rng.integers(0, 9)) for k in keys}
        if not any(a.values()) or not any(b.values()):
            continue
        l1 = similarity(a, b, "l1")
        assert abs(l1 - similarity(b, a, "l1")) <= 1e-15
        assert 0.0 <= l1 <= 2.0


def test_cosine_of_reference_counts_whose_squares_pass_int64():
    # a sum of squares of 2^64 or more is a Python int numpy cannot take
    # the root of; math.sqrt rounds it to float first
    for big in (2 ** 32, 2 ** 40, 2 ** 53 - 1):
        want = big / (float(big * big + 9) ** 0.5 * 2 ** 0.5)
        got = similarity({"uu": 1, "ss": 1}, {"uu": big, "dd": 3}, "cosine")
        assert abs(got - want) <= 1e-15
    for big in (2 ** 32, 2 ** 52):
        assert similarity({"uu": 2}, {"uu": big}, "cosine") == 1.0


def test_cosine_both_empty():
    # the window's only key is excluded, and the reference is empty
    empty = {"e": FrequencyDict.from_counts({})}
    with pytest.raises(BothEmptyError):
        window_classifier(SymbolStream(["uu"]), 1, empty, "cosine", {"uu"})
    with pytest.raises(BothEmptyError):
        classify_loop(["uu"], 1, empty, "cosine", {"uu"})
    assert classify(["uu"], empty, "l1", {"uu"}) == [("e", 0.0)]


def test_classify_exact_match():
    refs = {"mode1": FrequencyDict.from_counts({"uu": 4, "dd": 1}),
            "mode2": FrequencyDict.from_counts({"ss": 5})}
    assert classify(["uu"] * 4 + ["dd"], refs, "l1") == [("mode1", 0.0)]


def test_classify_hand_computed():
    refs = {
        "mode1": FrequencyDict.from_counts({"uu": 10}),
        "mode2": FrequencyDict.from_counts({"dd": 4, "ud": 6}),
    }
    [(label, score)] = classify(["dd", "ud"] * 5, refs, "l1")
    assert label == "mode2"
    assert abs(score - 0.2) <= 1e-12  # |.5-.4| + |.5-.6|


def test_classify_tie_break():
    w = FrequencyDict.from_counts({"uu": 2})
    for measure in ("l1", "cosine"):
        assert classify(["uu", "uu"], {"b": w, "a": w}, measure)[0][0] == "a"


def test_classify_with_exclusion():
    # dominant stationary bins masked out before scoring
    window = ["ss"] * 90 + ["ud"] * 8 + ["dd"] * 2
    refs = {
        "work": FrequencyDict.from_counts({"ss": 5, "ud": 4, "dd": 1}),
        "idle": FrequencyDict.from_counts({"ss": 100, "ud": 1, "dd": 9}),
    }
    assert classify(window, refs, "l1", {"ss"})[0][0] == "work"
    assert classify(window, refs, "l1")[0][0] == "idle"


def test_classify_errors_are_raised_before_any_block():
    ms = SymbolStream(["ud", "ss"])
    with pytest.raises(NoReferencesError):
        window_classifier(ms, 1, {})
    with pytest.raises(ValueError, match="unknown measure 'foo'"):
        window_classifier(ms, 1, {"a": FrequencyDict.from_counts({"ud": 1})}, "foo")


def test_window_classifier_equals_loop_oracle():
    # bit for bit, in blocks, also for reference totals past 2^53 (l1) and
    # count products past int64 (cosine), with keys excluded
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
        size = int(rng.integers(1, n + 1))
        windows = -(-n // size)
        cuts = [0, *sorted(rng.integers(0, windows + 1, 2).tolist()), windows]
        for measure in ("l1", "cosine"):
            classify_block = window_classifier(ms, size, refs, measure, exclude)
            labels, scores = (np.concatenate(part) for part in zip(
                *(classify_block(a, b) for a, b in zip(cuts, cuts[1:]))))
            want = classify_loop([table[c] for c in codes.tolist()], size, refs,
                                 measure, exclude)
            assert [sorted(refs)[i] for i in labels.tolist()] == \
                [label for label, _ in want], (trial, measure)
            assert scores.tobytes() == np.array([s for _, s in want]).tobytes(), \
                (trial, measure)
