import json
from collections import Counter

import numpy as np
import pytest

from siglex import (
    FrequencyDict,
    Grid,
    align_and_combine,
    classify_operation,
    compare_histograms,
    exclude_symbols,
    frequency_dictionary,
    histogram,
    multi_tokens,
    usd_alphabet,
)
from siglex.errors import (
    BothEmptyError,
    EmptyInputError,
    InvalidWindowError,
    NoOverlapError,
    NoReferencesError,
)
from siglex.mcla import MultiStream
from siglex.scla import SymbolStream

from loop_oracles import align_and_combine_loop

ALPHA = usd_alphabet(0.5)


def stream(symbols, grid):
    return SymbolStream(symbols, ALPHA, grid)


def ms_from_samples(samples):
    return MultiStream(("a", "b"), list(samples), Grid(max(len(samples), 2), 1.0))


# ---------------------------------------------------------------------------
# alignment
# ---------------------------------------------------------------------------

def test_combine_equal_grids():
    g = Grid(2, 1.0)
    ms = align_and_combine([stream("ud", g), stream("du", g)])
    assert ms.samples == ["ud", "du"]
    assert ms.channel(0) == "ud" and ms.channel(1) == "du"


def test_combine_multirate_locf():
    ga = Grid(4, 1.0)   # t = 0,1,2,3
    gb = Grid(2, 2.0)   # t = 0,2
    ms = align_and_combine([stream("abcd", ga), stream("xy", gb)])
    assert ms.samples == ["ax", "cy"]
    assert ms.source_grid.h == 2.0


def test_combine_single_sample_overlap():
    ga = Grid(4, 1.0, t0=0.0)   # ends at 3
    gb = Grid(2, 3.0, t0=3.0)   # starts at 3
    ms = align_and_combine([stream("uuuu", ga), stream("dd", gb)])
    assert ms.samples == ["ud"]
    assert ms.source_grid is None


def test_combine_no_overlap():
    ga = Grid(3, 1.0, t0=0.0)
    gb = Grid(3, 1.0, t0=100.0)
    with pytest.raises(NoOverlapError):
        align_and_combine([stream("uuu", ga), stream("ddd", gb)])


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
        for j, combo in enumerate(ms.samples):
            t = (ms.source_grid.t0 if ms.source_grid else
                 max(g1.t0, g2.t0)) + coarse.h * j
            assert combo[0] == s1[g1.index_at_or_before(t)]
            assert combo[1] == s2[g2.index_at_or_before(t)]


def test_multi_tokens():
    ms = ms_from_samples(["ud", "ud", "ss", "ss", "ss"])
    toks = multi_tokens(ms)
    assert [(t.symbol, t.run_length, t.start_index) for t in toks] == \
        [("ud", 2, 0), ("ss", 3, 2)]


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
        assert ms.samples == want
        assert all(type(c) is str for c in ms.samples)
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
    assert fd.counts == dict(Counter(syms))
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


def test_frequency_dictionary_json():
    from siglex.mcla import frequency_dictionary_json
    fd = FrequencyDict.from_counts({"ud": 2, "ss": 5})
    assert frequency_dictionary_json(fd) == '[["ss", 5], ["ud", 2]]'


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
    label, _ = classify_operation(window, refs, "l1", excluded={"ss"})
    assert label == "work"


def test_classify_no_references():
    with pytest.raises(NoReferencesError):
        classify_operation(FrequencyDict.from_counts({"a": 1}), {}, "l1")
