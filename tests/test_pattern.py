import hashlib
import time
import tracemalloc

import numpy as np
import pytest

from siglex import (
    Match,
    Runs,
    compile_pattern,
    compress_runs,
    decompress,
    find_all,
    find_all_tokens,
    usd_alphabet,
)
from siglex.errors import (
    AlphabetMismatchError,
    MalformedTokensError,
    PatternSyntaxError,
    UnknownSymbolError,
)
import siglex.pattern as pattern_module
from siglex.pattern import MAX_NESTING, MAX_PROGRAM, _find_all_runs
from siglex.scla import SymbolStream

from frozen_tables import MATCHER_WORK
from naive_match import match_ends, naive_find_all, random_pattern, render

ALPHA = usd_alphabet(0.5)


def s(symbols):
    return SymbolStream(symbols, ALPHA)


def runs(*triples):
    """Runs over the usd table from (symbol, length, start) triples."""
    syms, lengths, starts = zip(*triples) if triples else ((), (), ())
    return Runs(np.array([ALPHA.table.index(c) for c in syms], dtype=np.uint8),
                np.array(lengths, dtype=np.intp), np.array(starts, dtype=np.intp),
                ALPHA.table)


# ---------------------------------------------------------------------------
# compilation
# ---------------------------------------------------------------------------

def test_compile_smoke():
    for text in ("u+d+", "u{3,}s*d", "(u|d)s?", "u{2}(s|d){1,3}", ".",
                 "(us)*d", "u|", "()u"):
        p = compile_pattern(text, ALPHA)
        assert p.source == text
        assert p.program[-1] == ("match",)


def test_compile_reversed_range():
    with pytest.raises(PatternSyntaxError) as exc:
        compile_pattern("u{5,2}", ALPHA)
    assert exc.value.position == 1


def test_compile_syntax_errors():
    for text in ("(u", "u)", "*u", "u{", "u{2,", "u{a}", "u}"):
        with pytest.raises(PatternSyntaxError):
            compile_pattern(text, ALPHA)
    with pytest.raises(PatternSyntaxError, match="expected '}'"):
        compile_pattern("u{2", ALPHA)


def test_nesting_limit():
    # nesting deeper than MAX_NESTING is refused before anything recurses
    assert MAX_NESTING == 100
    for text in ("(" * 400 + "u" + ")" * 400, "(" * 101 + "u" + ")" * 101,
                 "u" + "?" * 3000, "u" + "?" * 100, "(u|" * 60 + "d" + ")*" * 60):
        with pytest.raises(PatternSyntaxError, match="nested more than 100 levels deep"):
            compile_pattern(text, ALPHA)
    for text in ("(" * 100 + "u" + ")" * 100, "u" + "?" * 99):
        assert compile_pattern(text, ALPHA).n_states <= 200
    # width is not depth: a 3000-way alternation compiles and matches
    wide = compile_pattern("|".join(["u"] * 3000), ALPHA)
    assert find_all(wide, s("uudu")) == [Match(0, 1), Match(1, 2), Match(3, 4)]


def test_compile_unknown_symbol():
    with pytest.raises(UnknownSymbolError):
        compile_pattern("ux", ALPHA)


# ---------------------------------------------------------------------------
# matching semantics
# ---------------------------------------------------------------------------

def test_find_all_basic():
    p = compile_pattern("ud", ALPHA)
    assert find_all(p, s("uudud")) == [Match(1, 3), Match(3, 5)]


def test_rise_then_fall_episodes():
    p = compile_pattern("u+d+", ALPHA)
    assert find_all(p, s("uuddsuudsud")) == [Match(0, 4), Match(5, 8), Match(9, 11)]


def test_star_skips_zero_length():
    p = compile_pattern("s*", ALPHA)
    assert find_all(p, s("ssusds")) == [Match(0, 2), Match(3, 4), Match(5, 6)]


def test_no_match():
    p = compile_pattern("d", ALPHA)
    assert find_all(p, s("uuu")) == []
    assert find_all(p, s("")) == []


def test_leftmost_longest():
    # longest at the leftmost start wins over later, longer alternatives
    p = compile_pattern("u|uu|ud", ALPHA)
    assert find_all(p, s("uud")) == [Match(0, 2)]
    p2 = compile_pattern("du|u+", ALPHA)
    assert find_all(p2, s("uuudu")) == [Match(0, 3), Match(3, 5)]


def test_alphabet_mismatch():
    other = usd_alphabet(1.0)
    other2 = type(other)(("a", "b", "c"), other.boundaries)
    p = compile_pattern("ab", other2)
    with pytest.raises(AlphabetMismatchError):
        find_all(p, s("ud"))


def test_dot_matches_gap():
    a = usd_alphabet(0.5, nan_policy="gap")
    p = compile_pattern("u.d", a)
    assert find_all(p, SymbolStream("u_d", a)) == [Match(0, 3)]


# ---------------------------------------------------------------------------
# oracle equivalence
# ---------------------------------------------------------------------------

def test_fuzz_against_oracle_short():
    rng = np.random.default_rng(40)
    for trial in range(300):
        text, ast = random_pattern(rng, "usd", depth=3)
        n = int(rng.integers(0, 30))
        stream = "".join(rng.choice(list("usd"), n))
        try:
            p = compile_pattern(text, ALPHA)
        except PatternSyntaxError:
            pytest.fail(f"generator produced unparsable pattern {text!r}")
        got = [(m.start, m.end) for m in find_all(p, s(stream))]
        want = naive_find_all(ast, stream)
        assert got == want, (text, stream)


def test_fuzz_against_oracle_long_streams():
    rng = np.random.default_rng(41)
    for trial in range(60):
        text, ast = random_pattern(rng, "usd", depth=2)
        stream = "".join(rng.choice(list("usd"), p=[0.45, 0.45, 0.10],
                                    size=1000))
        p = compile_pattern(text, ALPHA)
        got = [(m.start, m.end) for m in find_all(p, s(stream))]
        want = naive_find_all(ast, stream)
        assert got == want, (text, stream[:80])


def test_fuzz_against_oracle_ten_thousand():
    rng = np.random.default_rng(42)
    for trial in range(10):
        text, ast = random_pattern(rng, "usd", depth=2)
        stream = "".join(rng.choice(list("usd"), 10000))
        p = compile_pattern(text, ALPHA)
        got = [(m.start, m.end) for m in find_all(p, s(stream))]
        want = naive_find_all(ast, stream)
        assert got == want, (text,)


def test_oracle_memory_on_a_long_star_heavy_stream():
    # 15 runs of 300: the oracle this one replaced kept every reachable end
    # per (node, position) and peaked at 883 MB here
    rng = np.random.default_rng(48)
    syms, prev = [], None
    while len(syms) < 15:
        c = "usd"[rng.integers(3)]
        if c != prev:
            syms.append(c)
            prev = c
    toks = runs(*[(c, 300, 300 * i) for i, c in enumerate(syms)])
    stream = decompress(toks).symbols
    text = "((.|.+|.{0,})(u.d|s)){1,3}"
    ast = ("rep", ("cat", [("alt", [("dot",), ("plus", ("dot",)), ("rep", ("dot",), 0, None)]),
                           ("alt", [("cat", [U, ("dot",), D]), S])]), 1, 3)
    assert render(ast) == text
    tracemalloc.start()
    try:
        want = naive_find_all(ast, stream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10_000_000, peak
    assert [(m.start, m.end) for m in find_all_tokens(compile_pattern(text, ALPHA), toks)] == want


def test_match_sanity_fuzz():
    rng = np.random.default_rng(43)
    for _ in range(100):
        text, ast = random_pattern(rng, "usd", depth=3)
        stream = "".join(rng.choice(list("usd"), int(rng.integers(0, 50))))
        p = compile_pattern(text, ALPHA)
        matches = find_all(p, s(stream))
        # non-overlapping, sorted, nonzero, and each matched substring is
        # accepted by the pattern per the oracle
        for a, b in zip(matches, matches[1:]):
            assert a.end <= b.start
        for m in matches:
            assert 0 <= m.start < m.end <= len(stream)
            assert m.end in match_ends(ast, stream, m.start, {})


# ---------------------------------------------------------------------------
# token-based matching
# ---------------------------------------------------------------------------

def test_tokens_counted_repetition():
    p = compile_pattern("u{3}", ALPHA)
    assert find_all_tokens(p, runs(("u", 5, 0))) == [Match(0, 3)]


def test_tokens_no_match():
    p = compile_pattern("d", ALPHA)
    assert find_all_tokens(p, runs(("u", 4, 0), ("s", 2, 4))) == []


def test_tokens_malformed():
    p = compile_pattern("d", ALPHA)
    with pytest.raises(MalformedTokensError):
        find_all_tokens(p, runs(("u", 2, 0), ("u", 1, 2)))


def test_tokens_equal_stream_fuzz():
    rng = np.random.default_rng(44)
    for _ in range(200):
        text, _ = random_pattern(rng, "usd", depth=3)
        p = compile_pattern(text, ALPHA)
        # run-heavy streams so token runs are exercised
        parts = []
        for _ in range(int(rng.integers(0, 12))):
            parts.append(str(rng.choice(list("usd"))) * int(rng.integers(1, 15)))
        stream = "".join(parts)
        toks = compress_runs(s(stream))
        got = find_all_tokens(p, toks)
        want = find_all(p, s(stream))
        assert got == want, (text, stream)


def test_tokens_equal_decompressed_long_runs():
    rng = np.random.default_rng(45)
    triples = []
    pos = 0
    prev = None
    for _ in range(30):
        sym = str(rng.choice(list("usd")))
        if sym == prev:
            continue
        ln = int(rng.integers(1, 5000))
        triples.append((sym, ln, pos))
        pos += ln
        prev = sym
    toks = runs(*triples)
    stream = decompress(toks).symbols
    for text in ("u+d", "u{100,}", "(u|s)+d", "u{3}s{2}", "d+"):
        p = compile_pattern(text, ALPHA)
        assert find_all_tokens(p, toks) == find_all(p, s(stream)), text


# ---------------------------------------------------------------------------
# step counts: linear in runs and matches, except periodic runs
# ---------------------------------------------------------------------------

def _linear_bound(p, tokens, matches) -> int:
    return (p.n_states + 2) * len(tokens) + len(matches)


def test_steps_linear_when_a_match_resolves_late():
    # s|s.*u over sdsd...: every s opens an `s.*u` candidate that no u ever
    # closes, so a scan that waits for it to resolve reads to the end
    p = compile_pattern("s|s.*u", ALPHA)
    for n in (1000, 4000):
        toks = compress_runs(s("sd" * (n // 2)))
        matches, steps = _find_all_runs(p, toks, n)
        assert matches == [Match(i, i + 1) for i in range(0, n, 2)]
        assert steps <= _linear_bound(p, toks, matches), (n, steps)


def test_steps_linear_over_long_runs():
    p = compile_pattern("u{3,}d+", ALPHA)
    n = 100000
    toks = runs(("u", n, 0), ("d", n, n), ("s", n, 2 * n))
    matches, steps = _find_all_runs(p, toks, 3 * n)
    assert matches == [Match(0, 2 * n)]
    assert steps <= _linear_bound(p, toks, matches), steps


U, D, S = ("char", "u"), ("char", "d"), ("char", "s")
# patterns whose state map inside a long run reaches a fixed point, or
# cycles with period 2 or 3 (then the run is stepped sample by sample)
PERIODIC_ASTS = [("plus", ("cat", [U, U])), ("rep", U, 2, 5),
                 ("cat", [("rep", ("dot",), 3, 3), D]),
                 ("cat", [("star", ("cat", [U, U, U])), S])]


def test_tokens_long_runs_periodic_fuzz():
    rng = np.random.default_rng(46)
    paths = set()
    for trial in range(12):
        triples, pos, prev = [], 0, None
        while len(triples) < 6:
            sym = str(rng.choice(list("usd")))
            if sym == prev:
                continue
            longest = 2000 if rng.random() < 0.3 else 12
            ln = int(rng.integers(1, longest + 1))
            triples.append((sym, ln, pos))
            pos, prev = pos + ln, sym
        toks = runs(*triples)
        stream = decompress(toks).symbols
        for ast in PERIODIC_ASTS:
            p = compile_pattern(render(ast), ALPHA)
            matches, steps = _find_all_runs(p, toks, pos)
            assert find_all_tokens(p, toks) == matches
            assert [(m.start, m.end) for m in matches] == naive_find_all(ast, stream), \
                (render(ast), toks)
            paths.add("stepped" if steps > _linear_bound(p, toks, matches) else "fixed")
    assert paths == {"stepped", "fixed"}


def test_steps_linear_for_a_bounded_counter():
    # a counter needs up to `hi` steps in a run before its set stops changing
    p = compile_pattern("d.{0,40}u", ALPHA)
    n = 100000
    toks = runs(("d", n, 0), ("u", n, n), ("s", n, 2 * n), ("d", n, 3 * n), ("s", n, 4 * n))
    matches, steps = _find_all_runs(p, toks, 5 * n)
    assert matches == [Match(n - 41, n + 1)]
    assert steps <= (p.n_states + 2 + 40) * len(toks) + len(matches), steps

    rng = np.random.default_rng(48)
    toks = _chatter(rng, 6000, [0.06, 0.47, 0.47], 3)  # u on about a tenth of runs
    stream = decompress(toks).symbols
    matches, steps = _find_all_runs(p, toks, len(stream))
    assert [(m.start, m.end) for m in matches] == \
        naive_find_all(("cat", [D, ("rep", ("dot",), 0, 40), U]), stream)
    assert len(matches) > 50
    assert steps <= (p.n_states + 2 + 40) * len(toks) + len(matches), steps


# the patterns of the benchmark workloads: stream_symbolic's two, then
# match_chatter's four
BENCHMARK_PATTERNS = ("u{3,}d+", "s+(u|d)", "d.{0,40}u", "(ud|du|sd|ds){2,}",
                      "u{2,}d+", "d+(s.*u)?")


def _matcher_work():
    """{(pattern, stream): (steps, matches, digest of the matches)} over
    seeded chatter, as in match_chatter (runs of 1-3 with u on a tenth of
    them, runs of 1-6 without u), and over long runs."""
    rng = np.random.default_rng(70)
    streams = {"chatter3": _chatter(rng, 6000, [0.1, 0.45, 0.45], 3),
               "chatter6": _chatter(rng, 6000, [0.0, 0.5, 0.5], 6),
               "long": _chatter(rng, 100000, [0.4, 0.2, 0.4], 2000)}
    work = {}
    for text in BENCHMARK_PATTERNS:
        p = compile_pattern(text, ALPHA)
        for name, toks in streams.items():
            matches, steps = _find_all_runs(p, toks, int(toks.lengths.sum()))
            ends = np.array([(m.start, m.end) for m in matches], dtype=np.int64)
            work[text, name] = (steps, len(matches),
                                hashlib.sha256(ends.tobytes()).hexdigest()[:16])
    return work


def test_matcher_work_is_pinned():
    # matches and step counts frozen from an earlier, independently written
    # version of the run skip: a skip that fires late, early or never moves
    # a step count even where the matches stay right
    assert _matcher_work() == MATCHER_WORK


# ---------------------------------------------------------------------------
# cached transitions
# ---------------------------------------------------------------------------

def _counting(monkeypatch, name):
    """Count the calls of a `siglex.pattern` function from now on."""
    calls = [0]
    inner = getattr(pattern_module, name)

    def wrapper(*args):
        calls[0] += 1
        return inner(*args)

    monkeypatch.setattr(pattern_module, name, wrapper)
    return calls


def test_closure_walks_do_not_grow_with_the_stream(monkeypatch):
    # each (shape, symbol, exit signature) is walked once per call, so ten
    # copies of a stream walk no more closures than one
    rng = np.random.default_rng(50)
    stream = decompress(_chatter(rng, 600, [0.3, 0.4, 0.3], 3)).symbols
    stream = stream.rstrip(stream[0])  # copies join without merging runs
    patterns = [compile_pattern(text, ALPHA) for text in
                ("(ud|du|sd|ds){2,}", "d.{0,40}u", ".{3,7}|d.{0,}", "d+(s.*u)?")]
    calls = _counting(monkeypatch, "_add_thread")
    for p in patterns:
        walks = []
        for copies in (1, 10):
            calls[0] = 0
            find_all(p, s(stream * copies))
            walks.append(calls[0])
        assert 0 < walks[0] == walks[1], (p.source, walks)


def test_exit_rank_is_part_of_the_cache_key():
    # two counters under one alternation: in the same shape, on the same
    # symbol, the exit of `.{3,7}` joins ahead of the consuming threads or
    # behind them depending on its end, and the next map differs
    text = ".{3,7}|d.{0,}"
    ast = ("alt", [("rep", ("dot",), 3, 7), ("cat", [D, ("rep", ("dot",), 0, None)])])
    assert render(ast) == text
    p = compile_pattern(text, ALPHA)
    rng = np.random.default_rng(51)
    for stream in ["ddsddduuddussddduusssudddssuuu"] + [
            decompress(_chatter(rng, 200, [0.4, 0.2, 0.4], 3)).symbols for _ in range(20)]:
        assert [(m.start, m.end) for m in find_all(p, s(stream))] == \
            naive_find_all(ast, stream), stream


def test_cache_over_its_budget_still_matches(monkeypatch):
    rng = np.random.default_rng(52)
    text = "(ud|du|sd|ds){2,}"
    ast = ("rep", ("alt", [("cat", [U, D]), ("cat", [D, U]), ("cat", [S, D]),
                           ("cat", [D, S])]), 2, None)
    assert render(ast) == text
    p = compile_pattern(text, ALPHA)
    stream = decompress(_chatter(rng, 3000, [0.3, 0.4, 0.3], 3)).symbols
    want = naive_find_all(ast, stream)
    walks = []
    for budget in (pattern_module._CACHE_BUDGET, 16):
        monkeypatch.setattr(pattern_module, "_CACHE_BUDGET", budget)
        calls = _counting(monkeypatch, "_replay")
        assert [(m.start, m.end) for m in find_all(p, s(stream))] == want
        walks.append(calls[0])
        monkeypatch.undo()
    assert walks[1] > 2 * walks[0], walks  # the small budget was overrun


# ---------------------------------------------------------------------------
# counted repetition of one-sample bodies: counting sets
# ---------------------------------------------------------------------------

def test_counters_compile_to_one_instruction():
    assert compile_pattern("u{1000}", ALPHA).n_states <= 6
    assert compile_pattern("d.{0,100000}u", ALPHA).n_states <= 6
    assert [op[0] for op in compile_pattern("(u|d){2,5}s", ALPHA).program] == \
        ["char", "count", "match"]


def test_program_size_limit():
    t0 = time.perf_counter()
    # bounds past 2^63 as well: unrolling stops at the limit
    huge = "99999999999999999999"
    for text in ("(ud){100000000}", "((ud){100000}){100000}", "(ud){5000}",
                 f"(ud){{{huge}}}", f"(ud){{0,{huge}}}", f"(ud){{2,{huge}}}"):
        with pytest.raises(PatternSyntaxError, match="instructions"):
            compile_pattern(text, ALPHA)
    # a body that compiles to nothing repeats to nothing
    for text in ("(){100000000}u", f"(){{{huge}}}u"):
        assert [op[0] for op in compile_pattern(text, ALPHA).program] == ["char", "match"]
    assert time.perf_counter() - t0 < 1.0
    assert compile_pattern("(ud){4999}s", ALPHA).n_states == MAX_PROGRAM


def _chatter(rng, n, probs, longest):
    """Runs over `usd` of lengths 1..longest, neighbours differing, n samples."""
    triples, pos, prev = [], 0, None
    while pos < n:
        sym = str(rng.choice(list("usd"), p=probs))
        if sym == prev:
            continue
        ln = min(int(rng.integers(1, longest + 1)), n - pos)
        triples.append((sym, ln, pos))
        pos, prev = pos + ln, sym
    return runs(*triples)


ONE_SAMPLE = [(".", ("dot",)), ("u", U), ("d", D), ("s", S), ("(u|d)", ("alt", [U, D]))]


def _counted(rng, forms):
    """A counted repetition of a one-sample body as (text, ast), bounds up to 60."""
    text, body = ONE_SAMPLE[int(rng.integers(len(ONE_SAMPLE)))]
    m = int(rng.integers(0, 61)) if rng.random() < 0.3 else int(rng.integers(0, 4))
    n = m + int(rng.integers(0, 61 - m))
    form = ["{m}", "{m,}", "{m,n}", "{m,m}"][int(rng.integers(4))]
    forms.add(form.replace("m", str(m)) if m == 0 else form)
    hi = {"{m}": m, "{m,}": None, "{m,n}": n, "{m,m}": m}[form]
    bounds = form.replace("m", str(m)).replace("n", str(n))
    return text + bounds, ("rep", body, m, hi)


def _counter_pattern(rng, forms):
    """A counter alone, between literals, inside `*`, `+` or `|`, or inside a
    counted multi-sample body."""
    (c1, a1), (c2, a2) = _counted(rng, forms), _counted(rng, forms)
    lit, la = [("u", U), ("d", D), ("s", S)][int(rng.integers(3))]
    k = int(rng.integers(0, 3))
    return [(c1, a1),
            (f"{lit}{c1}{c2}", ("cat", [la, a1, a2])),
            (f"({c1}{lit})*", ("star", ("cat", [a1, la]))),
            (f"({lit}{c1})+", ("plus", ("cat", [la, a1]))),
            (f"{c1}|{lit}{c2}", ("alt", [a1, ("cat", [la, a2])])),
            (f"({lit}{c1}){{{k},{k + 2}}}", ("rep", ("cat", [la, a1]), k, k + 2))][
        int(rng.integers(6))]


def test_counter_fuzz_against_oracle():
    rng = np.random.default_rng(49)
    forms: set = set()
    for trial in range(60):
        text, ast = _counter_pattern(rng, forms)
        p = compile_pattern(text, ALPHA)
        n = int(rng.integers(0, 20001)) if trial % 10 == 0 else int(rng.integers(0, 3000))
        chatter = _chatter(rng, n, [0.4, 0.2, 0.4], 3)
        long_runs = _chatter(rng, n, [0.4, 0.2, 0.4], 2000)
        for toks in (chatter, long_runs):
            stream = decompress(toks).symbols
            want = naive_find_all(ast, stream)
            assert [(m.start, m.end) for m in find_all(p, s(stream))] == want, (text, n)
            assert [(m.start, m.end) for m in find_all_tokens(p, toks)] == want, (text, n)
    assert {"{0}", "{0,0}", "{m}", "{m,}", "{m,n}"} <= forms, forms


# ---------------------------------------------------------------------------
# worst-case runtime
# ---------------------------------------------------------------------------

def test_pathological_pattern_is_fast():
    p = compile_pattern("(u+)+d", ALPHA)
    stream = "u" * 100000
    t0 = time.perf_counter()
    assert find_all(p, s(stream)) == []
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_large_counts_over_a_long_run_are_fast():
    # every sample of the run brings a newcomer, so the set grows by one per
    # step; comparing whole sets each step would be quadratic in the run
    n = 100000
    toks = runs(("u", n, 0), ("d", 10, n))
    for text in ("u{1000000}", ".{0,1000000}d"):
        p = compile_pattern(text, ALPHA)
        t0 = time.perf_counter()
        assert find_all_tokens(p, toks) == ([] if text[0] == "u" else [Match(0, n + 10)])
        assert time.perf_counter() - t0 < 1.0, text


def test_long_accepting_run_is_fast():
    p = compile_pattern("u+", ALPHA)
    stream = "u" * 100000
    t0 = time.perf_counter()
    assert find_all(p, s(stream)) == [Match(0, 100000)]
    assert time.perf_counter() - t0 < 1.0
