"""The coded symbol layer held to the per-sample loop oracles.

Seeded fuzz over alphabets with the gap symbol, a catch-all and non-ASCII
single-character symbols, streams of length 0 and 1, and 2-4 combined
channels: tokens, combined samples, histograms, and classify labels and
scores must equal the oracles' bit for bit.  A last test bounds the symbol
layer's memory per row.
"""

import tracemalloc

import numpy as np

from siglex import (
    Alphabet,
    FrequencyDict,
    Grid,
    SymbolStream,
    align_and_combine,
    compress_runs,
    decompress,
    histogram,
    quantize,
    usd_alphabet,
    window_classifier,
)
from siglex.errors import NoOverlapError, SiglexError

from loop_oracles import (
    align_and_combine_loop,
    classify_loop,
    compress_runs_loop,
    histogram_loop,
    quantize_loop,
)

POOL = list("dhlmsuxyzéΩ")  # single characters, two of them non-ASCII


def random_alphabet(rng) -> Alphabet:
    k = int(rng.integers(1, 5))
    chars = [str(c) for c in rng.choice(POOL, size=k + 1, replace=False)]
    bounds = tuple(np.sort(rng.uniform(-1.0, 1.0, k - 1)))
    if rng.random() < 0.5:  # values beyond +-1.5 map to the catch-all
        # a third of the catch-alls repeat a symbol, which then has one code
        catch = chars[k] if rng.random() < 2 / 3 else chars[int(rng.integers(0, k))]
        return Alphabet(tuple(chars[:k]), bounds, "gap", (-1.5, 1.5), catch)
    return Alphabet(tuple(chars[:k]), bounds, "gap")


def random_values(rng, n: int) -> np.ndarray:
    """Runs of noisy levels in [-2, 2], with 5% dropouts (NaN)."""
    levels = np.repeat(rng.uniform(-2.0, 2.0, n // 4 + 1), rng.integers(1, 8))[:n]
    vals = np.resize(levels, n) + rng.normal(0.0, 0.02, n)
    vals[rng.random(n) < 0.05] = np.nan
    return vals


def tokens(runs) -> list:
    return [tuple(t) for t in runs]


def outcome(fn, *args):
    """fn's result, or the class of the library error it raised."""
    try:
        return fn(*args)
    except SiglexError as exc:
        return type(exc)


def bits(result):
    """Windows' (label, score) with the score's exact bits, or an error class."""
    if isinstance(result, type):
        return result
    return [(label, score.hex()) for label, score in result]


def classify_all(ms, size, references, measure, exclude) -> list:
    """(label, score) of every window of `window_classifier`, in one block."""
    labels, scores = window_classifier(ms, size, references, measure, exclude)(
        0, -(-len(ms) // size))
    return [(sorted(references)[i], s) for i, s in zip(labels.tolist(), scores.tolist())]


def test_channel_layer_matches_loop_oracles():
    rng = np.random.default_rng(60)
    seen = set()
    for n in [0, 1, 2] + rng.integers(3, 3000, 60).tolist():
        alpha = random_alphabet(rng)
        vals = random_values(rng, n)
        stream = quantize(vals, alpha)
        assert stream.symbols == quantize_loop(vals, alpha)
        runs = compress_runs(stream)
        assert tokens(runs) == compress_runs_loop(stream.symbols)
        assert decompress(runs).symbols == stream.symbols
        seen |= set(stream.symbols)
    assert {"_", "é", "Ω"} <= seen


def test_combination_layer_matches_loop_oracles():
    rng = np.random.default_rng(61)
    compared = 0
    for trial in range(60):
        grids = [Grid(int(rng.integers(2, 400)), float(rng.choice([0.1, 0.2, 0.3])),
                      t0=float(rng.integers(0, 5)) * 0.1)
                 for _ in range(int(rng.integers(2, 5)))]
        streams = [quantize(random_values(rng, g.n), random_alphabet(rng), g)
                   for g in grids]
        try:
            ms = align_and_combine(streams)
        except NoOverlapError:
            continue
        samples = align_and_combine_loop(streams, grids)
        assert [ms.table[c] for c in ms.codes.tolist()] == samples
        assert tokens(compress_runs(ms)) == compress_runs_loop(samples)
        assert histogram(ms).counts == histogram_loop(samples)

        combos = sorted(set(samples))
        refs = {label: FrequencyDict.from_counts(
                    {k: int(rng.integers(0, 9)) for k in rng.choice(combos, size=3)})
                for label in ("a", "b", "c")}
        excluded = set(rng.choice(combos, size=int(rng.integers(0, 3))).tolist())
        window = int(rng.integers(1, len(samples) + 1))
        for measure in ("l1", "cosine"):
            want = outcome(classify_loop, samples, window, refs, measure, excluded)
            assert bits(outcome(classify_all, ms, window, refs, measure, excluded)) == \
                bits(want), (trial, measure)
            compared += 1 if isinstance(want, type) else len(want)
    assert compared > 500


def test_short_multistreams_match_loop_oracles():
    for samples in ([], ["Ωé"], ["ud", "ud", "_x", "ud"]):
        ms = SymbolStream(samples)
        assert len(ms) == len(samples)
        assert histogram(ms).counts == histogram_loop(samples)
        assert tokens(compress_runs(ms)) == compress_runs_loop(samples)


def _symbol_layer(n: int):
    """The symbol layer of a 3-channel log: quantize and compress each
    channel, then align, histogram and combined tokens."""
    rng = np.random.default_rng(7)
    grid = Grid(n, 0.1)
    drive = np.repeat(rng.choice([-1.0, 0.0, 1.0], n // 200 + 1), 200)[:n]
    level = 0.5 + 0.3 * np.sin(np.arange(n) / 500.0) + rng.normal(0.0, 0.01, n)
    level[rng.random(n) < 1e-3] = np.nan
    temp = np.repeat(rng.normal(0.0, 0.3, n // 1000 + 1), 1000)[:n]
    channels = [(drive + rng.normal(0.0, 0.02, n), usd_alphabet(0.5)),
                (level, Alphabet(tuple("lmh"), (0.3, 0.7), "gap")),
                (temp + rng.normal(0.0, 0.002, n), usd_alphabet(0.1))]

    def run():
        streams = []
        for values, alpha in channels:
            stream = quantize(values, alpha, grid)
            compress_runs(stream)
            streams.append(stream)
        ms = align_and_combine(streams)
        histogram(ms)
        compress_runs(ms)
    return run


def test_symbol_layer_memory_per_row():
    _symbol_layer(1000)()  # first calls import lazily; keep that out of the count
    n = 200_000
    run = _symbol_layer(n)
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # string symbols and per-sample lists peaked at about 122 bytes per row
    assert peak / n <= 60, peak / n
