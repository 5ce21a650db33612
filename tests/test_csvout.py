"""The array CSV writer against Python's own formatting.

Floats must print as ``format(v, '.17g')`` does, byte for byte, and every
writer must match the per-row ``str.format`` writer in `loop_oracles`.
"""

import errno
import io
import json
import os
import tracemalloc
from decimal import Decimal
from functools import cache

import numpy as np
import pytest

from loop_oracles import write_csv_loop
from siglex import cli, csvout
from siglex.csvout import BLOCK_ROWS, Text, write_csv
from siglex.grid import Grid
from siglex.mcla import classify_operation, histogram
from siglex.pattern import Match, matches_to_csv
from siglex.scla import Runs, tokens_to_csv
from siglex.uncertainty import ConfidenceBand

SPECIALS = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
            2.2250738585072014e-308, -2.2250738585072009e-308,
            1.7976931348623157e308, -1.7976931348623157e308,
            1e-250, 9.9999999999999998e-249, 1e250, 1e16, 1e17, 99999999999999999.0,
            0.0001, 0.00001, 0.5, 1.5, 123.0, 0.1, 1 / 3]


def ties(rng, count: int) -> np.ndarray:
    """Doubles whose exact decimal has 18 significant digits ending in 5:
    odd * 2**(k - 17) lies exactly halfway between two 17-digit decimals."""
    out = []
    for k in rng.integers(-7, 16, count).tolist():   # odd < 2**53 needs k > -8
        lo = int(10.0**k * 2.0 ** (17 - k)) + 1
        hi = min(int(10.0 ** (k + 1) * 2.0 ** (17 - k)), 2**53)
        odd = int(rng.integers(lo, hi)) | 1
        out.append(odd * 2.0 ** (k - 17))
    return np.array(out)


def fuzz_values(rng) -> np.ndarray:
    """About 1.02e6 doubles of every shape the formatter must handle."""
    bits = rng.integers(0, 2**64, 330_000, dtype=np.uint64, endpoint=False).view(np.float64)
    subnormal = (rng.integers(1, 2**52, 10_000, dtype=np.uint64)
                 | (rng.integers(0, 2, 10_000, dtype=np.uint64) << np.uint64(63)))
    powers = np.array([10.0**e for e in range(-300, 300)])
    grids = np.concatenate([t0 + h * np.arange(50_000) for t0, h in
                            ((0.0, 0.01), (12.5, 0.1), (1e9, 1e-3))])
    return np.concatenate([
        bits, subnormal.view(np.float64), SPECIALS,
        powers, np.nextafter(powers, np.inf), np.nextafter(powers, 0), -powers,
        rng.integers(-10**6, 10**6, 100_000).astype(float),
        rng.integers(0, 2**62, 50_000).astype(float),
        np.round(rng.normal(size=100_000) * 10.0 ** rng.integers(-3, 5, 100_000),
                 int(rng.integers(1, 6))),
        grids,
        # k = floor(log10|v|) from -5 to 17, both signs
        rng.choice([-1.0, 1.0], 250_000) * 10.0 ** rng.uniform(-5, 18, 250_000),
        ties(rng, 20_000),
    ])


def test_float_text_equals_format_17g(tmp_path):
    x = fuzz_values(np.random.default_rng(20261018))
    assert len(x) >= 10**6
    path = tmp_path / "x.csv"
    write_csv(path, "", len(x), lambda a, b: (x[a:b],))
    got = path.read_text(encoding="utf-8")
    want = "".join(f"{v:.17g}\n" for v in x.tolist())
    if got != want:
        bad = [(v, g, w) for v, g, w in zip(x.tolist(), got.splitlines(),
                                             want.splitlines()) if g != w]
        pytest.fail(f"{len(bad)} values differ from format(v, '.17g'), e.g. {bad[:5]}")


def test_tie_cases_are_exact_ties():
    # the fuzz's ties are exact, so they reach the format() fallback
    for v in ties(np.random.default_rng(5), 200).tolist():
        digits = Decimal(v).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5, v


@cache
def value_pool() -> np.ndarray:
    return fuzz_values(np.random.default_rng(1))[::7]


def column_values(rng, n: int) -> np.ndarray:
    return rng.choice(value_pool() if n > 64 else np.array(SPECIALS), n)


@pytest.mark.parametrize("n", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS + 1])
def test_writers_match_the_loop_writer(tmp_path, n):
    rng = np.random.default_rng(n)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"

    def same():
        return got.read_bytes() == want.read_bytes()

    values = column_values(rng, n)
    grid = Grid(max(n, 2), 0.01, float(rng.uniform(-5, 5)))
    cli._write_series_csv(got, grid, values)
    write_csv_loop(want, "index,time,value\n", "{},{:.17g},{:.17g}\n", n,
                   lambda a, b: (range(a, b), grid.time_at(np.arange(a, b)),
                                 values[a:b]))
    assert same()

    c, hw = column_values(rng, n), np.abs(column_values(rng, n))
    with np.errstate(invalid="ignore"):                # inf - inf
        ConfidenceBand(c, hw, 0.95).to_csv(got)
        write_csv_loop(want, "index,center,lower,upper\n",
                       "{},{:.17g},{:.17g},{:.17g}\n", n,
                       lambda a, b: (range(a, b), c[a:b], c[a:b] - hw[a:b],
                                     c[a:b] + hw[a:b]))
    assert same()

    table = ("é", "Ω", "ud", "_")
    runs = Runs(rng.integers(0, len(table), n).astype(np.uint8),
                rng.integers(1, 10**6, n), np.cumsum(rng.integers(0, 10**9, n)), table)
    tokens_to_csv(runs, got)
    symbols = np.array(table)
    write_csv_loop(want, "symbol,runLength,startIndex\n", "{},{},{}\n", n,
                   lambda a, b: (symbols[runs.codes[a:b]], runs.lengths[a:b],
                                 runs.starts[a:b]))
    assert same()

    starts = np.cumsum(rng.integers(4000, 9000, n))
    matches = [Match(int(s), int(s + d)) for s, d in zip(starts, rng.integers(1, 4000, n))]
    matches_to_csv(matches, got)
    write_csv_loop(want, "start,end\n", "{},{}\n", n,
                   lambda a, b: ([m.start for m in matches[a:b]],
                                 [m.end for m in matches[a:b]]))
    assert same()


@pytest.mark.parametrize("rows,window", [(2, None), (3000, 7), (3000, BLOCK_ROWS)])
def test_classify_csv_matches_the_loop_writer(tmp_path, rows, window):
    # labels with spaces and non-ASCII text, windows in more than one block
    rng = np.random.default_rng(rows)
    log = tmp_path / "log.csv"
    log.write_text("t,a,b\n" + "".join(
        f"{k},{v:.17g},{w:.17g}\n" for k, (v, w) in
        enumerate(zip(np.cumsum(rng.normal(size=rows)), rng.normal(size=rows)))),
        encoding="utf-8")
    config = {"channels": [
        {"name": name, "csv_column": name, "alphabet": {"kind": "usd", "epsilon": 0.5}}
        for name in "ab"], "combine": ["a", "b"]}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    combos = [x + y for x in "usd" for y in "usd"]
    refs = {label: {k: int(rng.integers(0, 9)) for k in rng.choice(combos, 4)}
            for label in ("steady state", "ramp up", "Ωmega")}
    ref_path = tmp_path / "refs.json"
    ref_path.write_text(json.dumps(refs), encoding="utf-8")
    extra = [] if window is None else ["--window", str(window)]
    assert cli.main(["classify", "--config", str(cfg), "--input", str(log),
                     "--references", str(ref_path), "--out", str(tmp_path / "o"),
                     *extra]) == 0

    references = cli.load_references(str(ref_path))
    ms = cli._combined(cli.run_pipeline(cli.load_config(cfg),
                                        cli.ingest_csv(log, "t", ["a", "b"])))
    size = len(ms) if window is None else window
    starts = range(0, len(ms), size)

    def windows(a, b):
        stops = [min(s + size, len(ms)) for s in starts[a:b]]
        labels, scores = zip(*(classify_operation(histogram(ms, (s, e)), references)
                               for s, e in zip(starts[a:b], stops)))
        return starts[a:b], stops, labels, scores

    write_csv_loop(tmp_path / "want.csv", "start,end,label,score\n",
                   "{},{},{},{:.17g}\n", len(starts), windows)
    assert ((tmp_path / "o" / "classify.csv").read_bytes()
            == (tmp_path / "want.csv").read_bytes())


def test_text_and_int_columns(tmp_path):
    path = tmp_path / "x.csv"
    write_csv(path, "h\n", 3, lambda a, b: (
        np.array([0, 7, 10**12]), Text(np.array([2, 0, 1]), ("", "a b", "é"))))
    assert path.read_text(encoding="utf-8") == "h\n0,é\n7,\n1000000000000,a b\n"
    for column in (np.array([-1]), np.array([2**63], dtype=np.uint64),
                   Text(np.array([0]), ("a\0",))):
        with pytest.raises(ValueError):
            write_csv(path, "h\n", 1, lambda a, b: (column,))


def test_write_failure_names_the_path(tmp_path, monkeypatch):
    class Full(io.BytesIO):
        def write(self, data):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(csvout, "open", lambda path, mode: Full(), raising=False)
    target = tmp_path / "x.csv"
    with pytest.raises(OSError) as exc:
        write_csv(target, "a\n", 1, lambda a, b: (np.arange(a, b),))
    assert (exc.value.errno, exc.value.filename) == (errno.ENOSPC, str(target))


def test_series_writer_memory_is_one_block():
    # the peak is a few block-sized temporaries (about 320 bytes per block
    # row here), whatever the row count
    rng = np.random.default_rng(3)
    peaks = {}
    for n in (3 * BLOCK_ROWS, 10**6):
        values = rng.normal(size=n) * 10.0 ** rng.integers(-8, 9, n)
        grid = Grid(n, 0.01, 3.0)
        tracemalloc.start()
        try:
            cli._write_series_csv(os.devnull, grid, values)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[10**6] <= 1.1 * peaks[3 * BLOCK_ROWS], peaks
    assert peaks[10**6] <= 512 * BLOCK_ROWS, peaks
