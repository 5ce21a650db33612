"""CSV ingest: numpy's one pass and the chunked reader behind it, against
the csv.reader/float() loop.

`ingest_csv_loop` in loop_oracles.py is the reader this one replaced.  On
every input of the fuzz both must give bitwise-equal columns and grids, or
errors of the same class at the same line with the same message.
"""

import random
import tracemalloc

import numpy as np
import pytest

from loop_oracles import ingest_csv_loop
from siglex import cli
from siglex.cli import _write_series_csv, ingest_csv
from siglex.errors import MalformedCsvError
from siglex.grid import Grid

# numpy warns on a chunk with no data; the reader must not let it reach stderr
pytestmark = pytest.mark.filterwarnings("error")


def write(path, text, newline=""):
    with open(path, "w", encoding="utf-8", newline=newline) as fh:
        fh.write(text)
    return path


def outcome(reader, path, columns=("a", "b")):
    """What a reader makes of a file: its grid and column bytes, or its error."""
    try:
        out = reader(path, "t", list(columns))
    except MalformedCsvError as exc:
        return ("MalformedCsvError", exc.line, exc.message)
    except Exception as exc:  # the other classes say where in the message
        return (type(exc).__name__, str(exc))
    grid = next(iter(out.values()))[0]
    return ("ok", (grid.n, grid.h, grid.t0),
            {c: v.tobytes() for c, (_, v) in out.items()})


GOOD_CELLS = ["nan", "NaN", "inf", "-inf", "+inf", "Infinity", "-nan", "1.5e-3",
              "2E+10", ".5", "5.", "-0", "+7", " 1.25 ", "\t3\t", "", "  ", '"1.5"',
              '""', '" "', '"-2e3" ', "\xa04\u2003", "\u3000", '"1"2', '""5']
BAD_CELLS = ["abc", "1.2.3", "--", "1e", "0x10", '"1,5"', ' "1"', "nan(1)", '1"2"',
             '"1"" ']


def random_cell(rng) -> str:
    roll = rng.random()
    if roll < 0.55:
        return repr(rng.gauss(0.0, 1.0) * 10.0 ** rng.randint(-300, 300))
    if roll < 0.995:
        return rng.choice(GOOD_CELLS)
    return rng.choice(BAD_CELLS)


def random_log(rng) -> str:
    names = ["t", "a", "b"] + (["note"] if rng.random() < 0.3 else [])
    if rng.random() < 0.3:
        rng.shuffle(names)
    header = ",".join(f" {c} " if rng.random() < 0.1 else c for c in names)
    h = rng.choice([0.1, 0.5, 1.0, 1e-3, 3.0])
    t0 = rng.choice([0.0, -5.0, 1e6, 0.3])
    lines = [header]
    n = rng.randint(0, 40)
    for k in range(n):
        roll = rng.random()
        if roll < 0.04:
            lines.append(rng.choice(["", "   ", "\t", "\xa0", '""', '" "', '"\t" ']))
        if roll > 0.995:
            lines.append(rng.choice(["# comment", "1,2", "1,2,3,4,5", "x"]))
        t = t0 + h * k
        tcell = repr(t)
        troll = rng.random()
        if troll < 0.005:
            tcell = rng.choice(["nan", "inf", "", "  ", "abc", '"x"'])
        elif troll < 0.03:
            tcell = rng.choice([f" {t!r} ", f'"{t!r}"', f"{t:.17e}"])
        elif troll < 0.035:
            tcell = repr(t - 2 * h)
        elif troll < 0.04:
            tcell = repr(t + 1e-4 * h)
        by_name = {"t": tcell, "a": random_cell(rng), "b": random_cell(rng),
                   "note": rng.choice(["ok", '"a, b"', "", '"say ""hi"""', "x y"])}
        cells = [by_name[c] for c in names]
        if rng.random() < 0.004:
            cells = cells[:rng.randint(1, len(cells) - 1)]
        elif rng.random() < 0.004:
            cells.append("9")
        lines.append(",".join(cells))
    if rng.random() < 0.2:
        lines.append(rng.choice(["", "  "]))
    eol = rng.choice(["\n", "\r\n", "\r"])
    text = eol.join(lines)
    return text + eol if rng.random() < 0.8 else text


def unclosed_quote(text: str, line_no: int) -> bool:
    return text.splitlines()[line_no - 1].count('"') % 2 == 1


@pytest.mark.parametrize("chunk_lines", [3, cli._CHUNK_LINES])
def test_ingest_matches_csv_loop_fuzz(tmp_path, monkeypatch, chunk_lines):
    monkeypatch.setattr(cli, "_CHUNK_LINES", chunk_lines)
    rng = random.Random(8061)
    kinds = set()
    for case in range(400):
        text = random_log(rng)
        path = write(tmp_path / "log.csv", text)
        want = outcome(ingest_csv_loop, path)
        got = outcome(ingest_csv, path)
        if want[0] == "MalformedCsvError" and unclosed_quote(text, want[1]):
            # the old loop read the record on past the line end, so its field
            # count there depends on later lines; only the line is pinned
            got, want = got[:2], want[:2]
        assert got == want, (case, text)
        kinds.add(want[0])
    assert kinds == {"ok", "MalformedCsvError", "NonMonotoneTimeError",
                     "NonUniformGridError"}


def test_ingest_errors_at_chunk_boundaries(tmp_path, monkeypatch):
    """Blank and bad lines on either side of a chunk boundary."""
    monkeypatch.setattr(cli, "_CHUNK_LINES", 64)
    rng = random.Random(91)
    n = 3 * 64 + 5
    rows = [f"{0.25 * k!r},{rng.random()!r},{rng.random()!r}" for k in range(n)]
    for j in (0, 1, 61, 62, 63, 126, 127, n - 1):  # body line j + 2
        t = repr(0.25 * j)
        for row in (f"{t},,", "", "  ", "1,2", "x,1,2", "inf,1,2",
                    f"{0.25 * (j - 2)!r},1,2", f"{t},1,2,3"):
            text = "t,a,b\n" + "\n".join(rows[:j] + [row] + rows[j + 1:]) + "\n"
            path = write(tmp_path / "log.csv", text)
            assert outcome(ingest_csv, path) == outcome(ingest_csv_loop, path), (j, row)


@pytest.mark.parametrize("chunk_lines", [2, 3, 8192])
def test_ingest_quoted_field_spanning_lines_fails_at_every_chunk_size(
        tmp_path, monkeypatch, chunk_lines):
    """The field opens on line 3 and closes on line 4: at chunk size 2 the
    chunk ends after line 3, at 3 both lines share a chunk."""
    monkeypatch.setattr(cli, "_CHUNK_LINES", chunk_lines)
    path = write(tmp_path / "log.csv", 't,a,b\n0,0,0\n1,2,"multi\nline"\n2,4,4\n3,6,6\n')
    got = outcome(ingest_csv, path, ["a"])
    assert got == ("MalformedCsvError", 3, "quoted field does not end on its line")
    assert got == outcome(ingest_csv_loop, path, ["a"])


@pytest.mark.parametrize("row, line", [
    ("# 1,2", 3),      # numpy would skip a comment line; it is a short row here
    ("1,2,3", 3),      # a long row: usecols alone would not check the width
    ("1", 3),
    ("#,1", 3),
])
def test_ingest_width_traps(tmp_path, row, line):
    path = write(tmp_path / "x.csv", f"t,v\n0,1\n{row}\n2,3\n")
    with pytest.raises(MalformedCsvError) as exc:
        ingest_csv(path, "t", ["v"])
    assert exc.value.line == line
    assert outcome(ingest_csv, path, ["v"]) == outcome(ingest_csv_loop, path, ["v"])


def test_ingest_skips_blank_lines_and_reads_empty_cells_as_nan(tmp_path):
    path = write(tmp_path / "x.csv", "t,v\n\n0,1\n  \n\t\n1,\n\n2,3\n \n")
    grid, vals = ingest_csv(path, "t", ["v"])["v"]
    assert (grid.n, grid.h, grid.t0) == (3, 1.0, 0.0)
    assert vals[0] == 1.0 and np.isnan(vals[1]) and vals[2] == 3.0
    path = write(tmp_path / "y.csv", "t,a,b,c\n0,,,\n1,1,,\n2,,,3\n")
    out = ingest_csv(path, "t", ["a", "b", "c"])
    assert out["a"][1].tobytes() == np.array([np.nan, 1.0, np.nan]).tobytes()
    assert np.isnan(out["b"][1]).all()
    assert out["c"][1].tobytes() == np.array([np.nan, np.nan, 3.0]).tobytes()


@pytest.mark.parametrize("cell, loop_accepted", [
    ("1_0", True), ("\uff11", True), ("\u0661", True), ("1\x00", False)])
def test_ingest_rejects_what_only_float_accepts(tmp_path, cell, loop_accepted):
    """Behaviour change: float() takes digit separators and non-ASCII digits,
    numpy's tokenizer does not."""
    path = write(tmp_path / "x.csv", f"t,v\n0,1\n1,{cell}\n2,3\n")
    with pytest.raises(MalformedCsvError) as exc:
        ingest_csv(path, "t", ["v"])
    assert exc.value.line == 3 and "bad value" in exc.value.message
    assert (outcome(ingest_csv_loop, path, ["v"])[0] == "ok") == loop_accepted


def test_ingest_error_messages(tmp_path):
    cases = {"t,v\n0,1\n1\n": "line 3: expected 2 fields, got 1",
             "t,v\n0,1\nx,2\n": "line 3: bad timestamp 'x'",
             "t,v\n0,1\ninf,2\n": "line 3: non-finite timestamp inf",
             "t,v\n0,1\n,2\n": "line 3: bad timestamp ''",
             "t,v\n0,1\n  ,2\n": "line 3: bad timestamp '  '",
             't,v\n0,1\n" ",2\n': "line 3: bad timestamp ' '",
             "t,v\n0,1\n1, abc \n": "line 3: bad value 'abc' in column 'v'",
             "t,v\n0,1\n\n1,2\n0.5,3\n": "timestamps not strictly increasing at line 5",
             "": "line 1: empty file",
             "t,v\n0,1\n": "line 2: need at least 2 data rows, got 1",
             "x,v\n0,1\n1,2\n": "line 1: missing time column 't'",
             "t,v\n-1e308,1\n0,2\n1e308,3\n":
                 "time span -1e+308 to 1e+308 overflows: the step is not finite",
             "t,v\n-1e308,1\n1e308,2\n":
                 "time span -1e+308 to 1e+308 overflows: the step is not finite"}
    for text, message in cases.items():
        path = write(tmp_path / "x.csv", text)
        with pytest.raises(Exception) as exc:
            ingest_csv(path, "t", ["v"])
        assert str(exc.value) == message


def test_ingest_accepts_utf8_bom(tmp_path):
    path = write(tmp_path / "x.csv", "\ufefft,v\r\n0,1\r\n1,2\r\n")
    grid, vals = ingest_csv(path, "t", ["v"])["v"]
    assert (grid.n, grid.t0) == (2, 0.0) and np.array_equal(vals, [1.0, 2.0])


def test_ingest_reports_undecodable_line(tmp_path):
    path = tmp_path / "x.csv"
    path.write_bytes(b"t,v\n0,1\n1,\xff\n")
    with pytest.raises(MalformedCsvError) as exc:
        ingest_csv(path, "t", ["v"])
    assert exc.value.line == 3


# ---------------------------------------------------------------------------
# one tokenizer pass over a plain log; the chunked reader repairs the rest
# ---------------------------------------------------------------------------

PLAIN = "t,a,b\n" + "".join(f"{0.5 * k!r},{k % 7 - 3.25!r},{1e-3 * k!r}\n"
                             for k in range(600))


@pytest.mark.parametrize("bom, eol, final", [
    ("", "\n", True), ("\ufeff", "\n", True), ("", "\r\n", True),
    ("", "\n", False), ("\ufeff", "\r\n", False)])
def test_ingest_plain_log_is_one_tokenizer_pass(tmp_path, monkeypatch, bom, eol, final):
    want = outcome(ingest_csv_loop, write(tmp_path / "loop.csv", PLAIN))
    text = bom + PLAIN.replace("\n", eol)
    path = write(tmp_path / "log.csv", text if final else text[:-len(eol)])

    def refuse(*args):
        raise AssertionError("a plain log reached the chunked reader")
    monkeypatch.setattr(cli, "_read_body", refuse)
    assert want[0] == "ok" and outcome(ingest_csv, path) == want


def replace_line(text: str, line_no: int, new: str) -> str:
    lines = text.split("\n")
    lines[line_no - 1] = new
    return "\n".join(lines)


FALLBACKS = {  # name: (log from PLAIN, whether the chunked reader runs)
    "blank line": (lambda s: replace_line(s, 10, "\n" + s.split("\n")[9]), True),
    "whitespace line": (lambda s: replace_line(s, 10, " \t\n" + s.split("\n")[9]), True),
    "trailing blank line": (lambda s: s + "\n", True),
    "trailing spaces": (lambda s: s + " \n", True),
    "quote spans lines": (lambda s: replace_line(s, 10, '4,"1\n2",3'), True),
    "quote open at the end": (lambda s: replace_line(s, 601, '299.5,1,"2'), True),
    "quote open, no newline": (lambda s: replace_line(s, 601, '299.5,1,"2')[:-1], True),
    "CR inside a quote": (lambda s: replace_line(s, 10, '4,"1\r",3'), True),
    "blank value cell": (lambda s: replace_line(s, 10, "4,,3"), True),
    "CR endings": (lambda s: s.replace("\n", "\r"), True),
    "mixed CR endings": (lambda s: s.replace("\n", "\r", 7), True),
    "mixed CRLF endings": (lambda s: s.replace("\n", "\r\n", 7), False),
    # the header read decodes the first 8 KiB
    "not UTF-8, early": (lambda s: replace_line(s, 10, "4,\udcff,3"), False),
    "not UTF-8": (lambda s: replace_line(s, 590, "4,\udcff,3"), True),
    "header only": (lambda s: "t,a,b\n", False),
    "header, no newline": (lambda s: "t,a,b", False),
    "one row": (lambda s: "t,a,b\n0,1,2\n", False),
    "infinite time": (lambda s: replace_line(s, 10, "inf,1,2"), True),
    "NaN time": (lambda s: replace_line(s, 10, "nan,1,2"), True),
    "last time repeats": (lambda s: replace_line(s, 601, "0,1,2"), True),
}


@pytest.mark.parametrize("make, fallback", FALLBACKS.values(), ids=FALLBACKS)
def test_ingest_fallback_gives_the_loop_outcome(tmp_path, monkeypatch, make, fallback):
    text = make(PLAIN)
    path = tmp_path / "log.csv"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    want = outcome(ingest_csv_loop, path)
    if want[0] == "UnicodeDecodeError":  # the loop does not say where
        want = ("MalformedCsvError", text[:text.index("\udcff")].count("\n") + 1,
                "not UTF-8 text")
    calls, read_body = [], cli._read_body
    monkeypatch.setattr(cli, "_read_body",
                        lambda *args: calls.append(1) or read_body(*args))
    assert outcome(ingest_csv, path) == want, text
    assert bool(calls) == fallback


def test_line_count_across_read_boundaries(tmp_path):
    """The count reads 1 MiB at a time: a CRLF split between two reads is one
    line end, and the last line may begin in an earlier read."""
    path = tmp_path / "x.csv"
    path.write_bytes(b"x" * ((1 << 20) - 1) + b"\r\ny\r\n")
    assert cli._line_count(path) == 2
    path.write_bytes(b"t\n1,\"" + b"z" * (1 << 20))
    assert cli._line_count(path) is None
    path.write_bytes(b"t\n1,\"" + b"z" * (1 << 20) + b'"\n')
    assert cli._line_count(path) == 2


# ---------------------------------------------------------------------------
# allocation guards: peak traced memory against the arrays handled
# ---------------------------------------------------------------------------

def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ingest_peak_memory_bounded(tmp_path):
    n = 100000
    rng = np.random.default_rng(3)
    vals = rng.standard_normal((n, 3))
    lines = ["t,a,b,c"] + [f"{0.1 * k!r},{a!r},{b!r},{c!r}"
                           for k, (a, b, c) in enumerate(vals.tolist())]
    path = write(tmp_path / "big.csv", "\n".join(lines) + "\n")
    del lines
    arrays = 4 * 8 * n  # the time column and three value columns
    peak = traced_peak(lambda: ingest_csv(path, "t", ["a", "b", "c"]))
    # measured 2.3x (row blocks, then the columns); the csv.reader loop's
    # lists of Python floats measured 6.4x
    assert peak < 3 * arrays, peak / arrays


def test_series_writer_peak_memory_bounded(tmp_path):
    n = 100000
    values = np.random.default_rng(4).standard_normal(n)
    grid = Grid(n, 0.1, 0.0)
    path = tmp_path / "s.csv"
    arrays = 2 * 8 * n  # the values and their times
    peak = traced_peak(lambda: _write_series_csv(path, grid, values))
    # one 8192-row block measured 1.06x here; formatting every row before one
    # write measured 12.8x
    assert peak < 2 * arrays, peak / arrays
    with open(path, encoding="utf-8") as fh:
        head = [next(fh) for _ in range(3)]
    assert head == ["index,time,value\n",
                    f"0,{grid.time_at(0):.17g},{values[0]:.17g}\n",
                    f"1,{grid.time_at(1):.17g},{values[1]:.17g}\n"]
