"""Command-line front end.

Reads a JSON pipeline config plus a CSV sensor log and emits symbol streams,
tokens, histograms, pattern matches, and confidence-band data as plain files.
Outputs are deterministic: numerics are printed with 17 significant digits,
JSON keys are sorted, and nothing depends on wall clock, locale, or RNG.

Subcommands
-----------
derive     apply each channel's derivative kernel, write the derived signal
solve      solve each channel's inverse problem, write the confidence band
symbolize  run the per-channel lexical analysis, write run-length tokens
combine    align channels and write combined-symbol tokens
hist       write the histogram of combined symbols
classify   label fixed-size windows against reference histograms
match      run a symbol pattern over channel streams, write match ranges

Exit codes: 0 success; 1 usage error (the flags, the config, the references,
the command's requirements and an `--out` directory that cannot be created,
all checked before the log is read, and an output file that cannot be
written, named in the message); 2 data error (a `DataError`, or an input
file that cannot be read); 3 numerical failure (any other `SiglexError`).
A stage failure exits 2 or 3 as its cause would.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
import warnings
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Optional

import numpy as np

from . import mcla, pattern, scla
from .csvout import Text, open_output, write_csv
from .errors import (
    ConfigError,
    DataError,
    GridTooShortError,
    MalformedCsvError,
    NonMonotoneTimeError,
    NonUniformGridError,
    PipelineError,
    SiglexError,
)
from .grid import Grid
from .operators import (
    LdoSpec,
    apply_streaming,
    assemble_ldo,
    check_order,
    extract_local_kernel,
    solve_inverse,
)
from .uncertainty import (
    ConfidenceBand,
    confidence_band,
    estimate_residual_variance,
)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OperatorConfig:
    """Streamed derivative of a channel: its order and stencil accuracy."""

    order: int
    accuracy: int


@dataclass
class LdoConfig:
    """Inverse problem of a channel: the operator, and the point constraints
    as (index, value) pairs."""

    spec: LdoSpec
    accuracy: int
    constraints: list


@dataclass
class ChannelConfig:
    name: str
    csv_column: str
    alphabet: scla.Alphabet
    operator: Optional[OperatorConfig] = None
    ldo: Optional[LdoConfig] = None
    pattern: Optional[pattern.SymbolPattern] = None


_KINDS = {int: "an integer", float: "a finite number", str: "a string",
          list: "a list", dict: "an object", (str, list): "a string or a list",
          "numbers": "a list of finite numbers"}

# Each config object's whole schema: (key, JSON kind) for a required field,
# (key, kind, default) for an optional one; `_fields` refuses any other key.
_CONFIG = (("channels", list), ("combine", list, ()), ("time_column", str, "t"),
           ("band", dict, {}))
_BAND = (("level", float, 0.95),)
_CHANNEL = (("name", str), ("csv_column", str), ("alphabet", dict),
            ("operator", dict, None), ("ldo", dict, None), ("pattern", str, None))
_USD_ALPHABET = (("kind", str), ("epsilon", float), ("nan", str, "reject"))
_ALPHABET = (("kind", str, None), ("symbols", (str, list)), ("boundaries", "numbers"),
             ("range", "numbers", None), ("catch_all", str, None), ("nan", str, "reject"))
_OPERATOR = (("order", int), ("accuracy", int))
_LDO = (("degree", int), ("coefficients", list), ("accuracy", int, 2),
        ("constraints", list, ()))


def _is(value, kind) -> bool:
    """JSON type test: bools are not numbers, `float` admits ints, and only
    finite ones (`json` reads NaN, Infinity and -Infinity)."""
    if kind == "numbers":
        return isinstance(value, list) and all(_is(v, float) for v in value)
    if kind is float:
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and abs(value) <= sys.float_info.max)
    return not isinstance(value, bool) and isinstance(value, kind)


def _fields(obj, where: str, table) -> list:
    """Values of a JSON object's fields in table order, numbers as float and
    null as absent; any other key is refused (`additionalProperties: false`)."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object, got {obj!r}")
    for key in obj:
        if key not in (name for name, *_ in table):
            raise ConfigError(f"{where}: unknown field {key!r}")
    values = []
    for key, kind, *default in table:
        raw = obj.get(key)
        if raw is None and not default:
            raise ConfigError(f"{where}: missing field '{key}'")
        if raw is not None and not _is(raw, kind):
            raise ConfigError(f"{where}: '{key}' must be {_KINDS[kind]}, got {raw!r}")
        values.append(default[0] if raw is None else float(raw) if kind is float else raw)
    return values


def _check_level(level: float, what: str) -> float:
    if not 0.0 < level < 1.0:
        raise ConfigError(f"{what} must be in (0, 1), got {level}")
    return level


def _parse_alphabet(a: dict, where: str) -> scla.Alphabet:
    kind = a.get("kind")  # picks the table
    if kind not in (None, "usd"):
        raise ConfigError(f"{where}: unknown kind {kind!r}; the one kind is 'usd', "
                          "an alphabet without 'kind' gives explicit symbols")
    if kind == "usd":
        return scla.usd_alphabet(*_fields(a, where, _USD_ALPHABET)[1:])
    _, symbols, boundaries, rng, catch_all, nan_policy = _fields(a, where, _ALPHABET)
    return scla.Alphabet(tuple(symbols), tuple(boundaries), nan_policy,
                         None if rng is None else tuple(rng), catch_all)


def _parse_ldo(raw: dict, where: str) -> LdoConfig:
    degree, coefficients, accuracy, constraints = _fields(raw, where, _LDO)
    if not all(_is(c, float) or _is(c, "numbers") for c in coefficients):
        raise ConfigError(f"{where}: each coefficient must be a finite number or a list "
                          f"of them (one per grid point), got {coefficients!r}")
    for pair in constraints:
        if not (isinstance(pair, list) and len(pair) == 2
                and _is(pair[0], int) and _is(pair[1], float)):
            raise ConfigError(
                f"{where}: constraint must be an [index, value] pair, got {pair!r}")
    indices = [i for i, _ in constraints]
    if len(set(indices)) != len(indices):
        raise ConfigError(f"{where}: constraint indices not distinct: {indices}")
    check_order(degree, accuracy)
    return LdoConfig(LdoSpec(degree, coefficients), accuracy,
                     [(i, float(v)) for i, v in constraints])


def _compile_pattern(text: str, alphabet: scla.Alphabet,
                     where: str) -> pattern.SymbolPattern:
    try:
        return pattern.compile_pattern(text, alphabet)
    except SiglexError as exc:
        raise ConfigError(f"{where}: pattern {text!r}: {exc}") from exc


def _parse_channel(ch, i: int) -> ChannelConfig:
    name, column, raw_alpha, raw_op, raw_ldo, text = _fields(ch, f"channel {i}", _CHANNEL)
    where = f"channel '{name}'"
    if raw_op is not None and raw_ldo is not None:
        raise ConfigError(f"{where}: 'operator' and 'ldo' are exclusive")
    try:
        alphabet = _parse_alphabet(raw_alpha, f"{where} alphabet")
        operator = ldo = None
        if raw_op is not None:
            operator = OperatorConfig(*_fields(raw_op, f"{where} operator", _OPERATOR))
            check_order(operator.order, operator.accuracy)
        if raw_ldo is not None:
            ldo = _parse_ldo(raw_ldo, f"{where} ldo")
    except ConfigError:
        raise
    except SiglexError as exc:  # the library's own check of a parsed value
        raise ConfigError(f"{where}: {exc}") from exc
    compiled = None if text is None else _compile_pattern(text, alphabet, where)
    return ChannelConfig(name, column, alphabet, operator, ldo, compiled)


@dataclass
class PipelineConfig:
    channels: list
    combine: list = field(default_factory=list)
    time_column: str = "t"
    band_level: float = 0.95

    @classmethod
    def from_json_obj(cls, obj) -> "PipelineConfig":
        """Check a loaded config and parse it into typed channel configs."""
        raw_channels, combine, time_column, band = _fields(obj, "config", _CONFIG)
        channels = [_parse_channel(ch, i) for i, ch in enumerate(raw_channels)]
        names = [c.name for c in channels]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate channel names: {names}")
        for name in combine:
            if name not in names:
                raise ConfigError(f"combine references unknown channel {name!r}")
        (level,) = _fields(band, "band", _BAND)
        return cls(channels, list(combine), time_column, _check_level(level, "band level"))


def _read_json(path, what: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    try:
        return json.loads(text)
    # ValueError also covers an integer past Python's int-string limit
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"{what} is not valid JSON: {exc}") from exc


def load_config(path) -> PipelineConfig:
    return PipelineConfig.from_json_obj(_read_json(path, "config"))


def load_references(path) -> dict:
    """Reference histograms for classify: {label: histogram JSON object}."""
    obj = _read_json(path, "references")
    if not isinstance(obj, dict):
        raise ConfigError("references must be an object {label: histogram}")
    refs = {}
    for label, counts in obj.items():
        bad = scla.UNWRITABLE.intersection(label)
        if bad:
            raise ConfigError(f"references label {label!r}: character {min(bad)!r} "
                              "cannot be carried by a CSV")
        try:
            refs[label] = mcla.FrequencyDict.from_json_obj(counts)
        except ValueError as exc:
            raise ConfigError(f"references '{label}': {exc}") from exc
    return refs


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

_CHUNK_LINES = 8192
# A blank line, and an empty or whitespace-only cell (quoted or not), as
# `csv` reads them; applied to text whose every line ends in a newline.
_BLANK_LINE = re.compile(r'^(?:[^\S\n]*|"[^\S\n"]*"[^\S\n]*)\n', re.M)
_BLANK_CELL = re.compile(r'(?<![^,\n])(?:[^\S\n]*|"[^\S\n"]*"[^\S\n]*)(?=[,\n])')


def _blank_to_nan(text: str) -> str:
    """Drop blank lines and write NaN into empty and whitespace-only cells."""
    if not text.endswith("\n"):
        text += "\n"
    return _BLANK_CELL.sub("NaN", _BLANK_LINE.sub("", text))


def _open_quote(line: str) -> bool:
    """Whether a line ends inside a quoted field, as numpy's tokenizer reads
    quotes: only a field's first character opens one, and `""` inside
    stands for one quote."""
    closed_field = r'(?:"(?:[^"\n]|"")*"(?!")|(?!"))[^,\n]*'
    return re.fullmatch(rf'(?:{closed_field},)*"(?:[^"\n]|"")*\n?', line) is not None


def _load(source, dtype, **kwargs) -> np.ndarray:
    return np.loadtxt(source, dtype=dtype, delimiter=",", quotechar='"',
                      comments=None, ndmin=1, **kwargs)


def _parse(lines: list, dtype: np.dtype) -> np.ndarray:
    """Data rows of whole body lines, one structured record per row.

    A whitespace-only line or a blank cell of a requested column makes
    numpy's C tokenizer fail, so the lines go to it as they are, and only if
    that fails are blank lines dropped, blank cells set to NaN and the text
    parsed again.  Raises ValueError, also for a quoted field that does not
    end on its line, which the tokenizer would join to the next.
    """
    text = "".join(lines)
    if not text or text.isspace():
        return np.empty(0, dtype)
    if '"' in text and any(_open_quote(line) for line in lines if '"' in line):
        raise ValueError("a quoted field spans lines")
    try:
        return _load(lines, dtype)
    except ValueError:
        text = _blank_to_nan(text)
    return _load(text.split("\n"), dtype) if text else np.empty(0, dtype)


@dataclass(frozen=True)
class _Layout:
    """Header of a log: field count, time column and requested columns."""

    width: int
    time: int
    columns: dict  # value column -> field index

    @property
    def dtype(self) -> np.dtype:
        used = {self.time, *self.columns.values()}
        return np.dtype([(f"f{j}", np.float64 if j in used else "U1")
                         for j in range(self.width)])


def _data_lines(lines: list, first: int, layout: _Layout):
    """(line number, row or None if it fails to parse) per non-blank line."""
    dtype = layout.dtype
    for line_no, text in enumerate(lines, first):
        try:
            row = _parse([text], dtype)
        except ValueError:
            yield line_no, None
            continue
        if row.size:
            yield line_no, row


def _row_error(line_no: int, text: str, layout: _Layout) -> MalformedCsvError:
    """Name the field that makes one line fail to parse."""
    if _open_quote(text):
        return MalformedCsvError(line_no, "quoted field does not end on its line")
    fields = next(csv.reader([text]), [])
    if len(fields) != layout.width:
        return MalformedCsvError(
            line_no, f"expected {layout.width} fields, got {len(fields)}")
    clean = _blank_to_nan(text).split("\n")
    for name, j in [(None, layout.time), *layout.columns.items()]:
        try:
            _load(clean, np.float64, usecols=[j])
        except ValueError:
            if name is None:
                return MalformedCsvError(line_no, f"bad timestamp {fields[j]!r}")
            return MalformedCsvError(
                line_no, f"bad value {fields[j].strip()!r} in column '{name}'")
    return MalformedCsvError(line_no, f"cannot parse row {text.rstrip()!r}")


def _first_bad_line(lines: list, first: int, layout: _Layout) -> MalformedCsvError:
    """The error of the first line that fails to parse or has a non-finite
    timestamp, in a chunk known to hold one."""
    for line_no, row in _data_lines(lines, first, layout):
        if row is None:
            return _row_error(line_no, lines[line_no - first], layout)
        t = float(row[f"f{layout.time}"][0])
        if np.isnan(t):
            field = next(csv.reader([lines[line_no - first]]))[layout.time]
            if not field.strip():  # a blank cell, read as NaN
                return MalformedCsvError(line_no, f"bad timestamp {field!r}")
        if not np.isfinite(t):
            return MalformedCsvError(line_no, f"non-finite timestamp {t!r}")
    # not reached: every line parses alone, so the chunk does too
    return MalformedCsvError(first, "cannot parse the lines from here on")


def ingest_csv(path, time_column: str, value_columns) -> dict:
    """Read a uniform-grid sensor log; returns {column: (Grid, values)}.

    Input grammar: UTF-8 text (a leading byte-order mark is ignored), lines
    ended by LF, CRLF or CR.  The first line is a header row naming
    `time_column` and every requested value column; names are stripped.
    Each later line is a row with exactly as many comma-separated fields as
    the header; blank lines (empty or whitespace only) are skipped, and
    there are no comment lines.  A field may be quoted with `"` (`""`
    inside stands for one quote) if the quote is its first character; a
    quoted field that does not end on the line where it opens is an error
    naming that line.
    Requested cells are decimal or exponent numbers with optional sign and
    surrounding whitespace, or `nan`/`inf`/`infinity` in any case; digit
    separators (`1_0`) and non-ASCII digits are rejected.  An empty or
    whitespace-only value cell and `NaN` become NaN (handled downstream by
    the alphabet's NaN policy).  Other columns are not checked.
    Timestamps must be finite and strictly increasing with successive
    deltas within 1e-6 relative of uniform; a span whose step or deltas
    overflow to infinity is not uniform.

    The body goes to numpy's C tokenizer in one call (`_read_whole`); after
    a blank line or cell, a CR line end, a quote open past its line or a bad
    row, `_read_body` reads it in 8192-line chunks and names a bad line.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            head = fh.readline()
            if not head:
                raise MalformedCsvError(1, "empty file")
            header = [h.strip() for h in next(csv.reader([head]), [])]
            if time_column not in header:
                raise MalformedCsvError(1, f"missing time column '{time_column}'")
            for c in value_columns:
                if c not in header:
                    raise MalformedCsvError(1, f"missing value column '{c}'")
            layout = _Layout(len(header), header.index(time_column),
                             {c: header.index(c) for c in value_columns})
            blocks, not_increasing = _read_whole(path, layout) or _read_body(fh, layout)
    except UnicodeDecodeError:
        raise MalformedCsvError(_undecodable_line(path), "not UTF-8 text") from None
    n = sum(len(b) for b in blocks)
    if n < 2:
        raise MalformedCsvError(n + 1, f"need at least 2 data rows, got {n}")
    if not_increasing is not None:
        raise not_increasing
    t_arr = np.concatenate([b[f"f{layout.time}"] for b in blocks])
    with np.errstate(over="ignore"):
        deltas = np.diff(t_arr)
        h = float(t_arr[-1] - t_arr[0]) / (n - 1)
    if not (np.isfinite(h) and np.isfinite(deltas).all()):
        raise NonUniformGridError(
            f"time span {t_arr[0]:.6g} to {t_arr[-1]:.6g} overflows: the step is "
            "not finite")
    if np.abs(deltas - h).max() > 1e-6 * h:
        raise NonUniformGridError(
            f"time deltas deviate by {np.abs(deltas - h).max():.3e} "
            f"from uniform step {h:.6g} (tolerance 1e-6 relative)")
    grid = Grid(n, h, float(t_arr[0]))
    return {c: (grid, np.concatenate([b[f"f{j}"] for b in blocks]))
            for c, j in layout.columns.items()}


def _read_whole(path, layout: _Layout) -> Optional[tuple]:
    """`_read_body`'s result from one tokenizer call, or None unless it has
    one row per line, and finite, strictly increasing timestamps."""
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            rows = _load(path, layout.dtype, skiprows=1, encoding="utf-8-sig")
    except ValueError:
        return None
    t = rows[f"f{layout.time}"]
    if (len(rows) + 1 != _line_count(path) or not np.isfinite(t).all()
            or (t[1:] <= t[:-1]).any()):
        return None
    return [rows], None


def _line_count(path) -> Optional[int]:
    """Lines of a file as text mode splits them; None if a lone CR ends one,
    or the last ends inside a quoted field, which numpy reads on to the end."""
    count, last = 0, b""
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            if chunk.endswith(b"\r"):
                chunk += fh.read(1)
            if b"\r" in chunk and chunk.count(b"\r") != chunk.count(b"\r\n"):
                return None
            count += chunk.count(b"\n")
            cut = chunk.rfind(b"\n", 0, len(chunk) - 1)
            last = last + chunk if cut < 0 else chunk[cut + 1:]
    if b'"' in last and _open_quote(last.decode("utf-8", "replace")):
        return None
    return count + (not last.endswith(b"\n"))


def _read_body(fh, layout: _Layout) -> tuple:
    """Parsed row blocks of the body, and the error for the first timestamp
    that does not increase (raised only if the whole body parses)."""
    t_field, dtype = f"f{layout.time}", layout.dtype
    blocks, first, last, not_increasing = [], 2, None, None
    while lines := list(islice(fh, _CHUNK_LINES)):
        try:
            block = _parse(lines, dtype)
        except ValueError:
            block = None
        if block is None or not np.isfinite(block[t_field]).all():
            raise _first_bad_line(lines, first, layout)
        if block.size:
            t = block[t_field] if last is None else np.r_[last, block[t_field]]
            bad = np.flatnonzero(t[1:] <= t[:-1])
            if bad.size and not_increasing is None:
                row = bad[0] + (1 if last is None else 0)
                line_no = next(islice(_data_lines(lines, first, layout), row, None))[0]
                not_increasing = NonMonotoneTimeError(
                    f"timestamps not strictly increasing at line {line_no}")
            blocks.append(block)
            last = t[-1]
        first += len(lines)
    return blocks, not_increasing


def _undecodable_line(path) -> int:
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        return data.count(b"\n", 0, exc.start) + 1
    return 1


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

@dataclass
class ChannelResult:
    processed: np.ndarray
    processed_grid: Optional[Grid]
    stream: scla.SymbolStream
    tokens: scla.Runs
    band: Optional[ConfidenceBand] = None
    matches: Optional[list] = None


@dataclass
class PipelineBundle:
    """Per-channel results by name, and the names of the channels to combine."""

    channels: dict
    combine: list


def _stage(channel: str, stage: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except SiglexError as exc:
        raise PipelineError(channel, stage, exc) from exc


def _process_channel(cc: ChannelConfig, grid: Grid, values: np.ndarray,
                     level: float) -> ChannelResult:
    processed, pgrid, band = values, grid, None
    if cc.operator is not None:
        kernel = _stage(cc.name, "operator", extract_local_kernel,
                        cc.operator.order, cc.operator.accuracy, grid.h)
        pgrid = grid.interior(kernel.half_width)
        if pgrid is None:
            raise PipelineError(cc.name, "operator", GridTooShortError(
                f"log has {grid.n} rows, a streamed derivative of accuracy "
                f"{cc.operator.accuracy} needs at least {2 * kernel.half_width + 2}"))
        processed = _stage(cc.name, "operator", apply_streaming, kernel, values)
    elif cc.ldo is not None:
        ldo = cc.ldo
        op = _stage(cc.name, "ldo", assemble_ldo, ldo.spec, grid, ldo.accuracy)
        sol = _stage(cc.name, "solve", solve_inverse, op, values, ldo.constraints)
        processed = sol.y
        sigma2, dof = _stage(cc.name, "covariance", estimate_residual_variance,
                             sol.residual, op.rank)
        band = _stage(cc.name, "band", confidence_band,
                      sol.y, sol.variance, sigma2, dof, level)
    stream = _stage(cc.name, "quantize", scla.quantize, processed, cc.alphabet, pgrid)
    tokens = _stage(cc.name, "compress", scla.compress_runs, stream)
    matches = (None if cc.pattern is None
               else _stage(cc.name, "match", pattern.find_all, cc.pattern, stream))
    return ChannelResult(processed, pgrid, stream, tokens, band, matches)


def run_pipeline(config: PipelineConfig, ingested: dict) -> PipelineBundle:
    """Run the per-channel stages of every configured channel; only the
    commands that write the combined stream build it (`_combined`).

    `ingested` maps csv columns to (Grid, values) as produced by ingest_csv.
    Identical inputs and config yield identical bundles.
    """
    channels = {}
    for cc in config.channels:
        if cc.csv_column not in ingested:
            raise ConfigError(f"channel '{cc.name}': column '{cc.csv_column}' "
                              "not found in ingested data")
        grid, values = ingested[cc.csv_column]
        channels[cc.name] = _process_channel(cc, grid, values, config.band_level)
    return PipelineBundle(channels, config.combine)


def _combined(bundle: PipelineBundle) -> scla.SymbolStream:
    """The `combine` channels aligned and combined into one stream."""
    return _stage(",".join(bundle.combine), "combine", mcla.align_and_combine,
                  [bundle.channels[n].stream for n in bundle.combine])


# ---------------------------------------------------------------------------
# output writers (17 significant digits, sorted keys)
# ---------------------------------------------------------------------------

def _write_series_csv(path, grid: Grid, values: np.ndarray) -> None:
    write_csv(path, "index,time,value\n", len(values),
              lambda a, b: (np.arange(a, b), grid.time_at(np.arange(a, b)), values[a:b]))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_derive(bundle: PipelineBundle, outdir: Path, args) -> None:
    for name, cr in bundle.channels.items():
        _write_series_csv(outdir / f"{name}.derived.csv", cr.processed_grid,
                          cr.processed)


def _cmd_solve(bundle: PipelineBundle, outdir: Path, args) -> None:
    for name, cr in bundle.channels.items():
        if cr.band is not None:
            cr.band.to_csv(outdir / f"{name}.band.csv")
            _write_series_csv(outdir / f"{name}.solution.csv",
                              cr.processed_grid, cr.processed)


def _cmd_symbolize(bundle: PipelineBundle, outdir: Path, args) -> None:
    for name, cr in bundle.channels.items():
        scla.tokens_to_csv(cr.tokens, outdir / f"{name}.tokens.csv")


def _cmd_combine(bundle: PipelineBundle, outdir: Path, args) -> None:
    scla.tokens_to_csv(scla.compress_runs(_combined(bundle)),
                       outdir / "combined.tokens.csv")


def _cmd_hist(bundle: PipelineBundle, outdir: Path, args) -> None:
    text = mcla.histogram(_combined(bundle)).to_json()
    with open_output(outdir / "histogram.json") as fh:
        fh.write(text.encode("utf-8"))


def _cmd_classify(bundle: PipelineBundle, outdir: Path, args) -> None:
    excluded = set(args.exclude.split(",")) - {""} if args.exclude else set()
    ms = _combined(bundle)
    total = len(ms)
    size = total if args.window is None else min(args.window, total)
    classify = mcla.window_classifier(ms, size, args.references, args.measure, excluded)
    table = sorted(args.references)

    def block(a: int, b: int) -> tuple:
        labels, scores = classify(a, b)
        starts = np.arange(a, b) * size
        return starts, np.minimum(starts + size, total), Text(labels, table), scores

    write_csv(outdir / "classify.csv", "start,end,label,score\n", -(-total // size), block)


def _cmd_match(bundle: PipelineBundle, outdir: Path, args) -> None:
    for name, cr in bundle.channels.items():
        if cr.matches is not None:
            pattern.matches_to_csv(cr.matches, outdir / f"{name}.matches.csv")


_COMMANDS = {
    "derive": _cmd_derive,
    "solve": _cmd_solve,
    "symbolize": _cmd_symbolize,
    "combine": _cmd_combine,
    "hist": _cmd_hist,
    "classify": _cmd_classify,
    "match": _cmd_match,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="siglex", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("command", choices=sorted(_COMMANDS))
    p.add_argument("--config", required=True, help="pipeline config JSON")
    p.add_argument("--input", required=True, help="input CSV sensor log")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--channel", default=None, help="process only this channel")
    p.add_argument("--level", type=float, default=None,
                   help="confidence level override, in (0, 1)")
    p.add_argument("--pattern", default=None, help="symbol pattern override")
    p.add_argument("--references", type=load_references, default=None,
                   help="reference histograms JSON (classify)")
    p.add_argument("--window", type=int, default=None,
                   help="classification window length in samples")
    p.add_argument("--measure", default="l1", choices=("l1", "cosine"),
                   help="histogram similarity measure (classify)")
    p.add_argument("--exclude", default=None,
                   help="comma-separated combination keys to exclude (classify)")
    return p


def _settle(config: PipelineConfig, args) -> None:
    """Check the flags and apply them to `config`, then check that the selected
    channels can serve the command.  Runs before the log is read."""
    if args.window is not None and args.window < 1:
        raise ConfigError(f"--window must be >= 1, got {args.window}")
    if args.channel is not None:
        config.channels = [cc for cc in config.channels if cc.name == args.channel]
        if not config.channels:
            raise ConfigError(f"unknown channel '{args.channel}'")
        config.combine = [n for n in config.combine if n == args.channel]
    if args.level is not None:
        config.band_level = _check_level(args.level, "--level")
    if args.pattern is not None:
        for cc in config.channels:
            cc.pattern = _compile_pattern(args.pattern, cc.alphabet,
                                          f"--pattern for channel '{cc.name}'")
    if args.command == "solve" and all(cc.ldo is None for cc in config.channels):
        raise ConfigError("solve needs a channel with an 'ldo' entry")
    if args.command in ("combine", "hist", "classify") and len(config.combine) < 2:
        raise ConfigError(f"{args.command} needs a 'combine' list of >= 2 channels")
    if args.command == "classify" and args.references is None:
        raise ConfigError("classify needs --references")
    if args.command == "match" and all(cc.pattern is None for cc in config.channels):
        raise ConfigError("match needs --pattern or per-channel 'pattern' entries")


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        config = load_config(args.config)
        _settle(config, args)
        outdir = Path(args.out)
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out {args.out}: cannot create the output directory "
                              f"({exc.strerror})") from exc
        columns = sorted({cc.csv_column for cc in config.channels})
        ingested = ingest_csv(args.input, config.time_column, columns)
        bundle = run_pipeline(config, ingested)
        try:
            _COMMANDS[args.command](bundle, outdir, args)
        except OSError as exc:
            raise ConfigError(f"--out {args.out}: cannot write {exc.filename} "
                              f"({exc.strerror})") from exc
    except ConfigError as exc:
        print(f"siglex: usage error: {exc}", file=sys.stderr)
        return 1
    except PipelineError as exc:
        code = 2 if isinstance(exc.cause, DataError) else 3
        print(f"siglex: error: {exc}", file=sys.stderr)
        return code
    except (DataError, OSError) as exc:
        print(f"siglex: data error: {exc}", file=sys.stderr)
        return 2
    except (SiglexError, np.linalg.LinAlgError) as exc:
        print(f"siglex: numerical error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
