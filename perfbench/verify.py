"""Output checks for the benchmark workloads.

Every check compares a CLI output with a reference the benchmark computes
itself from the generated input, at a stated tolerance; no output bytes are
pinned.  Non-numeric outputs (tokens, histograms, match ranges, window
labels) must also have the same digest in every iteration of one run.

`Checker.check` returns, for one iteration, the failure message of each
invocation that failed (exit code, missing or wrong output, digest drift).
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
from collections import Counter
from pathlib import Path

import numpy as np

# Central first-derivative stencils by accuracy (Fornberg 1988), times 1/h.
FIRST_DERIVATIVE = {2: [-1 / 2, 0.0, 1 / 2],
                    4: [1 / 12, -8 / 12, 0.0, 8 / 12, -1 / 12]}

# |derived - np.convolve| per sample, relative to sum_j |w_j x_{i+j}|.  The
# float64 rounding error of a 5-term dot product is below 1e-15 of that sum;
# reordering the summation moves values by ~1e-14.
DERIVED_RTOL = 1e-10
# Interior LDO residual |(y[i-1] - 2 y[i] + y[i+1]) / h^2 - g[i]| relative
# to max |g|; the measured rounding level at n = 2000 is ~1e-10.
LDO_RESIDUAL_RTOL = 1e-6
# Constraint values and the band's zero width there, relative to the scale.
LDO_CONSTRAINT_RTOL = 1e-8
CLASSIFY_SCORE_ATOL = 1e-12

# The non-numeric files each command writes; `{ch}` is a channel name.
_DIGESTED = {"symbolize": "{ch}.tokens.csv", "match": "{ch}.matches.csv",
             "combine": "combined.tokens.csv", "hist": "histogram.json",
             "classify": "classify.csv"}


class CheckFailed(Exception):
    pass


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def quantize(values: np.ndarray, alphabet: dict) -> str:
    """Half-open interval symbols; NaN becomes '_' under the gap policy."""
    if alphabet.get("kind") == "usd":
        eps = float(alphabet["epsilon"])
        symbols, bounds = "dsu", [-eps, eps]
    else:
        symbols, bounds = "".join(alphabet["symbols"]), alphabet["boundaries"]
    idx = np.zeros(len(values), dtype=np.int64)
    for b in bounds:
        idx += values >= b
    lut = np.array(list(symbols) + ["_"])
    idx[np.isnan(values)] = len(symbols)
    return "".join(lut[idx])


def run_length(seq) -> list:
    """[(symbol, run_length, start_index)] for a sequence of symbols."""
    out, start = [], 0
    for i in range(1, len(seq) + 1):
        if i == len(seq) or seq[i] != seq[start]:
            out.append((seq[start], i - start, start))
            start = i
    return out


def _read_rows(path: Path, header: str) -> list:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    _require(bool(rows) and ",".join(rows[0]) == header,
             f"{path.name}: header is not {header!r}")
    return rows[1:]


def _read_numeric(path: Path, header: str) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        _require(fh.readline().strip() == header, f"{path.name}: header is not {header!r}")
        return np.loadtxt(fh, delimiter=",", ndmin=2)


def _read_tokens(path: Path) -> list:
    rows = _read_rows(path, "symbol,runLength,startIndex")
    return [(s, int(n), int(i)) for s, n, i in rows]


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Checker:
    """Checks each iteration's outputs against references built once."""

    def __init__(self, manifest: dict):
        self.manifest = manifest
        self.config = json.loads(Path(manifest["config"]).read_text(encoding="utf-8"))
        self.channels = {c["name"]: c for c in self.config["channels"]}
        with open(manifest["input"], encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        self.columns = {name: data[:, i] for i, name in enumerate(header)}
        self.t = self.columns[self.config.get("time_column", "t")]
        self.h = float(manifest["h"])
        self.commands = [inv[0] for inv in manifest["invocations"]]
        self.references = None
        if manifest.get("references"):
            self.references = json.loads(
                Path(manifest["references"]).read_text(encoding="utf-8"))
        self._digests: dict = {}

    # -- references -------------------------------------------------------

    def _half_width(self, ch: dict) -> int:
        op = ch.get("operator")
        return len(FIRST_DERIVATIVE[op["accuracy"]]) // 2 if op else 0

    def _derived_reference(self, ch: dict):
        x = self.columns[ch["csv_column"]]
        op = ch.get("operator")
        if op is None:
            return x, None
        _require(op["order"] == 1 and op["accuracy"] in FIRST_DERIVATIVE,
                 f"no reference stencil for operator {op}")
        w = np.array(FIRST_DERIVATIVE[op["accuracy"]]) / self.h
        # np.convolve flips its second argument; the stencil applies unflipped
        ref = np.convolve(x, w[::-1], mode="valid")
        scale = np.convolve(np.abs(x), np.abs(w[::-1]), mode="valid")
        return ref, scale

    def _combined(self, symbols: dict) -> list:
        """Per-sample combination keys on the common interior grid."""
        names = self.config["combine"]
        n = len(self.t)
        widths = {nm: self._half_width(self.channels[nm]) for nm in names}
        wmax = max(widths.values())
        return ["".join(symbols[nm][i - widths[nm]] for nm in names)
                for i in range(wmax, n - wmax)]

    # -- per-command checks ------------------------------------------------

    def _check_derive(self, out: Path, state: dict) -> None:
        values = {}
        for name, ch in self.channels.items():
            path = out / f"{name}.derived.csv"
            _require(path.is_file(), f"missing {path.name}")
            arr = _read_numeric(path, "index,time,value")
            ref, scale = self._derived_reference(ch)
            w = self._half_width(ch)
            _require(arr.shape == (len(ref), 3), f"{path.name}: shape {arr.shape}, "
                     f"expected ({len(ref)}, 3)")
            _require(np.array_equal(arr[:, 0], np.arange(len(ref))),
                     f"{path.name}: index column is not 0..{len(ref) - 1}")
            t_ref = self.t[w:len(self.t) - w]
            _require(np.allclose(arr[:, 1], t_ref, rtol=0, atol=1e-6 * self.h),
                     f"{path.name}: time column off the input grid")
            v = arr[:, 2]
            if scale is None:
                _require(np.array_equal(v, ref, equal_nan=True),
                         f"{path.name}: raw values differ from the input")
            else:
                err = np.abs(v - ref)
                bad = ~(err <= DERIVED_RTOL * scale)
                _require(not bad.any(), f"{path.name}: {int(bad.sum())} samples differ "
                         f"from np.convolve by more than {DERIVED_RTOL} relative")
            values[name] = v
        state["symbols"] = {name: quantize(values[name], ch["alphabet"])
                            for name, ch in self.channels.items()}

    def _symbols(self, state: dict) -> dict:
        if "symbols" not in state:
            _require(all("operator" not in c for c in self.channels.values()),
                     "derived channels need the derive output in the same iteration")
            state["symbols"] = {
                name: quantize(self.columns[ch["csv_column"]], ch["alphabet"])
                for name, ch in self.channels.items()}
        return state["symbols"]

    def _check_symbolize(self, out: Path, state: dict) -> None:
        for name, syms in self._symbols(state).items():
            path = out / f"{name}.tokens.csv"
            _require(path.is_file(), f"missing {path.name}")
            _require(_read_tokens(path) == run_length(syms),
                     f"{path.name}: tokens do not decompress to the quantized values")

    def _combined_state(self, state: dict) -> list:
        if "combined" not in state:
            state["combined"] = self._combined(self._symbols(state))
        return state["combined"]

    def _check_combine(self, out: Path, state: dict) -> None:
        path = out / "combined.tokens.csv"
        _require(path.is_file(), f"missing {path.name}")
        _require(_read_tokens(path) == run_length(self._combined_state(state)),
                 f"{path.name}: tokens differ from the aligned combinations")

    def _check_hist(self, out: Path, state: dict) -> None:
        combined = self._combined_state(state)
        obj = json.loads((out / "histogram.json").read_text(encoding="utf-8"))
        total = obj.pop("total")
        _require(total == len(combined), f"histogram total {total} != "
                 f"{len(combined)} aligned samples")
        _require(obj == dict(Counter(combined)), "histogram counts differ from Counter")

    def _check_classify(self, out: Path, state: dict) -> None:
        combined = self._combined_state(state)
        inv = self.manifest["invocations"][self.commands.index("classify")]
        size = int(inv[inv.index("--window") + 1])
        refs = {}
        for label, counts in self.references.items():
            c = {k: v for k, v in counts.items() if k != "total" and v}
            refs[label] = (c, sum(c.values()))
        rows = _read_rows(out / "classify.csv", "start,end,label,score")
        starts = list(range(0, len(combined), size))
        _require(len(rows) == len(starts), f"classify.csv: {len(rows)} windows, "
                 f"expected {len(starts)}")
        for (start, end, label, score), s0 in zip(rows, starts):
            s1 = min(s0 + size, len(combined))
            _require((int(start), int(end)) == (s0, s1),
                     f"classify.csv: window {start},{end} != {s0},{s1}")
            win = Counter(combined[s0:s1])
            tw = s1 - s0
            scores = {}
            for lab, (ref, tr) in refs.items():
                keys = set(win) | set(ref)
                scores[lab] = sum(abs(win.get(k, 0) / tw - ref.get(k, 0) / tr)
                                  for k in keys)
            best = min(scores.values())
            # a label within rounding of the minimum is an acceptable argmin
            _require(label in scores and scores[label] <= best + CLASSIFY_SCORE_ATOL,
                     f"classify.csv: window {s0}: label {label!r} is not the l1 argmin")
            _require(abs(float(score) - scores[label]) <= CLASSIFY_SCORE_ATOL,
                     f"classify.csv: window {s0}: score {score} != {scores[label]!r}")

    def _check_solve(self, out: Path, state: dict) -> None:
        for name, ch in self.channels.items():
            ldo = ch["ldo"]
            _require(ldo["degree"] == 2 and list(ldo["coefficients"]) == [0, 0, 1]
                     and ldo.get("accuracy", 2) == 2,
                     f"no reference check for ldo {ldo}")
            g = self.columns[ch["csv_column"]]
            n = len(g)
            sol = _read_numeric(out / f"{name}.solution.csv", "index,time,value")
            _require(sol.shape == (n, 3), f"{name}.solution.csv: shape {sol.shape}")
            y = sol[:, 2]
            scale = max(np.abs(y).max(), 1.0)
            for i, v in ldo["constraints"]:
                _require(abs(y[i] - v) <= LDO_CONSTRAINT_RTOL * scale,
                         f"{name}: y[{i}] = {y[i]!r} violates constraint {v}")
            # rows 2..n-3 use the central stencil [1, -2, 1] / h^2
            r = (y[1:-3] - 2 * y[2:-2] + y[3:-1]) / self.h ** 2 - g[2:-2]
            tol = LDO_RESIDUAL_RTOL * np.abs(g).max()
            _require(np.abs(r).max() <= tol, f"{name}: interior residual "
                     f"{np.abs(r).max():.3e} exceeds {tol:.3e}")
            band = _read_numeric(out / f"{name}.band.csv", "index,center,lower,upper")
            _require(band.shape == (n, 4), f"{name}.band.csv: shape {band.shape}")
            center, lower, upper = band[:, 1], band[:, 2], band[:, 3]
            _require(np.array_equal(center, y), f"{name}: band center != solution")
            hw = upper - center
            _require(bool(np.all(hw >= 0)) and np.allclose(center - lower, hw,
                                                           rtol=1e-9, atol=1e-15 * scale),
                     f"{name}: band is not symmetric around the solution")
            _require(hw.max() > 0, f"{name}: band has zero width everywhere")
            for i, _ in ldo["constraints"]:
                _require(hw[i] <= LDO_CONSTRAINT_RTOL * hw.max(),
                         f"{name}: band width {hw[i]!r} at pinned index {i}")

    def _check_match(self, out: Path, state: dict) -> None:
        for name, ch in self.channels.items():
            syms = quantize(self.columns[ch["csv_column"]], ch["alphabet"])
            rx = re.compile(ch["pattern"])
            rows = _read_rows(out / f"{name}.matches.csv", "start,end")
            pos = 0
            for row in rows:
                start, end = int(row[0]), int(row[1])
                _require(pos <= start < end <= len(syms),
                         f"{name}: range {start},{end} overlaps or is out of order")
                _require(rx.fullmatch(syms, start, end) is not None,
                         f"{name}: {syms[start:end]!r} does not fullmatch {rx.pattern}")
                # For the configured patterns the greedy match ends where the
                # longest one does (test_greedy_match_is_longest checks this).
                longest = rx.match(syms, start)
                _require(longest is not None and longest.end() == end,
                         f"{name}: range {start},{end} is not the longest match there")
                first = rx.search(syms, pos)
                _require(first is not None and first.start() == start,
                         f"{name}: a match starts before {start}")
                pos = end
            _require(rx.search(syms, pos) is None,
                     f"{name}: a match after {pos} is missing")

    # -- iteration ---------------------------------------------------------

    def _digest_of(self, out: Path, command: str) -> dict:
        digests = {}
        for name in {_DIGESTED[command].format(ch=ch) for ch in self.channels}:
            path = out / name
            if command == "classify":
                # the score column is numeric and checked by tolerance above
                rows = _read_rows(path, "start,end,label,score")
                digests[path.name] = hashlib.sha256(
                    "\n".join(",".join(r[:3]) for r in rows).encode()).hexdigest()
            else:
                digests[path.name] = _digest(path)
        return digests

    def check(self, out, return_codes) -> dict:
        """Map invocation index -> failure message for one iteration."""
        out = Path(out)
        failures = {}
        state: dict = {}
        # derive first: the symbolic checks quantize its checked values
        order = sorted(range(len(self.commands)),
                       key=lambda k: self.commands[k] != "derive")
        digests = {}
        for k in order:
            cmd = self.commands[k]
            if return_codes[k] != 0:
                failures[k] = f"{cmd}: exit code {return_codes[k]}"
                continue
            try:
                getattr(self, f"_check_{cmd}")(out, state)
                if cmd in _DIGESTED:
                    digests[k] = self._digest_of(out, cmd)
            except Exception as exc:  # any defect in the outputs fails the invocation
                failures[k] = f"{cmd}: {type(exc).__name__}: {exc}"
        for k, d in digests.items():
            if k not in failures and self._digests.setdefault(k, d) != d:
                failures[k] = f"{self.commands[k]}: output digest differs between repeats"
        return failures

    def output_bytes(self, out) -> int:
        return sum(p.stat().st_size for p in Path(out).iterdir() if p.is_file())
