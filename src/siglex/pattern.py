"""Regex-subset matching over coded symbol streams and their runs.

Grammar: alphabet literals, concatenation, alternation `|`, grouping
`(...)`, `*`, `+`, `?`, counted repetition `{m}` / `{m,}` / `{m,n}`, and the
wildcard `.` (which matches any single sample, gap symbols included).  No
anchors, classes, or backreferences.

Matching is leftmost-longest and non-overlapping: the scan finds the
earliest start with any match, takes the longest match at that start,
emits it, and resumes at its end.  Zero-length matches are skipped.  The
matcher simulates a Thompson automaton of the reversed pattern over the
run arrays (code, length, start), right to left, reading each code's table
entry as its symbol.  That gives the longest match at every start in one
pass (the reverse-scan idea of RE2); a greedy forward pass then picks the
matches, so nothing is rescanned and no pattern backtracks exponentially.
Inside a run the automaton stops stepping once its state map repeats, so a
run costs a few steps whatever its length: the tests count at most
(states + 2) * runs + matches steps, each O(states), on ``s|s.*u`` over
``sdsd...`` and on ``u{3,}d+`` over runs of 1e5.  A map that cycles with a
period above 1 (``(uu)+`` inside a long ``u`` run) is stepped sample by
sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .csvout import write_csv
from .errors import (
    AlphabetMismatchError,
    PatternSyntaxError,
    UnknownSymbolError,
)
from .scla import Alphabet, Runs, SymbolStream, compress_runs, validate_tokens

_META = set("|()*+?{}.")


@dataclass(frozen=True)
class Match:
    """Half-open sample index range [start, end) of one match."""

    start: int
    end: int


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, text: str, alphabet: Alphabet):
        self.text = text
        self.pos = 0
        self.symbols = set(alphabet.symbols)

    def error(self, msg: str, pos: Optional[int] = None):
        raise PatternSyntaxError(self.pos if pos is None else pos, msg)

    def peek(self) -> Optional[str]:
        return self.text[self.pos] if self.pos < len(self.text) else None

    def parse(self):
        node = self.parse_alt()
        if self.pos != len(self.text):
            self.error(f"unexpected {self.text[self.pos]!r}")
        return node

    def parse_alt(self):
        branches = [self.parse_concat()]
        while self.peek() == "|":
            self.pos += 1
            branches.append(self.parse_concat())
        return branches[0] if len(branches) == 1 else ("alt", branches)

    def parse_concat(self):
        parts = []
        while True:
            c = self.peek()
            if c is None or c in "|)":
                break
            parts.append(self.parse_repeat())
        if not parts:
            return ("eps",)
        return parts[0] if len(parts) == 1 else ("cat", parts)

    def parse_repeat(self):
        node = self.parse_atom()
        while True:
            c = self.peek()
            if c == "*":
                node = ("star", node)
            elif c == "+":
                node = ("plus", node)
            elif c == "?":
                node = ("opt", node)
            elif c == "{":
                node = self.parse_counted(node)
                continue
            else:
                return node
            self.pos += 1

    def parse_counted(self, node):
        open_pos = self.pos
        self.pos += 1
        lo = self.parse_int()
        hi: Optional[int]
        if self.peek() == ",":
            self.pos += 1
            hi = self.parse_int() if self.peek() != "}" else None
        else:
            hi = lo
        if self.peek() != "}":
            self.error("expected '}'")
        self.pos += 1
        if hi is not None and hi < lo:
            self.error(f"reversed repetition range {{{lo},{hi}}}", open_pos)
        return ("rep", node, lo, hi)

    def parse_int(self) -> int:
        start = self.pos
        while self.peek() is not None and self.peek().isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected a number")
        return int(self.text[start:self.pos])

    def parse_atom(self):
        c = self.peek()
        if c == "(":
            self.pos += 1
            node = self.parse_alt()
            if self.peek() != ")":
                self.error("unbalanced '('")
            self.pos += 1
            return node
        if c == ".":
            self.pos += 1
            return ("dot",)
        if c in _META:
            self.error(f"unexpected {c!r}")
        if c not in self.symbols:
            raise UnknownSymbolError(
                f"literal {c!r} at position {self.pos} is not in the alphabet")
        self.pos += 1
        return ("char", c)


# ---------------------------------------------------------------------------
# compilation to a Thompson program
# ---------------------------------------------------------------------------

# instructions: ("char", c) ("dot",) ("split", a, b) ("jmp", a) ("match",)

def _compile(node, prog: list) -> None:
    kind = node[0]
    if kind == "eps":
        return
    if kind == "char":
        prog.append(("char", node[1]))
    elif kind == "dot":
        prog.append(("dot",))
    elif kind == "cat":
        for part in node[1]:
            _compile(part, prog)
    elif kind == "alt":
        _compile_alt(node[1], prog)
    elif kind == "star":
        split = len(prog)
        prog.append(None)
        _compile(node[1], prog)
        prog.append(("jmp", split))
        prog[split] = ("split", split + 1, len(prog))
    elif kind == "plus":
        body = len(prog)
        _compile(node[1], prog)
        prog.append(("split", body, len(prog) + 1))
    elif kind == "opt":
        split = len(prog)
        prog.append(None)
        _compile(node[1], prog)
        prog[split] = ("split", split + 1, len(prog))
    elif kind == "rep":
        _, body, lo, hi = node
        for _ in range(lo):
            _compile(body, prog)
        if hi is None:
            _compile(("star", body), prog)
        else:
            for _ in range(hi - lo):
                _compile(("opt", body), prog)
    else:  # pragma: no cover
        raise AssertionError(f"unknown node {node!r}")


def _compile_alt(branches, prog: list) -> None:
    if len(branches) == 1:
        _compile(branches[0], prog)
        return
    split = len(prog)
    prog.append(None)
    _compile(branches[0], prog)
    jmp = len(prog)
    prog.append(None)
    prog[split] = ("split", split + 1, len(prog))
    _compile_alt(branches[1:], prog)
    prog[jmp] = ("jmp", len(prog))


def _reverse(node):
    """AST of the reversed language: every concatenation runs backwards."""
    kind = node[0]
    if kind == "cat":
        return ("cat", [_reverse(p) for p in reversed(node[1])])
    if kind == "alt":
        return ("alt", [_reverse(b) for b in node[1]])
    if kind in ("star", "plus", "opt", "rep"):
        return (kind, _reverse(node[1])) + node[2:]
    return node


@dataclass
class SymbolPattern:
    """Compiled pattern: the source text and the reversed pattern's program."""

    source: str
    alphabet: Alphabet
    program: list

    @property
    def n_states(self) -> int:
        return len(self.program)


def compile_pattern(text: str, alphabet: Alphabet) -> SymbolPattern:
    """Parse and compile pattern text for the given alphabet."""
    ast = _Parser(text, alphabet).parse()
    prog: list = []
    _compile(_reverse(ast), prog)
    prog.append(("match",))
    return SymbolPattern(text, alphabet, prog)


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def _add_thread(eps: list, states: dict, seen: set, pc: int, end: int) -> None:
    """Give pc and its epsilon closure the tag `end` where no thread is yet.

    Threads are added largest end first, so the first to reach a pc holds
    its maximal end.  `eps[p]` lists the successors of a split or jmp and is
    None for a consuming pc (char, dot, match); only the latter land in
    `states`.  `seen` holds every pc reached in the current step.
    """
    stack = [pc]
    while stack:
        p = stack.pop()
        if p in seen:
            continue
        seen.add(p)
        if eps[p] is None:
            states[p] = end
        else:
            stack.extend(eps[p])


def _find_all_runs(pattern: SymbolPattern, runs: Runs,
                   total: int) -> tuple[list[Match], int]:
    """Leftmost-longest matches over valid runs, and the steps taken.

    Backward pass: the reversed program runs right to left with a thread
    injected at every boundary j, and each pc keeps the maximal match end;
    the match pc's end at j is the longest match starting at j.  `states`
    maps pc -> end tag, largest first.  Within a run [a, b) a tag t >= 0 is
    absolute (the thread entered at or after b) and t < 0 is `fresh + delta`,
    the end j + delta of a thread injected inside the run.  A step adds one
    to the relative tags and adds the fresh thread last, which keeps the
    order, and it maps tags the same way at every boundary of the run: once
    a step leaves the map unchanged, the rest of the run is skipped.  A map
    that cycles with a period above 1 never repeats from one step to the
    next, so its run is stepped sample by sample.  Longest ends are kept as
    segments [lo, hi, base, slope] (end at j = base + slope * j), never per
    sample.  Forward pass: emit the longest match at the first start that
    has one, resume at its end.  Steps: backward steps plus matches.
    """
    prog = pattern.program
    eps = [op[1:] if op[0] in ("split", "jmp") else None for op in prog]
    match_pc = len(prog) - 1
    fresh = -(total + 1)
    states: dict = {}
    _add_thread(eps, states, set(), 0, total)
    takes_by_code: dict = {}
    segments: list = []  # built right to left
    steps = 0
    for code, a, length in zip(runs.codes[::-1].tolist(), runs.starts[::-1].tolist(),
                               runs.lengths[::-1].tolist()):
        j = a + length
        takes = takes_by_code.get(code)
        if takes is None:
            takes = takes_by_code[code] = frozenset(
                p for p, op in enumerate(prog)
                if op[0] == "dot" or op == ("char", runs.table[code]))
        while j > a:
            nxt: dict = {}
            seen: set = set()
            for p, t in states.items():
                if p in takes and p + 1 not in seen:
                    _add_thread(eps, nxt, seen, p + 1, t + 1 if t < 0 else t)
            _add_thread(eps, nxt, seen, 0, fresh)
            j -= 1
            steps += 1
            fixed = nxt == states
            states = nxt
            t = states.get(match_pc)
            if t is not None and t != fresh:
                base, slope = (t, 0) if t >= 0 else (t - fresh, 1)
                lo = a if fixed else j
                last = segments[-1] if segments else None
                if last and last[0] == j + 1 and last[2] == base and last[3] == slope:
                    last[0] = lo
                else:
                    segments.append([lo, j + 1, base, slope])
            if fixed:
                break
        states = {p: t if t >= 0 else a + t - fresh for p, t in states.items()}

    matches = []
    pos = 0
    for lo, hi, base, slope in reversed(segments):
        j = max(lo, pos)
        while j < hi:
            pos = base + slope * j
            matches.append(Match(j, pos))
            j = pos
    return matches, steps + len(matches)


def find_all(pattern: SymbolPattern, stream: SymbolStream) -> list[Match]:
    """All leftmost non-overlapping matches, longest at each start."""
    if stream.alphabet is not None and \
            tuple(stream.alphabet.symbols) != tuple(pattern.alphabet.symbols):
        raise AlphabetMismatchError(
            f"stream alphabet {stream.alphabet.symbols} differs from "
            f"pattern alphabet {pattern.alphabet.symbols}")
    return _find_all_runs(pattern, compress_runs(stream), len(stream))[0]


def find_all_tokens(pattern: SymbolPattern, runs: Runs) -> list[Match]:
    """Same result as find_all on the decompressed stream, run-aware."""
    return _find_all_runs(pattern, runs, validate_tokens(runs))[0]


def matches_to_csv(matches: Sequence[Match], path) -> None:
    write_csv(path, "start,end\n", len(matches),
              lambda a, b: (np.array([m.start for m in matches[a:b]], dtype=np.int64),
                            np.array([m.end for m in matches[a:b]], dtype=np.int64)))
