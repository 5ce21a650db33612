"""Regex-subset matching over symbol streams and token lists.

Grammar: alphabet literals, concatenation, alternation `|`, grouping
`(...)`, `*`, `+`, `?`, counted repetition `{m}` / `{m,}` / `{m,n}`, and the
wildcard `.` (which matches any single sample, gap symbols included).  No
anchors, classes, or backreferences.

Matching is leftmost-longest and non-overlapping: the scan finds the
earliest start with any match, takes the longest match at that start,
emits it, and resumes at its end.  Zero-length matches are skipped.  The
production matcher simulates a Thompson automaton over run-length tokens:
a state-set step per symbol, with the rest of a run skipped once the state
set reaches a fixed point, so no pattern backtracks exponentially.  It is
not linear in the stream: the scan restarts after each match and may read
to the end of the stream before a match resolves (``s|s.*u`` over
``sdsd...`` is quadratic), and while no match is pending fresh threads are
injected at every sample, so runs are stepped sample by sample.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .errors import (
    AlphabetMismatchError,
    PatternSyntaxError,
    UnknownSymbolError,
)
from .scla import Alphabet, SymbolStream, Token, compress_runs, validate_tokens

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
        if c is None:
            self.error("unexpected end of pattern")
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


@dataclass
class SymbolPattern:
    """Compiled pattern: the source text and its automaton program."""

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
    _compile(ast, prog)
    prog.append(("match",))
    return SymbolPattern(text, alphabet, prog)


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def _add_thread(prog, states: dict, pc: int, start: int) -> None:
    """Occupy pc (and its epsilon closure) keeping the minimal start."""
    stack = [pc]
    while stack:
        p = stack.pop()
        cur = states.get(p)
        if cur is not None and cur <= start:
            continue
        op = prog[p]
        if op[0] == "split":
            states[p] = start  # mark to cut epsilon cycles
            stack.append(op[1])
            stack.append(op[2])
        elif op[0] == "jmp":
            states[p] = start
            stack.append(op[1])
        else:
            states[p] = start


def _consuming(prog, states: dict) -> dict:
    """Drop epsilon bookkeeping entries, keep char/dot/match threads."""
    return {p: s for p, s in states.items() if prog[p][0] in ("char", "dot", "match")}


def _scan(pattern: SymbolPattern, runs: Sequence[Token], run_starts,
          total: int, from_pos: int) -> Optional[Match]:
    """First resolvable leftmost-longest nonzero match at or after from_pos."""
    prog = pattern.program
    match_pc = len(prog) - 1
    states: dict = {}
    cand_start = cand_end = None
    pos = from_pos
    idx = bisect_right(run_starts, from_pos) - 1 if runs else 0

    while idx < len(runs):
        tok = runs[idx]
        run_end = tok.start_index + tok.run_length
        sym = tok.symbol
        prev = None
        while pos < run_end:
            if cand_start is None:
                scratch: dict = {}
                _add_thread(prog, scratch, 0, pos)
                fresh = _consuming(prog, scratch)
                # merge into a copy: `prev` must keep the pre-injection image
                states = dict(states)
                for p, s in fresh.items():
                    if states.get(p, total + 1) > s:
                        states[p] = s
            s_match = states.get(match_pc)
            if s_match is not None and pos > s_match:
                if cand_start is None or s_match < cand_start:
                    cand_start, cand_end = s_match, pos
                elif s_match == cand_start and pos > cand_end:
                    cand_end = pos
            if cand_start is not None:
                live = [s for p, s in states.items() if p != match_pc]
                if not live or min(live) > cand_start:
                    return Match(cand_start, cand_end)
            # consume one symbol
            nxt: dict = {}
            for p, s in states.items():
                op = prog[p]
                if op[0] == "dot" or (op[0] == "char" and op[1] == sym):
                    _add_thread(prog, nxt, p + 1, s)
            states = _consuming(prog, nxt)
            pos += 1
            # fixed point within a uniform run: the remaining steps of the
            # run repeat this one exactly, so skip ahead
            if prev is not None and states == prev and pos < run_end:
                s_match = states.get(match_pc)
                if s_match is None or (cand_start is not None and s_match > cand_start):
                    pos = run_end
                elif cand_start is not None and s_match == cand_start:
                    cand_end = max(cand_end, run_end - 1)
                    pos = run_end
                # otherwise (fresh or leftward match pending) keep stepping
            prev = states
        idx += 1

    s_match = states.get(match_pc)
    if s_match is not None and pos > s_match:
        if cand_start is None or s_match < cand_start:
            cand_start, cand_end = s_match, pos
        elif s_match == cand_start and pos > cand_end:
            cand_end = pos
    if cand_start is not None:
        return Match(cand_start, cand_end)
    return None


def _find_all_runs(pattern: SymbolPattern, runs: Sequence[Token],
                   total: int) -> list[Match]:
    run_starts = [t.start_index for t in runs]
    matches = []
    pos = 0
    while pos < total:
        m = _scan(pattern, runs, run_starts, total, pos)
        if m is None:
            break
        matches.append(m)
        pos = m.end
    return matches


def find_all(pattern: SymbolPattern, stream: Union[SymbolStream, str]) -> list[Match]:
    """All leftmost non-overlapping matches, longest at each start."""
    if isinstance(stream, SymbolStream):
        if stream.alphabet is not None and \
                tuple(stream.alphabet.symbols) != tuple(pattern.alphabet.symbols):
            raise AlphabetMismatchError(
                f"stream alphabet {stream.alphabet.symbols} differs from "
                f"pattern alphabet {pattern.alphabet.symbols}")
        syms = stream.symbols
    else:
        syms = stream
    runs = compress_runs(syms)
    return _find_all_runs(pattern, runs, len(syms))


def find_all_tokens(pattern: SymbolPattern, tokens: Sequence[Token]) -> list[Match]:
    """Same result as find_all on the decompressed stream, run-aware."""
    total = validate_tokens(tokens)
    return _find_all_runs(pattern, tokens, total)


def matches_to_csv(matches: Sequence[Match], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("start,end\n")
        for m in matches:
            fh.write(f"{m.start},{m.end}\n")
