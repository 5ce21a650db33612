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

A counted repetition of a one-sample body (a literal, `.`, or an
alternation of those, as in ``u{3,}``, ``.{0,40}`` or ``(u|d){2,5}``)
compiles to one count instruction whatever its bounds, after the
counting-set automata of Turonova et al. (OOPSLA 2020): the threads inside
it form a set of (count, end) entries that one shared offset counts, with
dominated entries pruned.  Other counted bodies are unrolled, and a
pattern whose program would exceed `MAX_PROGRAM` (10 000) instructions is
rejected; unrolling stops at the limit, so a huge bound is rejected as
fast.  A pattern nested more than `MAX_NESTING` (100) levels deep, in groups
or in operators on operators, is rejected too; alternation width is not
depth, so nothing recurses deeper than that.

The backward state is a shape, the pcs of the live threads in thread
order, with their end tags: the absolute end of each thread's match, which
no step rewrites (tags never change as they move, as in Laurikari's tagged
automata, SPIRE 2000).  Which pc takes which tag depends only on the
shape, the symbol and where each counting-set exit joins the consuming
threads, so each (shape, symbol, exit signature) walks its epsilon
closures once per call, and every later step replays it: a step costs
O(live threads + live counter entries), not O(pcs) or O(unrolled copies).
The cache lives for one call.  It is cleared once its steps hold more than
`_CACHE_BUDGET` (2^14) indices, one per pc of each next shape and one per
exit of each key: at most 2^14 steps of a few hundred bytes, about 10 MB.
The largest caches that the tests' pattern fuzzes and the benchmark
workloads build hold 86 steps and 866 indices (a 3000-way alternation:
9002 indices).

Inside a run the automaton stops stepping once its state map and counting
sets repeat, so a run costs a few steps whatever its length: the tests
count at most (states + 2) * runs + matches steps on ``s|s.*u`` over
``sdsd...`` and on ``u{3,}d+`` over runs of 1e5, and (states + 2 + 40) *
runs + matches on ``d.{0,40}u``, whose set may change for up to 40 steps.
A map that cycles with a period above 1 (``(uu)+`` inside a long ``u`` run)
is still stepped sample by sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import itemgetter
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

MAX_NESTING = 100


class _Parser:
    def __init__(self, text: str, alphabet: Alphabet):
        self.text = text
        self.pos = 0
        self.symbols = set(alphabet.symbols)
        self.groups = 0  # open groups around `pos`

    def error(self, msg: str, pos: Optional[int] = None):
        raise PatternSyntaxError(self.pos if pos is None else pos, msg)

    def peek(self) -> Optional[str]:
        return self.text[self.pos] if self.pos < len(self.text) else None

    def parse(self):
        node = self.parse_alt()
        if self.pos != len(self.text):
            self.error(f"unexpected {self.text[self.pos]!r}")
        if _depth(node) > MAX_NESTING:
            self.error(f"nested more than {MAX_NESTING} levels deep", 0)
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
            if self.groups == MAX_NESTING:
                self.error(f"nested more than {MAX_NESTING} levels deep")
            self.groups += 1
            self.pos += 1
            node = self.parse_alt()
            if self.peek() != ")":
                self.error("unbalanced '('")
            self.pos += 1
            self.groups -= 1
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


def _depth(node) -> int:
    """Levels of the AST, counted without recursion."""
    deepest, stack = 0, [(node, 1)]
    while stack:
        node, d = stack.pop()
        deepest = max(deepest, d)
        if node[0] in ("cat", "alt"):
            stack.extend((child, d + 1) for child in node[1])
        elif node[0] in ("star", "plus", "opt", "rep"):
            stack.append((node[1], d + 1))
    return deepest


# ---------------------------------------------------------------------------
# compilation to a Thompson program
# ---------------------------------------------------------------------------

# instructions: ("char", c) ("dot",) ("split", a, b) ("jmp", a) ("match",)
# and ("count", body, lo, hi): a one-sample body repeated lo..hi times
# (hi None: no bound), 1 <= lo <= hi, exiting to the next pc.

MAX_PROGRAM = 10_000


def _one_sample(node) -> bool:
    """Whether the node consumes exactly one sample: a literal, `.`, or an
    alternation of such nodes."""
    kind = node[0]
    return kind in ("char", "dot") or (kind == "alt" and all(map(_one_sample, node[1])))


def _takes(node, symbol: str) -> bool:
    """Whether a one-sample node consumes a sample named `symbol`."""
    if node[0] == "alt":
        return any(_takes(b, symbol) for b in node[1])
    return node[0] == "dot" or node[1] == symbol


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
        if hi == 0:
            return
        if _one_sample(body):
            if lo == 0:
                _compile(("opt", ("rep", body, 1, hi)), prog)
            else:
                prog.append(("count", body, lo, hi))
            return
        # copies past MAX_PROGRAM exceed the limit anyway (each emits an
        # instruction), and a count past 2^63 would overflow `repeat`
        rest = (repeat(("star", body), 1) if hi is None
                else repeat(("opt", body), min(hi - lo, MAX_PROGRAM)))
        for part in chain(repeat(body, min(lo, MAX_PROGRAM)), rest):
            size = len(prog)
            _compile(part, prog)
            if len(prog) == size:
                return  # only a body copy can emit nothing, and then so do all
            _check_size(prog)
    else:  # pragma: no cover
        raise AssertionError(f"unknown node {node!r}")


def _check_size(prog: list) -> None:
    """Stop compiling once the program, with its match instruction, would
    exceed `MAX_PROGRAM`: unrolled copies stop there, so a huge bound costs
    no more than the limit."""
    if len(prog) >= MAX_PROGRAM:
        raise PatternSyntaxError(
            0, f"compiles to {len(prog) + 1} or more instructions, "
               f"over the limit of {MAX_PROGRAM}")


def _compile_alt(branches, prog: list) -> None:
    """Each branch but the last behind a split to the next one, and a jump
    past the last."""
    jumps = []
    for branch in branches[:-1]:
        split = len(prog)
        prog.append(None)
        _compile(branch, prog)
        jumps.append(len(prog))
        prog.append(None)
        prog[split] = ("split", split + 1, len(prog))
    _compile(branches[-1], prog)
    for jmp in jumps:
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
    """Compiled pattern: the source text and the reversed pattern's program.

    Built once per pattern: `eps[p]`, the successors of a split or jmp
    (None for a pc that waits for a sample, char, dot or count, or is the
    match); `counters`, the count pcs; `start`, the pcs a thread injected
    at pc 0 lands on; and, on first use, each symbol's take sets.
    """

    source: str
    alphabet: Alphabet
    program: list
    eps: list = field(init=False, repr=False, compare=False)
    counters: list = field(init=False, repr=False, compare=False)
    start: tuple = field(init=False, repr=False, compare=False)
    _take_sets: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        self.eps = [op[1:] if op[0] in ("split", "jmp") else None for op in self.program]
        self.counters = [p for p, op in enumerate(self.program) if op[0] == "count"]
        lands: dict = {}
        _add_thread(self.eps, lands, set(), 0, 0)
        self.start = tuple(lands)

    @property
    def n_states(self) -> int:
        return len(self.program)

    def take_sets(self, symbol: str) -> tuple[frozenset, frozenset]:
        """The char and dot pcs, and the count pcs, that consume `symbol`."""
        sets = self._take_sets.get(symbol)
        if sets is None:
            prog = self.program
            sets = self._take_sets[symbol] = (
                frozenset(p for p, op in enumerate(prog)
                          if op[0] in ("char", "dot") and _takes(op, symbol)),
                frozenset(p for p in self.counters if _takes(prog[p][1], symbol)))
        return sets


def compile_pattern(text: str, alphabet: Alphabet) -> SymbolPattern:
    """Parse and compile pattern text for the given alphabet.

    A pattern whose program would exceed `MAX_PROGRAM` instructions raises
    PatternSyntaxError, at the latest once that many are emitted.
    """
    prog: list = []
    _compile(_reverse(_Parser(text, alphabet).parse()), prog)
    _check_size(prog)
    prog.append(("match",))
    return SymbolPattern(text, alphabet, prog)


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def _add_thread(eps: list, states: dict, seen: set, pc: int, end: int) -> None:
    """Give pc and its epsilon closure the tag `end` where no thread is yet.

    Threads are added largest end first, so the first to reach a pc holds
    its maximal end.  Only pcs with `eps[p]` None land in `states`; `seen`
    holds the other pcs reached in the current step.
    """
    stack = [pc]
    while stack:
        p = stack.pop()
        if eps[p] is None:
            if p not in states:
                states[p] = end
        elif p not in seen:
            seen.add(p)
            stack.extend(eps[p])


class _CountingSet:
    """The threads inside one count instruction, as (jb, end) entries.

    An entry came in at boundary jb, so at boundary j it has consumed
    jb - j body samples: the boundary is the one offset that counts every
    entry.  `end` is the entry's absolute match end.  Entries below `lo`
    wait, oldest first.  With a bound `hi`, ready entries leave once past
    it, oldest first, so a ready entry with a larger count and an end no
    larger than another's is dominated: it is pruned, the ready ends fall
    from oldest to newest, and the oldest is the exit.  Without a bound
    nothing leaves, so an older entry dominates a newer one with an end no
    larger: a new entry is kept only if its end beats every older one, and
    the one ready entry is the newest to reach `lo` (counts saturate there).

    `still` tells whether the last step left the set's key unchanged: the
    (count, end) of each entry, with ends inside the run taken relative to
    the boundary.  Equal keys at two boundaries of a run act the same from
    there on, which is what lets `_find_all_runs` skip the rest of a run.

    `at` is the boundary the set last reached.  A step to any boundary but
    `at` - 1 follows a sample the set did not consume, which no entry
    survives, so the set starts over empty: one set per count pc serves a
    whole scan.
    """

    __slots__ = ("lo", "hi", "waiting", "ready", "last", "still", "size", "at")

    def __init__(self, lo: int, hi: Optional[int]):
        self.lo = lo
        self.hi = hi
        self.waiting: list = []
        self.ready: list = []
        self.last = self.still = self.at = None
        self.size = 0

    def step(self, j: int, b: int, arrival: Optional[int]) -> Optional[int]:
        """Consume one body sample, reaching boundary j of a run ending at b.
        `arrival` is the end of a thread that came in at j + 1; return the
        exit's end, if any."""
        waiting, ready = self.waiting, self.ready
        if self.at != j + 1:
            waiting.clear()
            ready.clear()
            self.size = 0
            self.last = None
        elif j + 1 == b:
            self.last = None  # a key relative to the last run
        self.at = j
        if self.hi is None:
            older = waiting or ready
            if arrival is not None and not (older and older[-1][1] >= arrival):
                waiting.append((j + 1, arrival))
            if waiting and waiting[0][0] - j >= self.lo:
                ready[:] = [waiting.pop(0)]
            # a newer entry always ends earlier than the last one, so a set
            # that repeats holds a lone ready entry with an end past the run
            key = ready[0][1] if ready and not waiting and ready[0][1] >= b else None
        else:
            while ready and ready[0][0] - j > self.hi:
                del ready[0]
            if arrival is not None:
                waiting.append((j + 1, arrival))
            if waiting and waiting[0][0] - j >= self.lo:
                entry = waiting.pop(0)
                while ready and ready[-1][1] <= entry[1]:
                    ready.pop()
                ready.append(entry)
            # without a newcomer every count has grown since the last step,
            # and a set that grew or shrank has changed
            newest = waiting or ready
            size, self.size = self.size, len(waiting) + len(ready)
            key = None if not newest or newest[-1][0] != j + 1 or size != self.size else \
                [(jb - j, e if e >= b else e - j) for q in (waiting, ready) for jb, e in q]
        self.still = key is not None and key == self.last
        self.last = key
        return ready[0][1] if ready else None

    def shift(self, j: int, a: int, b: int) -> None:
        """Move a set that reached boundary j on to a, as j - a steps that
        leave the key unchanged do.  An unbounded set with that key holds one
        saturated entry ending past the run, which no step moves."""
        if self.at != j:
            return
        self.at = a
        k = j - a
        if self.hi is not None:
            for entries in (self.waiting, self.ready):
                entries[:] = [(jb - k, e if e >= b else e - k) for jb, e in entries]


# indices the cached steps of one call may hold (see the module docstring)
_CACHE_BUDGET = 1 << 14


class _Shape:
    """An interned shape: its pcs, its cached steps by code or (code, exit
    signature), and per counting code the movers (set, exit pc, slot) and
    the consumers' slots."""

    __slots__ = ("pcs", "steps", "counting")

    def __init__(self, pcs: tuple):
        self.pcs = pcs
        self.steps: dict = {}
        self.counting: dict = {}


def _gather(index: tuple):
    """`src -> tuple(src[i] for i in index)`, for any non-empty index."""
    return itemgetter(*index) if len(index) > 1 else lambda src, i=index[0]: (src[i],)


def _replay(eps: list, start: tuple, pcs: tuple, takes: frozenset, sig: tuple):
    """One backward step on indices: the next shape, and for each of its
    pcs the index of its tag in [tags..., exit tags..., injected tag].

    `sig` holds (pc, rank) per counting-set exit, largest tag first; an exit
    of rank r joins ahead of the last r consuming threads.
    """
    n, k = len(pcs), 0
    consumers = [i for i, p in enumerate(pcs) if p in takes]
    nxt: dict = {}
    seen: set = set()
    for r, i in enumerate(consumers):
        while k < len(sig) and sig[k][1] >= len(consumers) - r:
            _add_thread(eps, nxt, seen, sig[k][0], n + k)
            k += 1
        _add_thread(eps, nxt, seen, pcs[i] + 1, i)
    for k in range(k, len(sig)):
        _add_thread(eps, nxt, seen, sig[k][0], n + k)
    for p in start:  # the fresh thread, whose closure is fixed
        nxt.setdefault(p, n + len(sig))
    return tuple(nxt), tuple(nxt.values())


class _StepCache:
    """The shapes of one `_find_all_runs` call and their cached steps."""

    def __init__(self, pattern: SymbolPattern):
        self.eps, self.start = pattern.eps, pattern.start
        self.match_pc = len(pattern.program) - 1
        self.root = _Shape(self.start)
        self.shapes = {self.start: self.root}
        self.held = 0

    def add(self, shape: _Shape, key, takes: frozenset, sig: tuple) -> tuple:
        """Walk and cache the step out of `shape` under `key`: the next
        shape, the gather of its tags, the match pc's slot, and if the next
        shape permutes this one, the gather of its tags in this order."""
        pcs, index = _replay(self.eps, self.start, shape.pcs, takes, sig)
        self.held += len(index) + len(sig)
        if self.held > _CACHE_BUDGET:
            for s in self.shapes.values():
                s.steps.clear()
            self.shapes = {shape.pcs: shape}
            self.held = len(index) + len(sig)
        nxt = self.shapes.get(pcs)
        if nxt is None:
            nxt = self.shapes[pcs] = _Shape(pcs)
        same = None if nxt is shape or sorted(pcs) != sorted(shape.pcs) else \
            _gather(tuple(map(pcs.index, shape.pcs)))
        shape.steps[key] = (nxt, _gather(index), pcs.index(self.match_pc)
                            if self.match_pc in pcs else None, same)
        return shape.steps[key]


def _find_all_runs(pattern: SymbolPattern, runs: Runs,
                   total: int) -> tuple[list[Match], int]:
    """Leftmost-longest matches over valid runs, and the steps taken.

    Backward pass: the reversed program runs right to left with a thread
    injected at every boundary j, and each pc keeps the maximal match end;
    the match pc's end at j is the longest match starting at j.  The state
    is a shape, the tuple of its pcs in thread order, and `tags`, their
    match ends in the same order: absolute sample indices, largest first.
    The step to boundary j gathers the next tags from `tags + (j,)`, the
    thread injected at j last, with any counter exits inserted before j in
    tag order; so a tag never changes once set, and a pc whose tag is j
    holds a zero-length match.  Inside a run [a, b) a tag t >= b came from
    a thread that entered at or after b, and t < b from one injected inside
    the run, whose end stays t - j samples ahead of the boundary.  A count
    pc's tag is a thread arriving there; the threads that have consumed
    body samples are in its `_CountingSet`, whose exit joins the step's
    moves in tag order.

    The first step from a shape on a code with given exit ranks walks the
    closures on indices (`_replay`); later ones gather the next tags with
    the cached step.

    The map at j repeats the map at j + 1 when, pc by pc in the same shape
    or a permutation of it, every tag below b is one lower and every other
    tag equal.  Once a step repeats the map and leaves every counting set's
    key unchanged, every later step of the run would too, so the rest of
    the run is skipped and the tags inside it move down to boundary a.  A
    map that cycles with a period above 1 never repeats from one step to
    the next, so its run is stepped sample by sample.  Longest ends are
    kept as segments [lo, hi, base, slope] (end at j = base + slope * j),
    never per sample.  Forward pass: emit the longest match at the first
    start that has one, resume at its end.  Steps: backward steps plus
    matches.
    """
    prog = pattern.program
    cache = _StepCache(pattern)
    shape = cache.root
    tags = (total,) * len(shape.pcs)
    sets = {c: _CountingSet(*prog[c][2:]) for c in pattern.counters}
    segments: list = []  # built right to left
    steps = 0
    take_sets = [pattern.take_sets(symbol) for symbol in runs.table]
    for code, a, length in zip(runs.codes[::-1].tolist(), runs.starts[::-1].tolist(),
                               runs.lengths[::-1].tolist()):
        b = j = a + length
        takes, counting = take_sets[code]
        while j > a:
            j -= 1
            key, sig, src = code, (), None
            still = True
            if counting:
                movers = shape.counting.get(code)
                if movers is None:
                    pcs = shape.pcs
                    movers = shape.counting[code] = (
                        [(sets[c], c + 1, pcs.index(c) if c in pcs else None)
                         for c in counting],
                        [i for i, p in enumerate(pcs) if p in takes])
                exits = []
                for cs, q, slot in movers[0]:
                    if slot is not None or cs.at == j + 1 and (cs.waiting or cs.ready):
                        t = cs.step(j, b, None if slot is None else tags[slot])
                        if not cs.still:
                            still = False
                        if t is not None:
                            exits.append((t, q))
                if exits:
                    consumers, i = movers[1], 0
                    if len(exits) == 1:  # the common case, without the sort
                        (t, q), = exits
                        while i < len(consumers) and tags[consumers[i]] > t:
                            i += 1
                        sig = ((q, len(consumers) - i),)
                        src = tags + (t, j)
                    else:
                        exits.sort(reverse=True)
                        sig = []
                        for t, q in exits:
                            while i < len(consumers) and tags[consumers[i]] > t:
                                i += 1
                            sig.append((q, len(consumers) - i))
                        sig = tuple(sig)
                        src = tags + tuple([t for t, _ in exits]) + (j,)
                    key = (code, sig)
            if src is None:
                src = tags + (j,)
            nxt, gather, match_slot, same = \
                shape.steps.get(key) or cache.add(shape, key, takes, sig)
            new = gather(src)
            # the same pc -> tag map, in this order or in another, as at j + 1:
            # ends inside the run one lower there (ends fall from first to
            # last, so the last tells whether any is inside), the others equal
            fixed = False
            if still and (nxt is shape or same is not None):
                prev = tags if tags[-1] >= b else tuple([t - 1 if t < b else t for t in tags])
                fixed = (new if nxt is shape else same(new)) == prev
            shape, tags = nxt, new
            if match_slot is not None and tags[match_slot] != j:
                t = tags[match_slot]
                base, slope = (t, 0) if t >= b else (t - j, 1)
                lo = a if fixed else j
                last = segments[-1] if segments else None
                if last and last[0] == j + 1 and last[2] == base and last[3] == slope:
                    last[0] = lo
                else:
                    segments.append([lo, j + 1, base, slope])
            if fixed:
                for cs in sets.values():
                    cs.shift(j, a, b)
                if j > a:
                    k = j - a
                    tags = tuple([t - k if t < b else t for t in tags])
                break
        steps += b - j

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
