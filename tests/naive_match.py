"""Independent match oracle and pattern generators for tests.

The oracle interprets pattern ASTs directly and never touches the
production automaton.  From each start it steps forward one sample at a
time over the set of AST states still alive, so a start costs memory in
proportion to the pattern, not to the stream.  Pattern generators produce
(text, ast) pairs so the production parser is exercised against
structurally-known patterns.
"""

from __future__ import annotations

from itertools import product

# AST nodes mirror the surface grammar:
#   ("char", c) ("dot",) ("cat", [..]) ("alt", [..])
#   ("star", a) ("plus", a) ("opt", a) ("rep", a, lo, hi|None) ("eps",)

# transitions kept per oracle: the cache stays bounded whatever the stream
_STEP_CACHE = 50_000


class _Oracle:
    """An AST as numbered nodes, simulated over sets of AST states.

    An AST state is (leaf, rest): a literal or `.` node waiting for the next
    sample, and the continuation to follow once it has consumed it.  A
    continuation is a linked tuple (frame, rest) or None (the match is
    complete); a frame is ("do", node), ("loop", body) for a star, or
    ("rep", node, n) for a counted repetition with n bodies done (a count
    without an upper bound stops at lo, past which all counts act alike).
    """

    def __init__(self, ast):
        self.kind: list = []
        self.arg: list = []
        self.root = self._number(ast)
        self._closures: dict = {}
        self._steps: dict = {}

    def _number(self, node) -> int:
        kind = node[0]
        if kind in ("cat", "alt"):
            arg = tuple(self._number(c) for c in node[1])
        elif kind in ("star", "plus", "opt"):
            arg = self._number(node[1])
        elif kind == "rep":
            arg = (self._number(node[1]), node[2], node[3])
        else:
            arg = node[1] if kind == "char" else None
        self.kind.append(kind)
        self.arg.append(arg)
        return len(self.kind) - 1

    def _close(self, cont) -> tuple:
        """(AST states reachable from `cont` without a sample, whether the
        match can complete there)."""
        got = self._closures.get(cont)
        if got is not None:
            return got
        leaves, accept, seen, stack = set(), False, set(), [cont]
        while stack:
            k = stack.pop()
            if k in seen:
                continue
            seen.add(k)
            if k is None:
                accept = True
                continue
            frame, rest = k
            if frame[0] == "loop":
                stack += [rest, (("do", frame[1]), k)]
            elif frame[0] == "rep":
                body, lo, hi = self.arg[frame[1]]
                n = frame[2]
                if n >= lo:
                    stack.append(rest)
                if hi is None or n < hi:
                    again = min(n + 1, lo) if hi is None else n + 1
                    stack.append((("do", body), (("rep", frame[1], again), rest)))
            else:
                node = frame[1]
                kind, arg = self.kind[node], self.arg[node]
                if kind in ("char", "dot"):
                    leaves.add((node, rest))
                elif kind == "eps":
                    stack.append(rest)
                elif kind == "cat":
                    for part in reversed(arg):
                        rest = (("do", part), rest)
                    stack.append(rest)
                elif kind == "alt":
                    stack += [(("do", b), rest) for b in arg]
                elif kind == "star":
                    stack.append((("loop", arg), rest))
                elif kind == "plus":
                    stack.append((("do", arg), (("loop", arg), rest)))
                elif kind == "opt":
                    stack += [rest, (("do", arg), rest)]
                elif kind == "rep":
                    stack.append((("rep", node, 0), rest))
                else:  # pragma: no cover
                    raise AssertionError(f"unknown node kind {kind!r}")
        got = self._closures[cont] = (frozenset(leaves), accept)
        return got

    def _step(self, states: frozenset, symbol: str) -> tuple:
        """(AST states after consuming `symbol`, whether a match ends there)."""
        got = self._steps.get((states, symbol))
        if got is not None:
            return got
        leaves, accept = set(), False
        for leaf, rest in states:
            if self.kind[leaf] == "dot" or self.arg[leaf] == symbol:
                more, done = self._close(rest)
                leaves |= more
                accept = accept or done
        got = (frozenset(leaves), accept)
        if len(self._steps) < _STEP_CACHE:
            self._steps[(states, symbol)] = got
        return got

    def ends(self, s: str, i: int):
        """Every j >= i such that the pattern matches s[i:j), in order."""
        states, accept = self._close((("do", self.root), None))
        if accept:
            yield i
        for j in range(i, len(s)):
            if not states:
                return
            states, accept = self._step(states, s[j])
            if accept:
                yield j + 1


def match_ends(node, s: str, i: int, memo: dict) -> frozenset:
    """All j >= i such that node matches s[i:j).  `memo` keeps each node's
    oracle between calls, keyed by id(), so a node must stay alive for as
    long as the memo is used."""
    key = ("oracle", id(node))
    if key not in memo:
        memo[key] = _Oracle(node)
    return frozenset(memo[key].ends(s, i))


def naive_find_all(ast, s: str) -> list[tuple[int, int]]:
    """Leftmost non-overlapping longest matches, zero-length skipped."""
    oracle = _Oracle(ast)
    out = []
    pos = 0
    n = len(s)
    while pos < n:
        end = max(oracle.ends(s, pos), default=pos)
        if end > pos:
            out.append((pos, end))
            pos = end
        else:
            pos += 1
    return out


# ---------------------------------------------------------------------------
# pattern generation
# ---------------------------------------------------------------------------

def _render(node, parent_tight: bool = False) -> str:
    kind = node[0]
    if kind == "char":
        return node[1]
    if kind == "dot":
        return "."
    if kind == "eps":
        return "()"
    if kind == "cat":
        text = "".join(_render(p, True) if p[0] == "alt" else _render(p)
                       for p in node[1])
        return f"({text})" if parent_tight else text
    if kind == "alt":
        text = "|".join(_render(b) for b in node[1])
        return f"({text})" if parent_tight else text
    body = node[1]
    btxt = _render(body)
    if body[0] not in ("char", "dot") or len(btxt) != 1:
        btxt = f"({btxt})"
    if kind == "star":
        return btxt + "*"
    if kind == "plus":
        return btxt + "+"
    if kind == "opt":
        return btxt + "?"
    if kind == "rep":
        _, _, lo, hi = node
        if hi is None:
            return f"{btxt}{{{lo},}}"
        if hi == lo:
            return f"{btxt}{{{lo}}}"
        return f"{btxt}{{{lo},{hi}}}"
    raise AssertionError(node)


def render(node) -> str:
    """Pattern text whose parse tree is equivalent to `node`."""
    return _render(node)


def random_pattern(rng, symbols: str, depth: int = 3):
    """Seeded random (text, ast) pair over the given symbols."""
    def gen(d):
        if d == 0 or rng.random() < 0.35:
            if rng.random() < 0.15:
                return ("dot",)
            return ("char", symbols[rng.integers(len(symbols))])
        roll = rng.random()
        if roll < 0.25:
            return ("cat", [gen(d - 1) for _ in range(int(rng.integers(2, 4)))])
        if roll < 0.45:
            return ("alt", [gen(d - 1) for _ in range(int(rng.integers(2, 4)))])
        if roll < 0.60:
            return ("star", gen(d - 1))
        if roll < 0.72:
            return ("plus", gen(d - 1))
        if roll < 0.84:
            return ("opt", gen(d - 1))
        lo = int(rng.integers(0, 4))
        if rng.random() < 0.4:
            return ("rep", gen(d - 1), lo, None)
        return ("rep", gen(d - 1), lo, lo + int(rng.integers(0, 3)))

    ast = gen(depth)
    return render(ast), ast


def enumerate_patterns(symbols: str, max_text_len: int = 12):
    """Deterministic bounded-depth pattern enumeration, deduped by text."""
    atoms = [("char", c) for c in symbols] + [("dot",)]
    unary = lambda n: [("star", n), ("plus", n), ("opt", n),
                       ("rep", n, 2, 2), ("rep", n, 1, 3), ("rep", n, 2, None)]
    level1 = []
    for a in atoms:
        level1.extend(unary(a))
    for a, b in product(atoms, atoms):
        level1.append(("cat", [a, b]))
        level1.append(("alt", [a, b]))
    level2 = []
    for n in level1:
        level2.extend(unary(n))
    for a, n in product(atoms, level1):
        level2.append(("cat", [a, n]))
        level2.append(("alt", [a, n]))
    seen = set()
    out = []
    for ast in atoms + level1 + level2:
        text = render(ast)
        if len(text) <= max_text_len and text not in seen:
            seen.add(text)
            out.append((text, ast))
    return out
