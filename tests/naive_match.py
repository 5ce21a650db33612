"""Independent backtracking match oracle and pattern generators for tests.

The oracle interprets pattern ASTs directly (sets of reachable end
positions, memoized) and never touches the production automaton.  Pattern
generators produce (text, ast) pairs so the production parser is exercised
against structurally-known patterns.
"""

from __future__ import annotations

from itertools import product

# AST nodes mirror the surface grammar:
#   ("char", c) ("dot",) ("cat", [..]) ("alt", [..])
#   ("star", a) ("plus", a) ("opt", a) ("rep", a, lo, hi|None) ("eps",)


def _star_of(body, memo: dict):
    """The node ("star", body), built once per body.

    Memo keys hold id() of nodes, so a derived node must stay alive for as
    long as the memo does: a freed one's id can be reused by another node.
    """
    key = ("star of", id(body))
    if key not in memo:
        memo[key] = ("star", body)
    return memo[key]


def match_ends(node, s: str, i: int, memo: dict) -> frozenset:
    """All j >= i such that node matches s[i:j)."""
    key = (id(node), i)
    if key in memo:
        return memo[key]
    kind = node[0]
    if kind == "char":
        out = frozenset([i + 1]) if i < len(s) and s[i] == node[1] else frozenset()
    elif kind == "dot":
        out = frozenset([i + 1]) if i < len(s) else frozenset()
    elif kind == "eps":
        out = frozenset([i])
    elif kind == "cat":
        cur = frozenset([i])
        for part in node[1]:
            cur = frozenset(e for m in cur for e in match_ends(part, s, m, memo))
            if not cur:
                break
        out = cur
    elif kind == "alt":
        out = frozenset(e for b in node[1] for e in match_ends(b, s, i, memo))
    elif kind == "star":
        seen = {i}
        frontier = [i]
        while frontier:
            nxt = []
            for m in frontier:
                for e in match_ends(node[1], s, m, memo):
                    if e not in seen:
                        seen.add(e)
                        nxt.append(e)
            frontier = nxt
        out = frozenset(seen)
    elif kind == "plus":
        out = frozenset(e for m in match_ends(node[1], s, i, memo)
                        for e in match_ends(_star_of(node[1], memo), s, m, memo))
    elif kind == "opt":
        out = frozenset([i]) | match_ends(node[1], s, i, memo)
    elif kind == "rep":
        _, body, lo, hi = node
        cur = frozenset([i])
        for _ in range(lo):
            cur = frozenset(e for m in cur for e in match_ends(body, s, m, memo))
            if not cur:
                break
        if hi is None:
            out = frozenset(e for m in cur
                            for e in match_ends(_star_of(body, memo), s, m, memo))
        else:
            acc = set(cur)
            for _ in range(hi - lo):
                cur = frozenset(e for m in cur for e in match_ends(body, s, m, memo))
                if not cur:
                    break
                acc |= cur
            out = frozenset(acc)
    else:  # pragma: no cover
        raise AssertionError(f"unknown node {node!r}")
    memo[key] = out
    return out


def naive_find_all(ast, s: str) -> list[tuple[int, int]]:
    """Leftmost non-overlapping longest matches, zero-length skipped."""
    memo: dict = {}
    out = []
    pos = 0
    n = len(s)
    while pos < n:
        ends = [e for e in match_ends(ast, s, pos, memo) if e > pos]
        if ends:
            end = max(ends)
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
