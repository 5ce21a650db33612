"""The one CSV writer: every numeric table siglex writes goes through it.

Rows are formatted a block at a time: the block's columns become Python
scalars with ``tolist()``, each row is one ``str.format`` call, and the
block is joined and written as one string.  Memory stays at one block
however long the table; formatting a whole table before writing would hold
every row's text at once, several times the size of the arrays.
"""

from __future__ import annotations

import numpy as np

BLOCK_ROWS = 8192


def write_csv(path, header: str, fmt: str, n: int, block) -> None:
    """Write `header`, then rows 0..n-1, each formatted by `fmt`.

    `block(a, b)` returns the columns of rows a..b-1 as sequences (arrays,
    lists or ranges); `fmt` takes one positional field per column and ends
    in a newline.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header)
        for a in range(0, n, BLOCK_ROWS):
            columns = [c.tolist() if isinstance(c, np.ndarray) else c
                       for c in block(a, min(a + BLOCK_ROWS, n))]
            fh.write("".join(map(fmt.format, *columns)))
