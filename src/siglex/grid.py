"""Uniform sample grids."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class Grid:
    """Uniform time grid t_k = t0 + k*h for k in [0, n).

    Parameters
    ----------
    n : int
        Sample count, at least 2.
    h : float
        Step size in seconds, strictly positive.
    t0 : float
        Start time in seconds.
    """

    n: int
    h: float
    t0: float = 0.0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"grid needs n >= 2, got {self.n}")
        if not self.h > 0:
            raise ValueError(f"grid needs h > 0, got {self.h}")

    def times(self) -> np.ndarray:
        return self.t0 + self.h * np.arange(self.n)

    @property
    def t_end(self) -> float:
        return self.t0 + self.h * (self.n - 1)

    def time_at(self, k):
        """t_k; elementwise for an integer array k."""
        return self.t0 + self.h * k

    def index_at_or_before(self, t):
        """Largest k with t_k <= t, tolerating ~1e-9 relative time jitter.

        Elementwise for an array of times (an int64 array comes back).
        """
        k = np.floor((np.asarray(t) - self.t0) / self.h + 1e-9)
        k = np.clip(k, 0, self.n - 1).astype(np.int64)
        return k if k.ndim else int(k)

    def interior(self, w: int) -> Optional["Grid"]:
        """Sub-grid without the first and last w samples, where a 2w+1-sample
        stencil fits ("valid" boundary); None if fewer than 2 samples remain."""
        n = self.n - 2 * w
        return Grid(n, self.h, self.time_at(w)) if n >= 2 else None
