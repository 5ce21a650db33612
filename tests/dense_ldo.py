"""The dense SVD path of the LDO solve, kept as a test oracle.

This is the O(n^3) code the banded QR path replaced: the full SVD of the
dense operator (`entries`), its rank and null basis under the same cutoff
``max(n * eps, 1e-10) * s_max``, the Moore-Penrose inverse, the constrained
solution map A and the minimum-norm solve.  It builds several n x n arrays
and is used only to check the production code on small grids.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from siglex.operators import LdoMatrix, _constraint_rows

EPS = float(np.finfo(np.float64).eps)


class DenseLdo:
    """One SVD of `op.entries` and what the old solve path derived from it.

    `op` is the operator with the SVD's rank, null basis and tolerance;
    `s` holds all n singular values, descending.
    """

    def __init__(self, op: LdoMatrix):
        try:
            u, self.s, vt = np.linalg.svd(op.entries)
        except np.linalg.LinAlgError:
            # LAPACK's divide-and-conquer SVD can fail to converge on clusters
            # of tiny singular values; L^T = V S U^T is the same factorization
            vt, self.s, u = (a.T for a in np.linalg.svd(op.entries.T))
        cutoff = self.s[0] * max(op.grid.n * EPS, 1e-10) if self.s[0] > 0 else 0.0
        r = int(np.count_nonzero(self.s > cutoff))
        self.op = replace(op, null_basis=vt[r:].T.copy(), rank=r, rank_tolerance=cutoff)
        self.pseudo_inverse = (vt[:r].T / self.s[:r]) @ u[:, :r].T

    def solution_operator(self, constraint_indices) -> np.ndarray:
        """Linear map A with y = A g + (terms from the constraint values).

        For k = 0 this is the pseudo-inverse.  The indices are checked
        against the dense null basis as in `solve_inverse`.
        """
        rows, nb = _constraint_rows(self.op, constraint_indices)
        if not rows:
            return self.pseudo_inverse
        proj = self.op.null_basis @ np.linalg.inv(nb)
        return self.pseudo_inverse - proj @ self.pseudo_inverse[rows, :]

    def solve(self, g, constraints) -> tuple[np.ndarray, np.ndarray]:
        """(y, variance): the minimum-norm particular solution plus the null
        modes that meet the constraints, and diag(A A^T)."""
        constraints = list(constraints)
        a_map = self.solution_operator([i for i, _ in constraints])
        rows = [int(i) for i, _ in constraints]
        vals = np.array([float(v) for _, v in constraints])
        y = self.pseudo_inverse @ np.asarray(g, dtype=np.float64)
        if rows:
            nb = self.op.null_basis[rows, :]
            y = y + self.op.null_basis @ np.linalg.solve(nb, vals - y[rows])
        return y, np.einsum("ij,ij->i", a_map, a_map)


def pseudo_inverse(op: LdoMatrix) -> np.ndarray:
    """Moore-Penrose inverse with the rank cutoff."""
    return DenseLdo(op).pseudo_inverse


def solution_operator(op: LdoMatrix, constraint_indices) -> np.ndarray:
    """See `DenseLdo.solution_operator`."""
    return DenseLdo(op).solution_operator(constraint_indices)
