"""Explicit minors and column replacements: the reference for the determinant
bounds that sparsecond computes from one inverse.

Each bound here builds its matrix and calls cond_det on it, so it shares no
formula with the rank-one updates of bound_inverse_entries and
bound_solve_entries. Row/column arguments are 1-based.
"""

from __future__ import annotations

import numpy as np

from sparsecond.conditioning import cond_det
from sparsecond.linalg import PatternedMatrix
from sparsecond.patterns import SparsityPattern, full_pattern


def widen_column(pattern: SparsityPattern, k: int) -> SparsityPattern:
    """Pattern with column k opened up to all rows."""
    if not 1 <= k <= pattern.n:
        raise ValueError(f"column index {k} outside [1, {pattern.n}]")
    extra = {(i, k) for i in range(1, pattern.n + 1)}
    return SparsityPattern(pattern.n, pattern.positions | extra)


def drop_row_col(pattern: SparsityPattern, i: int, j: int) -> "SparsityPattern | None":
    """Induced pattern after deleting row i and column j.

    Returns None for n == 1 (the empty pattern) or when no positions
    survive the deletion.
    """
    if pattern.n == 1:
        return None
    kept = {(r - 1 if r > i else r, c - 1 if c > j else c)
            for r, c in pattern.positions if r != i and c != j}
    return SparsityPattern(pattern.n - 1, frozenset(kept)) if kept else None


def minor(A: PatternedMatrix, i: int, j: int) -> "PatternedMatrix | None":
    """Submatrix with row i and column j deleted; the pattern is induced.

    Returns None for a 1x1 input (the empty matrix). When no position
    survives, the all-zero minor carries the full pattern, so that its
    determinant (0) can still be asked for.
    """
    n = A.n
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"minor indices ({i}, {j}) outside [1, {n}]")
    if n == 1:
        return None
    pat = drop_row_col(A.pattern, i, j)
    if pat is None:
        return PatternedMatrix(full_pattern(n - 1), np.zeros((n - 1, n - 1)))
    sub = np.delete(np.delete(A.entries, i - 1, axis=0), j - 1, axis=1)
    return PatternedMatrix(pat, sub * pat.mask)


def replace_column(A: PatternedMatrix, k: int, b) -> PatternedMatrix:
    """Copy of A with column k replaced by b; column k is widened."""
    n = A.n
    if not 1 <= k <= n:
        raise ValueError(f"column index {k} outside [1, {n}]")
    rhs = np.asarray(b, dtype=float)
    if rhs.shape != (n,):
        raise ValueError(f"rhs length {rhs.shape} does not match dimension {n}")
    entries = A.entries.copy()
    entries[:, k - 1] = rhs
    return PatternedMatrix(widen_column(A.pattern, k), entries)


def inverse_bound(A: PatternedMatrix, k: int, l: int) -> float:
    """cond_det(A) + cond_det of the minor that deletes row l and column k."""
    sub = minor(A, l, k)
    return cond_det(A) + (0.0 if sub is None else cond_det(sub))


def solve_bound(A: PatternedMatrix, b, k: int) -> float:
    """cond_det(A) + cond_det of A with column k replaced by b."""
    return cond_det(A) + cond_det(replace_column(A, k, b))


def inverse_bounds(A: PatternedMatrix) -> np.ndarray:
    """inverse_bound for every (k, l)."""
    n = A.n
    return np.array([[inverse_bound(A, k, l) for l in range(1, n + 1)]
                     for k in range(1, n + 1)])


def solve_bounds(A: PatternedMatrix, b) -> np.ndarray:
    """solve_bound for every k."""
    return np.array([solve_bound(A, b, k) for k in range(1, A.n + 1)])
