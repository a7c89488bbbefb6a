"""Sparsity patterns: which entries of a square matrix may be nonzero.

Positions are 1-based (row, column) pairs throughout the public API and the
on-disk format; internal index arrays are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class SparsityPattern:
    """An n x n zero structure: the set of positions allowed to be nonzero.

    Every position (i, j) satisfies 1 <= i, j <= n, and the set is nonempty.
    """

    n: int
    positions: frozenset

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"dimension must be positive, got {self.n}")
        if not isinstance(self.positions, frozenset):
            object.__setattr__(self, "positions", frozenset(self.positions))
        if not self.positions:
            raise ValueError("pattern must contain at least one position")
        for i, j in self.positions:
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise ValueError(f"position ({i}, {j}) outside [1, {self.n}]^2")

    def __len__(self) -> int:
        return len(self.positions)

    def __contains__(self, pos) -> bool:
        return tuple(pos) in self.positions

    @cached_property
    def mask(self) -> np.ndarray:
        """Boolean (n, n) array, True at allowed positions."""
        m = np.zeros((self.n, self.n), dtype=bool)
        for i, j in self.positions:
            m[i - 1, j - 1] = True
        m.setflags(write=False)
        return m

    @cached_property
    def index_arrays(self):
        """(rows, cols) 0-based index arrays in row-major position order."""
        pos = sorted(self.positions)
        rows = np.array([i - 1 for i, _ in pos], dtype=np.intp)
        cols = np.array([j - 1 for _, j in pos], dtype=np.intp)
        rows.setflags(write=False)
        cols.setflags(write=False)
        return rows, cols


def full_pattern(n: int) -> SparsityPattern:
    return SparsityPattern(n, frozenset((i, j) for i in range(1, n + 1) for j in range(1, n + 1)))


def lower_triangular_pattern(n: int) -> SparsityPattern:
    return SparsityPattern(n, frozenset((i, j) for i in range(1, n + 1) for j in range(1, i + 1)))


def tridiagonal_pattern(n: int) -> SparsityPattern:
    return SparsityPattern(
        n, frozenset((i, j) for i in range(1, n + 1) for j in range(1, n + 1) if abs(i - j) <= 1)
    )


def pattern_from_mask(mask: np.ndarray) -> "SparsityPattern | None":
    """Pattern whose positions are the True entries of a boolean square mask."""
    mask = np.asarray(mask, dtype=bool)
    n = mask.shape[0]
    pos = frozenset((int(i) + 1, int(j) + 1) for i, j in zip(*np.nonzero(mask)))
    if not pos:
        return None
    return SparsityPattern(n, pos)


NAMED_PATTERNS = {
    "full": full_pattern,
    "lower_triangular": lower_triangular_pattern,
    "tridiagonal": tridiagonal_pattern,
}


def is_admissible(pattern: SparsityPattern) -> bool:
    """Whether some invertible matrix has its support inside the pattern.

    Equivalent to the row/column bipartite graph having a perfect matching;
    decided with augmenting paths.
    """
    n = pattern.n
    adj = [[] for _ in range(n)]
    for i, j in pattern.positions:
        adj[i - 1].append(j - 1)
    match = [-1] * n  # match[col] = row

    def augment(row, seen):
        for col in adj[row]:
            if seen[col]:
                continue
            seen[col] = True
            if match[col] == -1 or augment(match[col], seen):
                match[col] = row
                return True
        return False

    matched = 0
    for row in range(n):
        if augment(row, [False] * n):
            matched += 1
    return matched == n


def write_pattern_file(pattern: SparsityPattern, path) -> None:
    """Write a pattern: first line n, then one "i j" pair per line (1-based)."""
    lines = [str(pattern.n)]
    lines += [f"{i} {j}" for i, j in sorted(pattern.positions)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_pattern_file(path) -> SparsityPattern:
    with open(path, "r", encoding="utf-8") as fh:
        tokens = fh.read().split()
    if not tokens:
        raise ValueError(f"{path}: empty pattern file")
    n = int(tokens[0])
    body = tokens[1:]
    if len(body) % 2 != 0:
        raise ValueError(f"{path}: expected 'i j' pairs after the dimension line")
    pos = set()
    for a, b in zip(body[::2], body[1::2]):
        pos.add((int(a), int(b)))
    return SparsityPattern(n, frozenset(pos))
