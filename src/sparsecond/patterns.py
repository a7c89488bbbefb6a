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
        m[self.index_arrays] = True
        m.setflags(write=False)
        return m

    @cached_property
    def index_arrays(self):
        """(rows, cols) 0-based index arrays in row-major position order."""
        rows, cols = (np.array(v, dtype=np.intp) - 1 for v in zip(*sorted(self.positions)))
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
    pos = frozenset((int(i) + 1, int(j) + 1) for i, j in zip(*np.nonzero(mask)))
    return SparsityPattern(mask.shape[0], pos) if pos else None


NAMED_PATTERNS = {
    "full": full_pattern,
    "lower_triangular": lower_triangular_pattern,
    "tridiagonal": tridiagonal_pattern,
}


def _matching(mask: np.ndarray):
    """match[col] = row for a perfect matching of the rows and columns of a
    boolean square mask, or None if there is none: augmenting paths that take
    a free column first (as MC21 does), rows with fewer entries first."""
    adj = [row.nonzero()[0].tolist() for row in mask]
    match = [-1] * len(mask)

    def augment(row, seen):
        for col in [c for c in adj[row] if match[c] == -1] or adj[row]:
            if not seen[col]:
                seen[col] = True
                if match[col] == -1 or augment(match[col], seen):
                    match[col] = row
                    return True
        return False

    rows = sorted(range(len(mask)), key=lambda row: len(adj[row]))
    return match if all(augment(row, [False] * len(mask)) for row in rows) else None


def is_admissible(pattern: SparsityPattern) -> bool:
    """Whether some invertible matrix has its support inside the pattern:
    whether the row/column bipartite graph has a perfect matching."""
    return _matching(pattern.mask) is not None


def _closure(support: np.ndarray) -> np.ndarray:
    """Where the inverse of a generic matrix with this boolean support is
    nonzero (Gilbert 1994), all True without a perfect matching: the
    reflexive transitive closure of the graph with the matched rows on the
    diagonal, by boolean squaring until it stops growing, columns put back."""
    n = len(support)
    match = np.arange(n) if support.diagonal().all() else _matching(support)
    if match is None:
        return np.ones_like(support)
    reach = support[match] | np.eye(n, dtype=bool)
    count, last = np.count_nonzero(reach), 0
    while last < count < n * n:  # the 0/1 products sum exactly in float32, on BLAS
        square = reach.astype(np.float32)
        reach, last = square @ square > 0.0, count
        count = np.count_nonzero(reach)
    return reach[:, np.argsort(match)]


def write_pattern_file(pattern: SparsityPattern, path) -> None:
    """Write a pattern: first line n, then one "i j" pair per line (1-based)."""
    lines = [str(pattern.n)] + [f"{i} {j}" for i, j in sorted(pattern.positions)]
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
    return SparsityPattern(n, frozenset((int(a), int(b)) for a, b in zip(body[::2], body[1::2])))
