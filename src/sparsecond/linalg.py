"""Dense linear algebra for small matrices with first-class sparsity patterns.

LU with partial pivoting, determinant, inverse, solve, minors and column
replacement. Singularity is a value (SINGULAR), not an exception: callers map
it to an infinite condition number. Row/column arguments are 1-based, matching
the documentation and file formats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .patterns import SparsityPattern, full_pattern

class SingularFlag:
    """Sentinel return value for numerically singular inputs."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "SINGULAR"


SINGULAR = SingularFlag()


@dataclass(frozen=True)
class PatternedMatrix:
    """A real n x n matrix whose support is contained in a sparsity pattern."""

    pattern: SparsityPattern
    entries: np.ndarray

    def __post_init__(self):
        a = np.array(self.entries, dtype=float)
        n = self.pattern.n
        if a.shape != (n, n):
            raise ValueError(f"entries shape {a.shape} does not match pattern dimension {n}")
        if np.any(a[~self.pattern.mask] != 0.0):
            raise ValueError("nonzero entry outside the sparsity pattern")
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @property
    def n(self) -> int:
        return self.pattern.n

    @classmethod
    def dense(cls, entries) -> "PatternedMatrix":
        """Wrap an array with the full pattern."""
        a = np.asarray(entries, dtype=float)
        return cls(full_pattern(a.shape[0]), a)

    @classmethod
    def identity(cls, n: int, pattern: SparsityPattern | None = None) -> "PatternedMatrix":
        """Identity matrix restricted to the pattern (full pattern by default)."""
        pattern = pattern if pattern is not None else full_pattern(n)
        return cls(pattern, np.eye(n) * pattern.mask)


def as_array(A) -> np.ndarray:
    """Entries of a PatternedMatrix, or the input itself as a float array."""
    if isinstance(A, PatternedMatrix):
        return A.entries
    return np.asarray(A, dtype=float)


@dataclass(frozen=True)
class LuFactorization:
    """Partial-pivoting LU: A[perm] == lower @ upper, sign = permutation parity.

    perm is a 0-based row order; lower is unit lower triangular.
    """

    perm: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    sign: int

    @property
    def n(self) -> int:
        return len(self.perm)


def lu_factor(A):
    """LU with partial pivoting; returns SINGULAR for a non-finite entry or an
    exactly zero pivot, the rule the batched condition kernels use."""
    a = as_array(A)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if n == 0:
        return LuFactorization(np.zeros(0, dtype=np.intp), np.zeros((0, 0)), np.zeros((0, 0)), 1)
    if not np.isfinite(a).all():
        return SINGULAR
    u = a.astype(float).copy()
    lower = np.eye(n)
    perm = np.arange(n)
    sign = 1
    for k in range(n):
        p = k + int(np.argmax(np.abs(u[k:, k])))
        if u[p, k] == 0.0:
            return SINGULAR
        if p != k:
            u[[k, p], k:] = u[[p, k], k:]
            lower[[k, p], :k] = lower[[p, k], :k]
            perm[[k, p]] = perm[[p, k]]
            sign = -sign
        factors = u[k + 1 :, k] / u[k, k]
        lower[k + 1 :, k] = factors
        u[k + 1 :, k:] -= np.outer(factors, u[k, k:])
        u[k + 1 :, k] = 0.0
    return LuFactorization(perm, lower, np.triu(u), sign)


def lu_solve(fac: LuFactorization, B: np.ndarray) -> np.ndarray:
    """Solve A X = B given the factorization of A (B may be a vector or matrix)."""
    b = np.asarray(B, dtype=float)
    vector = b.ndim == 1
    y = b[fac.perm].reshape(fac.n, -1).copy()
    L, U = fac.lower, fac.upper
    for i in range(1, fac.n):
        y[i] -= L[i, :i] @ y[:i]
    for i in range(fac.n - 1, -1, -1):
        y[i] = (y[i] - U[i, i + 1 :] @ y[i + 1 :]) / U[i, i]
    return y[:, 0] if vector else y


def determinant(A) -> float:
    """det(A) via LU; exactly 0.0 for singular input."""
    a = as_array(A)
    if a.shape[0] == 0:
        return 1.0
    fac = lu_factor(a)
    if fac is SINGULAR:
        return 0.0
    return float(fac.sign * np.prod(np.diag(fac.upper)))


def inverse(A):
    """A^-1 as a dense array, or SINGULAR."""
    a = as_array(A)
    fac = lu_factor(a)
    if fac is SINGULAR:
        return SINGULAR
    return lu_solve(fac, np.eye(a.shape[0]))


def solve(A, b):
    """Solution of A x = b, or SINGULAR."""
    a = as_array(A)
    rhs = np.asarray(b, dtype=float)
    if rhs.shape != (a.shape[0],):
        raise ValueError(f"rhs length {rhs.shape} does not match matrix dimension {a.shape[0]}")
    fac = lu_factor(a)
    if fac is SINGULAR:
        return SINGULAR
    return lu_solve(fac, rhs)


def minor(A: PatternedMatrix, i: int, j: int) -> "PatternedMatrix | None":
    """Submatrix with row i and column j deleted (1-based); pattern is induced.

    Returns None for a 1x1 input (the empty matrix).
    """
    n = A.n
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"minor indices ({i}, {j}) outside [1, {n}]")
    if n == 1:
        return None
    sub = np.delete(np.delete(A.entries, i - 1, axis=0), j - 1, axis=1)
    pat = A.pattern.drop_row_col(i, j)
    if pat is None:
        # all surviving entries are structural zeros; keep a full zero pattern
        # carrier so the caller can still ask for its determinant (which is 0)
        pat = full_pattern(n - 1)
        return PatternedMatrix(pat, np.zeros((n - 1, n - 1)))
    return PatternedMatrix(pat, sub * pat.mask)


def replace_column(A: PatternedMatrix, k: int, b) -> PatternedMatrix:
    """Copy of A with column k (1-based) replaced by b; column k is widened."""
    n = A.n
    if not 1 <= k <= n:
        raise ValueError(f"column index {k} outside [1, {n}]")
    rhs = np.asarray(b, dtype=float)
    if rhs.shape != (n,):
        raise ValueError(f"rhs length {rhs.shape} does not match dimension {n}")
    entries = A.entries.copy()
    entries[:, k - 1] = rhs
    return PatternedMatrix(A.pattern.widen_column(k), entries)


def format17(x) -> str:
    """x with 17 significant digits, enough to read back the same double."""
    return format(float(x), ".17g")


def write_matrix_file(A, path) -> None:
    """Write a matrix: first line n, then n whitespace-separated rows."""
    a = as_array(A)
    n = a.shape[0]
    lines = [str(n)]
    lines += [" ".join(format17(v) for v in row) for row in a]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_matrix_file(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        tokens = fh.read().split()
    if not tokens:
        raise ValueError(f"{path}: empty matrix file")
    n = int(tokens[0])
    vals = tokens[1:]
    if len(vals) != n * n:
        raise ValueError(f"{path}: expected {n * n} entries, found {len(vals)}")
    return np.array([float(v) for v in vals], dtype=float).reshape(n, n)


def write_vector_file(b, path) -> None:
    """Write a vector: first line n, then n values."""
    v = np.asarray(b, dtype=float)
    lines = [str(len(v))] + [format17(x) for x in v]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_vector_file(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        tokens = fh.read().split()
    if not tokens:
        raise ValueError(f"{path}: empty vector file")
    n = int(tokens[0])
    vals = tokens[1:]
    if len(vals) != n:
        raise ValueError(f"{path}: expected {n} entries, found {len(vals)}")
    return np.array([float(v) for v in vals], dtype=float)
