"""Dense linear algebra for small matrices with first-class sparsity patterns.

Determinant, inverse and solve. The scalar routines are a batch of one on the
batched inverse that the condition kernels use, so both follow one singularity
rule. Singularity is a value (SINGULAR), not an exception: callers map it to an
infinite condition number. Row/column arguments are 1-based, matching the
documentation and file formats.
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


def as_rhs(b, n: int) -> np.ndarray:
    """b as a float vector; ValueError unless it has length n."""
    rhs = np.asarray(b, dtype=float)
    if rhs.shape != (n,):
        raise ValueError(f"rhs length {rhs.shape} does not match matrix dimension {n}")
    return rhs


# ---------------------------------------------------------------------------
# batched inverse: the one home of the singularity rule; the scalar routines
# below and the condition kernels run on it

def _is_lower(stack: np.ndarray) -> np.ndarray:
    """Mask of the members with no nonzero strictly above the diagonal.

    One pass over a view: from flat index 1 on, rows of n + 1 entries each
    start just right of a diagonal entry, so row r holds the n - 1 - r
    entries above the diagonal of matrix row r and then the start of row
    r + 1, and a staircase mask picks the first ones. A NaN counts as
    nonzero, -0.0 as zero. A dense stack is settled by its (0, 1) entries
    alone, without the pass.
    """
    m, n = stack.shape[0], stack.shape[-1]
    if n < 2:
        return np.ones(m, dtype=bool)
    upper = stack[:, 0, 1] != 0.0
    if upper.all():
        return ~upper
    rows = stack.reshape(m, n * n)[:, 1:1 + (n - 1) * (n + 1)].reshape(m, n - 1, n + 1)
    stair = np.arange(n + 1) < np.arange(n - 1, 0, -1)[:, None]
    return ~((rows != 0.0) & stair).any(axis=(1, 2))


def _lower_inverse(stack: np.ndarray) -> np.ndarray:
    """Inverse of a (M, n, n) stack of lower-triangular matrices by forward
    substitution, row by row and vectorised over the stack.

    Entries above the diagonal stay exactly zero. An exactly zero diagonal
    entry (LU's zero pivot on this path) makes its row and all later ones
    non-finite; no warning is raised for it or for an overflow.
    """
    n = stack.shape[-1]
    out = np.zeros_like(stack)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for i in range(n):
            # row i is (l_i g, -1) / -l_ii, which is (-l_i g, 1) / l_ii bit for bit
            if i:
                np.matmul(stack[:, i, None, :i], out[:, :i, :i], out=out[:, i, None, :i])
            out[:, i, i] = -1.0
            out[:, i, : i + 1] /= -stack[:, i, i, None]
    return out


def _lu_apply(op, stack: np.ndarray, *args) -> np.ndarray:
    """op(stack, *args), a LAPACK solve over a stack of finite matrices and
    per-member operands; members with an exactly zero pivot, which slogdet
    finds only when op reports one, are NaN."""
    try:
        return op(stack, *args)
    except np.linalg.LinAlgError:
        nonsingular = np.linalg.slogdet(stack)[0] != 0.0
        part = op(stack[nonsingular], *(x[nonsingular] for x in args))
        out = np.full((len(stack),) + part.shape[1:], np.nan)
        out[nonsingular] = part
        return out


def _lu_inverse(stack: np.ndarray) -> np.ndarray:
    """LAPACK inverse of a stack of finite matrices; members with an exactly
    zero pivot are NaN."""
    return _lu_apply(np.linalg.inv, stack)


def _lu_solve(stack: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """LAPACK solutions of a stack of finite systems; members with an exactly
    zero pivot are NaN."""
    return _lu_apply(lambda s, r: np.linalg.solve(s, r[..., None])[..., 0], stack, rhs)


def _members(array: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """array[mask], without the copy when the mask selects every member."""
    return array if mask.all() else array[mask]


def _batched_inverse(stack: np.ndarray):
    """Inverse of a (M, n, n) stack and the mask of members that have one.

    The singularity rule: a member is singular when it has a non-finite
    entry, when LU meets an exactly zero pivot, or when its inverse
    overflows. Lower-triangular members are inverted by substitution, where
    the zero pivot is an exactly zero diagonal entry; every other finite
    member is factorized once by LAPACK. Which path a member takes depends
    on its own entries only.
    """
    ok = np.isfinite(stack).all(axis=(-1, -2))
    lower = ok & _is_lower(stack)
    general = ok & ~lower
    if lower.all():
        out = _lower_inverse(stack)
    elif general.all():
        out = _lu_inverse(stack)
    else:
        out = np.full_like(stack, np.nan)
        for mask, invert in ((lower, _lower_inverse), (general, _lu_inverse)):
            if mask.any():
                out[mask] = invert(stack[mask])
    ok &= np.isfinite(out).all(axis=(-1, -2))
    return out, ok


def determinant(A) -> float:
    """det(A) by LAPACK, +-inf where it overflows; exactly 0.0 for input that
    is singular under the rule of _batched_inverse."""
    a = as_array(A)
    with np.errstate(over="ignore"):
        return 0.0 if inverse(a) is SINGULAR else float(np.linalg.det(a))


def inverse(A):
    """A^-1 as a dense array, or SINGULAR: a batch of one on _batched_inverse."""
    a = as_array(A)
    if a.shape != (a.shape[0], a.shape[0]):
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    g, ok = _batched_inverse(a[None])
    return g[0] if ok[0] else SINGULAR


def solve(A, b):
    """Solution of A x = b as A^-1 b, or SINGULAR when A is singular or the
    solution is not finite (the rule of the solve condition kernel)."""
    a = as_array(A)
    rhs = as_rhs(b, a.shape[0])
    g = inverse(a)
    if g is SINGULAR:
        return SINGULAR
    with np.errstate(over="ignore", invalid="ignore"):
        x = g @ rhs
    return x if np.isfinite(x).all() else SINGULAR


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
