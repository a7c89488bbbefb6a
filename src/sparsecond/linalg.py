"""Dense linear algebra for small matrices with first-class sparsity patterns.

Determinant, inverse and solve. The kernels, bounds and scalar routines take
every inverse from one entry point, _factor: it scales each member of a
stack (and of a right-hand side) by a power of two, applies the one
singularity rule to the scaled member, inverts it and keeps the structural
zeros of the inverse exact. Only the oracle's perturbed trials beyond 4 x 4
call LAPACK themselves (_lu_inverse, _lu_solve). Singularity is a value
(SINGULAR), not an exception: callers map it to an infinite condition
number. Row/column arguments are 1-based, as in the docs and file formats.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .patterns import SparsityPattern, _closure, full_pattern

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
        """Wrap a square array with the full pattern."""
        a = as_square(entries)
        return cls(full_pattern(len(a)), a)

    @classmethod
    def identity(cls, n: int, pattern: SparsityPattern | None = None) -> "PatternedMatrix":
        """Identity matrix restricted to the pattern (full pattern by default)."""
        pattern = pattern if pattern is not None else full_pattern(n)
        return cls(pattern, np.eye(n) * pattern.mask)


def as_square(A) -> np.ndarray:
    """Entries of a PatternedMatrix, or the input as a float array;
    ValueError unless it is a square matrix."""
    a = A.entries if isinstance(A, PatternedMatrix) else np.asarray(A, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def as_rhs(b, n: int) -> np.ndarray:
    """b as a float vector; ValueError unless it has length n."""
    rhs = np.asarray(b, dtype=float)
    if rhs.shape != (n,):
        raise ValueError(f"rhs length {rhs.shape} does not match matrix dimension {n}")
    return rhs


# ---------------------------------------------------------------------------
# the prescaled factorization: the one home of the singularity rule; the
# scalar routines below and the condition kernels run on it

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


# the LAPACK inverse of a stack, and its solutions with a (M, n) rhs
_lu_inverse = functools.partial(_lu_apply, np.linalg.inv)
_lu_solve = functools.partial(_lu_apply, lambda s, r: np.linalg.solve(s, r[..., None])[..., 0])


def _members(array: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """array[mask], without the copy when the mask selects every member."""
    return array if mask.all() else array[mask]


class Factorization(NamedTuple):
    """_factor's result: a is the stack with member i times 2^shift[i], g its
    inverse and ok the mask of members that have one; b is the rhs with
    member i times 2^rhs_shift[i], x = g b, and solved the mask of members in
    ok whose b and x are finite (all four None without a rhs)."""
    a: np.ndarray
    shift: np.ndarray
    g: np.ndarray
    ok: np.ndarray
    b: np.ndarray | None = None
    rhs_shift: np.ndarray | None = None
    x: np.ndarray | None = None
    solved: np.ndarray | None = None


def _prescale(values: np.ndarray, axes):
    """values times the power of two per member that puts its largest
    magnitude in [1, 2), the exponents, and the mask of all-finite members:
    the one reduction max(max, -min) is NaN or inf exactly on the others,
    which stay as they are. ldexp, unlike a factor 2^(1 - e), also scales a
    subnormal largest entry; the scaling is exact unless the member spans
    more than 2^1022 in magnitude."""
    top = np.maximum(values.max(axis=axes, initial=0.0), -values.min(axis=axes, initial=0.0))
    finite = np.isfinite(top)
    shift = 1 - np.frexp(top)[1]
    shift[~finite] = 0
    return np.ldexp(values, shift[(...,) + (None,) * len(axes)]), shift, finite


def _factor(stack: np.ndarray, rhs: np.ndarray | None = None) -> Factorization:
    """The prescaled factorization of a (M, n, n) stack and an optional
    (M, n) rhs. The singularity rule, on the scaled member: it is singular
    when it has a non-finite entry, when LU meets an exactly zero pivot (an
    exactly zero diagonal entry on the substitution path of lower-triangular
    members), or when its inverse overflows; a system is unsolved also when
    b has a non-finite entry or x overflows. G is exactly zero outside the
    closure of the member's support (patterns._closure), and so x = G b
    outside the closure times the support of b. A member's bits depend on its
    own entries only, and not on a power-of-two scaling of A or b."""
    a, shift, ok = _prescale(stack, (-1, -2))
    lower = ok & _is_lower(a)
    general = ok & ~lower
    if lower.all():
        g = _lower_inverse(a)
    elif general.all():
        g = _lu_inverse(a)
    else:
        g = np.full_like(a, np.nan)
        for mask, invert in ((lower, _lower_inverse), (general, _lu_inverse)):
            if mask.any():
                g[mask] = invert(a[mask])
    ok &= np.isfinite(g).all(axis=(-1, -2))
    general &= ok
    if general.any() and not a.all():
        # zero LAPACK's round-off outside the closure, one closure per support
        supp = a != 0.0
        first = supp[general.argmax()]
        same = general & (supp == first).all(axis=(-1, -2))
        groups = [(same, first)] + [(i, supp[i]) for i in np.flatnonzero(general & ~same)]
        for where, support in groups:
            closure = _closure(support)
            if not closure.all():
                g[where] *= closure
    if rhs is None:
        return Factorization(a, shift, g, ok)
    b, rhs_shift, solved = _prescale(rhs, (-1,))
    with np.errstate(over="ignore", invalid="ignore"):
        x = (g @ b[..., None])[..., 0]
    solved &= ok & np.isfinite(x).all(axis=-1)
    return Factorization(a, shift, g, ok, b, rhs_shift, x, solved)


def _factor_one(A, b=None) -> Factorization:
    """_factor of a square A (and b) as a stack of one."""
    a = as_square(A)
    return _factor(a[None], None if b is None else as_rhs(b, len(a))[None])


def determinant(A) -> float:
    """det(A) by LAPACK, +-inf where it overflows; exactly 0.0 for input that
    is singular under the rule of _factor."""
    a = as_square(A)
    with np.errstate(over="ignore"):
        return float(np.linalg.det(a)) if _factor_one(a).ok[0] else 0.0


def inverse(A):
    """A^-1 as a dense array, or SINGULAR when A is singular under the rule
    of _factor or an entry of A^-1 overflows."""
    f = _factor_one(A)
    with np.errstate(over="ignore"):
        g = np.ldexp(f.g[0], f.shift[0])
    return g if f.ok[0] and np.isfinite(g).all() else SINGULAR


def solve(A, b):
    """Solution of A x = b, or SINGULAR when the system is unsolved under the
    rule of _factor or an entry of x overflows."""
    f = _factor_one(A, b)
    with np.errstate(over="ignore"):
        x = np.ldexp(f.x[0], f.shift[0] - f.rhs_shift[0])
    return x if f.solved[0] and np.isfinite(x).all() else SINGULAR


def format17(x) -> str:
    """x with 17 significant digits, enough to read back the same double."""
    return format(float(x), ".17g")


def write_matrix_file(A, path) -> None:
    """Write a matrix: first line n, then n whitespace-separated rows."""
    a = as_square(A)
    lines = [str(len(a))]
    lines += [" ".join(format17(v) for v in row) for row in a]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_values(path, kind: str, size):
    """n and the size(n) values that follow it in a matrix or vector file."""
    with open(path, "r", encoding="utf-8") as fh:
        tokens = fh.read().split()
    if not tokens:
        raise ValueError(f"{path}: empty {kind} file")
    n = int(tokens[0])
    if len(tokens) - 1 != size(n):
        raise ValueError(f"{path}: expected {size(n)} entries, found {len(tokens) - 1}")
    return n, np.array([float(v) for v in tokens[1:]], dtype=float)


def read_matrix_file(path) -> np.ndarray:
    n, values = _read_values(path, "matrix", lambda n: n * n)
    return values.reshape(n, n)


def write_vector_file(b, path) -> None:
    """Write a vector: first line n, then n values."""
    v = np.asarray(b, dtype=float)
    lines = [str(len(v))] + [format17(x) for x in v]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_vector_file(path) -> np.ndarray:
    return _read_values(path, "vector", lambda n: n)[1]
