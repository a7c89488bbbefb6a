"""The finite-perturbation oracle evaluated one whole table at a time: the
reference for the bits of sparsecond's oracle_condition.

Each chunk of sign codes is gathered into a full (m, width) block of
perturbed values and evaluated from scratch, with a fresh memo of minors,
every output is compared with the reference on every trial, and the
all-zero sign pattern is left out. oracle_condition holds leading entries as
scalars, puts the others on the axes of a sign grid and keeps only each
output's extremes instead; it must return the same bytes. It scales and
inverts A with its own _prescaled and _batched_inverse, the package's before
linalg._factor took their place, so it shares no prescaling with the code it
checks. Its zero rule comes from Jacobi's identity and the matchings of
the minors, not from patterns._closure. The arguments are taken as valid:
the checks that raise ValueError are oracle_condition's own.
"""

from __future__ import annotations

import math

import numpy as np

from sparsecond import conditioning
from sparsecond.conditioning import componentwise_ratio
from sparsecond.linalg import PatternedMatrix, _is_lower, _lower_inverse, _lu_inverse, _lu_solve
from sparsecond.patterns import is_admissible, pattern_from_mask

CHUNK = 3 ** 8


def _prescaled(x: np.ndarray) -> np.ndarray:
    """Finite x times the power of two that puts its largest magnitude in
    [1, 2). The scaling is exact unless it takes an entry into the subnormal
    range, so relative distances do not move, and the closed forms of a
    small matrix neither overflow nor underflow."""
    top = np.abs(x).max(initial=0.0)
    return np.ldexp(x, 1 - np.frexp(top)[1]) if top > 0.0 else x


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


def minor_structure(support: np.ndarray) -> np.ndarray:
    """Where the inverse of a generic matrix with this boolean support is
    nonzero: g_kl = +-det(minor)/det(A) for the minor that deletes row l and
    column k (Jacobi), and a generic determinant is nonzero exactly when its
    support has a perfect matching. All True when the support itself has
    none, as for a structurally singular A no entry is known to vanish."""
    n = len(support)
    if n == 1 or not is_admissible(pattern_from_mask(support)):
        return np.ones((n, n), dtype=bool)
    out = np.empty((n, n), dtype=bool)
    for k in range(n):
        for l in range(n):
            minor = pattern_from_mask(np.delete(np.delete(support, l, axis=0), k, axis=1))
            out[k, l] = minor is not None and is_admissible(minor)
    return out


def _base3(codes: np.ndarray, width: int) -> np.ndarray:
    """The last `width` base-3 digits, most significant first, of each code,
    one int8 row each."""
    digits = np.empty((len(codes), width), dtype=np.int8)
    for j in range(width - 1, -1, -1):
        codes, digits[:, j] = np.divmod(codes, 3)
    return digits


def sign_digits(m: int, start: int, stop: int) -> np.ndarray:
    """Base-3 digits, most significant first, of the codes in [start, stop),
    one int8 row each; digit 0, 1, 2 stands for the sign -1, 0, +1. The
    all-zero sign pattern, the middle code (3^m - 1) / 2, is left out."""
    codes = np.arange(start, stop)
    middle = (3 ** m - 1) // 2
    if start <= middle < stop:
        codes = np.delete(codes, middle - start)
    return _base3(codes, m)


def sign_table(m: int) -> np.ndarray:
    """Every nonzero sign pattern in {-1, 0, 1}^m, one float row each, in the
    order of itertools.product((-1, 0, 1), repeat=m)."""
    return (sign_digits(m, 0, 3 ** m) - 1).astype(float)


def _cofactor_det(rows: tuple, cols: tuple, entry: dict, memo: dict):
    """Determinant of the submatrix on the sorted rows and columns by Laplace
    expansion along its first row, every minor memoised in memo; a
    structural zero is skipped and a structurally singular submatrix is
    None."""
    if not rows:
        return 1.0
    key = (rows, cols)
    if key not in memo:
        total = None
        for p, c in enumerate(cols):
            a = entry.get((rows[0], c))
            sub = None if a is None else _cofactor_det(rows[1:], cols[:p] + cols[p + 1:],
                                                       entry, memo)
            if sub is None:
                continue
            term = a * sub
            if total is None:
                total = -term if p % 2 else term
            else:
                total = total - term if p % 2 else total + term
        memo[key] = total
    return memo[key]


def cofactor_values(quantity: str, n: int, rows, cols, perturbed: np.ndarray) -> np.ndarray:
    """det, the row-major inverse or the solution on every trial (one row
    each) by cofactors; a trial with an exactly zero determinant is NaN for
    "inv" and "solve"."""
    width = perturbed.shape[1]
    entry = dict(zip(zip(rows.tolist(), cols.tolist()), perturbed))
    memo: dict = {}
    every = tuple(range(n))
    det = _cofactor_det(every, every, entry, memo)
    if det is None:
        det = np.zeros(width)
    if quantity == "det":
        return det[:, None]
    adj = np.zeros((n, n, width))
    for i in range(n):
        for j in range(n):
            minor = _cofactor_det(every[:i] + every[i + 1:], every[:j] + every[j + 1:],
                                  entry, memo)
            if minor is not None:
                adj[j, i] = -minor if (i + j) % 2 else minor
    det = np.where(det == 0.0, np.nan, det)
    with np.errstate(over="ignore"):
        if quantity == "inv":
            return (adj / det).reshape(n * n, width).T
        return ((adj * perturbed[len(rows):]).sum(axis=1) / det).T


def lapack_values(quantity: str, n: int, rows, cols, perturbed: np.ndarray) -> np.ndarray:
    """What cofactor_values returns, by LAPACK; a trial with an exactly zero
    pivot is NaN for "inv" and "solve"."""
    width = perturbed.shape[1]
    support = len(rows)
    stack = np.zeros((width, n * n))
    stack[:, rows * n + cols] = perturbed[:support].T
    stack = stack.reshape(width, n, n)
    if quantity == "det":
        return np.linalg.det(stack)[:, None]
    if quantity == "inv":
        return _lu_inverse(stack).reshape(width, n * n)
    return _lu_solve(stack, perturbed[support:].T)


def whole_table_oracle(quantity: str, A, b=None, delta: float = 1e-6, seed: int = 0,
                       exhaustive_limit: int = 12, random_trials: int = 10_000):
    """oracle_condition on valid arguments, each chunk of CHUNK sign codes
    (or random rows) evaluated as one whole table."""
    a = np.asarray(A.entries if isinstance(A, PatternedMatrix) else A, dtype=float)
    n = a.shape[0]
    shape = {"det": (), "inv": (n, n), "solve": (n,)}[quantity]
    if n == 0:
        return 0.0 if quantity == "det" else np.zeros(shape)
    rhs = None if quantity != "solve" else np.asarray(b, dtype=float)
    singular = math.inf if quantity == "det" else np.full(shape, np.inf)
    if not (np.isfinite(a).all() and (rhs is None or np.isfinite(rhs).all())):
        return singular
    a = _prescaled(a)
    if not _batched_inverse(a[None])[1][0]:
        return singular
    if isinstance(A, PatternedMatrix):
        rows, cols = A.pattern.index_arrays
    else:
        rows, cols = np.divmod(np.arange(n * n), n)
    entries = a[rows, cols]
    if rhs is not None:
        entries = np.concatenate([entries, _prescaled(rhs)])
    m = len(entries)
    values = cofactor_values if n <= conditioning._COFACTOR_MAX_N else lapack_values

    table = entries[:, None] * (1.0 + delta * np.array([-1.0, 0.0, 1.0]))
    ref = values(quantity, n, rows, cols, table[:, 1:2])[0]
    if not np.isfinite(ref).all() or (quantity == "det" and ref[0] == 0.0):
        return singular
    keep = 1.0
    if quantity != "det":
        keep = minor_structure(a != 0.0)
        if rhs is not None:
            keep = (keep & (entries[len(rows):] != 0.0)).any(axis=1)
        keep = keep.ravel()
    ref_s = ref * keep

    if m <= exhaustive_limit:
        chunks = (sign_digits(m, start, min(start + CHUNK, 3 ** m))
                  for start in range(0, 3 ** m, CHUNK))
    else:
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed)))
        draws = rng.integers(0, 2, size=(random_trials, m)) * 2
        chunks = (draws[start:start + CHUNK] for start in range(0, random_trials, CHUNK))
    worst = 0.0
    for digits in chunks:
        pert = values(quantity, n, rows, cols, table[np.arange(m)[:, None], digits.T])
        pert_s = pert * keep
        worst = np.maximum(worst, np.abs(pert_s - ref_s).max(axis=0))
    dist = componentwise_ratio(worst, ref_s) / delta
    return float(dist[0]) if quantity == "det" else dist.reshape(shape)
