"""The finite-perturbation oracle evaluated one whole table at a time: the
reference for the bits of sparsecond's oracle_condition.

Each chunk of sign codes is gathered into a full (m, width) block of
perturbed values and evaluated from scratch, with a fresh memo of minors,
and the all-zero sign pattern is left out. oracle_condition holds leading
entries as scalars and shares minors between chunks instead; it must return
the same bytes. The arguments are taken as valid: the checks that raise
ValueError are oracle_condition's own.
"""

from __future__ import annotations

import math

import numpy as np

from sparsecond import conditioning
from sparsecond.conditioning import ZERO_SNAP, _base3, _prescaled, componentwise_ratio
from sparsecond.linalg import PatternedMatrix, _batched_inverse, _lu_inverse, _lu_solve

CHUNK = 3 ** 8


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
    tol = 0.0 if quantity == "det" else ZERO_SNAP * np.abs(ref).max()
    ref_s = np.where(np.abs(ref) > tol, ref, 0.0)

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
        pert_s = np.where(np.abs(pert) <= tol, 0.0, pert)
        worst = np.maximum(worst, np.abs(pert_s - ref_s).max(axis=0))
    dist = componentwise_ratio(worst, ref_s) / delta
    return float(dist[0]) if quantity == "det" else dist.reshape(shape)
