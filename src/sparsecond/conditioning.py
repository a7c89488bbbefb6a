"""Componentwise condition numbers for determinant, inversion and solving.

All condition values use the componentwise relative distance
``max_i |u_i - v_i| / |v_i|`` with the conventions 0/0 -> 0 and x/0 -> inf for
x != 0. Perturbations are relative and respect the sparsity pattern: an entry
that is structurally zero stays zero. Consequently every condition number here
is homogeneous of degree 0 and singular inputs get the value +inf.

Closed forms come from the first-order sensitivities of the outputs:

    d(det)/d(a_ij)      = det(A) * g_ji
    d(inv_kl)/d(a_ij)   = -g_ki * g_jl
    d(x_k)/d(a_ij)      = -g_ki * x_j        (x = A^-1 b)
    d(x_k)/d(b_i)       = g_ki

where g = A^-1. The worst relative perturbation of size delta aligns all
signs, which turns each condition number into an absolute-value sum; a
finite-perturbation oracle (oracle_condition) checks the same quantities
without using any derivative formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (PatternedMatrix, _batched_inverse, _lu_inverse, _lu_solve, _members,
                     as_array, format17, minor, replace_column)

# Entries of computed inverses (and solutions) this far below the largest
# entry are treated as exact zeros when deciding the 0 / inf output
# conventions. LU round-off leaves ~1e-16 * growth garbage in structurally
# zero positions; 1e-10 clears it while never touching a generic entry.
ZERO_SNAP = 1e-10

_QUANTITIES = ("det", "inv", "solve")


def componentwise_ratio(num, den) -> np.ndarray:
    """|num| / |den| elementwise with 0/0 -> 0 and nonzero/0 -> inf; a NaN
    (an inf/inf or a non-finite operand) and a quotient that overflows also
    become inf."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        q = np.asarray(np.divide(num, den))
    # |num / den| is |num| / |den| bit for bit; only a NaN needs its operands
    np.abs(q, out=q)
    nan = np.isnan(q)
    if nan.any():
        num, den = (np.broadcast_to(x, q.shape)[nan] for x in (num, den))
        q[nan] = np.where((num == 0.0) & (den == 0.0), 0.0, np.inf)
    return q


def componentwise_distance(u, v) -> float:
    """max_i |u_i - v_i| / |v_i|, with 0/0 -> 0 and nonzero/0 -> inf."""
    uu = np.asarray(u, dtype=float).ravel()
    vv = np.asarray(v, dtype=float).ravel()
    if uu.shape != vv.shape:
        raise ValueError(f"length mismatch: {uu.shape} vs {vv.shape}")
    return float(componentwise_ratio(uu - vv, vv).max()) if uu.size else 0.0


def cond_det(A) -> float:
    """Condition number of the determinant: sum of |a_ij * g_ji| over the support.

    Returns +inf for singular input and 0.0 for the empty (0 x 0) matrix.
    """
    return float(batch_cond_det(as_array(A)[None])[0])


def cond_inverse_entries(A) -> np.ndarray:
    """Matrix of condition numbers of the individual entries of A^-1."""
    return batch_cond_inverse_entries(as_array(A)[None])[0]


def cond_inverse_entry(A, k: int, l: int) -> float:
    """Condition number of entry (k, l) of A^-1 (1-based indices)."""
    a = as_array(A)
    n = a.shape[0]
    if not (1 <= k <= n and 1 <= l <= n):
        raise ValueError(f"indices ({k}, {l}) outside [1, {n}]")
    return float(cond_inverse_entries(a)[k - 1, l - 1])


def cond_inverse(A) -> float:
    """Condition number of matrix inversion: max over all entries of A^-1."""
    return float(cond_inverse_entries(A).max())


def cond_solve_entries(A, b) -> np.ndarray:
    """Vector of condition numbers of the solution components of A x = b."""
    return batch_cond_solve_entries(as_array(A)[None], np.asarray(b, dtype=float)[None])[0]


def cond_solve_entry(A, b, k: int) -> float:
    """Condition number of x_k where A x = b (1-based k)."""
    a = as_array(A)
    if not 1 <= k <= a.shape[0]:
        raise ValueError(f"index {k} outside [1, {a.shape[0]}]")
    return float(cond_solve_entries(a, b)[k - 1])


def cond_solve(A, b) -> float:
    """Condition number of linear-system solving: max over solution components."""
    return float(cond_solve_entries(A, b).max())


def bound_inverse_entry(A: PatternedMatrix, k: int, l: int) -> float:
    """Upper bound for cond_inverse_entry(A, k, l): cond_det(A) + cond_det of
    the minor that deletes row l and column k (note the transposed order)."""
    sub = minor(A, l, k)
    return cond_det(A) + (0.0 if sub is None else cond_det(sub))


def bound_inverse_entries(A: PatternedMatrix) -> np.ndarray:
    """bound_inverse_entry for every (k, l), from the one inverse G of A.

    The minor that deletes row l and column k has the inverse entries
    g_ji - g_jl g_ki / g_kl (i != l, j != k), so its cond_det is a sum over
    the support; it is singular exactly when g_kl == 0 (Jacobi's identity
    det(minor) = +-det(A) g_kl). Rows loop over k and are vectorised over
    (l, support). A singular A gives +inf everywhere.
    """
    n = A.n
    g, ok = _batched_inverse(A.entries[None])
    if not ok[0]:
        return np.full((n, n), np.inf)
    g = g[0]
    rows, cols = A.pattern.index_arrays
    mags = np.abs(A.entries[rows, cols])
    base = cond_det(A)
    out = np.empty((n, n))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for k in range(n):
            keep = cols != k
            i, j = rows[keep], cols[keep]
            # h[l, s] is exactly 0 on the deleted row l (g_kl / g_kl == 1),
            # and dividing before multiplying keeps a scaled A from
            # overflowing or underflowing where the minor does not
            h = g[j, i] - g.T[:, j] * (g[k, i] / g[k][:, None])
            sums = (mags[keep] * np.abs(h)).sum(axis=1)
            sums[(g[k] == 0.0) | ~np.isfinite(sums)] = np.inf
            out[k] = base + sums
    return out


def bound_solve_entry(A: PatternedMatrix, b, k: int) -> float:
    """Upper bound for cond_solve_entry: cond_det(A) + cond_det of A with
    column k replaced by b (pattern widened on that column)."""
    return cond_det(A) + cond_det(replace_column(A, k, b))


def bound_solve_entries(A: PatternedMatrix, b) -> np.ndarray:
    """bound_solve_entry for every k, as one batch of column-replaced matrices."""
    cols = np.arange(A.n)
    replaced = np.repeat(A.entries[None], A.n, axis=0)
    replaced[cols, :, cols] = np.asarray(b, dtype=float)
    return cond_det(A) + batch_cond_det(replaced)


# ---------------------------------------------------------------------------
# finite-perturbation oracle

# Sign patterns per oracle chunk: the trial stack of one chunk stays a few
# megabytes, however many patterns there are. A power of three, so that every
# chunk of an exhaustive run of m >= 8 entries shares its trailing 8 digits.
# At m = 10 and 12, 3^8 ran faster than 3^9 and 3^7 (2 vCPUs, one BLAS thread).
_ORACLE_CHUNK = 3 ** 8

# Largest n whose oracle trials are evaluated by cofactors. Up to 4 x 4 the
# Laplace expansion is at most a few hundred vector operations per chunk,
# far cheaper than LAPACK's per-matrix call cost; beyond, its cost grows
# factorially.
_COFACTOR_MAX_N = 4


def _base3(codes: np.ndarray, width: int) -> np.ndarray:
    """The last `width` base-3 digits, most significant first, of each code,
    one int8 row each."""
    digits = np.empty((len(codes), width), dtype=np.int8)
    for j in range(width - 1, -1, -1):
        codes, digits[:, j] = np.divmod(codes, 3)
    return digits


def _sign_digits(m: int, start: int, stop: int) -> np.ndarray:
    """Base-3 digits, most significant first, of the codes in [start, stop),
    one int8 row each; digit 0, 1, 2 stands for the sign -1, 0, +1. The
    all-zero sign pattern, the middle code (3^m - 1) / 2, is left out."""
    codes = np.arange(start, stop)
    middle = (3 ** m - 1) // 2
    if start <= middle < stop:
        codes = np.delete(codes, middle - start)
    return _base3(codes, m)


def _sign_chunks(m: int):
    """_sign_digits of all 3^m codes, _ORACLE_CHUNK codes at a time.

    When the chunk size divides 3^m it is 3^k, and each chunk is one table of
    the trailing k digits, built once, behind the constant leading digits of
    start // 3^k.
    """
    total = 3 ** m
    if total % _ORACLE_CHUNK:
        for start in range(0, total, _ORACLE_CHUNK):
            yield _sign_digits(m, start, min(start + _ORACLE_CHUNK, total))
        return
    lead = len(np.base_repr(total // _ORACLE_CHUNK, 3)) - 1
    tail = _base3(np.arange(_ORACLE_CHUNK), m - lead)
    middle = (total - 1) // 2
    for high in range(total // _ORACLE_CHUNK):
        digits = np.empty((_ORACLE_CHUNK, m), dtype=np.int8)
        digits[:, :lead] = _base3(np.array([high]), lead)
        digits[:, lead:] = tail
        if high == middle // _ORACLE_CHUNK:
            digits = np.delete(digits, middle % _ORACLE_CHUNK, axis=0)
        yield digits


def _sign_table(m: int) -> np.ndarray:
    """Every nonzero sign pattern in {-1, 0, 1}^m, one float row each, in the
    order of itertools.product((-1, 0, 1), repeat=m)."""
    return (_sign_digits(m, 0, 3 ** m) - 1).astype(float)


def _prescaled(x: np.ndarray) -> np.ndarray:
    """Finite x times the power of two that puts its largest magnitude in
    [1, 2). The scaling is exact unless it takes an entry into the subnormal
    range, so relative distances do not move, and the closed forms of a
    small matrix neither overflow nor underflow."""
    top = np.abs(x).max(initial=0.0)
    return np.ldexp(x, 1 - np.frexp(top)[1]) if top > 0.0 else x


def _cofactor_det(rows: tuple, cols: tuple, entry: dict, memo: dict):
    """Determinant of the submatrix on the sorted rows and columns by Laplace
    expansion along its first row, with every minor memoised in memo. entry
    maps each support position (i, j) to its values; a structural zero is
    skipped, not multiplied, and a structurally singular submatrix is None."""
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


def _cofactor_values(quantity: str, n: int, rows, cols, perturbed: np.ndarray) -> np.ndarray:
    """What _lapack_values returns, by cofactors: det is the expansion
    itself, the inverse adj / det and the solution adj b / det. For "inv" and
    "solve", a trial whose determinant is exactly zero is NaN."""
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


def _lapack_values(quantity: str, n: int, rows, cols, perturbed: np.ndarray) -> np.ndarray:
    """The quantity on every trial, one row each: det (one column), the
    row-major inverse (n * n) or the solution (n). Row e of perturbed holds
    the values of perturbed entry e in every trial: the support entries in
    the order of (rows, cols), then b. A trial that LAPACK finds exactly
    singular is NaN for "inv" and "solve"."""
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


def oracle_condition(quantity: str, A, b=None, delta: float = 1e-6, seed: int = 0,
                     exhaustive_limit: int = 12, random_trials: int = 10_000):
    """Estimate condition numbers straight from their definition.

    Evaluates the target map on relatively perturbed inputs and returns the
    worst observed ratio of output distance to input distance. Each entry of
    the support (plus every entry of b for "solve") is perturbed by
    -delta*|a|, 0 or +delta*|a|. All 3^m sign patterns are enumerated when the
    perturbed entry count m is at most exhaustive_limit; beyond that,
    random_trials random full-magnitude sign patterns are sampled, which makes
    the result a lower estimate of the true supremum. Trials run in chunks of
    _ORACLE_CHUNK patterns, so memory does not grow with 3^m.

    A and b are first scaled, each by a power of two, so that their largest
    entry lies in [1, 2); the result does not depend on their scale. Up to
    n = 4 every trial is evaluated by cofactors, where an exactly zero
    determinant makes a trial singular; larger n use LAPACK, where an exactly
    zero pivot does. A singular trial counts as an infinite distance. A
    singular (under the rule of linalg._batched_inverse) or non-finite A
    gives +inf (an all-+inf array for "inv" and "solve").

    Returns a scalar for "det", an (n, n) array for "inv", an (n,) array for
    "solve"; like the closed forms, 0.0 or an empty array for a 0 x 0 A.
    """
    if delta <= 0.0:
        raise ValueError(f"perturbation scale must be positive, got {delta}")
    if quantity not in _QUANTITIES:
        raise ValueError(f"unknown quantity {quantity!r}, expected one of {_QUANTITIES}")
    if random_trials < 1:
        raise ValueError(f"random_trials must be at least 1, got {random_trials}")
    a = as_array(A)
    n = a.shape[0] if a.ndim else 0
    if a.shape != (n, n):
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    rhs = None
    if quantity == "solve":
        if b is None:
            raise ValueError("quantity 'solve' needs a right-hand side")
        rhs = np.asarray(b, dtype=float)
        if rhs.shape != (n,):
            raise ValueError(f"rhs length {rhs.shape} does not match matrix dimension {n}")
    shape = {"det": (), "inv": (n, n), "solve": (n,)}[quantity]
    if n == 0:
        return 0.0 if quantity == "det" else np.zeros(shape)
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
    values = _cofactor_values if n <= _COFACTOR_MAX_N else _lapack_values

    # levels[d] is the factor 1 + delta * sign for digit d, and row e of
    # `table` holds the three values perturbed entry e can take; the
    # reference is the middle column, where the factor is exactly 1, so the
    # reference and the trials round the same way
    levels = 1.0 + delta * np.array([-1.0, 0.0, 1.0])
    table = entries[:, None] * levels
    ref = values(quantity, n, rows, cols, table[:, 1:2])[0]
    if not np.isfinite(ref).all() or (quantity == "det" and ref[0] == 0.0):
        return singular
    tol = 0.0 if quantity == "det" else ZERO_SNAP * np.abs(ref).max()
    ref_s = np.where(np.abs(ref) > tol, ref, 0.0)

    if m <= exhaustive_limit:
        chunks = _sign_chunks(m)
    else:
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed)))
        draws = rng.integers(0, 2, size=(random_trials, m)) * 2
        chunks = (draws[start:start + _ORACLE_CHUNK]
                  for start in range(0, random_trials, _ORACLE_CHUNK))
    entry_index = np.arange(m)[:, None]
    worst = 0.0
    for digits in chunks:
        pert = values(quantity, n, rows, cols, table[entry_index, digits.T])
        # NaN (a singular trial) is kept, so the ratio makes it +inf
        pert_s = np.where(np.abs(pert) <= tol, 0.0, pert)
        worst = np.maximum(worst, np.abs(pert_s - ref_s).max(axis=0))
    # the largest distance over the trials, divided once: division by |ref|
    # is monotone, so this is the largest ratio
    dist = componentwise_ratio(worst, ref_s) / delta
    return float(dist[0]) if quantity == "det" else dist.reshape(shape)


# ---------------------------------------------------------------------------
# batched kernels: the only implementation; the scalar functions above run
# them on a batch of one, and all of them invert through linalg._batched_inverse

def batch_cond_det(stack: np.ndarray) -> np.ndarray:
    """cond_det of every matrix in a (M, n, n) stack; inf where singular."""
    g, ok = _batched_inverse(stack)
    vals = np.full(stack.shape[0], np.inf)
    if ok.any():
        sub = np.abs(_members(stack, ok) * np.swapaxes(_members(g, ok), -1, -2)).sum(axis=(-1, -2))
        sub[~np.isfinite(sub)] = np.inf
        vals[ok] = sub
    return vals


def _snap_batch(values: np.ndarray, axes) -> np.ndarray:
    """Magnitudes with entries below ZERO_SNAP times the largest set to zero."""
    mags = np.abs(values)
    top = mags.max(axis=axes, keepdims=True, initial=0.0)
    return np.where(mags > ZERO_SNAP * top, mags, 0.0)


def _inverse_ratios(stack: np.ndarray):
    """Entrywise inversion condition numbers of the members of a (M, n, n)
    stack that have an inverse, and the mask of those members."""
    g, ok = _batched_inverse(stack)
    gs = _snap_batch(_members(g, ok), (-1, -2))
    return componentwise_ratio(gs @ np.abs(_members(stack, ok)) @ gs, gs), ok


def batch_cond_inverse_entries(stack: np.ndarray) -> np.ndarray:
    """Entrywise inversion condition numbers for a (M, n, n) stack.

    Rows of singular matrices are all +inf.
    """
    ratios, ok = _inverse_ratios(stack)
    if ok.all():
        return ratios
    vals = np.full(stack.shape, np.inf)
    vals[ok] = ratios
    return vals


def batch_cond_inverse(stack: np.ndarray) -> np.ndarray:
    """cond_inverse of every matrix in a stack; inf where singular."""
    ratios, ok = _inverse_ratios(stack)
    vals = np.full(stack.shape[0], np.inf)
    vals[ok] = ratios.max(axis=(-1, -2))
    return vals


def batch_cond_solve_entries(stack: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Componentwise solve condition numbers for (M, n, n) and (M, n) stacks."""
    g, ok = _batched_inverse(stack)
    ok &= np.isfinite(rhs).all(axis=-1)
    vals = np.full(rhs.shape, np.inf)
    if not ok.any():
        return vals
    g, a, b = _members(g, ok), _members(stack, ok), _members(rhs, ok)
    # solutions that overflow are treated like singular draws
    with np.errstate(over="ignore"):
        x = (g @ b[..., None])[..., 0]
    solved = np.isfinite(x).all(axis=-1)
    if not solved.all():
        ok[ok] = solved
        g, a, b, x = g[solved], a[solved], b[solved], x[solved]
    if ok.any():
        gs = _snap_batch(g, (-1, -2))
        xs = _snap_batch(x, (-1,))
        num = gs @ (np.abs(a) @ xs[..., None]) + gs @ np.abs(b)[..., None]
        vals[ok] = componentwise_ratio(num[..., 0], xs)
    return vals


def batch_cond_solve(stack: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """cond_solve of every (matrix, rhs) pair; inf where singular."""
    return batch_cond_solve_entries(stack, rhs).max(axis=-1)


# ---------------------------------------------------------------------------
# report

@dataclass(frozen=True)
class ConditionReport:
    """Exact condition values for one instance together with the minor and
    column-replacement upper bounds.

    Slack entries are condition minus bound: nonpositive whenever the bound
    dominates, positive on a violation.
    """

    n: int
    pattern_size: int
    c_det: float
    c_inv: float
    c_inv_entries: np.ndarray
    bound_inv_entries: np.ndarray
    c_solve: float | None
    c_solve_entries: np.ndarray | None
    bound_solve_entries: np.ndarray | None

    @staticmethod
    def _max_slack(values, bounds) -> float:
        if values is None or bounds is None:
            return math.nan
        v = np.asarray(values, dtype=float).ravel()
        b = np.asarray(bounds, dtype=float).ravel()
        both = np.isfinite(v) & np.isfinite(b)
        one_sided = (~np.isfinite(v)) & np.isfinite(b)  # inf value vs finite bound
        if one_sided.any():
            return math.inf
        if not both.any():
            return math.nan
        return float((v[both] - b[both]).max())

    @property
    def minor_bound_max_slack(self) -> float:
        return self._max_slack(self.c_inv_entries, self.bound_inv_entries)

    @property
    def replacement_bound_max_slack(self) -> float:
        return self._max_slack(self.c_solve_entries, self.bound_solve_entries)

    @property
    def singular(self) -> bool:
        return not math.isfinite(self.c_det)

    def to_text(self, entries: bool = False) -> str:
        lines = [
            f"n = {self.n}",
            f"S_size = {self.pattern_size}",
            f"c_det = {_fmt_inf(self.c_det)}",
            f"c_inv = {_fmt_inf(self.c_inv)}",
        ]
        if self.c_solve is not None:
            lines.append(f"c_solve = {_fmt_inf(self.c_solve)}")
        lines.append(f"minor_bound_max = {_fmt_inf(float(np.max(self.bound_inv_entries)))}")
        lines.append(f"minor_bound_max_slack = {_fmt_inf(self.minor_bound_max_slack)}")
        if self.c_solve is not None:
            lines.append(f"replacement_bound_max = "
                         f"{_fmt_inf(float(np.max(self.bound_solve_entries)))}")
            lines.append(f"replacement_bound_max_slack = "
                         f"{_fmt_inf(self.replacement_bound_max_slack)}")
        lines.append(f"singular = {int(self.singular)}")
        if entries:
            for k in range(self.n):
                for l in range(self.n):
                    lines.append(
                        f"c_inv_entry_{k + 1}_{l + 1} = {_fmt_inf(self.c_inv_entries[k, l])}"
                        f" (bound {_fmt_inf(self.bound_inv_entries[k, l])})"
                    )
            if self.c_solve_entries is not None:
                for k in range(self.n):
                    lines.append(
                        f"c_solve_entry_{k + 1} = {_fmt_inf(self.c_solve_entries[k])}"
                        f" (bound {_fmt_inf(self.bound_solve_entries[k])})"
                    )
        return "\n".join(lines) + "\n"

    CSV_HEADER = "n,S_size,c_det,c_inv,c_solve,minor_bound_max_slack,replacement_bound_max_slack"

    def to_csv_row(self) -> str:
        c_solve = math.nan if self.c_solve is None else self.c_solve
        return ",".join([
            str(self.n),
            str(self.pattern_size),
            format17(self.c_det),
            format17(self.c_inv),
            format17(c_solve),
            format17(self.minor_bound_max_slack),
            format17(self.replacement_bound_max_slack),
        ])


def _fmt_inf(x: float) -> str:
    if math.isinf(x):
        return "+inf" if x > 0 else "-inf"
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return format(float(x), ".9g")


def condition_report(A: PatternedMatrix, b=None) -> ConditionReport:
    """Assemble all condition numbers and bounds for one instance."""
    c_det_val = cond_det(A)
    inv_entries = cond_inverse_entries(A)
    binv = bound_inverse_entries(A)
    if b is not None:
        rhs = np.asarray(b, dtype=float)
        solve_entries = cond_solve_entries(A, rhs)
        bsol = bound_solve_entries(A, rhs)
        c_solve_val = float(solve_entries.max())
    else:
        solve_entries = None
        bsol = None
        c_solve_val = None
    return ConditionReport(
        n=A.n,
        pattern_size=len(A.pattern),
        c_det=c_det_val,
        c_inv=float(inv_entries.max()),
        c_inv_entries=inv_entries,
        bound_inv_entries=binv,
        c_solve=c_solve_val,
        c_solve_entries=solve_entries,
        bound_solve_entries=bsol,
    )
