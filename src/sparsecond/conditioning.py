"""Componentwise condition numbers for determinant, inversion and solving.

All condition values use the componentwise relative distance
``max_i |u_i - v_i| / |v_i|`` with the conventions 0/0 -> 0 and x/0 -> inf for
x != 0. Perturbations are relative, so an entry that holds 0 stays 0 and every
quantity here reads the support of A from its nonzeros. Every condition number
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

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import (Factorization, PatternedMatrix, _factor, _factor_one, _lu_inverse, _lu_solve,
                     _csv_lines, _members, as_rhs, as_square)
from .patterns import _closure

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
    # an inf - inf or an overflow is NaN or inf, which the ratio makes inf
    with np.errstate(over="ignore", invalid="ignore"):
        diff = uu - vv
    return float(componentwise_ratio(diff, vv).max(initial=0.0))


def cond_det(A) -> float:
    """Condition number of the determinant: sum of |a_ij * g_ji| over the support.

    Returns +inf for singular input and 0.0 for the empty (0 x 0) matrix.
    """
    return float(batch_cond_det(as_square(A)[None])[0])


def cond_inverse_entries(A) -> np.ndarray:
    """Matrix of condition numbers of the individual entries of A^-1."""
    return batch_cond_inverse_entries(as_square(A)[None])[0]


def _entry(values: np.ndarray, *indices: int) -> float:
    """The entry of values at the 1-based indices; ValueError outside."""
    if not all(1 <= i <= m for i, m in zip(indices, values.shape)):
        raise ValueError(f"indices {indices} outside [1, {len(values)}]")
    return float(values[tuple(i - 1 for i in indices)])


def cond_inverse_entry(A, k: int, l: int) -> float:
    """Condition number of entry (k, l) of A^-1 (1-based indices)."""
    return _entry(cond_inverse_entries(A), k, l)


def cond_inverse(A) -> float:
    """Condition number of matrix inversion: max over all entries of A^-1."""
    return float(cond_inverse_entries(A).max(initial=0.0))


def cond_solve_entries(A, b) -> np.ndarray:
    """Vector of condition numbers of the solution components of A x = b."""
    a = as_square(A)
    return batch_cond_solve_entries(a[None], as_rhs(b, a.shape[0])[None])[0]


def cond_solve_entry(A, b, k: int) -> float:
    """Condition number of x_k where A x = b (1-based k)."""
    return _entry(cond_solve_entries(A, b), k)


def cond_solve(A, b) -> float:
    """Condition number of linear-system solving: max over solution components."""
    return float(cond_solve_entries(A, b).max(initial=0.0))


def bound_inverse_entry(A, k: int, l: int) -> float:
    """Upper bound for cond_inverse_entry(A, k, l): cond_det(A) + cond_det of
    the minor that deletes row l and column k (note the transposed order)."""
    return _entry(bound_inverse_entries(A), k, l)


def _cramer_sums(a: np.ndarray, g: np.ndarray, u: np.ndarray) -> np.ndarray:
    """sums[k, c] = sum of |a_ij| |g_ji - u_jc g_ki / u_kc| over the nonzeros
    of a with j != k, where g = a^-1; +inf where u_kc == 0 or the sum is not
    finite.

    With u = g this is cond_det of the minor that deletes row c and column k;
    with u = A^-1 b it is the part of cond_det of A with column k replaced by
    b that the other columns give. Rows loop over k and are vectorised over
    (c, nonzeros).
    """
    rows, cols = np.nonzero(a)
    mags = np.abs(a[rows, cols])
    out = np.empty((len(a), u.shape[1]))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for k in range(len(a)):
            keep = cols != k
            i, j = rows[keep], cols[keep]
            # dividing before multiplying keeps the product from overflowing
            # or underflowing where the sum does not
            h = g[j, i] - u.T[:, j] * (g[k, i] / u[k][:, None])
            sums = (mags[keep] * np.abs(h)).sum(axis=1)
            sums[(u[k] == 0.0) | ~np.isfinite(sums)] = np.inf
            out[k] = sums
    return out


def bound_inverse_entries(A) -> np.ndarray:
    """bound_inverse_entry for every (k, l), from the one inverse G of A.

    The minor that deletes row l and column k has the inverse entries
    g_ji - g_jl g_ki / g_kl (i != l, j != k), so its cond_det is a sum over
    the nonzeros of A; it is singular exactly when g_kl == 0 (Jacobi's identity
    det(minor) = +-det(A) g_kl). On the deleted row l the term is exactly 0
    (g_kl / g_kl == 1). A singular A gives +inf everywhere, since cond_det(A)
    is +inf and the sums are +inf or finite.
    """
    f = _factor_one(A)
    return _det_sums(f)[0] + _cramer_sums(f.a[0], f.g[0], f.g[0])


def bound_solve_entry(A, b, k: int) -> float:
    """Upper bound for cond_solve_entry: cond_det(A) + cond_det of A with
    column k replaced by b (pattern widened on that column)."""
    return _entry(bound_solve_entries(A, b), k)


def bound_solve_entries(A, b) -> np.ndarray:
    """bound_solve_entry for every k, from the one inverse G of A.

    Replacing column k by b is a rank-one update: with x = G b, the replaced
    matrix has the inverse G - (x - e_k) g_k^T / x_k, whose row k is
    g_k^T / x_k, and the determinant det(A) x_k. Its cond_det is the sum of
    _cramer_sums with u = x and sum_i |b_i| |g_ki| / |x_k|; it is singular
    exactly when x_k == 0. An unsolved system gives +inf everywhere.
    """
    f = _factor_one(A, b)
    return _bound_solve(f, _det_sums(f)[0])


def _bound_solve(f: Factorization, c_det: float) -> np.ndarray:
    """bound_solve_entries from the factorization f of one system and cond_det(A)."""
    if not f.solved[0]:
        return np.full(f.b.shape[1:], np.inf)
    g, x = f.g[0], f.x[0]
    with np.errstate(over="ignore"):
        column_b = np.abs(g) @ np.abs(f.b[0])
    return (c_det + _cramer_sums(f.a[0], g, x[:, None])[:, 0]
            + componentwise_ratio(column_b, x))


# ---------------------------------------------------------------------------
# finite-perturbation oracle

# Perturbed entries per oracle chunk on the broadcast axes of a sign grid,
# whose 3^K trials bound a chunk's largest array; the m - K leading entries
# are floats. Over the exhaustive runs at m = 12 and 10 (one BLAS thread,
# 2 vCPUs), K = 7..12 took 89 / 39 / 22 / 15 / 13 / 16 ms, and the benchmark's
# exact-tridiag job peaked at 39.2 / 39.3 / 39.4 / 40.8 / 41.9 / 47.5 MB resident.
# At K = 9 the m = 12 solve traces 0.47 MB of allocations, at 10 1.16 MB.
_ORACLE_DIGITS = 9

# Largest n whose oracle trials are evaluated by cofactors. Up to 4 x 4 the
# Laplace expansion is at most a few hundred array operations per chunk,
# far cheaper than LAPACK's per-matrix call cost; beyond, its cost grows
# factorially.
_COFACTOR_MAX_N = 4


def _sign_chunks(table: np.ndarray):
    """The values of the m perturbed entries in each chunk of the 3^m sign
    patterns; entry e takes table[e, d] for digit d. The L = max(0, m - K)
    leading entries are floats, one tuple of digits from itertools.product
    per chunk; trailing entry L + t is its row of table on axis t of an
    (m - L)-axis grid, shaped (1, ..., 3, ..., 1). The chunks in order, each
    grid in C order, run through the codes 0 .. 3^m - 1 in order."""
    m = len(table)
    lead = max(0, m - _ORACLE_DIGITS)
    heads = table[:lead].tolist()
    grid = [row.reshape((1,) * t + (3,) + (1,) * (m - lead - 1 - t))
            for t, row in enumerate(table[lead:])]
    for digits in itertools.product(range(3), repeat=lead):
        yield [values[d] for values, d in zip(heads, digits)] + grid


def _cofactor_det(rows: tuple, cols: tuple, entry: dict, memo: dict):
    """Determinant of the submatrix on the sorted rows and columns by Laplace
    expansion along its first row, with every minor memoised. entry maps each
    support position (i, j) to its values, a float or an array that
    broadcasts against the others, so a minor spans only the axes of its own
    entries. A structural zero is skipped, not multiplied, and a structurally
    singular submatrix is None."""
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


def _cofactor_outputs(quantity: str, n: int, rows, cols, perturbed):
    """What _lapack_outputs gives, by cofactors, one output after the other
    so that each can be reduced before the next is computed: det is the
    expansion itself, the inverse C_ji / det and the solution
    sum_i C_ji b_i / det. For "inv" and "solve", a trial whose determinant is
    exactly zero is NaN, and a quotient may overflow to inf."""
    entry = dict(zip(zip(rows.tolist(), cols.tolist()), perturbed))
    memo: dict = {}
    every = tuple(range(n))
    det = _cofactor_det(every, every, entry, memo)
    det = 0.0 if det is None else det
    if quantity == "det":
        yield det
        return
    # cof[j][i] is the cofactor C_ij, entry (j, i) of the adjugate
    cof = [[0.0] * n for _ in range(n)]
    for i, j in itertools.product(range(n), repeat=2):
        minor = _cofactor_det(every[:i] + every[i + 1:], every[:j] + every[j + 1:], entry, memo)
        if minor is not None:
            cof[j][i] = -minor if (i + j) % 2 else minor
    det = np.where(det == 0.0, np.nan, det)
    for row in cof:
        if quantity == "inv":
            yield from (c / det for c in row)
            continue
        # one add per i from 0.0, in the order of (adj * b).sum(axis=1)
        x = 0.0
        for c, b_i in zip(row, perturbed[len(rows):]):
            x = x + c * b_i
        yield x / det


def _lapack_outputs(quantity: str, n: int, rows, cols, perturbed) -> np.ndarray:
    """The values of each output over the trials, one row each: det (one),
    the row-major inverse (n * n) or the solution (n). Entry e of perturbed
    holds the values of perturbed entry e, the support entries in the order
    of (rows, cols), then b; the entries broadcast against each other to the
    trials. A trial that LAPACK finds exactly singular is NaN for "inv" and
    "solve"."""
    trials = [v.ravel() for v in np.broadcast_arrays(*perturbed)]
    stack = np.zeros((len(trials[0]), n * n))
    for k, v in zip(rows * n + cols, trials):
        stack[:, k] = v
    stack = stack.reshape(-1, n, n)
    if quantity == "det":
        return np.linalg.det(stack)[None]
    if quantity == "inv":
        return _lu_inverse(stack).reshape(-1, n * n).T
    return _lu_solve(stack, np.stack(trials[len(rows):], axis=1)).T


def _worst_distance(hi: np.ndarray, lo: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """max |v - ref| over the trials v of each output, from their largest
    value hi and smallest value lo. The rounded v - ref is non-decreasing in
    v, so the largest magnitude is at hi or at lo, bit for bit; a NaN trial
    makes hi and lo NaN, and so the distance."""
    return np.maximum(np.abs(hi - ref), np.abs(lo - ref))


def oracle_condition(quantity: str, A, b=None, delta: float = 1e-6, seed: int = 0,
                     exhaustive_limit: int = 12, random_trials: int = 10_000):
    """Estimate condition numbers straight from their definition.

    Evaluates the target map on relatively perturbed inputs and returns the
    worst observed ratio of output distance to input distance. Each nonzero
    of A (plus every entry of b for "solve") is perturbed by -delta*|a|, 0 or
    +delta*|a|; an entry that holds 0 never moves. All 3^m sign patterns are
    enumerated when the perturbed entry count m is at most exhaustive_limit;
    beyond that, random_trials random full-magnitude sign patterns are
    sampled, which makes the result a lower estimate of the true supremum.

    Trials run in chunks (_sign_chunks; a random chunk holds 3^8 rows), so
    memory does not grow with 3^m. Each output is reduced to its largest and
    smallest value as soon as it is computed, and the distance is taken once
    from the extremes over all chunks (_worst_distance): no bit depends on
    the chunking. The all-zero sign pattern is a trial at a distance of 0.
    Outputs outside the structure of A^-1 (of x; patterns._closure) count as
    zero in every trial, as they are in the closed forms.

    A and b are first scaled by linalg._factor, each by a power of two that
    puts its largest entry in [1, 2); the result does not depend on their
    scale, and the closed forms neither overflow nor underflow. Up to n = 4
    every trial is evaluated by cofactors, where an exactly zero
    determinant makes a trial singular; larger n use LAPACK, where an exactly
    zero pivot does. A singular trial counts as an infinite distance. An A
    that is singular, or a system that is unsolved, under the rule of
    linalg._factor gives +inf (an all-+inf array for "inv" and "solve").

    A is read by linalg.as_square, so a PatternedMatrix gives the bits of its
    entries. Returns a scalar for "det", an (n, n) array for "inv", an (n,)
    array for "solve"; like the closed forms, 0.0 or an empty array for a
    0 x 0 A.
    """
    if not 0.0 < delta < math.inf:
        raise ValueError(f"perturbation scale must be positive and finite, got {delta}")
    if quantity not in _QUANTITIES:
        raise ValueError(f"unknown quantity {quantity!r}, expected one of {_QUANTITIES}")
    if random_trials < 1:
        raise ValueError(f"random_trials must be at least 1, got {random_trials}")
    if quantity == "solve" and b is None:
        raise ValueError("quantity 'solve' needs a right-hand side")
    f = _factor_one(A, b if quantity == "solve" else None)
    n = f.a.shape[-1]
    shape = {"det": (), "inv": (n, n), "solve": (n,)}[quantity]
    if n == 0:
        return 0.0 if quantity == "det" else np.zeros(shape)
    singular = math.inf if quantity == "det" else np.full(shape, np.inf)
    if not (f.ok if f.b is None else f.solved)[0]:
        return singular
    rows, cols = np.nonzero(f.a[0])
    entries = f.a[0][rows, cols]
    if f.b is not None:
        entries = np.concatenate([entries, f.b[0]])
    m = len(entries)
    outputs = _cofactor_outputs if n <= _COFACTOR_MAX_N else _lapack_outputs

    # levels[d] is the factor 1 + delta * sign for digit d, and row e of
    # `table` holds the three values perturbed entry e can take; the
    # reference is the middle column, where the factor is exactly 1, so the
    # reference and the trials round the same way
    levels = 1.0 + delta * np.array([-1.0, 0.0, 1.0])
    table = entries[:, None] * levels
    with np.errstate(over="ignore"):
        ref = np.array([np.max(v) for v in outputs(quantity, n, rows, cols, table[:, 1:2])])
    if not np.isfinite(ref).all() or (quantity == "det" and ref[0] == 0.0):
        return singular
    # outside the mask LAPACK's round-off times 0.0 is 0; a NaN (singular) trial stays NaN
    keep = 1.0 if quantity == "det" else _closure(f.a[0] != 0.0)
    keep = np.ravel(keep if f.b is None else (keep & (f.b[0] != 0.0)).any(axis=1))
    ref = ref * keep

    if m <= exhaustive_limit:
        chunks = _sign_chunks(table)
    else:
        # drawn chunk by chunk: the generator's stream is the same as in
        # one (random_trials, m) draw
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed)))
        size = 3 ** min(_ORACLE_DIGITS, 8)
        chunks = (table[np.arange(m)[:, None],
                        rng.integers(0, 2, size=(min(size, random_trials - start), m)).T * 2]
                  for start in range(0, random_trials, size))
    hi, lo = -np.inf, np.inf
    with np.errstate(over="ignore"):
        for perturbed in chunks:
            # each output is reduced to its extremes as soon as it is computed
            top, bottom = zip(*((np.max(v), np.min(v))
                                for v in outputs(quantity, n, rows, cols, perturbed)))
            hi, lo = np.maximum(hi, top), np.minimum(lo, bottom)
    # the largest distance over the trials, divided once: division by |ref|
    # is monotone, so this is the largest ratio
    dist = componentwise_ratio(_worst_distance(hi * keep, lo * keep, ref), ref) / delta
    return float(dist[0]) if quantity == "det" else dist.reshape(shape)


# ---------------------------------------------------------------------------
# batched kernels: the only implementation; the scalar functions above run
# them on a batch of one, and every tile is factorized once by linalg._factor

# Bytes of one (tile, n, n) float array of a kernel, 145 members at n = 30:
# the inverse, magnitudes and masks of one tile stay in a core's L2 cache
# instead of each streaming a whole chunk through memory, and since the draws
# stream one tile at a time, the tile also sets a run's memory floor. The
# smallest size that cost no Monte Carlo workload time in a sweep over
# 2^19..2^21 bytes (2 vCPUs, one BLAS thread): at 2^19 the accuracy run's
# per-tile substitution loop took about 13% more CPU time (best of 20 runs).
_TILE_BYTES = 1 << 20


def _tile_members(n: int) -> int:
    """Members per tile of _tiled and of smoothed._tiles at dimension n."""
    return max(1, _TILE_BYTES // max(8 * n * n, 1))


def _tiled(kernel):
    """kernel(stack, *operands, **options) on consecutive tiles of the members
    of the (M, n, n) stack and of its per-member operands, with the options as
    they are, the results put back in order. Every kernel is member-wise, so no
    bit depends on the tile size; a stack that fits in one tile is passed on."""
    @functools.wraps(kernel)
    def run(stack, *operands, **options):
        count, tile = len(stack), _tile_members(stack.shape[-1])
        if count <= tile:
            return kernel(stack, *operands, **options)
        out = None
        for start in range(0, count, tile):
            part = kernel(*(x[start:start + tile] for x in (stack, *operands)), **options)
            if out is None:
                out = np.empty((count,) + part.shape[1:], part.dtype)
            out[start:start + len(part)] = part
        return out
    return run


# The formulas below are functions of the prescaled factorization f of a
# stack (the condition numbers are homogeneous of degree 0), so that
# condition_report factorizes once. They may overwrite f.a, f.g and f.x.

def _det_sums(f: Factorization) -> np.ndarray:
    """cond_det of the members of a stack; inf where singular."""
    vals = np.full(len(f.ok), np.inf)
    if f.ok.any():
        with np.errstate(over="ignore"):
            vals[f.ok] = np.abs(_members(f.a, f.ok) * np.swapaxes(_members(f.g, f.ok), -1, -2)
                                ).sum(axis=(-1, -2))
    return vals


@_tiled
def batch_cond_det(stack: np.ndarray) -> np.ndarray:
    """cond_det of every matrix in a (M, n, n) stack; inf where singular."""
    return _det_sums(_factor(stack))


def _inverse_entries(f: Factorization) -> np.ndarray:
    """Entrywise inversion condition numbers; rows of singular members are
    all +inf."""
    gs, a = (np.abs(v, out=v) for v in (_members(f.g, f.ok), _members(f.a, f.ok)))
    with np.errstate(over="ignore", invalid="ignore"):
        # |G| |A| |G| into the buffer of |A|, which the first product has read
        ratios = componentwise_ratio(np.matmul(gs @ a, gs, out=a), gs)
    if f.ok.all():
        return ratios
    vals = np.full(f.a.shape, np.inf)
    vals[f.ok] = ratios
    return vals


@_tiled
def batch_cond_inverse_entries(stack: np.ndarray) -> np.ndarray:
    """Entrywise inversion condition numbers for a (M, n, n) stack.

    Rows of singular matrices are all +inf.
    """
    return _inverse_entries(_factor(stack))


@_tiled
def batch_cond_inverse(stack: np.ndarray) -> np.ndarray:
    """cond_inverse of every matrix in a stack; inf where singular."""
    return _inverse_entries(_factor(stack)).max(axis=(-1, -2), initial=0.0)


@_tiled
def batch_cond_solve_entries(stack: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Componentwise solve condition numbers for (M, n, n) and (M, n) stacks;
    inf where the system is unsolved."""
    return _solve_entries(_factor(stack, rhs))


def _solve_entries(f: Factorization) -> np.ndarray:
    """Componentwise solve condition numbers; inf where unsolved."""
    vals = np.full(f.b.shape, np.inf)
    if f.solved.any():
        g, x, a, b = (_members(v, f.solved) for v in (f.g, f.x, f.a, f.b))
        gs, xs, a = (np.abs(v, out=v) for v in (g, x, a))
        with np.errstate(over="ignore", invalid="ignore"):
            num = gs @ (a @ xs[..., None]) + gs @ np.abs(b)[..., None]
            vals[f.solved] = componentwise_ratio(num[..., 0], xs)
    return vals


def batch_cond_solve(stack: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """cond_solve of every (matrix, rhs) pair; inf where singular."""
    return batch_cond_solve_entries(stack, rhs).max(axis=-1, initial=0.0)


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

    @staticmethod
    def _bound_max(values, bounds) -> float:
        # at a structural zero the condition is 0 and the bound +inf
        return math.nan if values is None else float(np.max(bounds[values != 0.0], initial=0.0))

    @property
    def minor_bound_max(self) -> float:
        """Largest bound where the condition is nonzero; +inf if A is singular."""
        return self._bound_max(self.c_inv_entries, self.bound_inv_entries)

    @property
    def replacement_bound_max(self) -> float:
        """Largest bound where the condition is nonzero; +inf if unsolved."""
        return self._bound_max(self.c_solve_entries, self.bound_solve_entries)

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
        lines.append(f"minor_bound_max = {_fmt_inf(self.minor_bound_max)}")
        lines.append(f"minor_bound_max_slack = {_fmt_inf(self.minor_bound_max_slack)}")
        if self.c_solve is not None:
            lines.append(f"replacement_bound_max = {_fmt_inf(self.replacement_bound_max)}")
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

    # one row; c_solve is nan without a right-hand side (linalg._csv_lines)
    _CSV_COLUMNS = (
        ("n", "n", int), ("S_size", "pattern_size", int), ("c_det", "c_det", float),
        ("c_inv", "c_inv", float), ("c_solve", "c_solve", float),
        ("minor_bound_max_slack", "minor_bound_max_slack", float),
        ("replacement_bound_max_slack", "replacement_bound_max_slack", float))
    CSV_HEADER = ",".join(column for column, _, _ in _CSV_COLUMNS)

    def to_csv_row(self) -> str:
        return _csv_lines(self)[1]


def _fmt_inf(x: float) -> str:
    if math.isinf(x):
        return "+inf" if x > 0 else "-inf"
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return format(float(x), ".9g")


def condition_report(A: PatternedMatrix, b=None) -> ConditionReport:
    """Assemble all condition numbers and bounds for one instance, from one
    factorization of A (and b)."""
    f = _factor_one(A, b)
    c_det = float(_det_sums(f)[0])
    # the kernels' formulas overwrite the a, g and x they get
    inv_entries = _inverse_entries(f._replace(a=f.a.copy(), g=f.g.copy()))[0]
    solve_entries = bsol = c_solve_val = None
    if b is not None:
        solve_entries = _solve_entries(f._replace(a=f.a.copy(), g=f.g.copy(), x=f.x.copy()))[0]
        bsol = _bound_solve(f, c_det)
        c_solve_val = float(solve_entries.max())
    return ConditionReport(
        n=A.n,
        pattern_size=len(A.pattern),
        c_det=c_det,
        c_inv=float(inv_entries.max()),
        c_inv_entries=inv_entries,
        bound_inv_entries=c_det + _cramer_sums(f.a[0], f.g[0], f.g[0]),
        c_solve=c_solve_val,
        c_solve_entries=solve_entries,
        bound_solve_entries=bsol,
    )
