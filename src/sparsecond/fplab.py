"""Reduced-precision floating point and the accuracy of forward substitution.

Arithmetic with a p-bit significand is emulated on top of hardware doubles by
rounding after every multiply, subtract and divide (round to nearest, ties to
even, unbounded exponent range). A single rounded operation is exact for
p <= 26 because the double result of the operation carries at least 2p + 2
significant bits; for 26 < p <= 52 the per-operation relative error is still
at most 2^-p up to one extra ulp from double rounding.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .conditioning import _tiled, batch_cond_solve, componentwise_distance, componentwise_ratio
from .linalg import _is_lower, as_rhs, as_square, format17
from .smoothed import _check_run, _gather_values, _sigma_factor

# decimal digits of slack absorbing the vanishing remainder term in the
# loss-of-precision decomposition
LOP_SLACK_DIGITS = 0.5


@dataclass(frozen=True)
class PrecisionConfig:
    """Emulated machine arithmetic with a p-bit significand."""

    significand_bits: int

    def __post_init__(self):
        p = self.significand_bits
        if not (isinstance(p, (int, np.integer)) and 2 <= p <= 52):
            raise ValueError(f"significand bits must be an integer in [2, 52], got {p}")
        object.__setattr__(self, "significand_bits", int(p))

    @property
    def unit_roundoff(self) -> float:
        return 2.0 ** -self.significand_bits

    @property
    def eps_mach(self) -> float:
        return self.unit_roundoff


def round_p(z: float, cfg: PrecisionConfig) -> float:
    """Round z to the nearest value with a p-bit significand, ties to even;
    round_p_array on one value."""
    return float(round_p_array(z, cfg))


def round_p_array(z, cfg: PrecisionConfig) -> np.ndarray:
    """Round every entry of z to the nearest value with a p-bit significand,
    ties to even.

    Exact for every finite double: the scaled significand is an exact double,
    so rint decides ties correctly. Guarantees |round_p(z) - z| <= 2^-p |z|,
    and idempotence; 0, inf and NaN pass through, and rounding up at the very
    top of the double range gives inf.
    """
    with np.errstate(over="ignore"):
        return _round(np.asarray(z, dtype=float), cfg.significand_bits)


def _round(z: np.ndarray, p: int) -> np.ndarray:
    """The rounding of round_p_array, without its errstate."""
    m, e = np.frexp(z)  # z = m * 2^e with 0.5 <= |m| < 1, so m * 2^p is exact
    return np.ldexp(np.rint(m * float(1 << p)), e - p)


def forward_substitution(L, b, cfg: PrecisionConfig) -> np.ndarray:
    """Solve L x = b by forward substitution in emulated p-bit arithmetic.

    Every multiply, subtract and divide is rounded; the inner sum is
    accumulated left to right (j = 1 .. i-1), which pins the rounding schedule
    and makes runs reproducible. A batch of one on forward_substitution_batch.
    """
    mat = as_square(L)
    if not _is_lower(mat[None])[0]:
        raise ValueError("matrix has nonzeros above the diagonal")
    if np.any(np.diag(mat) == 0.0):
        raise ValueError("zero diagonal entry: forward substitution undefined")
    return forward_substitution_batch(mat[None], as_rhs(b, len(mat))[None], cfg)[0]


def forward_substitution_batch(L: np.ndarray, b: np.ndarray, cfg: PrecisionConfig) -> np.ndarray:
    """Emulated substitution over a (M, n, n) stack of lower-triangular
    matrices and a (M, n) stack of right-hand sides; member i is
    forward_substitution(L[i], b[i], cfg), without its argument checks."""
    return _substitute(L, b, cfg=cfg)


@_tiled
def _substitute(L: np.ndarray, b: np.ndarray, cfg: PrecisionConfig | None = None) -> np.ndarray:
    """The one substitution loop: p-bit arithmetic, or plain double (the
    reference, treated as exact) when cfg is None.

    Column by column on a member-last copy of the tile: once x_j is known,
    every later row i subtracts l_ij x_j at once. Row i still subtracts its
    terms j = 0, 1, .., i-1 in turn, so every rounding is the one of a row by
    row loop, on the same operands. Non-finite entries and zero diagonals give
    non-finite solutions without a warning."""
    cols = L.transpose(2, 1, 0).copy()  # cols[j, i] is L[:, i, j]
    x = b.T.copy()  # row j turns from b_j into x_j at step j
    rnd = (lambda z: z) if cfg is None else functools.partial(_round, p=cfg.significand_bits)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for j in range(len(x)):
            x[j] = rnd(x[j] / cols[j, j])
            x[j + 1:] = rnd(x[j + 1:] - rnd(cols[j, j + 1:] * x[j]))
    return np.ascontiguousarray(x.T)


def rel_error(x_hat, x_ref) -> float:
    """Largest componentwise relative error of x_hat against x_ref."""
    return componentwise_distance(x_hat, x_ref)


def _lops(rel, eps: float) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.where(rel > 0.0,
                        np.maximum(0.0, np.log10(np.where(rel > 0.0, rel, 1.0) / eps)), 0.0)


def loss_of_precision(rel: float, cfg: PrecisionConfig) -> float:
    """Decimal digits of precision lost: log10(rel / eps_mach), at least 0.

    Infinite relative error gives +inf. Relative errors at or below eps_mach
    clamp to 0: a computed answer cannot gain digits, and the clamp keeps
    summaries finite at rel = 0.
    """
    return float(_lops(np.float64(rel), cfg.eps_mach))


def _omegas(L: np.ndarray, b: np.ndarray, x_hat: np.ndarray) -> np.ndarray:
    # non-finite entries and solutions give non-finite omegas, without warnings
    with np.errstate(over="ignore", invalid="ignore"):
        r = b - (L @ x_hat[..., None])[..., 0]
        den = (np.abs(L) @ np.abs(x_hat)[..., None])[..., 0]
    return componentwise_ratio(r, den).max(axis=-1, initial=0.0)


def backward_error_omega(L, b, x_hat) -> float:
    """Smallest nu such that (L + E) x_hat = b with |E| <= nu |L| entrywise.

    Computed from the residual in full precision: max_i |r_i| / (|L| |x_hat|)_i
    with r = b - L x_hat; a zero denominator contributes 0 when the residual
    component is zero and +inf otherwise.
    """
    mat = as_square(L)
    return float(_omegas(mat, as_rhs(b, len(mat)), as_rhs(x_hat, len(mat))))


def backward_error_bound(n: int, cfg: PrecisionConfig) -> float:
    """Componentwise backward-error guarantee for forward substitution; 0.0
    for n <= 1."""
    return 2.0 * math.log2(n) * cfg.eps_mach if n > 1 else 0.0


def _lop_dimension_term(n: int) -> float:
    """log10(2 log2 n), the dimension term of the LoP prediction; -inf for n <= 1."""
    return math.log10(2.0 * math.log2(n)) if n > 1 else -math.inf


def lop_prediction(L, b) -> float:
    """Condition-based forecast of the digits lost by forward substitution:
    log10(2 log2 n) + log10(cond_solve(L, b)); the vanishing remainder term is
    left to the caller's slack. A batch of one."""
    mat = as_square(L)
    return float(_lop_predictions(mat[None], as_rhs(b, len(mat))[None])[0])


def _lop_predictions(stack: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """lop_prediction of every member: +inf where cond_solve is, even at n = 1."""
    cond = batch_cond_solve(stack, rhs)
    with np.errstate(divide="ignore", invalid="ignore"):
        pred = _lop_dimension_term(stack.shape[-1]) + np.log10(cond)
    return np.where(np.isinf(cond), math.inf, pred)


def smoothed_lop_bound(n: int, sigma: float) -> float:
    """Theoretical mean loss of precision for the centered triangular model:
    log10((1+sigma)/sigma) + 5 log10 n + log10(log2 n) + 1.452."""
    if n < 2:
        raise ValueError(f"the smoothed LoP bound needs n >= 2 (log10(log2 n) is "
                         f"undefined at n = 1), got n = {n}")
    return (math.log10(_sigma_factor(sigma)) + 5.0 * math.log10(n)
            + math.log10(math.log2(n)) + 1.452)


@dataclass(frozen=True)
class SolveAccuracyReport:
    """Accuracy of one emulated forward substitution against the reference."""

    x_ref: np.ndarray
    x_hat: np.ndarray
    rel_error: float
    lop: float
    omega: float
    backward_bound: float
    lop_bound: float


def solve_accuracy(L, b, cfg: PrecisionConfig) -> SolveAccuracyReport:
    """Solve L x = b at reduced precision and report the error diagnostics."""
    mat = as_square(L)
    rhs = as_rhs(b, len(mat))
    x_hat = forward_substitution(mat, rhs, cfg)
    x_ref = _substitute(mat[None], rhs[None])[0]
    rel = rel_error(x_hat, x_ref)
    return SolveAccuracyReport(
        x_ref=x_ref,
        x_hat=x_hat,
        rel_error=rel,
        lop=loss_of_precision(rel, cfg),
        omega=backward_error_omega(mat, rhs, x_hat),
        backward_bound=backward_error_bound(len(rhs), cfg),
        lop_bound=lop_prediction(mat, rhs),
    )


# ---------------------------------------------------------------------------
# smoothed accuracy experiment

@_tiled
def _accuracy_values(stack: np.ndarray, rhs: np.ndarray, cfg: PrecisionConfig) -> np.ndarray:
    """(rel_error, LoP, omega, LoP prediction) of every draw, one row each,
    computed tile by tile so that a tile's arrays stay in cache."""
    x_ref = _substitute(stack, rhs)
    x_hat = forward_substitution_batch(stack, rhs, cfg)

    # inf - inf in the error of a non-finite draw is NaN, which the ratio makes inf
    with np.errstate(invalid="ignore"):
        rel = componentwise_ratio(x_hat - x_ref, x_ref).max(axis=1)
    lop = _lops(rel, cfg.eps_mach)
    omega = _omegas(stack, rhs, x_hat)
    return np.stack([rel, lop, omega, _lop_predictions(stack, rhs)], axis=1)


@dataclass(frozen=True)
class AccuracySummary:
    """Per-sample accuracy records plus the aggregate checks of one run."""

    n: int
    sigma: float
    precision_bits: int
    samples: int
    seed: int
    rel_error: np.ndarray
    lop: np.ndarray
    omega: np.ndarray
    lop_prediction: np.ndarray

    @property
    def backward_bound(self) -> float:
        return backward_error_bound(self.n, PrecisionConfig(self.precision_bits))

    @property
    def theoretical_lop_bound(self) -> float:
        return smoothed_lop_bound(self.n, self.sigma)

    @property
    def singular_count(self) -> int:
        return int((~np.isfinite(self.lop)).sum())

    def _usable(self) -> np.ndarray:
        return np.isfinite(self.lop) & np.isfinite(self.lop_prediction)

    @property
    def mean_lop(self) -> float:
        mask = self._usable()
        return float(self.lop[mask].mean()) if mask.any() else math.nan

    @property
    def mean_prediction(self) -> float:
        mask = self._usable()
        return float(self.lop_prediction[mask].mean()) if mask.any() else math.nan

    @property
    def lop_violations(self) -> int:
        """Samples losing more digits than predicted plus the fixed slack."""
        mask = self._usable()
        return int((self.lop[mask] > self.lop_prediction[mask] + LOP_SLACK_DIGITS).sum())

    @property
    def omega_violations(self) -> int:
        return int((self.omega > self.backward_bound).sum())

    @property
    def omega_hard_violations(self) -> int:
        return int((self.omega > 2.0 * self.backward_bound).sum())

    def backward_check_passed(self) -> bool:
        """At most 0.1% above the backward bound, none above twice of it."""
        return (self.omega_violations <= 0.001 * self.samples
                and self.omega_hard_violations == 0)

    def lop_check_passed(self) -> bool:
        return (self.lop_violations <= 0.001 * self.samples
                and self.mean_lop <= self.theoretical_lop_bound + LOP_SLACK_DIGITS)

    def passed(self) -> bool:
        """The run's verdict: both the backward-error and the LoP check pass."""
        return self.backward_check_passed() and self.lop_check_passed()

    CSV_HEADER = "seed,n,sigma,p,rel_error,lop,omega,backward_bound,lop_prediction"

    def to_csv_text(self) -> str:
        # one %-format per run, with the columns that are the same on every row
        # baked in; "%.17g" % x is format17(x)
        row = (f"{self.seed},{self.n},{format17(self.sigma)},{self.precision_bits},"
               f"%.17g,%.17g,%.17g,{format17(self.backward_bound)},%.17g")
        values = zip(self.rel_error.tolist(), self.lop.tolist(), self.omega.tolist(),
                     self.lop_prediction.tolist())
        return "\n".join([self.CSV_HEADER, *(row % v for v in values)]) + "\n"

    def to_report_text(self) -> str:
        back = "PASS" if self.backward_check_passed() else "FAIL"
        lop = "PASS" if self.lop_check_passed() else "FAIL"
        return (
            f"accuracy experiment: n={self.n} sigma={self.sigma:g} "
            f"p={self.precision_bits} samples={self.samples} seed={self.seed} "
            f"singular={self.singular_count}\n"
            f"  mean LoP           = {self.mean_lop:.6g}\n"
            f"  mean prediction    = {self.mean_prediction:.6g}\n"
            f"  theoretical bound  = {self.theoretical_lop_bound:.6g} (+{LOP_SLACK_DIGITS} slack)\n"
            f"  backward error     = {self.omega_violations} above bound, "
            f"{self.omega_hard_violations} above twice the bound: {back}\n"
            f"  LoP decomposition  = {self.lop_violations} above prediction+slack, "
            f"mean LoP vs bound: {lop}\n"
            f"  verdict            = {'PASS' if self.passed() else 'FAIL'}\n"
        )


def run_accuracy_experiment(model, cfg: PrecisionConfig, samples: int, seed: int,
                            workers: int = 1) -> AccuracySummary:
    """Sample (L, b), solve at reduced precision, and collect accuracy stats.

    The model pattern must live inside the lower triangle and contain the full
    diagonal, so that forward substitution applies to every draw.
    """
    _check_run(samples, 100, workers)
    if model.center_rhs is None:
        raise ValueError("accuracy experiment needs a model with a right-hand side")
    mask = model.pattern.mask
    if not _is_lower(mask[None])[0]:
        raise ValueError("accuracy experiment needs a lower-triangular pattern")
    if not mask.diagonal().all():
        raise ValueError("accuracy experiment needs the full diagonal in the pattern")
    smoothed_lop_bound(model.n, model.sigma)  # the summary's bound; it needs n >= 2
    stats = _gather_values(functools.partial(_accuracy_values, cfg=cfg), model,
                           samples, seed, workers)
    return AccuracySummary(
        n=model.n, sigma=model.sigma, precision_bits=cfg.significand_bits,
        samples=samples, seed=seed,
        rel_error=stats[:, 0], lop=stats[:, 1],
        omega=stats[:, 2], lop_prediction=stats[:, 3],
    )
