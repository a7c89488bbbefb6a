"""Reduced-precision floating point and the accuracy of forward substitution.

Arithmetic with a p-bit significand is emulated on top of hardware doubles by
rounding after every multiply, subtract and divide (round to nearest, ties to
even, unbounded exponent range). A single rounded operation is exact for
p <= 26 because the double result of the operation carries at least 2p + 2
significant bits; for 26 < p <= 52 the per-operation relative error is still
at most 2^-p up to one extra ulp from double rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conditioning import batch_cond_solve, componentwise_distance, componentwise_ratio, cond_solve
from .linalg import as_array, format17
from .patterns import lower_triangular_pattern
from .smoothed import _gather_values, _sigma_factor, sample_batch

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
    """Round z to the nearest value with a p-bit significand, ties to even.

    Exact for every finite double: the scaled significand is an exact double,
    so Python's banker's rounding decides ties correctly. Guarantees
    |round_p(z) - z| <= 2^-p |z|, and idempotence.
    """
    if z == 0.0 or not math.isfinite(z):
        return z
    m, e = math.frexp(z)  # z = m * 2^e with 0.5 <= |m| < 1
    p = cfg.significand_bits
    try:
        return math.ldexp(float(round(m * (1 << p))), e - p)
    except OverflowError:
        # rounding up at the very top of the double range
        return math.copysign(math.inf, z)


def round_p_array(z, cfg: PrecisionConfig) -> np.ndarray:
    """Vectorized round_p; agrees with the scalar version bit for bit."""
    zz = np.asarray(z, dtype=float)
    p = cfg.significand_bits
    with np.errstate(over="ignore"):
        m, e = np.frexp(zz)
        return np.ldexp(np.rint(np.ldexp(m, p)), e - p)


def _check_lower_triangular(L: np.ndarray) -> None:
    if L.shape[0] != L.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {L.shape}")
    if np.any(np.triu(L, 1) != 0.0):
        raise ValueError("matrix has nonzeros above the diagonal")
    if np.any(np.diag(L) == 0.0):
        raise ValueError("zero diagonal entry: forward substitution undefined")


def forward_substitution(L, b, cfg: PrecisionConfig) -> np.ndarray:
    """Solve L x = b by forward substitution in emulated p-bit arithmetic.

    Every multiply, subtract and divide is rounded; the inner sum is
    accumulated left to right (j = 1 .. i-1), which pins the rounding schedule
    and makes runs reproducible.
    """
    mat = as_array(L)
    rhs = np.asarray(b, dtype=float)
    _check_lower_triangular(mat)
    n = mat.shape[0]
    if rhs.shape != (n,):
        raise ValueError(f"rhs length {rhs.shape} does not match dimension {n}")
    x = np.zeros(n)
    for i in range(n):
        s = rhs[i]
        for j in range(i):
            s = round_p(s - round_p(mat[i, j] * x[j], cfg), cfg)
        x[i] = round_p(s / mat[i, i], cfg)
    return x


def forward_substitution_batch(L: np.ndarray, b: np.ndarray, cfg: PrecisionConfig) -> np.ndarray:
    """Emulated substitution over a (M, n, n) stack; bit-identical to the
    scalar routine on every row."""
    m_count, n, _ = L.shape
    x = np.zeros((m_count, n))
    for i in range(n):
        s = b[:, i].copy()
        for j in range(i):
            s = round_p_array(s - round_p_array(L[:, i, j] * x[:, j], cfg), cfg)
        x[:, i] = round_p_array(s / L[:, i, i], cfg)
    return x


def _reference_substitution_batch(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Same loop in full double precision; treated as the exact solution."""
    m_count, n, _ = L.shape
    x = np.zeros((m_count, n))
    for i in range(n):
        s = b[:, i].copy()
        for j in range(i):
            s = s - L[:, i, j] * x[:, j]
        x[:, i] = s / L[:, i, i]
    return x


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
    r = b - (L @ x_hat[..., None])[..., 0]
    den = (np.abs(L) @ np.abs(x_hat)[..., None])[..., 0]
    return componentwise_ratio(r, den).max(axis=-1)


def backward_error_omega(L, b, x_hat) -> float:
    """Smallest nu such that (L + E) x_hat = b with |E| <= nu |L| entrywise.

    Computed from the residual in full precision: max_i |r_i| / (|L| |x_hat|)_i
    with r = b - L x_hat; a zero denominator contributes 0 when the residual
    component is zero and +inf otherwise.
    """
    return float(_omegas(as_array(L), np.asarray(b, dtype=float), np.asarray(x_hat, dtype=float)))


def backward_error_bound(n: int, cfg: PrecisionConfig) -> float:
    """Componentwise backward-error guarantee for forward substitution."""
    return 2.0 * math.log2(n) * cfg.eps_mach


def _log10_or_neg_inf(x: float) -> float:
    if x <= 0.0:
        return -math.inf
    return math.log10(x)


def lop_prediction(L, b) -> float:
    """Condition-based forecast of the digits lost by forward substitution:
    log10(2 log2 n) + log10(cond_solve(L, b)); the vanishing remainder term is
    left to the caller's slack."""
    n = len(np.asarray(b, dtype=float))
    c = cond_solve(L, b)
    if math.isinf(c):
        return math.inf
    return _log10_or_neg_inf(2.0 * math.log2(n)) + _log10_or_neg_inf(c)


def smoothed_lop_bound(n: int, sigma: float) -> float:
    """Theoretical mean loss of precision for the centered triangular model:
    log10((1+sigma)/sigma) + 5 log10 n + log10(log2 n) + 1.452."""
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
    mat = as_array(L)
    rhs = np.asarray(b, dtype=float)
    x_hat = forward_substitution(mat, rhs, cfg)
    x_ref = _reference_substitution_batch(mat[None], rhs[None])[0]
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

def _chunk_accuracy_values(args) -> np.ndarray:
    model, cfg, seed, chunk_index, count = args
    stack, rhs = sample_batch(model, seed, chunk_index, count)
    x_ref = _reference_substitution_batch(stack, rhs)
    x_hat = forward_substitution_batch(stack, rhs, cfg)

    rel = componentwise_ratio(x_hat - x_ref, x_ref).max(axis=1)
    lop = _lops(rel, cfg.eps_mach)
    omega = _omegas(stack, rhs, x_hat)
    cond = batch_cond_solve(stack, rhs)
    with np.errstate(divide="ignore"):
        pred = math.log10(2.0 * math.log2(model.n)) + np.log10(cond)
    return np.stack([rel, lop, omega, pred], axis=1)


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
        return 2.0 * math.log2(self.n) * 2.0 ** -self.precision_bits

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
        rows = [self.CSV_HEADER]
        bb = format17(self.backward_bound)
        for i in range(self.samples):
            rows.append(",".join([
                str(self.seed),
                str(self.n),
                format17(self.sigma),
                str(self.precision_bits),
                format17(self.rel_error[i]),
                format17(self.lop[i]),
                format17(self.omega[i]),
                bb,
                format17(self.lop_prediction[i]),
            ]))
        return "\n".join(rows) + "\n"

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
    if samples < 100:
        raise ValueError(f"need at least 100 samples, got {samples}")
    if model.center_rhs is None:
        raise ValueError("accuracy experiment needs a model with a right-hand side")
    n = model.n
    if n < 2:
        raise ValueError(f"accuracy experiment needs n >= 2 (its 2 log2 n bounds vanish "
                         f"at n = 1), got n = {n}")
    tri = lower_triangular_pattern(n).positions
    diag = {(i, i) for i in range(1, n + 1)}
    if not model.pattern.positions <= tri:
        raise ValueError("accuracy experiment needs a lower-triangular pattern")
    if not diag <= model.pattern.positions:
        raise ValueError("accuracy experiment needs the full diagonal in the pattern")
    stats = _gather_values(_chunk_accuracy_values, (model, cfg), samples, seed, workers)
    return AccuracySummary(
        n=n, sigma=model.sigma, precision_bits=cfg.significand_bits,
        samples=samples, seed=seed,
        rel_error=stats[:, 0], lop=stats[:, 1],
        omega=stats[:, 2], lop_prediction=stats[:, 3],
    )
