"""Gaussian perturbation model on a sparsity pattern, theoretical tail and
log-expectation bounds, and seeded Monte Carlo estimators that compare the two.

Sampling is counter-based: sample i of a run lives in chunk i // CHUNK_SIZE,
and each chunk owns an independent Philox stream derived from (seed, chunk).
Results are therefore bit-identical for a given (model, samples, seed)
regardless of how chunks are scheduled across workers.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .conditioning import batch_cond_det, batch_cond_inverse, batch_cond_solve, componentwise_ratio
from .linalg import PatternedMatrix, format17
from .patterns import SparsityPattern, is_admissible

CHUNK_SIZE = 4096

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)

# upper endpoint of the two-sided 99% Wilson interval
_Z99 = 2.5758293035489004

_QUANTITY_FLOOR_FACTOR = {"det": 1, "inv": 2, "solve": 2}


@dataclass(frozen=True)
class GaussianModel:
    """Independent N(center_ij, sigma^2) on the pattern, exact zeros elsewhere.

    The center matrix is normalized to max-norm at most 1 (and the optional
    right-hand-side center to sup-norm at most 1), which is no loss of
    generality since all condition numbers here are scale invariant.
    """

    pattern: SparsityPattern
    center: PatternedMatrix
    sigma: float
    center_rhs: np.ndarray | None = None

    def __post_init__(self):
        if self.sigma <= 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.center.n != self.pattern.n:
            raise ValueError("center dimension does not match pattern")
        if np.any(self.center.entries[~self.pattern.mask] != 0.0):
            raise ValueError("center support is not contained in the pattern")
        if np.abs(self.center.entries).max() > 1.0:
            raise ValueError("center max-norm must be at most 1")
        if self.center_rhs is not None:
            rhs = np.array(self.center_rhs, dtype=float)
            if rhs.shape != (self.pattern.n,):
                raise ValueError("center_rhs length does not match dimension")
            if rhs.size and np.abs(rhs).max() > 1.0:
                raise ValueError("center_rhs sup-norm must be at most 1")
            rhs.setflags(write=False)
            object.__setattr__(self, "center_rhs", rhs)
        if not is_admissible(self.pattern):
            raise ValueError("pattern admits no invertible matrix")

    @property
    def n(self) -> int:
        return self.pattern.n

    @cached_property
    def _center_at_positions(self) -> np.ndarray:
        rows, cols = self.pattern.index_arrays
        vals = self.center.entries[rows, cols]
        vals.setflags(write=False)
        return vals

    @cached_property
    def _runs(self) -> tuple:
        """(first draw, first flat index, length) of each maximal run of
        consecutive flat indices rows * n + cols of the pattern positions."""
        rows, cols = self.pattern.index_arrays
        flat = rows * self.n + cols
        bounds = np.concatenate([[0], np.flatnonzero(np.diff(flat) != 1) + 1, [len(flat)]])
        return tuple((int(a), int(flat[a]), int(b - a)) for a, b in zip(bounds[:-1], bounds[1:]))


def _chunk_generator(seed: int, chunk_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(chunk_index),))
    return np.random.Generator(np.random.Philox(ss))


def sample_batch(model: GaussianModel, seed: int, chunk_index: int, count: int):
    """Draw `count` samples of chunk `chunk_index` as dense stacks.

    Returns (A, b) where A has shape (count, n, n) and b is None when the
    model carries no right-hand side. The normals are scaled and shifted in
    place in their draw buffer, then copied into a zeroed stack one slice per
    run of consecutive flat indices of the pattern (one run for the full
    pattern, n for the lower-triangular one). b is an array of its own, so the
    draw buffer is freed when this returns.
    """
    rng = _chunk_generator(seed, chunk_index)
    n = model.n
    m = len(model.pattern)
    with_rhs = model.center_rhs is not None
    z = rng.standard_normal((count, m + (n if with_rhs else 0)))
    # a draw that overflows is non-finite, which the kernels count as singular
    with np.errstate(over="ignore"):
        z *= model.sigma
    z[:, :m] += model._center_at_positions
    stack = np.zeros((count, n * n))
    for first, flat, length in model._runs:
        stack[:, flat:flat + length] = z[:, first:first + length]
    rhs = model.center_rhs + z[:, m:] if with_rhs else None
    return stack.reshape(count, n, n), rhs


def sample(model: GaussianModel, seed: int):
    """One draw from the model; deterministic in the seed.

    Returns (PatternedMatrix, rhs-vector-or-None). Equals the first sample of
    any batch run with the same seed.
    """
    stack, rhs = sample_batch(model, seed, 0, 1)
    mat = PatternedMatrix(model.pattern, stack[0])
    return mat, (rhs[0] if rhs is not None else None)


# ---------------------------------------------------------------------------
# theoretical bounds

def _sigma_factor(sigma: float) -> float:
    if not sigma > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    return 1.0 + 1.0 / sigma  # exact sigma -> inf limit is 1


def gaussian_ratio_tail_bound(mu: float, varsigma: float, t: float) -> float:
    """Tail bound for P(|X| > t |X + 1|), X ~ N(mu, varsigma^2), valid for t > 1."""
    if varsigma <= 0.0:
        raise ValueError(f"scale must be positive, got {varsigma}")
    if t <= 1.0:
        raise ValueError(f"threshold must exceed 1, got {t}")
    return ((abs(mu) + varsigma) / varsigma) * (1.0 / (t - 1.0)) * SQRT_2_OVER_PI


def det_tail_bound(S_size: int, sigma: float, t: float) -> float:
    """Tail bound for the determinant condition number, valid for t > |S|."""
    if S_size < 1:
        raise ValueError(f"support size must be at least 1, got {S_size}")
    if t <= S_size:
        raise ValueError(f"threshold must exceed the support size {S_size}, got {t}")
    return _sigma_factor(sigma) * (S_size ** 2 / (t - S_size)) * SQRT_2_OVER_PI


def det_logexp_bound(S_size: int, sigma: float, beta: float) -> float:
    """Bound for the expected base-beta log of the determinant condition number."""
    _check_beta(beta)
    lnb = math.log(beta)
    return math.log(_sigma_factor(sigma)) / lnb + 2.0 * math.log(S_size) / lnb + 1.03 / lnb


def inverse_tail_bound(n: int, S_size: int, sigma: float, t: float) -> float:
    """Tail bound for the inversion condition number, valid for t > 2|S|."""
    if t <= 2 * S_size:
        raise ValueError(f"threshold must exceed {2 * S_size}, got {t}")
    return _sigma_factor(sigma) * (4.0 * n * n * S_size ** 2 / (t - 2 * S_size)) * SQRT_2_OVER_PI


def inverse_logexp_bound(n: int, S_size: int, sigma: float, beta: float) -> float:
    _check_beta(beta)
    lnb = math.log(beta)
    return math.log(_sigma_factor(sigma)) / lnb + 2.0 * math.log(n * S_size) / lnb + 2.65 / lnb


def solve_tail_bound(n: int, S_size: int, sigma: float, t: float) -> float:
    """Tail bound for the linear-solve condition number, valid for t > 2|S|."""
    if t <= 2 * S_size:
        raise ValueError(f"threshold must exceed {2 * S_size}, got {t}")
    return _sigma_factor(sigma) * (4.0 * n * S_size ** 2 / (t - 2 * S_size)) * SQRT_2_OVER_PI


def solve_logexp_bound(n: int, S_size: int, sigma: float, beta: float) -> float:
    _check_beta(beta)
    lnb = math.log(beta)
    return (math.log(_sigma_factor(sigma)) / lnb + math.log(n) / lnb
            + 2.0 * math.log(S_size) / lnb + 2.65 / lnb)


def triangular_tail_bound(n: int, sigma: float, t: float) -> float:
    """Solve-condition tail bound specialized to the lower-triangular pattern,
    where |S| = n(n+1)/2; valid for t > n(n+1)."""
    if t <= n * (n + 1):
        raise ValueError(f"threshold must exceed {n * (n + 1)}, got {t}")
    return _sigma_factor(sigma) * (n ** 3 * (n + 1) ** 2 / (t - n * (n + 1))) * SQRT_2_OVER_PI


def triangular_logexp_bound(n: int, sigma: float, beta: float) -> float:
    _check_beta(beta)
    lnb = math.log(beta)
    return math.log(_sigma_factor(sigma)) / lnb + 5.0 * math.log(n) / lnb + 2.65 / lnb


def expectation_bound_from_tail(k: float, h: float, beta: float) -> float:
    """Expected-log bound for a variable X > 1 with P(X > t) <= k / (t - h):
    log_beta(k + h) + 1/ln(beta). Utility for composing new bounds."""
    if k <= 0.0 or h <= 0.0:
        raise ValueError(f"tail parameters must be positive, got k={k}, h={h}")
    _check_beta(beta)
    return math.log(k + h) / math.log(beta) + 1.0 / math.log(beta)


def _check_beta(beta: float) -> None:
    if beta <= 1.0:
        raise ValueError(f"logarithm base must exceed 1, got {beta}")


_TAIL_BOUNDS = {
    "det": lambda n, s, sigma, t: det_tail_bound(s, sigma, t),
    "inv": inverse_tail_bound,
    "solve": solve_tail_bound,
}

_LOGEXP_BOUNDS = {
    "det": lambda n, s, sigma, beta: det_logexp_bound(s, sigma, beta),
    "inv": inverse_logexp_bound,
    "solve": solve_logexp_bound,
}


def _is_lower_triangular(pattern: SparsityPattern) -> bool:
    return all(i >= j for i, j in pattern.positions) and len(pattern) == pattern.n * (pattern.n + 1) // 2


def wilson_upper_99(successes: int, trials: int) -> float:
    """Upper endpoint of the two-sided 99% Wilson interval for a proportion.

    Stays valid (and strictly positive) at zero observed successes.
    """
    if trials <= 0:
        return 1.0
    z = _Z99
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2.0 * trials)) / denom
    margin = (z / denom) * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))
    return min(1.0, center + margin)


# ---------------------------------------------------------------------------
# estimators

def _chunk_condition_values(args) -> np.ndarray:
    model, quantity, seed, chunk_index, count = args
    stack, rhs = sample_batch(model, seed, chunk_index, count)
    if quantity == "det":
        return batch_cond_det(stack)
    if quantity == "inv":
        return batch_cond_inverse(stack)
    return batch_cond_solve(stack, rhs)


def _chunk_ratio_values(args) -> np.ndarray:
    mu, varsigma, seed, chunk_index, count = args
    rng = _chunk_generator(seed, chunk_index)
    x = mu + varsigma * rng.standard_normal(count)
    return componentwise_ratio(x, x + 1.0)


def _chunk_jobs(samples: int):
    full, rem = divmod(samples, CHUNK_SIZE)
    sizes = [CHUNK_SIZE] * full + ([rem] if rem else [])
    return list(enumerate(sizes))


def _map_chunks(fn, jobs, workers: int):
    if workers <= 1 or len(jobs) <= 1:
        return [fn(j) for j in jobs]
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, jobs))
    except OSError:
        # no multiprocessing available in this environment; results are
        # identical sequentially by construction
        return [fn(j) for j in jobs]


def _gather_values(fn, params, samples: int, seed: int, workers: int) -> np.ndarray:
    jobs = [params + (seed, idx, size) for idx, size in _chunk_jobs(samples)]
    return np.concatenate(_map_chunks(fn, jobs, workers))


@dataclass(frozen=True)
class TailEstimate:
    """Empirical tail frequencies next to the theoretical bound.

    Rows correspond to thresholds in ascending order; samples whose condition
    value is +inf (singular draws) exceed every threshold.
    """

    quantity: str
    n: int
    S_size: int
    sigma: float
    thresholds: tuple
    exceed_counts: tuple
    empirical: tuple
    wilson_upper: tuple
    theoretical: tuple
    samples: int
    seed: int
    singular_count: int
    mu: float = math.nan  # only used by the ratio experiment

    def verdicts(self) -> tuple:
        """PASS / VACUOUS / FAIL per threshold; bounds >= 1 carry no information."""
        out = []
        for w, b in zip(self.wilson_upper, self.theoretical):
            if b >= 1.0:
                out.append("VACUOUS")
            elif w <= b:
                out.append("PASS")
            else:
                out.append("FAIL")
        return tuple(out)

    CSV_HEADER = ("quantity,n,S_size,sigma,mu,t,exceed_count,empirical,"
                  "wilson_upper99,theoretical,samples,seed,singular_count")

    def to_csv_text(self) -> str:
        rows = [self.CSV_HEADER]
        for i, t in enumerate(self.thresholds):
            rows.append(",".join([
                self.quantity,
                str(self.n),
                str(self.S_size),
                format17(self.sigma),
                format17(self.mu),
                format17(t),
                str(self.exceed_counts[i]),
                format17(self.empirical[i]),
                format17(self.wilson_upper[i]),
                format17(self.theoretical[i]),
                str(self.samples),
                str(self.seed),
                str(self.singular_count),
            ]))
        return "\n".join(rows) + "\n"

    def to_report_text(self) -> str:
        head = (f"tail experiment: quantity={self.quantity} n={self.n} S_size={self.S_size} "
                f"sigma={self.sigma:g} samples={self.samples} seed={self.seed} "
                f"singular={self.singular_count}")
        lines = [head]
        for t, emp, wu, bound, verdict in zip(self.thresholds, self.empirical,
                                              self.wilson_upper, self.theoretical,
                                              self.verdicts()):
            lines.append(f"  t={t:<12g} empirical={emp:<12.6g} wilson99={wu:<12.6g} "
                         f"bound={bound:<12.6g} {verdict}")
        return "\n".join(lines) + "\n"


def parse_tail_csv(text: str) -> TailEstimate:
    lines = [ln for ln in text.strip().splitlines() if ln]
    if not lines or lines[0] != TailEstimate.CSV_HEADER:
        raise ValueError("not a tail-estimate CSV")
    rows = [ln.split(",") for ln in lines[1:]]
    first = rows[0]
    return TailEstimate(
        quantity=first[0],
        n=int(first[1]),
        S_size=int(first[2]),
        sigma=float(first[3]),
        mu=float(first[4]),
        thresholds=tuple(float(r[5]) for r in rows),
        exceed_counts=tuple(int(r[6]) for r in rows),
        empirical=tuple(float(r[7]) for r in rows),
        wilson_upper=tuple(float(r[8]) for r in rows),
        theoretical=tuple(float(r[9]) for r in rows),
        samples=int(first[10]),
        seed=int(first[11]),
        singular_count=int(first[12]),
    )


@dataclass(frozen=True)
class LogExpectationEstimate:
    """Sample mean of log_beta(condition) with its standard error.

    Singular samples would make the mean infinite; they are excluded and
    reported separately (their probability is zero in the continuous model).
    """

    quantity: str
    n: int
    S_size: int
    sigma: float
    beta: float
    mean: float
    std_error: float
    theoretical: float
    samples: int
    used_samples: int
    singular_count: int
    seed: int

    CSV_HEADER = ("quantity,n,S_size,sigma,beta,mean,std_error,theoretical,"
                  "samples,used_samples,singular_count,seed")

    def to_csv_text(self) -> str:
        row = ",".join([
            self.quantity,
            str(self.n),
            str(self.S_size),
            format17(self.sigma),
            format17(self.beta),
            format17(self.mean),
            format17(self.std_error),
            format17(self.theoretical),
            str(self.samples),
            str(self.used_samples),
            str(self.singular_count),
            str(self.seed),
        ])
        return self.CSV_HEADER + "\n" + row + "\n"

    def verdict(self) -> str:
        """PASS when the mean is at most the bound; a NaN mean (no finite
        sample) fails."""
        return "PASS" if self.mean <= self.theoretical else "FAIL"

    def to_report_text(self) -> str:
        return (
            f"log-expectation experiment: quantity={self.quantity} n={self.n} "
            f"S_size={self.S_size} sigma={self.sigma:g} beta={self.beta:g} "
            f"samples={self.samples} seed={self.seed}\n"
            f"  mean log_beta(cond) = {self.mean:.6g} (std error {self.std_error:.3g}, "
            f"{self.used_samples} finite samples, {self.singular_count} singular)\n"
            f"  theoretical bound   = {self.theoretical:.6g}  {self.verdict()}\n"
        )


def parse_logexp_csv(text: str) -> LogExpectationEstimate:
    lines = [ln for ln in text.strip().splitlines() if ln]
    if len(lines) != 2 or lines[0] != LogExpectationEstimate.CSV_HEADER:
        raise ValueError("not a log-expectation CSV")
    r = lines[1].split(",")
    return LogExpectationEstimate(
        quantity=r[0], n=int(r[1]), S_size=int(r[2]), sigma=float(r[3]),
        beta=float(r[4]), mean=float(r[5]), std_error=float(r[6]),
        theoretical=float(r[7]), samples=int(r[8]), used_samples=int(r[9]),
        singular_count=int(r[10]), seed=int(r[11]),
    )


def _validate_quantity(quantity: str, model: GaussianModel) -> None:
    if quantity not in _QUANTITY_FLOOR_FACTOR:
        raise ValueError(f"unknown quantity {quantity!r}")
    if quantity == "solve" and model.center_rhs is None:
        raise ValueError("quantity 'solve' needs a model with a right-hand-side center")


def estimate_tail(model: GaussianModel, quantity: str, thresholds, samples: int,
                  seed: int, workers: int = 1) -> TailEstimate:
    """Monte Carlo tail frequencies of a condition number under the model."""
    _validate_quantity(quantity, model)
    if samples < 100:
        raise ValueError(f"need at least 100 samples, got {samples}")
    ts = tuple(sorted(float(t) for t in thresholds))
    if not ts:
        raise ValueError("no thresholds given")
    floor = _QUANTITY_FLOOR_FACTOR[quantity] * len(model.pattern)
    if ts[0] <= floor:
        raise ValueError(
            f"threshold {ts[0]:g} is at or below the validity floor {floor} "
            f"for quantity '{quantity}' with |S|={len(model.pattern)}")
    vals = _gather_values(_chunk_condition_values, (model, quantity), samples, seed, workers)
    counts = tuple(int((vals > t).sum()) for t in ts)
    if quantity == "solve" and _is_lower_triangular(model.pattern):
        theo = tuple(triangular_tail_bound(model.n, model.sigma, t) for t in ts)
    else:
        theo = tuple(_TAIL_BOUNDS[quantity](model.n, len(model.pattern), model.sigma, t)
                     for t in ts)
    return TailEstimate(
        quantity=quantity, n=model.n, S_size=len(model.pattern), sigma=model.sigma,
        thresholds=ts, exceed_counts=counts,
        empirical=tuple(c / samples for c in counts),
        wilson_upper=tuple(wilson_upper_99(c, samples) for c in counts),
        theoretical=theo, samples=samples, seed=seed,
        singular_count=int(np.isinf(vals).sum()),
    )


def estimate_logexp(model: GaussianModel, quantity: str, beta: float, samples: int,
                    seed: int, workers: int = 1) -> LogExpectationEstimate:
    """Monte Carlo mean of log_beta(condition) under the model."""
    _validate_quantity(quantity, model)
    _check_beta(beta)
    if samples < 100:
        raise ValueError(f"need at least 100 samples, got {samples}")
    vals = _gather_values(_chunk_condition_values, (model, quantity), samples, seed, workers)
    finite = np.isfinite(vals)
    logs = np.log(vals[finite]) / math.log(beta)
    used = int(finite.sum())
    mean = float(logs.mean()) if used else math.nan
    std_error = float(logs.std(ddof=1) / math.sqrt(used)) if used > 1 else 0.0
    if quantity == "solve" and _is_lower_triangular(model.pattern):
        theo = triangular_logexp_bound(model.n, model.sigma, beta)
    else:
        theo = _LOGEXP_BOUNDS[quantity](model.n, len(model.pattern), model.sigma, beta)
    return LogExpectationEstimate(
        quantity=quantity, n=model.n, S_size=len(model.pattern), sigma=model.sigma,
        beta=beta, mean=mean, std_error=std_error, theoretical=theo,
        samples=samples, used_samples=used,
        singular_count=int(samples - used), seed=seed,
    )


def verify_ratio_tail(mu: float, varsigma: float, thresholds, samples: int,
                      seed: int, workers: int = 1) -> TailEstimate:
    """Measure P(|X| > t |X+1|) for X ~ N(mu, varsigma^2) against its bound."""
    if varsigma <= 0.0:
        raise ValueError(f"scale must be positive, got {varsigma}")
    if samples < 10_000:
        raise ValueError(f"need at least 10000 samples, got {samples}")
    ts = tuple(sorted(float(t) for t in thresholds))
    if not ts:
        raise ValueError("no thresholds given")
    if ts[0] <= 1.0:
        raise ValueError(f"threshold {ts[0]:g} is at or below the validity floor 1")
    vals = _gather_values(_chunk_ratio_values, (mu, varsigma), samples, seed, workers)
    counts = tuple(int((vals > t).sum()) for t in ts)
    return TailEstimate(
        quantity="ratio", n=1, S_size=1, sigma=varsigma, mu=mu,
        thresholds=ts, exceed_counts=counts,
        empirical=tuple(c / samples for c in counts),
        wilson_upper=tuple(wilson_upper_99(c, samples) for c in counts),
        theoretical=tuple(gaussian_ratio_tail_bound(mu, varsigma, t) for t in ts),
        samples=samples, seed=seed,
        singular_count=int(np.isinf(vals).sum()),
    )
