"""Gaussian perturbation model on a sparsity pattern, theoretical tail and
log-expectation bounds, and seeded Monte Carlo estimators that compare the two.

Sampling is counter-based: sample i of a run lives in chunk i // CHUNK_SIZE,
and each chunk owns an independent Philox stream derived from (seed, chunk),
which the estimators draw one kernel tile at a time. Results are therefore
bit-identical for a given (model, samples, seed) regardless of how chunks are
scheduled across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import starmap

import numpy as np

from .conditioning import (_tile_members, batch_cond_det, batch_cond_inverse, batch_cond_solve,
                           componentwise_ratio)
from .linalg import PatternedMatrix, _csv_lines, _is_lower, _read_csv
from .patterns import SparsityPattern, is_admissible

CHUNK_SIZE = 4096

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)

# upper endpoint of the two-sided 99% Wilson interval
_Z99 = 2.5758293035489004


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
        _check_normal(self.center.entries, self.sigma)
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
            _check_normal(rhs, self.sigma)
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


def _check_normal(mean, sigma) -> None:
    """N(mean, sigma^2) draws; only the bounds take sigma = inf, their limit."""
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    if not np.isfinite(mean).all():
        raise ValueError("the mean of the draws must be finite")


def _chunk_generator(seed: int, chunk_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(chunk_index),))
    return np.random.Generator(np.random.Philox(ss))


def sample_batch(model: GaussianModel, seed: int, chunk_index: int, count: int):
    """Draw `count` samples of chunk `chunk_index` as dense stacks: (A, b) with
    A of shape (count, n, n) and b None when the model carries no right-hand
    side. The estimators draw the same bits one kernel tile at a time."""
    return _draw(model, _chunk_generator(seed, chunk_index), count)


def _draw(model: GaussianModel, rng: np.random.Generator, count: int):
    """The next `count` samples of rng. The normals are scaled and shifted in
    place in their draw buffer, then copied into a zeroed stack one slice per
    run of consecutive flat indices of the pattern (one run for the full
    pattern, n for the lower-triangular one); b owns its data, so the draw
    buffer is freed on return."""
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


def _tiles(model: GaussianModel, rng: np.random.Generator, count: int):
    """_draw(model, rng, count) as (A, b) tiles of _tile_members(n) draws in
    turn: standard_normal fills C order from the one stream, so the tiles
    hold the same bits."""
    tile = _tile_members(model.n)
    return (_draw(model, rng, min(tile, count - i)) for i in range(0, count, tile))


def _ratio_draws(mu: float, varsigma: float, rng: np.random.Generator, count: int):
    """The next `count` draws of X ~ N(mu, varsigma^2), as the one tile (X, X + 1)."""
    x = mu + varsigma * rng.standard_normal(count)
    yield x, x + 1.0


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
    """Tail bound for P(|X| > t |X + 1|), X ~ N(mu, varsigma^2), valid for t > 1;
    varsigma = inf gives its limit, as sigma = inf does in the other bounds."""
    if not math.isfinite(mu):
        raise ValueError(f"mean must be finite, got {mu}")
    if not varsigma > 0.0:
        raise ValueError(f"scale must be positive, got {varsigma}")
    _check_threshold(t, 1.0)
    factor = 1.0 if math.isinf(varsigma) else (abs(mu) + varsigma) / varsigma
    return factor * (1.0 / (t - 1.0)) * SQRT_2_OVER_PI


def det_tail_bound(S_size: int, sigma: float, t: float) -> float:
    """Tail bound for the determinant condition number, valid for t > |S|."""
    if S_size < 1:
        raise ValueError(f"support size must be at least 1, got {S_size}")
    _check_threshold(t, S_size)
    return _sigma_factor(sigma) * (S_size ** 2 / (t - S_size)) * SQRT_2_OVER_PI


def det_logexp_bound(S_size: int, sigma: float, beta: float) -> float:
    """Bound for the expected base-beta log of the determinant condition number."""
    _check_beta(beta)
    lnb = math.log(beta)
    return math.log(_sigma_factor(sigma)) / lnb + 2.0 * math.log(S_size) / lnb + 1.03 / lnb


def inverse_tail_bound(n: int, S_size: int, sigma: float, t: float) -> float:
    """Tail bound for the inversion condition number, valid for t > 2|S|."""
    _check_threshold(t, 2 * S_size)
    return _sigma_factor(sigma) * (4.0 * n * n * S_size ** 2 / (t - 2 * S_size)) * SQRT_2_OVER_PI


def inverse_logexp_bound(n: int, S_size: int, sigma: float, beta: float) -> float:
    _check_beta(beta)
    lnb = math.log(beta)
    return math.log(_sigma_factor(sigma)) / lnb + 2.0 * math.log(n * S_size) / lnb + 2.65 / lnb


def solve_tail_bound(n: int, S_size: int, sigma: float, t: float) -> float:
    """Tail bound for the linear-solve condition number, valid for t > 2|S|."""
    _check_threshold(t, 2 * S_size)
    return _sigma_factor(sigma) * (4.0 * n * S_size ** 2 / (t - 2 * S_size)) * SQRT_2_OVER_PI


def solve_logexp_bound(n: int, S_size: int, sigma: float, beta: float) -> float:
    _check_beta(beta)
    lnb = math.log(beta)
    return (math.log(_sigma_factor(sigma)) / lnb + math.log(n) / lnb
            + 2.0 * math.log(S_size) / lnb + 2.65 / lnb)


def triangular_tail_bound(n: int, sigma: float, t: float) -> float:
    """Solve-condition tail bound specialized to the lower-triangular pattern,
    where |S| = n(n+1)/2; valid for t > n(n+1)."""
    _check_threshold(t, n * (n + 1))
    return _sigma_factor(sigma) * (n ** 3 * (n + 1) ** 2 / (t - n * (n + 1))) * SQRT_2_OVER_PI


def triangular_logexp_bound(n: int, sigma: float, beta: float) -> float:
    _check_beta(beta)
    lnb = math.log(beta)
    return math.log(_sigma_factor(sigma)) / lnb + 5.0 * math.log(n) / lnb + 2.65 / lnb


def expectation_bound_from_tail(k: float, h: float, beta: float) -> float:
    """Expected-log bound for a variable X > 1 with P(X > t) <= k / (t - h):
    log_beta(k + h) + 1/ln(beta). Utility for composing new bounds."""
    if not (k > 0.0 and h > 0.0):
        raise ValueError(f"tail parameters must be positive, got k={k}, h={h}")
    _check_beta(beta)
    return math.log(k + h) / math.log(beta) + 1.0 / math.log(beta)


def _check_beta(beta: float) -> None:
    if not beta > 1.0:
        raise ValueError(f"logarithm base must exceed 1, got {beta}")


def _check_threshold(t: float, floor: float) -> None:
    """A tail bound holds only above its floor; NaN is below every floor."""
    if not t > floor:
        raise ValueError(f"threshold {t:g} is at or below the validity floor {floor:g}")


# quantity -> (tail, log-expectation) bound as f(n, |S|, sigma, t or beta);
# "triangular" is solve on the lower-triangular pattern
_BOUNDS = {
    "det": (lambda n, s, sigma, t: det_tail_bound(s, sigma, t),
            lambda n, s, sigma, beta: det_logexp_bound(s, sigma, beta)),
    "inv": (inverse_tail_bound, inverse_logexp_bound),
    "solve": (solve_tail_bound, solve_logexp_bound),
    "triangular": (lambda n, s, sigma, t: triangular_tail_bound(n, sigma, t),
                   lambda n, s, sigma, beta: triangular_logexp_bound(n, sigma, beta)),
}


def _is_lower_triangular(pattern: SparsityPattern) -> bool:
    return bool(_is_lower(pattern.mask[None])[0]) and len(pattern) == pattern.n * (pattern.n + 1) // 2


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

# Each estimator checks every argument, evaluates its bounds, gathers the
# per-draw values and reduces them, in this order. A chunk job is (values,
# draws, seed, chunk_index, count) of module-level functions or partials.

def _check_run(samples: int, minimum: int, workers: int) -> None:
    if samples < minimum:
        raise ValueError(f"need at least {minimum} samples, got {samples}")
    if workers < 1:
        raise ValueError(f"need at least 1 worker, got {workers}")


def _condition_values(quantity: str, a: np.ndarray, b) -> np.ndarray:
    # the kernels are looked up at call time, so that a tracer can wrap them
    if quantity == "det":
        return batch_cond_det(a)
    if quantity == "inv":
        return batch_cond_inverse(a)
    return batch_cond_solve(a, b)


def _chunk_values(job) -> np.ndarray:
    """values(*tile) on each tile of draws(rng, count) from the chunk's generator;
    starmap drops each tile before the next is drawn. A job must pickle."""
    values, draws, seed, chunk_index, count = job
    return np.concatenate(list(starmap(values, draws(_chunk_generator(seed, chunk_index), count))))


def _gather_values(values, draws, samples: int, seed: int, workers: int) -> np.ndarray:
    """_chunk_values of each chunk of a run in turn, over at most one worker
    process per chunk; draws is a function of (rng, count) or a GaussianModel."""
    # Freeing this untouched 16 MiB block raises glibc's mmap threshold (128 KiB)
    # to 16 MiB and its trim threshold to 32 MiB, here and in forked workers, so
    # each tile's 1 MiB arrays reuse heap pages instead of faulting in new ones.
    np.empty(2 << 20)
    if isinstance(draws, GaussianModel):
        draws = partial(_tiles, draws)
    jobs = [(values, draws, seed, idx, min(CHUNK_SIZE, samples - start))
            for idx, start in enumerate(range(0, samples, CHUNK_SIZE))]
    processes = min(workers, len(jobs))
    if processes > 1:
        # imported here: a run on one process never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        try:
            with ProcessPoolExecutor(max_workers=processes) as pool:
                return np.concatenate(list(pool.map(_chunk_values, jobs)))
        except OSError:
            pass  # no multiprocessing here; the chunks have the same bits in turn
    return np.concatenate([_chunk_values(job) for job in jobs])


def _condition_bounds(model: GaussianModel, quantity: str) -> tuple:
    """The model's (tail, log-expectation) bounds of quantity at t and beta."""
    if quantity not in ("det", "inv", "solve"):
        raise ValueError(f"unknown quantity {quantity!r}")
    if quantity == "solve" and model.center_rhs is None:
        raise ValueError("quantity 'solve' needs a model with a right-hand-side center")
    if quantity == "solve" and _is_lower_triangular(model.pattern):
        quantity = "triangular"
    return tuple(partial(bound, model.n, len(model.pattern), model.sigma)
                 for bound in _BOUNDS[quantity])


def _thresholds_and_bounds(thresholds, bound) -> tuple:
    """Ascending thresholds and the bound at each, which checks its floor."""
    ts = tuple(sorted(float(t) for t in thresholds))
    if not ts:
        raise ValueError("no thresholds given")
    return ts, tuple(bound(t) for t in ts)


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
        """PASS / VACUOUS / FAIL per threshold; bounds >= 1 carry no information.

        A threshold passes when the upper end of the two-sided 99% Wilson
        interval for its exceedance frequency (Wilson, JASA 22, 1927) is at
        most the bound. Each threshold is tested on its own, with no
        correction across thresholds; a statement for all thresholds at once
        would need a simultaneous band such as DKW (Massart, Ann. Probab. 18,
        1990).
        """
        out = []
        for w, b in zip(self.wilson_upper, self.theoretical):
            if b >= 1.0:
                out.append("VACUOUS")
            elif w <= b:
                out.append("PASS")
            else:
                out.append("FAIL")
        return tuple(out)

    def passed(self) -> bool:
        """The run's verdict: no threshold FAILs under verdicts(); VACUOUS passes."""
        return "FAIL" not in self.verdicts()

    # one row per threshold (linalg._csv_lines)
    _CSV_COLUMNS = (
        ("quantity", "quantity", str), ("n", "n", int), ("S_size", "S_size", int),
        ("sigma", "sigma", float), ("mu", "mu", float), ("t", "thresholds", (float,)),
        ("exceed_count", "exceed_counts", (int,)), ("empirical", "empirical", (float,)),
        ("wilson_upper99", "wilson_upper", (float,)), ("theoretical", "theoretical", (float,)),
        ("samples", "samples", int), ("seed", "seed", int),
        ("singular_count", "singular_count", int))
    CSV_HEADER = ",".join(column for column, _, _ in _CSV_COLUMNS)

    def to_csv_text(self) -> str:
        return "\n".join(_csv_lines(self)) + "\n"

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
    return _read_csv(TailEstimate, text)


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

    _CSV_COLUMNS = (
        ("quantity", "quantity", str), ("n", "n", int), ("S_size", "S_size", int),
        ("sigma", "sigma", float), ("beta", "beta", float), ("mean", "mean", float),
        ("std_error", "std_error", float), ("theoretical", "theoretical", float),
        ("samples", "samples", int), ("used_samples", "used_samples", int),
        ("singular_count", "singular_count", int), ("seed", "seed", int))
    CSV_HEADER = ",".join(column for column, _, _ in _CSV_COLUMNS)

    def to_csv_text(self) -> str:
        return "\n".join(_csv_lines(self)) + "\n"

    def passed(self) -> bool:
        """The run's verdict: the raw sample mean is at most the bound, with no
        standard-error allowance; a NaN mean (no finite sample) fails."""
        return self.mean <= self.theoretical

    def to_report_text(self) -> str:
        return (
            f"log-expectation experiment: quantity={self.quantity} n={self.n} "
            f"S_size={self.S_size} sigma={self.sigma:g} beta={self.beta:g} "
            f"samples={self.samples} seed={self.seed}\n"
            f"  mean log_beta(cond) = {self.mean:.6g} (std error {self.std_error:.3g}, "
            f"{self.used_samples} finite samples, {self.singular_count} singular)\n"
            f"  theoretical bound   = {self.theoretical:.6g}  "
            f"{'PASS' if self.passed() else 'FAIL'}\n"
        )


def parse_logexp_csv(text: str) -> LogExpectationEstimate:
    return _read_csv(LogExpectationEstimate, text)


def _tail_estimate(vals: np.ndarray, ts: tuple, theo: tuple, seed: int, **fields) -> TailEstimate:
    counts = tuple(int((vals > t).sum()) for t in ts)
    return TailEstimate(
        thresholds=ts, exceed_counts=counts,
        empirical=tuple(c / len(vals) for c in counts),
        wilson_upper=tuple(wilson_upper_99(c, len(vals)) for c in counts),
        theoretical=theo, samples=len(vals), seed=seed,
        singular_count=int(np.isinf(vals).sum()), **fields,
    )


def estimate_tail(model: GaussianModel, quantity: str, thresholds, samples: int,
                  seed: int, workers: int = 1) -> TailEstimate:
    """Monte Carlo tail frequencies of a condition number under the model."""
    _check_run(samples, 100, workers)
    tail_bound, _ = _condition_bounds(model, quantity)
    ts, theo = _thresholds_and_bounds(thresholds, tail_bound)
    vals = _gather_values(partial(_condition_values, quantity), model, samples, seed, workers)
    return _tail_estimate(vals, ts, theo, seed, quantity=quantity, n=model.n,
                          S_size=len(model.pattern), sigma=model.sigma)


def estimate_logexp(model: GaussianModel, quantity: str, beta: float, samples: int,
                    seed: int, workers: int = 1) -> LogExpectationEstimate:
    """Monte Carlo mean of log_beta(condition) under the model."""
    _check_run(samples, 100, workers)
    _, logexp_bound = _condition_bounds(model, quantity)
    theo = logexp_bound(beta)
    vals = _gather_values(partial(_condition_values, quantity), model, samples, seed, workers)
    finite = np.isfinite(vals)
    logs = np.log(vals[finite]) / math.log(beta)
    used = int(finite.sum())
    mean = float(logs.mean()) if used else math.nan
    std_error = float(logs.std(ddof=1) / math.sqrt(used)) if used > 1 else 0.0
    return LogExpectationEstimate(
        quantity=quantity, n=model.n, S_size=len(model.pattern), sigma=model.sigma,
        beta=beta, mean=mean, std_error=std_error, theoretical=theo,
        samples=samples, used_samples=used,
        singular_count=int(samples - used), seed=seed,
    )


def verify_ratio_tail(mu: float, varsigma: float, thresholds, samples: int,
                      seed: int, workers: int = 1) -> TailEstimate:
    """Measure P(|X| > t |X+1|) for X ~ N(mu, varsigma^2) against its bound."""
    _check_normal(mu, varsigma)
    _check_run(samples, 10_000, workers)
    ts, theo = _thresholds_and_bounds(thresholds,
                                      partial(gaussian_ratio_tail_bound, mu, varsigma))
    vals = _gather_values(componentwise_ratio, partial(_ratio_draws, mu, varsigma),
                          samples, seed, workers)
    return _tail_estimate(vals, ts, theo, seed, quantity="ratio", n=1, S_size=1,
                          sigma=varsigma, mu=mu)
