import concurrent.futures
import dataclasses
import functools
import math
import pathlib
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from sparsecond import conditioning, fplab, smoothed
from sparsecond.linalg import PatternedMatrix, format17
from sparsecond.patterns import (full_pattern, lower_triangular_pattern, pattern_from_mask,
                                 tridiagonal_pattern)
from sparsecond.smoothed import (
    GaussianModel,
    LogExpectationEstimate,
    TailEstimate,
    det_logexp_bound,
    det_tail_bound,
    estimate_logexp,
    estimate_tail,
    expectation_bound_from_tail,
    gaussian_ratio_tail_bound,
    inverse_tail_bound,
    parse_logexp_csv,
    parse_tail_csv,
    sample,
    sample_batch,
    solve_tail_bound,
    triangular_logexp_bound,
    triangular_tail_bound,
    verify_ratio_tail,
    wilson_upper_99,
)

SQ2PI = math.sqrt(2.0 / math.pi)


def phi(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def make_model(n=4, pattern=None, center="zero", sigma=1.0, rhs=None):
    pattern = pattern if pattern is not None else lower_triangular_pattern(n)
    if center == "zero":
        c = PatternedMatrix(pattern, np.zeros((pattern.n, pattern.n)))
    else:
        c = PatternedMatrix.identity(pattern.n, pattern)
    return GaussianModel(pattern=pattern, center=c, sigma=sigma, center_rhs=rhs)


class TestGaussianModel:
    def test_rejects_unnormalized_center(self):
        pat = full_pattern(2)
        with pytest.raises(ValueError):
            GaussianModel(pattern=pat, center=PatternedMatrix(pat, 2 * np.eye(2)), sigma=1.0)

    def test_rejects_inadmissible_pattern(self):
        from sparsecond.patterns import SparsityPattern
        pat = SparsityPattern(2, frozenset({(1, 2), (2, 2)}))
        with pytest.raises(ValueError):
            GaussianModel(pattern=pat, center=PatternedMatrix(pat, np.zeros((2, 2))), sigma=1.0)

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            make_model(sigma=0.0)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_rejects_non_finite_sigma(self, sigma):
        # draws with sigma = inf are all non-finite, so all singular; the
        # bounds alone keep their sigma -> inf limit
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            make_model(sigma=sigma)
        assert det_tail_bound(3, math.inf, 4.0) == det_tail_bound(3, 1e300, 4.0)

    def test_rejects_non_finite_means(self):
        pat = full_pattern(2)
        center = PatternedMatrix(pat, np.array([[0.5, math.nan], [0.0, 0.5]]))
        with pytest.raises(ValueError, match="mean"):
            GaussianModel(pattern=pat, center=center, sigma=1.0)
        with pytest.raises(ValueError, match="mean"):
            make_model(rhs=np.array([0.0, math.nan, 0.0, 0.0]))

    def test_rejects_unnormalized_rhs(self):
        with pytest.raises(ValueError):
            make_model(rhs=np.array([2.0, 0.0, 0.0, 0.0]))


class TestSampling:
    def test_degenerate_sigma_sticks_to_center(self):
        model = make_model(center="identity", sigma=1e-12)
        mat, _ = sample(model, seed=1)
        assert np.abs(mat.entries - model.center.entries).max() < 1e-10

    def test_off_pattern_entries_exactly_zero(self):
        model = make_model()
        mat, _ = sample(model, seed=2)
        assert np.all(mat.entries[~model.pattern.mask] == 0.0)

    def test_seed_determinism(self):
        model = make_model(rhs=np.zeros(4))
        m1, b1 = sample(model, seed=3)
        m2, b2 = sample(model, seed=3)
        assert np.array_equal(m1.entries, m2.entries)
        assert np.array_equal(b1, b2)

    def test_single_sample_is_first_of_batch(self):
        model = make_model(rhs=np.zeros(4))
        m1, b1 = sample(model, seed=4)
        stack, rhs = sample_batch(model, seed=4, chunk_index=0, count=10)
        assert np.array_equal(m1.entries, stack[0])
        assert np.array_equal(b1, rhs[0])


def fancy_scatter_sample_batch(model, seed, chunk_index, count):
    """sample_batch written as one 2-index fancy scatter of the shifted and
    scaled draws: the reference the run-wise copy must match bit for bit."""
    rng = smoothed._chunk_generator(seed, chunk_index)
    n = model.n
    rows, cols = model.pattern.index_arrays
    m = len(rows)
    with_rhs = model.center_rhs is not None
    z = rng.standard_normal((count, m + (n if with_rhs else 0)))
    stack = np.zeros((count, n, n))
    with np.errstate(over="ignore"):
        stack[:, rows, cols] = model._center_at_positions + model.sigma * z[:, :m]
        rhs = model.center_rhs + model.sigma * z[:, m:] if with_rhs else None
    return stack, rhs


def _random_pattern(n):
    rng = np.random.default_rng(21)
    return pattern_from_mask((rng.random((n, n)) < 0.3) | np.eye(n, dtype=bool))


def _permuted_block_triangular_pattern(n):
    rng = np.random.default_rng(22)
    block = np.repeat(np.arange(3), [3, 4, n - 7])
    mask = block[:, None] >= block[None, :]
    return pattern_from_mask(mask[rng.permutation(n)][:, rng.permutation(n)])


SAMPLING_PATTERNS = {
    "full": full_pattern,
    "lower_triangular": lower_triangular_pattern,
    "tridiagonal": tridiagonal_pattern,
    "random": _random_pattern,
    "permuted_block_triangular": _permuted_block_triangular_pattern,
}


class TestSamplingByRuns:
    """The draws are copied into the stack one contiguous run of flat indices
    at a time; every bit equals the fancy-index scatter."""

    @pytest.mark.parametrize("sigma", [0.75, 1e308])
    @pytest.mark.parametrize("with_rhs", [False, True])
    @pytest.mark.parametrize("name", sorted(SAMPLING_PATTERNS))
    def test_same_bits_as_the_fancy_scatter(self, name, with_rhs, sigma):
        n = 12
        pattern = SAMPLING_PATTERNS[name](n)
        rng = np.random.default_rng(23)
        center = PatternedMatrix(pattern, rng.uniform(-1.0, 1.0, (n, n)) * pattern.mask)
        rhs = rng.uniform(-1.0, 1.0, n) if with_rhs else None
        model = GaussianModel(pattern=pattern, center=center, sigma=sigma, center_rhs=rhs)
        for count in (1, 7, 4096):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                stack, b = sample_batch(model, seed=6, chunk_index=2, count=count)
            ref_stack, ref_b = fancy_scatter_sample_batch(model, 6, 2, count)
            assert stack.shape == ref_stack.shape and stack.tobytes() == ref_stack.tobytes()
            if with_rhs:
                assert b.shape == ref_b.shape and b.tobytes() == ref_b.tobytes()
            else:
                assert b is None and ref_b is None
        # sigma = 1e308 makes most draws overflow to +-inf
        assert np.isinf(stack).any() == (sigma > 1.0)

    def test_rhs_owns_its_data(self):
        model = make_model(n=6, pattern=full_pattern(6), rhs=np.ones(6))
        stack, rhs = sample_batch(model, seed=7, chunk_index=0, count=64)
        assert rhs.flags.owndata and rhs.base is None
        assert not np.shares_memory(rhs, stack)

    def test_peak_memory_is_the_stack_and_the_draws(self):
        # the draw buffer is scaled and shifted in place and freed on return;
        # no temporary the size of the draws is made beside it
        model = make_model(n=30, pattern=full_pattern(30), rhs=np.ones(30))
        tracemalloc.start()
        try:
            stack, _ = sample_batch(model, seed=8, chunk_index=0, count=4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * stack.nbytes


def _model_on(name, n, sigma, with_rhs):
    pattern = SAMPLING_PATTERNS[name](n)
    rng = np.random.default_rng(23)
    center = PatternedMatrix(pattern, rng.uniform(-1.0, 1.0, (n, n)) * pattern.mask)
    rhs = rng.uniform(-1.0, 1.0, n) if with_rhs else None
    return GaussianModel(pattern=pattern, center=center, sigma=sigma, center_rhs=rhs)


def _tiles_of(monkeypatch, n, members):
    """Kernel tiles of `members` draws at dimension n; None keeps the default.
    Returns the members per tile."""
    if members is not None:
        monkeypatch.setattr(conditioning, "_TILE_BYTES", members * 8 * n * n)
    return conditioning._tile_members(n)


def condition_chunk(model, quantity, seed, chunk_index, count):
    """The condition values of one chunk, through the one chunk function."""
    return smoothed._chunk_values((functools.partial(smoothed._condition_values, quantity),
                                   functools.partial(smoothed._tiles, model), seed,
                                   chunk_index, count))


class TestTileStream:
    """A chunk is drawn from its one generator one kernel tile at a time, and
    each tile goes straight to the kernels; every bit is that of
    sample_batch's whole chunk."""

    @pytest.mark.parametrize("members", [1, 7, None])
    @pytest.mark.parametrize("sigma", [0.75, 1e308])
    @pytest.mark.parametrize("with_rhs", [False, True])
    @pytest.mark.parametrize("name", sorted(SAMPLING_PATTERNS))
    def test_tiles_are_the_chunk_bit_for_bit(self, name, with_rhs, sigma, members, monkeypatch):
        n = 12
        model = _model_on(name, n, sigma, with_rhs)
        tile = _tiles_of(monkeypatch, n, members)
        for count in sorted({1, tile - 1, tile, tile + 1, 4096} - {0}):
            tiles = list(smoothed._tiles(model, smoothed._chunk_generator(6, 2), count))
            stack, b = sample_batch(model, seed=6, chunk_index=2, count=count)
            sizes = [len(a) for a, _ in tiles]
            assert sum(sizes) == count and set(sizes[:-1]) <= {tile} and sizes[-1] <= tile
            got = np.concatenate([a for a, _ in tiles])
            assert got.shape == stack.shape and got.tobytes() == stack.tobytes()
            if with_rhs:
                got = np.concatenate([r for _, r in tiles])
                assert got.shape == b.shape and got.tobytes() == b.tobytes()
            else:
                assert b is None and all(r is None for _, r in tiles)

    @pytest.mark.parametrize("members,count", [(7, 300), (None, 4096)])
    @pytest.mark.parametrize("quantity", ["det", "inv", "solve"])
    @pytest.mark.parametrize("name", sorted(SAMPLING_PATTERNS))
    def test_condition_chunk_is_the_kernel_on_the_whole_chunk(self, name, quantity, members,
                                                              count, monkeypatch):
        n = 12
        model = _model_on(name, n, 0.75, True)
        stack, rhs = sample_batch(model, seed=5, chunk_index=1, count=count)
        expected = {"det": lambda: smoothed.batch_cond_det(stack),
                    "inv": lambda: smoothed.batch_cond_inverse(stack),
                    "solve": lambda: smoothed.batch_cond_solve(stack, rhs)}[quantity]()
        assert _tiles_of(monkeypatch, n, members) < count
        got = condition_chunk(model, quantity, 5, 1, count)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("members,count", [(7, 300), (None, 4096)])
    def test_accuracy_chunk_is_the_kernel_on_the_whole_chunk(self, members, count,
                                                             monkeypatch):
        n = 12
        model = _model_on("lower_triangular", n, 0.75, True)
        cfg = fplab.PrecisionConfig(24)
        stack, rhs = sample_batch(model, seed=5, chunk_index=1, count=count)
        expected = fplab._accuracy_values(stack, rhs, cfg=cfg)
        assert _tiles_of(monkeypatch, n, members) < count
        values = functools.partial(fplab._accuracy_values, cfg=cfg)
        got = smoothed._chunk_values((values, functools.partial(smoothed._tiles, model), 5, 1,
                                      count))
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()

    def test_chunk_peak_memory_is_one_tile_and_its_kernel(self):
        # a tile of 291 draws is 0.071 of the chunk's stack; the peak is the
        # drawn tile and the kernel's prescaled copy, inverse and |A| of it,
        # about 0.30 of the stack (1.59 when the chunk was drawn whole)
        model = make_model(n=30, rhs=np.ones(30))
        tracemalloc.start()
        try:
            condition_chunk(model, "solve", 8, 0, 4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.32 * (4096 * 30 * 30 * 8)


class TestBoundArithmetic:
    def test_ratio_bound_values(self):
        assert gaussian_ratio_tail_bound(0.0, 1.0, 2.0) == pytest.approx(SQ2PI, rel=1e-12)
        assert gaussian_ratio_tail_bound(1.0, 1.0, 11.0) == pytest.approx(0.2 * SQ2PI, rel=1e-12)
        assert gaussian_ratio_tail_bound(0.0, 1.0, 1e9) < 1e-8

    def test_ratio_bound_rejects(self):
        with pytest.raises(ValueError):
            gaussian_ratio_tail_bound(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            gaussian_ratio_tail_bound(0.0, 0.0, 2.0)

    def test_det_tail_values(self):
        assert det_tail_bound(10, 1.0, 500.0) == pytest.approx(2 * (100 / 490) * SQ2PI, rel=1e-12)
        assert det_tail_bound(1, 1.0, 2.0) == pytest.approx(2 * SQ2PI, rel=1e-12)  # vacuous
        assert det_tail_bound(10, 1.0, 1e12) < 1e-9

    def test_det_tail_rejects_floor(self):
        with pytest.raises(ValueError):
            det_tail_bound(10, 1.0, 10.0)

    def test_det_logexp_values(self):
        expected = math.log(2) + 2 * math.log(10) + 1.03
        assert det_logexp_bound(10, 1.0, math.e) == pytest.approx(expected, rel=1e-12)
        b10 = math.log10(2) + 1.03 / math.log(10)
        assert det_logexp_bound(1, 1.0, 10.0) == pytest.approx(b10, rel=1e-12)
        # sigma -> infinity drops the data factor
        assert det_logexp_bound(10, math.inf, math.e) == pytest.approx(2 * math.log(10) + 1.03,
                                                                       rel=1e-12)

    def test_det_logexp_rejects_beta(self):
        with pytest.raises(ValueError):
            det_logexp_bound(10, 1.0, 1.0)

    def test_inverse_tail_values(self):
        expected = 2 * (4 * 4 * 16 / 992) * SQ2PI
        assert inverse_tail_bound(2, 4, 1.0, 1000.0) == pytest.approx(expected, rel=1e-12)
        with pytest.raises(ValueError):
            inverse_tail_bound(2, 4, 1.0, 8.0)
        # doubling the distance above the floor halves the bound
        b1 = inverse_tail_bound(2, 4, 1.0, 8.0 + 100.0)
        b2 = inverse_tail_bound(2, 4, 1.0, 8.0 + 200.0)
        assert b1 == pytest.approx(2 * b2, rel=1e-12)

    def test_solve_tail_values(self):
        expected = 2 * (4 * 2 * 16 / 992) * SQ2PI
        assert solve_tail_bound(2, 4, 1.0, 1000.0) == pytest.approx(expected, rel=1e-12)
        assert solve_tail_bound(2, 4, 1.0, 1000.0) == pytest.approx(
            inverse_tail_bound(2, 4, 1.0, 1000.0) / 2, rel=1e-12)

    def test_triangular_tail_values(self):
        assert triangular_tail_bound(2, 1.0, 20.0) == pytest.approx(2 * (8 * 9 / 14) * SQ2PI,
                                                                    rel=1e-12)
        with pytest.raises(ValueError):
            triangular_tail_bound(2, 1.0, 6.0)

    def test_triangular_matches_solve_bound_on_grid(self):
        # the triangular support has n(n+1)/2 positions, so the two formulas
        # must agree identically
        for n in (2, 3, 5, 10, 17):
            s = n * (n + 1) // 2
            for t in (n * (n + 1) + 1.0, 10.0 * n ** 4, 1e8):
                for sigma in (0.1, 1.0, 7.5):
                    assert triangular_tail_bound(n, sigma, t) == pytest.approx(
                        solve_tail_bound(n, s, sigma, t), rel=1e-12)

    def test_triangular_logexp_values(self):
        expected = math.log(2) + 5 * math.log(10) + 2.65
        assert triangular_logexp_bound(10, 1.0, math.e) == pytest.approx(expected, rel=1e-12)

    def test_expectation_from_tail(self):
        assert expectation_bound_from_tail(1.0, 1.0, math.e) == pytest.approx(
            math.log(2) + 1.0, rel=1e-12)
        assert expectation_bound_from_tail(math.e / 2, math.e / 2, math.e) == pytest.approx(
            2.0, rel=1e-12)
        assert (expectation_bound_from_tail(2.0, 1.0, math.e)
                > expectation_bound_from_tail(1.0, 1.0, math.e))
        with pytest.raises(ValueError):
            expectation_bound_from_tail(0.0, 1.0, math.e)

    @pytest.mark.parametrize("bound, args", [
        (gaussian_ratio_tail_bound, (0.0, math.nan, 2.0)),
        (gaussian_ratio_tail_bound, (0.0, 1.0, math.nan)),
        (expectation_bound_from_tail, (math.nan, 1.0, math.e)),
        (expectation_bound_from_tail, (1.0, math.nan, math.e)),
        (expectation_bound_from_tail, (1.0, 1.0, math.nan))])
    def test_nan_parameter_is_rejected(self, bound, args):
        with pytest.raises(ValueError):
            bound(*args)


class TestWilson:
    def test_zero_successes_still_positive(self):
        assert 0.0 < wilson_upper_99(0, 1000) < 0.01

    def test_monotone_in_successes(self):
        uppers = [wilson_upper_99(k, 500) for k in range(0, 500, 50)]
        assert all(a < b for a, b in zip(uppers, uppers[1:]))

    def test_capped_at_one(self):
        assert wilson_upper_99(500, 500) == 1.0


class TestEstimateTail:
    def test_floor_validation(self):
        model = make_model()  # |S| = 10
        with pytest.raises(ValueError):
            estimate_tail(model, "det", [10.0], 1000, seed=0)
        with pytest.raises(ValueError):
            estimate_tail(model, "inv", [20.0], 1000, seed=0)

    def test_minimum_samples(self):
        with pytest.raises(ValueError):
            estimate_tail(make_model(), "det", [300.0], 50, seed=0)

    def test_solve_needs_rhs(self):
        with pytest.raises(ValueError):
            estimate_tail(make_model(), "solve", [300.0], 1000, seed=0)

    def test_one_by_one_tail_is_exactly_zero(self):
        # condition of the determinant of a 1x1 matrix is |a * 1/a| = 1
        pat = full_pattern(1)
        model = GaussianModel(pattern=pat,
                              center=PatternedMatrix(pat, np.ones((1, 1))), sigma=1.0)
        est = estimate_tail(model, "det", [2.0, 5.0], 2000, seed=6)
        assert est.exceed_counts == (0, 0)

    def test_empirical_non_increasing(self):
        model = make_model(pattern=full_pattern(3))
        est = estimate_tail(model, "det", [20.0, 50.0, 200.0], 3000, seed=7)
        assert all(a >= b for a, b in zip(est.empirical, est.empirical[1:]))

    def test_reproducible(self):
        model = make_model()
        a = estimate_tail(model, "det", [300.0], 500, seed=8)
        b = estimate_tail(model, "det", [300.0], 500, seed=8)
        assert a == b

    def test_worker_count_does_not_change_results(self):
        model = make_model(n=3, pattern=lower_triangular_pattern(3))
        seq = estimate_tail(model, "det", [50.0], 9000, seed=9, workers=1)
        par = estimate_tail(model, "det", [50.0], 9000, seed=9, workers=3)
        assert seq == par

    @pytest.mark.parametrize("workers,samples,pools", [
        (64, 9000, [3]), (2, 9000, [2]), (64, 4096, []), (1, 9000, [])])
    def test_pool_has_at_most_one_process_per_chunk(self, workers, samples, pools,
                                                    monkeypatch):
        sizes = []

        class InProcessPool:
            """Records the pool size and maps in this process; forks nothing."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        # _gather_values imports the pool from concurrent.futures when it maps
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        model = make_model(n=3, pattern=lower_triangular_pattern(3))
        got = estimate_tail(model, "det", [50.0], samples, seed=9, workers=workers)
        assert sizes == pools
        assert got == estimate_tail(model, "det", [50.0], samples, seed=9)

    def test_only_a_pooled_run_imports_the_process_pool(self):
        # in a fresh interpreter: the package and its CLI load no multiprocessing,
        # and neither does a run on one worker
        src = str(pathlib.Path(smoothed.__file__).parents[1])
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import sparsecond.cli as cli; "
                "before = 'multiprocessing' in sys.modules; "
                "cli.smoothed.verify_ratio_tail(0.0, 1.0, [2.0], 10_000, 1); "
                "print(before, 'multiprocessing' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                             check=True).stdout
        assert out == "False False\n"

    @pytest.mark.parametrize("workers", [0, -1])
    def test_fewer_than_one_worker_is_invalid(self, workers):
        with pytest.raises(ValueError, match="at least 1 worker"):
            estimate_tail(make_model(), "det", [300.0], 500, seed=9, workers=workers)

    def test_samples_respect_pattern(self):
        model = make_model()
        stack, _ = sample_batch(model, seed=10, chunk_index=0, count=64)
        assert np.all(stack[:, ~model.pattern.mask] == 0.0)
        # constructing PatternedMatrix re-validates the support invariant
        PatternedMatrix(model.pattern, stack[17])


class TestEstimateLogexp:
    def test_degenerate_sigma_concentrates_at_log_n(self):
        model = make_model(pattern=full_pattern(3), center="identity", sigma=1e-12)
        est = estimate_logexp(model, "det", math.e, 500, seed=11)
        assert est.mean == pytest.approx(math.log(3.0), abs=1e-9)

    def test_seed_stability(self):
        model = make_model(n=6, rhs=np.zeros(6))
        a = estimate_logexp(model, "solve", math.e, 2000, seed=12)
        b = estimate_logexp(model, "solve", math.e, 2000, seed=13)
        spread = 4.0 * max(a.std_error, b.std_error)
        assert abs(a.mean - b.mean) <= spread

    def test_theoretical_column_triangular_specialization(self):
        model = make_model(n=10, rhs=np.zeros(10))
        est = estimate_logexp(model, "solve", math.e, 200, seed=14)
        assert est.theoretical == pytest.approx(math.log(2) + 5 * math.log(10) + 2.65, rel=1e-12)

    def test_theoretical_column_generic_pattern(self):
        model = make_model(pattern=full_pattern(3), rhs=np.zeros(3))
        est = estimate_logexp(model, "solve", math.e, 200, seed=14)
        assert est.theoretical == pytest.approx(
            math.log(2) + math.log(3 * 9 ** 2) + 2.65, rel=1e-12)

    def test_rejects_bad_beta(self):
        with pytest.raises(ValueError):
            estimate_logexp(make_model(), "det", 1.0, 200, seed=0)


class TestVerifyRatioTail:
    def test_against_exact_normal_probability(self):
        # exact value from the interval -t/(t-1) < X < -t/(t+1)
        mu, vs, t = 0.0, 1.0, 10.0
        exact = phi((-t / (t + 1) - mu) / vs) - phi((-t / (t - 1) - mu) / vs)
        assert exact == pytest.approx(0.0484, abs=2e-4)
        est = verify_ratio_tail(mu, vs, [t], 100_000, seed=15)
        se = math.sqrt(exact * (1 - exact) / est.samples)
        assert abs(est.empirical[0] - exact) <= 3 * se
        assert est.empirical[0] <= est.theoretical[0]

    def test_large_threshold_empties_the_tail(self):
        est = verify_ratio_tail(0.0, 1.0, [1e6], 10_000, seed=16)
        assert est.empirical[0] <= 1e-3

    def test_floor(self):
        with pytest.raises(ValueError):
            verify_ratio_tail(0.0, 1.0, [1.0], 10_000, seed=0)


SPECIALS = (math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e308)


def tail_csv_field_by_field(est):
    """The tail CSV built one row at a time from format17 or str of each field."""
    rows = [TailEstimate.CSV_HEADER]
    for i, t in enumerate(est.thresholds):
        rows.append(",".join([
            est.quantity, str(est.n), str(est.S_size), format17(est.sigma), format17(est.mu),
            format17(t), str(est.exceed_counts[i]), format17(est.empirical[i]),
            format17(est.wilson_upper[i]), format17(est.theoretical[i]), str(est.samples),
            str(est.seed), str(est.singular_count)]))
    return "\n".join(rows) + "\n"


def logexp_csv_field_by_field(est):
    """The logexp CSV built from format17 or str of each field."""
    row = ",".join([
        est.quantity, str(est.n), str(est.S_size), format17(est.sigma), format17(est.beta),
        format17(est.mean), format17(est.std_error), format17(est.theoretical),
        str(est.samples), str(est.used_samples), str(est.singular_count), str(est.seed)])
    return LogExpectationEstimate.CSV_HEADER + "\n" + row + "\n"


def special_tail():
    return TailEstimate(quantity="ratio", n=1, S_size=1, sigma=5e-324, mu=-0.0,
                        thresholds=SPECIALS, exceed_counts=(0, 1, 2, 3, 12345, 2 ** 40),
                        empirical=SPECIALS[::-1], wilson_upper=SPECIALS[2:] + SPECIALS[:2],
                        theoretical=(1e308, -0.0, math.nan, math.inf, -math.inf, 5e-324),
                        samples=2 ** 40, seed=2 ** 64 + 1, singular_count=7)


def special_logexps():
    for i in range(len(SPECIALS)):
        v = SPECIALS[i:] + SPECIALS[:i]
        yield LogExpectationEstimate(quantity="solve", n=30, S_size=465, sigma=v[0], beta=v[1],
                                     mean=v[2], std_error=v[3], theoretical=v[4], samples=16384,
                                     used_samples=16380, singular_count=4, seed=2 ** 63 + i)


class TestSerialization:
    def test_tail_csv_equals_the_field_by_field_builder(self):
        est = estimate_tail(make_model(), "det", [300.0, 500.0, 1e4], 500, seed=17)
        ratio = verify_ratio_tail(0.3, 2.0, [2.0, 10.0], 10_000, seed=3)
        for case in (est, ratio, special_tail()):
            assert case.to_csv_text() == tail_csv_field_by_field(case)

    def test_logexp_csv_equals_the_field_by_field_builder(self):
        est = estimate_logexp(make_model(), "det", 2.0, 500, seed=18)
        for case in (est, *special_logexps()):
            assert case.to_csv_text() == logexp_csv_field_by_field(case)

    def test_round_trip_keeps_every_special_value(self):
        # repr tells -0.0 from 0.0, an int from a float, and prints nan as nan
        # a text column may hold the writer's own "%"
        percent = dataclasses.replace(special_tail(), quantity="100%s%%")
        for case, parse in ((special_tail(), parse_tail_csv), (percent, parse_tail_csv),
                            *((le, parse_logexp_csv) for le in special_logexps())):
            text = case.to_csv_text()
            back = parse(text)
            assert repr(back) == repr(case)
            assert back.to_csv_text() == text

    @pytest.mark.parametrize("parse", [parse_tail_csv, parse_logexp_csv])
    def test_malformed_csv_raises_value_error(self, parse):
        good = {parse_tail_csv: special_tail(),
                parse_logexp_csv: next(special_logexps())}[parse].to_csv_text()
        other = {parse_tail_csv: next(special_logexps()),
                 parse_logexp_csv: special_tail()}[parse].to_csv_text()
        header, row = good.splitlines()[:2]
        cases = ["", header + "\n", f"{header}\n{row.rsplit(',', 1)[0]}\n",
                 f"{header}\n{row},1\n", other, f"{header}\n{row}\n\n{row}\n"]
        if parse is parse_logexp_csv:
            cases.append(f"{header}\n{row}\n{row}\n")
        for text in cases:
            with pytest.raises(ValueError):
                parse(text)

    def test_tail_csv_round_trip(self):
        model = make_model()
        est = estimate_tail(model, "det", [300.0, 500.0], 500, seed=17)
        text = est.to_csv_text()
        back = parse_tail_csv(text)
        assert back.to_csv_text() == text
        assert back.thresholds == est.thresholds
        assert back.empirical == est.empirical
        assert back.wilson_upper == est.wilson_upper
        assert back.theoretical == est.theoretical

    def test_logexp_csv_round_trip(self):
        model = make_model()
        est = estimate_logexp(model, "det", 2.0, 500, seed=18)
        text = est.to_csv_text()
        back = parse_logexp_csv(text)
        assert back == est

    def test_verdicts(self):
        model = make_model()
        est = estimate_tail(model, "det", [11.0, 5000.0], 500, seed=19)
        verdicts = est.verdicts()
        assert verdicts[0] == "VACUOUS"  # bound at t=11 is 100^2/1 * ... >> 1
        assert verdicts[1] in ("PASS", "FAIL")

    def test_passed_is_the_verdict_the_report_prints(self):
        est = estimate_tail(make_model(), "det", [11.0, 5000.0], 500, seed=19)
        for wilson, theoretical, verdicts, passed in (
                ((1.0, 0.1), (5.0, 0.2), ("VACUOUS", "PASS"), True),
                ((1.0, 0.2), (5.0, 0.2), ("VACUOUS", "PASS"), True),
                ((1.0, 0.3), (5.0, 0.2), ("VACUOUS", "FAIL"), False),
                ((1.0, 0.3), (5.0, 1.0), ("VACUOUS", "VACUOUS"), True)):
            case = dataclasses.replace(est, wilson_upper=wilson, theoretical=theoretical)
            assert case.verdicts() == verdicts
            assert case.passed() is passed
            assert ("FAIL" in case.to_report_text()) is not passed
        le = estimate_logexp(make_model(), "det", 2.0, 500, seed=18)
        bound = le.theoretical
        for mean, passed in ((bound, True), (math.nextafter(bound, math.inf), False),
                             (math.nan, False)):
            case = dataclasses.replace(le, mean=mean)
            assert case.passed() is passed
            assert case.to_report_text().endswith("PASS\n" if passed else "FAIL\n")
