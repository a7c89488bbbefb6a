import math
import tracemalloc
import warnings

import numpy as np
import pytest

from sparsecond import smoothed
from sparsecond.linalg import PatternedMatrix
from sparsecond.patterns import (full_pattern, lower_triangular_pattern, pattern_from_mask,
                                 tridiagonal_pattern)
from sparsecond.smoothed import (
    GaussianModel,
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


class TestSerialization:
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
