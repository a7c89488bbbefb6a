import functools
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from sparsecond import conditioning, fplab
from sparsecond.conditioning import batch_cond_solve, componentwise_ratio
from sparsecond.fplab import (
    AccuracySummary,
    _accuracy_values,
    _lops,
    _omegas,
    _substitute,
    PrecisionConfig,
    backward_error_bound,
    backward_error_omega,
    smoothed_lop_bound,
    forward_substitution,
    forward_substitution_batch,
    lop_prediction,
    loss_of_precision,
    rel_error,
    round_p,
    round_p_array,
    run_accuracy_experiment,
    solve_accuracy,
)
from sparsecond.linalg import PatternedMatrix, format17
from sparsecond.patterns import full_pattern, lower_triangular_pattern, pattern_from_mask
from sparsecond.smoothed import (GaussianModel, _chunk_values, _is_lower_triangular, _tiles,
                                 sample_batch)

P24 = PrecisionConfig(24)
P16 = PrecisionConfig(16)


def tri_model(n, sigma=1.0, center="zero", rhs="zero"):
    pat = lower_triangular_pattern(n)
    if center == "zero":
        c = PatternedMatrix(pat, np.zeros((n, n)))
    else:
        c = PatternedMatrix.identity(n, pat)
    b = np.zeros(n) if rhs == "zero" else np.ones(n)
    return GaussianModel(pattern=pat, center=c, sigma=sigma, center_rhs=b)


def accuracy_chunk(model, cfg, seed, chunk_index, count, draws=None):
    """The accuracy values of one chunk, through the one chunk function; draws
    defaults to the model's kernel tiles."""
    draws = functools.partial(_tiles, model) if draws is None else draws
    values = functools.partial(_accuracy_values, cfg=cfg)
    return _chunk_values((values, draws, seed, chunk_index, count))


# --- rational-arithmetic oracle for the rounding model -----------------------

def round_p_fraction(q: Fraction, p: int) -> Fraction:
    """Round an exact rational to p significand bits, ties to even."""
    if q == 0:
        return q
    sign = 1 if q > 0 else -1
    a = abs(q)
    e = a.numerator.bit_length() - a.denominator.bit_length()
    if a < Fraction(2) ** e:
        e -= 1
    elif a >= Fraction(2) ** (e + 1):
        e += 1
    scaled = a * Fraction(2) ** (p - 1 - e)
    whole = scaled.numerator // scaled.denominator
    frac = scaled - whole
    if frac > Fraction(1, 2) or (frac == Fraction(1, 2) and whole % 2 == 1):
        whole += 1
    return sign * whole * Fraction(2) ** (e + 1 - p)


def forward_substitution_fraction(L, b, p):
    n = len(b)
    x = [Fraction(0)] * n
    for i in range(n):
        s = Fraction(float(b[i]))
        for j in range(i):
            s = round_p_fraction(s - round_p_fraction(Fraction(float(L[i, j])) * x[j], p), p)
        x[i] = round_p_fraction(s / Fraction(float(L[i, i])), p)
    return x


class TestPrecisionConfig:
    def test_eps_is_power_of_two(self):
        assert P24.eps_mach == 2.0 ** -24
        assert P24.unit_roundoff == P24.eps_mach

    @pytest.mark.parametrize("p", [1, 0, 53, 60, -3])
    def test_rejects_out_of_range(self, p):
        with pytest.raises(ValueError):
            PrecisionConfig(p)


class TestRoundP:
    def test_representable_values_pass_through(self):
        assert round_p(1.0, P24) == 1.0
        assert round_p(-0.75, P24) == -0.75
        assert round_p(0.0, P24) == 0.0

    def test_below_half_ulp_rounds_away(self):
        assert round_p(1.0 + 2.0 ** -30, P24) == 1.0

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        for z in rng.standard_normal(200):
            once = round_p(z, P16)
            assert round_p(once, P16) == once

    def test_relative_error_bound_bulk(self):
        # vectorized check over a wide range of magnitudes
        rng = np.random.default_rng(2)
        z = rng.standard_normal(1_000_000) * np.exp(rng.uniform(-200, 200, 1_000_000))
        for cfg in (P16, P24, PrecisionConfig(40)):
            r = round_p_array(z, cfg)
            assert np.all(np.abs(r - z) <= cfg.eps_mach * np.abs(z))

    def test_array_matches_scalar(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal(2000) * np.exp(rng.uniform(-40, 40, 2000))
        for cfg in (PrecisionConfig(2), P16, P24, PrecisionConfig(52)):
            vec = round_p_array(z, cfg)
            assert_array_equal(vec, np.array([round_p(v, cfg) for v in z]))

    def test_matches_rational_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(2000):
            z = float(rng.standard_normal() * 10.0 ** float(rng.integers(-8, 9)))
            p = int(rng.integers(2, 53))
            assert Fraction(round_p(z, PrecisionConfig(p))) == round_p_fraction(Fraction(z), p)

    def test_infinity_passes_through(self):
        assert round_p(math.inf, P24) == math.inf

    def test_overflow_at_top_of_double_range(self):
        top = float(np.finfo(float).max)
        scalar = round_p(top, PrecisionConfig(2))
        vec = round_p_array(np.array([top]), PrecisionConfig(2))[0]
        assert scalar == vec == math.inf


class TestForwardSubstitution:
    def test_identity_is_exact_on_representable_rhs(self):
        b = np.array([5.0, 6.0, -3.5])
        assert_array_equal(forward_substitution(np.eye(3), b, P24), b)

    def test_1x1_exact_division(self):
        for cfg in (PrecisionConfig(2), P16, P24):
            assert forward_substitution(np.array([[2.0]]), [1.0], cfg) == np.array([0.5])

    def test_rejects_zero_diagonal(self):
        with pytest.raises(ValueError):
            forward_substitution(np.array([[1.0, 0.0], [1.0, 0.0]]), [1.0, 1.0], P24)

    def test_rejects_upper_entries(self):
        with pytest.raises(ValueError):
            forward_substitution(np.array([[1.0, 2.0], [0.0, 1.0]]), [1.0, 1.0], P24)

    @pytest.mark.parametrize("p", [16, 24])
    def test_matches_rational_oracle(self, p):
        rng = np.random.default_rng(5)
        cfg = PrecisionConfig(p)
        for _ in range(10):
            n = 12
            L = np.tril(rng.standard_normal((n, n)))
            for i in range(n):
                while abs(L[i, i]) < 1e-3:
                    L[i, i] = rng.standard_normal()
            b = rng.standard_normal(n)
            got = forward_substitution(L, b, cfg)
            expected = forward_substitution_fraction(L, b, p)
            assert all(Fraction(g) == e for g, e in zip(got, expected))

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(55)
        L = np.tril(rng.standard_normal((8, 7, 7)))
        L[:, np.arange(7), np.arange(7)] += np.sign(L[:, np.arange(7), np.arange(7)]) * 0.5
        b = rng.standard_normal((8, 7))
        batch = forward_substitution_batch(L, b, P24)
        for i in range(8):
            assert_array_equal(batch[i], forward_substitution(L[i], b[i], P24))


class TestRelErrorAndLop:
    def test_rel_error_examples(self):
        assert rel_error([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert rel_error([1.01, 2.0], [1.0, 2.0]) == pytest.approx(0.01, rel=1e-9)
        assert rel_error([1.0, 1.0], [1.0, 0.0]) == math.inf

    def test_lop_at_eps_is_zero(self):
        assert loss_of_precision(P24.eps_mach, P24) == 0.0

    def test_lop_counts_decimal_digits(self):
        assert loss_of_precision(100 * P24.eps_mach, P24) == pytest.approx(2.0, rel=1e-12)

    def test_lop_infinite_by_convention(self):
        assert loss_of_precision(math.inf, P24) == math.inf

    def test_lop_clamped_at_zero_error(self):
        assert loss_of_precision(0.0, P24) == 0.0

    def test_lop_clamped_below_eps(self):
        # digits cannot be gained
        assert loss_of_precision(P24.eps_mach / 100, P24) == 0.0


class TestBackwardError:
    def test_exact_solution_has_zero_omega(self):
        L = np.tril(np.array([[2.0, 0.0], [1.0, 4.0]]))
        x = np.array([1.0, 2.0])
        b = L @ x
        assert backward_error_omega(L, b, x) == 0.0

    def test_1x1_hand_formula(self):
        delta = 1e-5
        omega = backward_error_omega(np.array([[2.0]]), [1.0], [0.5 + delta])
        assert omega == pytest.approx(delta / (0.5 + delta), rel=1e-9)

    def test_zero_denominator_conventions(self):
        L = np.array([[1.0, 0.0], [0.0, 1.0]])
        # x_hat = 0 makes |L||x| zero in both components
        assert backward_error_omega(L, [0.0, 0.0], [0.0, 0.0]) == 0.0
        assert backward_error_omega(L, [1.0, 0.0], [0.0, 0.0]) == math.inf

    def test_emulated_solves_stay_below_bound(self):
        rng = np.random.default_rng(6)
        n = 64
        bound = backward_error_bound(n, P24)
        for _ in range(100):
            L = np.tril(rng.standard_normal((n, n)))
            for i in range(n):
                while abs(L[i, i]) < 1e-3:
                    L[i, i] = rng.standard_normal()
            b = rng.standard_normal(n)
            x_hat = forward_substitution(L, b, P24)
            assert backward_error_omega(L, b, x_hat) <= bound


class TestLopPrediction:
    def test_identity_sixteen(self):
        L = np.eye(16)
        b = np.ones(16)
        # log10(2 log2 16) + log10(2)
        assert lop_prediction(L, b) == pytest.approx(math.log10(8.0) + math.log10(2.0),
                                                     rel=1e-9)

    def test_singular_is_infinite(self):
        assert lop_prediction(np.zeros((2, 2)), np.ones(2)) == math.inf

    def test_n2_shape(self):
        rng = np.random.default_rng(7)
        L = np.tril(rng.standard_normal((2, 2)))
        b = rng.standard_normal(2)
        from sparsecond.conditioning import cond_solve
        assert lop_prediction(L, b) == pytest.approx(
            math.log10(2.0) + math.log10(cond_solve(L, b)), rel=1e-12)


    def test_n1_prediction_agrees_with_the_chunk_code(self):
        # one formula, bit for bit: log10(2 log2 1) = -inf in both at n = 1,
        # where the chunk code used to raise, and no math.log10 in the scalar,
        # which differed from the chunk's np.log10 in the last bit
        for n in (1, 2, 3, 5, 10, 30):
            model = tri_model(n, rhs="ones")
            stack, rhs = sample_batch(model, 5, 0, 500)
            pred = accuracy_chunk(model, P24, 5, 0, 500)[:, 3]
            scalar = np.array([lop_prediction(a, b) for a, b in zip(stack, rhs)])
            assert pred.tobytes() == scalar.tobytes()
        assert lop_prediction(np.array([[2.0]]), np.array([1.0])) == -math.inf
        assert lop_prediction(np.array([[0.0]]), np.array([1.0])) == math.inf

    def test_smoothed_bound_names_n_at_least_2(self):
        with pytest.raises(ValueError, match="n >= 2"):
            smoothed_lop_bound(1, 1.0)


class TestSolveAccuracy:
    def test_report_fields_consistent(self):
        rng = np.random.default_rng(8)
        L = np.tril(rng.standard_normal((6, 6)))
        for i in range(6):
            while abs(L[i, i]) < 1e-3:
                L[i, i] = rng.standard_normal()
        b = rng.standard_normal(6)
        rep = solve_accuracy(L, b, P24)
        assert rep.rel_error == rel_error(rep.x_hat, rep.x_ref)
        assert rep.lop == loss_of_precision(rep.rel_error, P24)
        assert rep.backward_bound == backward_error_bound(6, P24)

    def test_report_is_the_accuracy_row_of_its_system(self):
        # solve_accuracy reads its four diagnostics from the system's
        # _accuracy_values row; the scalar routines give the same bits
        rng = np.random.default_rng(11)
        for n in (2, 3, 5, 10, 30):
            for _ in range(20):
                L, b = np.tril(rng.standard_normal((n, n))), rng.standard_normal(n)
                rep = solve_accuracy(L, b, P24)
                rel = rel_error(rep.x_hat, rep.x_ref)
                scalar = [rel, loss_of_precision(rel, P24), backward_error_omega(L, b, rep.x_hat),
                          lop_prediction(L, b)]
                row = fplab._accuracy_values(L[None], b[None], P24)[0]
                assert np.array(scalar).tobytes() == row.tobytes()
                assert [rep.rel_error, rep.lop, rep.omega, rep.lop_bound] == row.tolist()

    @pytest.mark.filterwarnings("error")
    def test_overflowing_solution_is_inf_without_a_warning(self):
        # x_2 overflows to -inf in both solutions, so their error is inf - inf
        rep = solve_accuracy([[1e-300, 0.0], [1.0, 1e-300]], [1.0, 1.0], P24)
        assert rep.x_ref[1] == rep.x_hat[1] == -math.inf
        assert (rep.rel_error, rep.lop, rep.omega, rep.lop_bound) == (math.inf,) * 4
        assert rel_error(rep.x_hat, rep.x_ref) == math.inf

    @pytest.mark.filterwarnings("error")
    def test_empty_system(self):
        # the diagnostics of a 0 x 0 system follow the n = 1 conventions of
        # the dimension terms, like the condition functions that give 0.0
        empty, rhs = np.zeros((0, 0)), np.zeros(0)
        rep = solve_accuracy(empty, rhs, P24)
        assert rep.x_hat.shape == rep.x_ref.shape == (0,)
        assert (rep.rel_error, rep.lop, rep.omega, rep.backward_bound) == (0.0, 0.0, 0.0, 0.0)
        assert rep.lop_bound == -math.inf
        assert backward_error_omega(empty, rhs, rhs) == 0.0
        assert lop_prediction(empty, rhs) == -math.inf
        assert backward_error_bound(0, P24) == 0.0


class TestAccuracyExperiment:
    def test_rejects_non_triangular_pattern(self):
        pat = full_pattern(3)
        model = GaussianModel(pattern=pat, center=PatternedMatrix(pat, np.zeros((3, 3))),
                              sigma=1.0, center_rhs=np.zeros(3))
        with pytest.raises(ValueError):
            run_accuracy_experiment(model, P24, 200, seed=0)

    def test_rejects_missing_rhs(self):
        pat = lower_triangular_pattern(3)
        model = GaussianModel(pattern=pat, center=PatternedMatrix(pat, np.zeros((3, 3))),
                              sigma=1.0)
        with pytest.raises(ValueError):
            run_accuracy_experiment(model, P24, 200, seed=0)

    def test_degenerate_model_loses_nothing(self):
        model = tri_model(6, sigma=1e-12, center="identity", rhs="ones")
        summary = run_accuracy_experiment(model, P24, 200, seed=1)
        assert abs(summary.mean_lop) < 0.5

    def test_reproducible(self):
        model = tri_model(5)
        a = run_accuracy_experiment(model, P24, 300, seed=2)
        b = run_accuracy_experiment(model, P24, 300, seed=2)
        assert a.to_csv_text() == b.to_csv_text()

    def test_precision_monotonicity_statistical(self):
        # finer precision should win on at least 95% of instances
        model = tri_model(8)
        coarse = run_accuracy_experiment(model, P16, 400, seed=3)
        fine = run_accuracy_experiment(model, PrecisionConfig(40), 400, seed=3)
        better = np.mean(coarse.rel_error >= fine.rel_error)
        assert better >= 0.95

    def test_summary_bounds_and_csv(self):
        model = tri_model(10)
        summary = run_accuracy_experiment(model, P24, 300, seed=4)
        assert summary.theoretical_lop_bound == pytest.approx(smoothed_lop_bound(10, 1.0), rel=1e-12)
        assert summary.backward_bound == backward_error_bound(10, P24)
        lines = summary.to_csv_text().strip().splitlines()
        assert lines[0] == "seed,n,sigma,p,rel_error,lop,omega,backward_bound,lop_prediction"
        assert len(lines) == 301
        first = lines[1].split(",")
        assert first[0] == "4" and first[1] == "10" and first[3] == "24"
        assert float(first[4]) == summary.rel_error[0]


# --- the column kernel against the row-by-row loops it replaced --------------

def rows_round(z, p):
    """Rounding to p significand bits as frexp, rint and ldexp on fresh arrays."""
    with np.errstate(over="ignore"):
        m, e = np.frexp(z)
        return np.ldexp(np.rint(np.ldexp(m, p)), e - p)


def rows_emulated(L, b, p):
    """Emulated forward substitution row by row: row i subtracts its rounded
    terms j = 0 .. i-1 in turn, then divides by its diagonal."""
    count, n, _ = L.shape
    x = np.zeros((count, n))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for i in range(n):
            s = b[:, i].copy()
            for j in range(i):
                s = rows_round(s - rows_round(L[:, i, j] * x[:, j], p), p)
            x[:, i] = rows_round(s / L[:, i, i], p)
    return x


def rows_reference(L, b):
    """The same loop in plain double arithmetic."""
    count, n, _ = L.shape
    x = np.zeros((count, n))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for i in range(n):
            s = b[:, i].copy()
            for j in range(i):
                s = s - L[:, i, j] * x[:, j]
            x[:, i] = s / L[:, i, i]
    return x


_SUBSTITUTION_SPECIALS = np.array([0.0, -0.0, 5e-324, -2.5e-310, 1e-300, -1e300, 1e300,
                                   math.inf, -math.inf, math.nan])


@st.composite
def _lower_systems(draw):
    """Stacks of lower-triangular systems over many magnitudes, a share of
    whose entries (diagonals and right-hand sides too) are special values."""
    n = draw(st.sampled_from([*range(9), 30]))
    count = draw(st.integers(0, 9))
    share = draw(st.sampled_from([0.0, 0.05, 0.3]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    L = np.tril(rng.standard_normal((count, n, n))
                * 10.0 ** rng.integers(-300, 301, (count, 1, 1)))
    L[:, np.arange(n), np.arange(n)] += np.sign(L[:, np.arange(n), np.arange(n)])
    b = rng.standard_normal((count, n))
    special = (rng.random(L.shape) < share) & np.tril(np.ones((n, n), dtype=bool))
    L[special] = rng.choice(_SUBSTITUTION_SPECIALS, special.sum())
    special = rng.random(b.shape) < share
    b[special] = rng.choice(_SUBSTITUTION_SPECIALS, special.sum())
    return L, b


def _nan_canonical(x):
    """The bytes of x with every NaN as one NaN. IEEE 754 leaves the sign and
    payload of a NaN result open, and numpy's loops differ in which NaN they
    pass on when both operands are NaN (a multiply by a broadcast single value
    passes on the other operand's)."""
    return np.where(np.isnan(x), math.nan, x).tobytes()


def _members_per_tile(n, count):
    """Tiles of `count` members of a (M, n, n) stack; None is one tile."""
    size = 1 << 40 if count is None else count * 8 * max(n * n, 1)
    return mock.patch.object(conditioning, "_TILE_BYTES", size)


class TestSubstitutionKernel:
    # numpy warnings are errors here through the pytest configuration
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(_lower_systems(), st.sampled_from([2, 11, 24, 26, 52]))
    def test_same_bits_as_the_row_loops(self, system, p):
        L, b = system
        saved = L.tobytes(), b.tobytes()
        emulated, reference = rows_emulated(L, b, p), rows_reference(L, b)
        for per_tile in (1, 7, None):
            with _members_per_tile(L.shape[-1], per_tile):
                got = forward_substitution_batch(L, b, PrecisionConfig(p)), _substitute(L, b)
            for x, expected in zip(got, (emulated, reference)):
                assert x.shape == expected.shape and x.dtype == expected.dtype
                assert _nan_canonical(x) == _nan_canonical(expected)
        assert (L.tobytes(), b.tobytes()) == saved

    @pytest.mark.filterwarnings("error")
    def test_non_finite_entries_raise_no_warning(self):
        L = np.tril(np.full((5, 4, 4), 3.0))
        b = np.ones((5, 4))
        L[0, 2, 1] = math.inf
        L[1, 3, 0] = math.nan
        L[2] = np.tril(np.full((4, 4), 1e308))
        L[3, 1, 1] = 0.0
        b[4, 0] = -math.inf
        x_hat = forward_substitution_batch(L, b, P24)
        x_ref = _substitute(L, b)
        omegas = _omegas(L, b, x_hat)
        assert not np.isfinite(x_hat[[0, 1, 3, 4]]).all(axis=1).any()
        assert not np.isfinite(x_ref[[0, 1, 3, 4]]).all(axis=1).any()
        assert omegas.shape == (5,) and not np.isfinite(omegas[[0, 1, 4]]).any()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("per_tile", [1, 7, None])
    def test_chunk_is_the_whole_stack_formula_at_every_tile_size(self, per_tile):
        model = tri_model(8, rhs="ones")
        stack, rhs = sample_batch(model, 9, 0, 60)
        stack[3, 5, 2] = math.inf
        x_ref, x_hat = rows_reference(stack, rhs), rows_emulated(stack, rhs, 24)
        cond = batch_cond_solve(stack, rhs)
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = componentwise_ratio(x_hat - x_ref, x_ref).max(axis=1)
            pred = math.log10(2.0 * math.log2(8)) + np.log10(cond)
        expected = np.stack([rel, _lops(rel, P24.eps_mach), _omegas(stack, rhs, x_hat), pred],
                            axis=1)
        def tiles(rng, count):
            size = conditioning._tile_members(8)
            return ((stack[i:i + size], rhs[i:i + size]) for i in range(0, count, size))

        with _members_per_tile(8, per_tile):
            got = accuracy_chunk(model, P24, 9, 0, 60, draws=tiles)
        assert got.tobytes() == expected.tobytes()

    def test_accuracy_chunk_peak_memory(self):
        # the chunk is drawn one tile (0.035 of the stack) at a time, so it
        # peaks at 0.124 stacks: a drawn tile and the kernels' arrays of it
        # (the substitution alone, 0.077); whole-chunk temporaries such as |L|
        # or a member-last copy add a stack each
        model = tri_model(30)
        stack, rhs = sample_batch(model, 11, 0, 4096)
        peaks = []
        for run in (lambda: accuracy_chunk(model, P24, 11, 0, 4096),
                    lambda: forward_substitution_batch(stack, rhs, P24)):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 0.14 * stack.nbytes and peaks[1] <= 0.09 * stack.nbytes


def csv_field_by_field(summary):
    """The accuracy CSV built one row at a time from format17 of each field."""
    rows = [summary.CSV_HEADER]
    bb = format17(summary.backward_bound)
    for i in range(summary.samples):
        rows.append(",".join([
            str(summary.seed), str(summary.n), format17(summary.sigma),
            str(summary.precision_bits), format17(summary.rel_error[i]),
            format17(summary.lop[i]), format17(summary.omega[i]), bb,
            format17(summary.lop_prediction[i]),
        ]))
    return "\n".join(rows) + "\n"


@pytest.mark.parametrize("seed, n, sigma, p", [(0, 30, 1.0, 24), (12345, 2, 1e-300, 2),
                                               (7, 9, 0.1, 52), (3, 5, 1e308, 11)])
def test_csv_text_equals_the_field_by_field_builder(seed, n, sigma, p):
    rng = np.random.default_rng(seed)
    specials = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-310, 1e308, -1e308,
                0.1, 1.0 / 3.0, 123456789.0, 1e16, 1e-5]
    values = np.concatenate([specials, rng.standard_normal(50) * 10.0 ** rng.integers(-20, 20, 50)])
    cols = [rng.permutation(values) for _ in range(4)]
    summary = AccuracySummary(n=n, sigma=sigma, precision_bits=p, samples=len(values), seed=seed,
                              rel_error=cols[0], lop=cols[1], omega=cols[2],
                              lop_prediction=cols[3])
    assert summary.to_csv_text() == csv_field_by_field(summary)


def test_lower_triangularity_checks_share_one_rule():
    # all three checks run linalg._is_lower, which counts a NaN as nonzero
    # and -0.0 as zero, and keep their messages
    sparse_lower = np.tril(np.ones((4, 4), dtype=bool))
    sparse_lower[3, 0] = False
    assert _is_lower_triangular(lower_triangular_pattern(4))
    assert not _is_lower_triangular(pattern_from_mask(sparse_lower))
    assert not _is_lower_triangular(full_pattern(4))
    upper = np.eye(3)
    upper[0, 2] = -0.0
    assert_array_equal(forward_substitution(upper, np.ones(3), P24), np.ones(3))
    upper[0, 2] = math.nan
    with pytest.raises(ValueError, match="nonzeros above the diagonal"):
        forward_substitution(upper, np.ones(3), P24)
    pat = pattern_from_mask(np.tril(np.ones((3, 3), dtype=bool)) | np.eye(3, k=1, dtype=bool))
    model = GaussianModel(pattern=pat, center=PatternedMatrix(pat, np.zeros((3, 3))), sigma=1.0,
                          center_rhs=np.zeros(3))
    with pytest.raises(ValueError, match="needs a lower-triangular pattern"):
        run_accuracy_experiment(model, P24, 200, seed=0)
