"""Every kernel runs on one prescaled factorization (linalg._factor): each
member of a stack, and of its right-hand side, is scaled by the power of two
that puts its largest magnitude in [1, 2) before the singularity rule is
applied. So the condition numbers, the bounds and the oracle give the same
bits for 2^k A and 2^j b as for A and b, +inf placement included.
"""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from sparsecond import conditioning
from sparsecond.conditioning import (
    batch_cond_det,
    batch_cond_inverse,
    batch_cond_inverse_entries,
    batch_cond_solve,
    batch_cond_solve_entries,
    bound_inverse_entries,
    bound_solve_entries,
    cond_det,
    cond_inverse,
    cond_inverse_entries,
    cond_inverse_entry,
    cond_solve,
    cond_solve_entries,
    cond_solve_entry,
    condition_report,
    oracle_condition,
)
from sparsecond.fplab import PrecisionConfig, _lop_dimension_term, run_accuracy_experiment
from sparsecond.linalg import PatternedMatrix
from sparsecond.patterns import (full_pattern, lower_triangular_pattern, pattern_from_mask,
                                 tridiagonal_pattern)
from sparsecond.smoothed import GaussianModel, sample_batch

MEMBERS = 4


def _bits(value):
    v = np.asarray(value, dtype=float)
    return v.shape, v.tobytes()


def _system(kind, n, seed):
    """MEMBERS matrices on one admissible pattern (a random mask joined with
    a random permutation, or the lower-triangular or tridiagonal pattern) and
    their right-hand sides. Every entry on the pattern has a magnitude
    2^u, u uniform in [-20, 20], so a member spans at most 2^40 and every
    2^k scaling with |k| <= 1000 is exact; members that span more than
    2^1022, where the prescaling itself may round, are left out. Now and then
    a member has an exactly zero row, or b an exactly zero entry."""
    rng = np.random.default_rng(seed)
    if kind == "lower":
        pattern = lower_triangular_pattern(n)
    elif kind == "tridiagonal":
        pattern = tridiagonal_pattern(n)
    else:
        mask = rng.random((n, n)) < rng.uniform(0.1, 0.8)
        mask[np.arange(n), rng.permutation(n)] = True
        pattern = pattern_from_mask(mask)

    def magnitudes(shape):
        return rng.choice([-1.0, 1.0], shape) * np.exp2(rng.uniform(-20.0, 20.0, shape))

    stack = magnitudes((MEMBERS, n, n)) * pattern.mask
    if rng.random() < 0.2:
        stack[rng.integers(MEMBERS), rng.integers(n)] = 0.0
    rhs = magnitudes((MEMBERS, n)) * (rng.random((MEMBERS, n)) < 0.8)
    return pattern, stack, rhs


def _kernels(stack, rhs):
    return [_bits(v) for v in (
        batch_cond_det(stack), batch_cond_inverse(stack), batch_cond_inverse_entries(stack),
        batch_cond_solve_entries(stack, rhs), batch_cond_solve(stack, rhs))]


def _instance(pattern, a, b):
    """Every public function of one instance: the cond_* functions, both
    bounds, every field of condition_report and the oracle."""
    pa = PatternedMatrix(pattern, a)
    report = condition_report(pa, b)
    oracle = {"exhaustive_limit": 8, "random_trials": 30}
    return [_bits(v) for v in (
        cond_det(pa), cond_inverse(pa), cond_inverse_entries(pa), cond_inverse_entry(pa, 1, 1),
        cond_solve(pa, b), cond_solve_entries(pa, b), cond_solve_entry(pa, b, 1),
        bound_inverse_entries(pa), bound_solve_entries(pa, b),
        *(getattr(report, field.name) for field in dataclasses.fields(report)),
        *(oracle_condition(q, pa, b, **oracle) for q in ("det", "inv", "solve")))]


class TestScaleInvariance:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(["random", "lower", "tridiagonal"]), st.integers(1, 8),
           st.integers(0, 2 ** 32 - 1),
           st.lists(st.integers(-1000, 1000), min_size=2 * MEMBERS, max_size=2 * MEMBERS))
    def test_power_of_two_scalings_give_the_same_bits(self, kind, n, seed, powers):
        pattern, stack, rhs = _system(kind, n, seed)
        a_pow, b_pow = np.array(powers[:MEMBERS]), np.array(powers[MEMBERS:])
        scaled = np.ldexp(stack, a_pow[:, None, None])
        scaled_rhs = np.ldexp(rhs, b_pow[:, None])
        assert_array_equal(np.ldexp(scaled, -a_pow[:, None, None]), stack)  # exact scalings
        assert _kernels(scaled, scaled_rhs) == _kernels(stack, rhs)
        assert (_instance(pattern, scaled[0], scaled_rhs[0])
                == _instance(pattern, stack[0], rhs[0]))


def _draws(pattern, count):
    n = pattern.n
    model = GaussianModel(pattern=pattern, center=PatternedMatrix(pattern, np.zeros((n, n))),
                          sigma=1.0, center_rhs=np.zeros(n))
    return sample_batch(model, 3, 0, count)


@pytest.mark.parametrize("kind, quantity, a_pow, b_pow", [
    ("full", "inv", -1000, 0), ("full", "solve", 0, 1000), ("full", "solve", -1000, 0),
    ("lower", "inv", -1000, 0), ("lower", "solve", 0, 1000), ("lower", "solve", -1000, 0),
    ("lower", "solve", 1000, 1000)])
def test_inf_counts_do_not_move_with_the_scale(kind, quantity, a_pow, b_pow):
    """The +inf counts of n = 30 draws (seed 3) at scales where the kernels
    once counted an overflowing inverse or solution as singular; scaling by a
    power of two is exact, so the counts must be the base counts."""
    pattern = full_pattern(30) if kind == "full" else lower_triangular_pattern(30)
    stack, rhs = _draws(pattern, 512)
    kernel = batch_cond_inverse if quantity == "inv" else batch_cond_solve
    operands = (stack,) if quantity == "inv" else (stack, rhs)
    scaled = (stack * 2.0 ** a_pow,) if quantity == "inv" else (stack * 2.0 ** a_pow,
                                                                 rhs * 2.0 ** b_pow)
    base, got = kernel(*operands), kernel(*scaled)
    assert np.isinf(got).sum() == np.isinf(base).sum()
    assert got.tobytes() == base.tobytes()


def test_tiny_entries_do_not_overflow_the_numerators():
    """A 5 x 5 exactly singular integer matrix (rank 4) times 1e-279, which
    LU finds regular: its kernels once overflowed in gs @ |A| @ gs and
    gs @ |A| @ xs and returned +inf with a warning (an error here)."""
    ints = np.array([[-1, 9, 1, -1, 1], [-10, -8, -7, 1, 10], [0, 15, 6, -12, -9],
                     [0, -21, -16, -2, 7], [-5, 4, 4, -4, -2]], dtype=float)
    a, b = ints * 1e-279, np.array([1.0, -2.0, 0.5, 1.5, -1.0])
    big = a * 2.0 ** 900
    solve_entries, inverse_entries = cond_solve_entries(a, b), cond_inverse_entries(a)
    assert np.isfinite(solve_entries).all() and np.isfinite(inverse_entries).all()
    assert solve_entries.tobytes() == cond_solve_entries(big, b).tobytes()
    assert inverse_entries.tobytes() == cond_inverse_entries(big).tobytes()
    assert cond_det(a) == cond_det(big)


def test_accuracy_at_the_top_of_the_range_leaks_no_warning():
    """sigma = 1e308 makes every draw overflow in double substitution. Draws
    with an infinite entry are singular; the others have the prediction of
    the same draw scaled down by 2^1000, which is exact."""
    pattern = lower_triangular_pattern(8)
    model = GaussianModel(pattern=pattern, center=PatternedMatrix(pattern, np.zeros((8, 8))),
                          sigma=1e308, center_rhs=np.zeros(8))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        summary = run_accuracy_experiment(model, PrecisionConfig(24), 200, seed=1)
    assert summary.singular_count == 200
    assert np.isinf(summary.rel_error).all() and np.isinf(summary.omega).all()
    stack, rhs = sample_batch(model, 1, 0, 200)
    finite = np.isfinite(stack).all(axis=(1, 2)) & np.isfinite(rhs).all(axis=1)
    assert 0 < finite.sum() < 200
    assert_array_equal(np.isfinite(summary.lop_prediction), finite)
    cond = batch_cond_solve(stack[finite] * 2.0 ** -1000, rhs[finite] * 2.0 ** -1000)
    assert summary.lop_prediction[finite].tobytes() == (
        _lop_dimension_term(8) + np.log10(cond)).tobytes()


@pytest.mark.parametrize("kernel", [batch_cond_det, batch_cond_inverse,
                                    batch_cond_inverse_entries, batch_cond_solve_entries,
                                    batch_cond_solve], ids=lambda k: k.__name__)
def test_one_factorization_per_tile(kernel, monkeypatch):
    per_tile, n = 4, 5
    rng = np.random.default_rng(5)
    stack, rhs = rng.standard_normal((3 * per_tile - 1, n, n)), rng.standard_normal((11, n))
    calls = []

    def counted(tile, tile_rhs=None):
        calls.append(len(tile))
        return factor(tile, tile_rhs)

    factor = conditioning._factor
    monkeypatch.setattr(conditioning, "_TILE_BYTES", per_tile * 8 * n * n)
    monkeypatch.setattr(conditioning, "_factor", counted)
    args = (stack,) if kernel in (batch_cond_det, batch_cond_inverse,
                                  batch_cond_inverse_entries) else (stack, rhs)
    kernel(*args)
    assert calls == [4, 4, 3]
