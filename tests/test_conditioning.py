import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from sparsecond.conditioning import (
    batch_cond_det,
    batch_cond_inverse,
    batch_cond_inverse_entries,
    batch_cond_solve,
    batch_cond_solve_entries,
    bound_inverse_entries,
    bound_inverse_entry,
    bound_solve_entries,
    bound_solve_entry,
    componentwise_distance,
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
from sparsecond.linalg import PatternedMatrix
from sparsecond.patterns import lower_triangular_pattern, tridiagonal_pattern

A22 = PatternedMatrix.dense([[1.0, 2.0], [3.0, 4.0]])
SING = PatternedMatrix.dense([[1.0, 2.0], [2.0, 4.0]])


def tri_matrix(rng, n):
    m = np.tril(rng.standard_normal((n, n)))
    return PatternedMatrix(lower_triangular_pattern(n), m)


class TestComponentwiseDistance:
    def test_equal_vectors(self):
        assert componentwise_distance([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_zero_over_zero(self):
        assert componentwise_distance([2.0, 0.0], [1.0, 0.0]) == 1.0

    def test_division_by_zero(self):
        assert componentwise_distance([1.0, 1.0], [1.0, 0.0]) == math.inf

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            componentwise_distance([1.0], [1.0, 2.0])


class TestCondDet:
    def test_identity(self):
        assert cond_det(PatternedMatrix.dense(np.eye(5))) == 5.0

    def test_2x2_golden(self):
        # adjugate inverse gives |1*-2| + |2*1.5| + |3*1| + |4*-0.5| = 10
        assert cond_det(A22) == pytest.approx(10.0, rel=1e-12)

    def test_singular(self):
        assert cond_det(SING) == math.inf

    def test_nonfinite_entries_treated_singular(self):
        bad = np.array([[1.0, math.nan], [0.0, 1.0]])
        assert cond_det(bad) == math.inf
        assert cond_inverse(bad) == math.inf
        assert cond_solve(bad, [1.0, 1.0]) == math.inf

    def test_triangular_equals_dimension(self):
        # the inverse of a triangular matrix is triangular, so only the
        # diagonal products a_ii * (1/a_ii) survive
        rng = np.random.default_rng(0)
        for n in (2, 3, 6):
            a = tri_matrix(rng, n)
            assert cond_det(a) == pytest.approx(n, rel=1e-12)

    def test_empty_matrix(self):
        assert cond_det(np.zeros((0, 0))) == 0.0


class TestCondInverse:
    def test_identity_entry(self):
        ident = PatternedMatrix.dense(np.eye(3))
        for k in range(1, 4):
            assert cond_inverse_entry(ident, k, k) == pytest.approx(1.0, rel=1e-12)

    def test_2x2_golden(self):
        # frozen from the finite-perturbation oracle (delta=1e-6), which gives
        # 11.000109; the closed form evaluates the same sum exactly
        assert cond_inverse_entry(A22, 1, 1) == pytest.approx(11.0, rel=1e-12)
        assert_allclose(cond_inverse_entries(A22),
                        [[11.0, 9.0], [9.0, 11.0]], rtol=1e-12)

    def test_singular(self):
        assert cond_inverse_entry(SING, 1, 1) == math.inf
        assert cond_inverse(SING) == math.inf

    def test_identity_max(self):
        assert cond_inverse(PatternedMatrix.dense(np.eye(4))) == 1.0

    def test_diagonal_scaling_invariance(self):
        assert cond_inverse(PatternedMatrix.dense(np.diag([2.0, 5.0]))) == 1.0

    def test_zero_output_conventions(self):
        # off-diagonal inverse entries of a diagonal matrix are 0 with zero
        # sensitivity: condition 0, not inf
        vals = cond_inverse_entries(PatternedMatrix.dense(np.diag([2.0, 5.0])))
        assert vals[0, 1] == 0.0 and vals[1, 0] == 0.0

    def test_max_decomposition(self):
        rng = np.random.default_rng(5)
        a = PatternedMatrix.dense(rng.standard_normal((4, 4)))
        assert cond_inverse(a) == cond_inverse_entries(a).max()


class TestCondSolve:
    def test_identity_ones(self):
        ident = PatternedMatrix.dense(np.eye(3))
        b = np.ones(3)
        for k in range(1, 4):
            assert cond_solve_entry(ident, b, k) == pytest.approx(2.0, rel=1e-12)
        assert cond_solve(ident, b) == pytest.approx(2.0, rel=1e-12)

    def test_2x2_golden(self):
        # frozen from the finite-perturbation oracle (delta=1e-6, observed
        # 16.00016); closed form is exact
        assert cond_solve_entry(A22, [1.0, 1.0], 1) == pytest.approx(16.0, rel=1e-12)
        assert_allclose(cond_solve_entries(A22, [1.0, 1.0]), [16.0, 10.0], rtol=1e-12)

    def test_singular(self):
        assert cond_solve(SING, [1.0, 1.0]) == math.inf

    def test_homogeneity(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            a = PatternedMatrix.dense(rng.standard_normal((3, 3)))
            b = rng.standard_normal(3)
            base = (cond_det(a), cond_inverse(a), cond_solve(a, b))
            for lam in (-3.0, 0.25, 10.0):
                scaled = PatternedMatrix.dense(lam * a.entries)
                assert cond_det(scaled) == pytest.approx(base[0], rel=1e-12)
                assert cond_inverse(scaled) == pytest.approx(base[1], rel=1e-12)
                assert cond_solve(scaled, lam * b) == pytest.approx(base[2], rel=1e-12)

    def test_max_decomposition(self):
        rng = np.random.default_rng(15)
        a = PatternedMatrix.dense(rng.standard_normal((4, 4)))
        b = rng.standard_normal(4)
        assert cond_solve(a, b) == cond_solve_entries(a, b).max()


class TestBounds:
    def test_inverse_entry_identity(self):
        ident = PatternedMatrix.dense(np.eye(3))
        # cond_det(I3) + cond_det(I2) = 3 + 2
        assert bound_inverse_entry(ident, 1, 1) == pytest.approx(5.0, rel=1e-12)

    def test_inverse_entry_singular(self):
        assert bound_inverse_entry(SING, 1, 2) == math.inf

    def test_inverse_entry_1x1_uses_empty_minor(self):
        a = PatternedMatrix.dense([[3.0]])
        assert bound_inverse_entry(a, 1, 1) == cond_det(a)

    def test_solve_entry_identity(self):
        # the column-replaced matrix [[1,0],[1,1]] is triangular, so its
        # determinant condition is 2; total 2 + 2
        i2 = PatternedMatrix.dense(np.eye(2))
        assert bound_solve_entry(i2, [1.0, 1.0], 1) == pytest.approx(4.0, rel=1e-12)

    def test_solve_entry_singular_replacement(self):
        i2 = PatternedMatrix.dense(np.eye(2))
        # replacing column 1 by e2 makes the matrix singular
        assert bound_solve_entry(i2, [0.0, 1.0], 1) == math.inf

    def test_solve_entry_own_column(self):
        rng = np.random.default_rng(21)
        a = PatternedMatrix.dense(rng.standard_normal((3, 3)))
        e2 = np.zeros(3)
        e2[1] = 1.0
        expected = 2.0 * cond_det(a)
        assert bound_solve_entry(a, a.entries @ e2, 2) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("pattern_kind", ["full", "tri", "tridiag"])
    def test_dominance_on_random_samples(self, pattern_kind):
        rng = np.random.default_rng(33)
        for _ in range(30):
            if pattern_kind == "full":
                a = PatternedMatrix.dense(rng.standard_normal((4, 4)))
            elif pattern_kind == "tri":
                a = tri_matrix(rng, 4)
            else:
                pat = tridiagonal_pattern(4)
                a = PatternedMatrix(pat, rng.standard_normal((4, 4)) * pat.mask)
            if not math.isfinite(cond_det(a)):
                continue
            b = rng.standard_normal(4)
            ce = cond_inverse_entries(a)
            be = bound_inverse_entries(a)
            ok = np.isfinite(be)
            assert np.all(ce[ok] <= be[ok] * (1 + 1e-9))
            cs = cond_solve_entries(a, b)
            bs = bound_solve_entries(a, b)
            ok = np.isfinite(bs)
            assert np.all(cs[ok] <= bs[ok] * (1 + 1e-9))

    @pytest.mark.parametrize("pattern_kind", ["full", "tri", "tridiag"])
    def test_batched_bounds_match_explicit_minors(self, pattern_kind):
        rng = np.random.default_rng(34)
        for n in range(1, 7):
            for _ in range(10):
                if pattern_kind == "full":
                    a = PatternedMatrix.dense(rng.standard_normal((n, n)))
                elif pattern_kind == "tri":
                    a = tri_matrix(rng, n)
                else:
                    pat = tridiagonal_pattern(n)
                    a = PatternedMatrix(pat, rng.standard_normal((n, n)) * pat.mask)
                b = rng.standard_normal(n)
                explicit_inv = np.array([[bound_inverse_entry(a, k, l) for l in range(1, n + 1)]
                                         for k in range(1, n + 1)])
                explicit_solve = np.array([bound_solve_entry(a, b, k) for k in range(1, n + 1)])
                for cond, batched, explicit in (
                        (cond_inverse_entries(a), bound_inverse_entries(a), explicit_inv),
                        (cond_solve_entries(a, b), bound_solve_entries(a, b), explicit_solve)):
                    both = np.isfinite(batched) & np.isfinite(explicit)
                    assert_allclose(batched[both], explicit[both], rtol=1e-9)
                    assert np.all(cond <= batched * (1 + 1e-9))


class TestOracle:
    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            oracle_condition("det", A22, delta=0.0)

    def test_det_identity(self):
        got = oracle_condition("det", PatternedMatrix.dense(np.eye(2)), delta=1e-6)
        assert got == pytest.approx(2.0, rel=1e-4)

    def test_det_2x2(self):
        got = oracle_condition("det", A22, delta=1e-6)
        assert got == pytest.approx(10.0, rel=1e-3)

    def test_solve_identity(self):
        got = oracle_condition("solve", PatternedMatrix.dense(np.eye(2)),
                               b=[1.0, 1.0], delta=1e-6)
        assert got[0] == pytest.approx(2.0, rel=1e-3)

    def test_inverse_2x2(self):
        got = oracle_condition("inv", A22, delta=1e-6)
        assert_allclose(got, [[11.0, 9.0], [9.0, 11.0]], rtol=1e-3)

    def test_structural_zeros_report_zero_condition(self):
        rng = np.random.default_rng(2)
        a = tri_matrix(rng, 3)
        got = oracle_condition("inv", a, delta=1e-6)
        closed = cond_inverse_entries(a)
        # entries above the diagonal are identically zero in both
        assert np.all(got[np.triu_indices(3, 1)] == 0.0)
        assert np.all(closed[np.triu_indices(3, 1)] == 0.0)

    def test_oracle_agreement_small_random(self):
        rng = np.random.default_rng(8)
        delta = 1e-6
        for _ in range(10):
            while True:
                entries = rng.uniform(1, 2, (3, 3)) * rng.choice([-1.0, 1.0], (3, 3))
                if np.linalg.cond(entries) < 30:
                    break
            a = PatternedMatrix.dense(entries)
            cf = cond_det(a)
            orc = oracle_condition("det", a, delta=delta)
            assert abs(cf - orc) / cf <= 10 * delta * cf + 1e-3


class TestBatchKernels:
    def test_match_scalar_path(self):
        rng = np.random.default_rng(3)
        stack = rng.standard_normal((16, 4, 4))
        rhs = rng.standard_normal((16, 4))
        dets = batch_cond_det(stack)
        invs = batch_cond_inverse(stack)
        sols = batch_cond_solve(stack, rhs)
        for i in range(16):
            a = PatternedMatrix.dense(stack[i])
            assert dets[i] == pytest.approx(cond_det(a), rel=1e-9)
            assert invs[i] == pytest.approx(cond_inverse(a), rel=1e-9)
            assert sols[i] == pytest.approx(cond_solve(a, rhs[i]), rel=1e-9)

    def test_singular_members_are_inf(self):
        stack = np.stack([np.eye(2), np.array([[1.0, 2.0], [2.0, 4.0]])])
        vals = batch_cond_det(stack)
        assert vals[0] == 2.0 and vals[1] == math.inf

    def test_nonfinite_members_are_inf(self):
        stack = np.stack([np.eye(2), np.array([[1.0, math.inf], [0.0, 1.0]]),
                          np.array([[math.nan, 0.0], [0.0, 1.0]])])
        rhs = np.ones((3, 2))
        assert list(batch_cond_det(stack)) == [2.0, math.inf, math.inf]
        assert list(batch_cond_inverse(stack)) == [1.0, math.inf, math.inf]
        assert list(batch_cond_solve(stack, rhs)) == [2.0, math.inf, math.inf]

    def test_one_factorization_without_singular_members(self, monkeypatch):
        # slogdet is only needed to find exactly singular members
        def no_slogdet(*args, **kwargs):
            raise AssertionError("slogdet called on a stack without singular members")

        stack = np.random.default_rng(4).standard_normal((8, 5, 5))
        expected = batch_cond_det(stack)
        monkeypatch.setattr(np.linalg, "slogdet", no_slogdet)
        assert_array_equal(batch_cond_det(stack), expected)

    def test_nonfinite_rhs_is_inf(self):
        stack = np.stack([np.eye(2)])
        rhs = np.array([[1.0, math.inf]])
        assert batch_cond_solve(stack, rhs)[0] == math.inf


class TestConditionReport:
    def test_invariants(self):
        rng = np.random.default_rng(4)
        a = PatternedMatrix.dense(rng.standard_normal((3, 3)))
        b = rng.standard_normal(3)
        rep = condition_report(a, b)
        assert rep.c_inv == rep.c_inv_entries.max()
        assert rep.c_solve == rep.c_solve_entries.max()
        assert rep.minor_bound_max_slack <= 1e-9 * abs(rep.c_inv)
        assert rep.replacement_bound_max_slack <= 1e-9 * abs(rep.c_solve)

    def test_text_and_csv(self):
        rep = condition_report(A22, np.array([1.0, 1.0]))
        text = rep.to_text()
        assert "c_det = 10" in text
        assert "c_solve = 16" in text
        row = rep.to_csv_row()
        fields = row.split(",")
        assert fields[0] == "2" and fields[1] == "4"
        assert float(fields[2]) == rep.c_det

    def test_singular_report(self):
        rep = condition_report(SING)
        assert rep.singular
        assert "+inf" in rep.to_text()


def _property_input(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "dense":
        a = rng.standard_normal((n, n))
    elif kind == "rank_one_noise":
        noise = 10.0 ** rng.uniform(-17.0, -13.0)
        a = np.outer(rng.standard_normal(n), rng.standard_normal(n))
        a += noise * rng.standard_normal((n, n))
    else:
        a = np.tril(rng.standard_normal((n, n)))
        diag = np.arange(n)
        a[diag, diag] = np.where(np.abs(a[diag, diag]) > 1e-3, a[diag, diag], 1.0)
    return a, rng.standard_normal(n)


def _assert_same(scalar, batch):
    """Equal placement of +inf, and finite values equal to 1e-9 relative."""
    scalar, batch = np.asarray(scalar), np.asarray(batch)
    assert np.array_equal(np.isinf(scalar), np.isinf(batch))
    finite = np.isfinite(batch)
    assert_allclose(scalar[finite], batch[finite], rtol=1e-9)


_SEEDS = st.integers(0, 2 ** 32 - 1)


class TestScalarIsBatchOfOne:
    """The scalar API agrees with the batched kernels on a batch of one,
    including where +inf appears: one singularity rule for both."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.one_of(
        st.tuples(st.just("dense"), st.integers(1, 8), _SEEDS),
        st.tuples(st.just("rank_one_noise"), st.integers(2, 8), _SEEDS),
        st.tuples(st.just("lower_triangular"), st.sampled_from([30, 40]), _SEEDS)))
    def test_scalar_equals_batch_of_one(self, case):
        a, b = _property_input(*case)
        _assert_same(cond_det(a), batch_cond_det(a[None])[0])
        _assert_same(cond_inverse_entries(a), batch_cond_inverse_entries(a[None])[0])
        _assert_same(cond_inverse(a), batch_cond_inverse(a[None])[0])
        _assert_same(cond_solve_entries(a, b), batch_cond_solve_entries(a[None], b[None])[0])
        _assert_same(cond_solve(a, b), batch_cond_solve(a[None], b[None])[0])
