import itertools
import math
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose, assert_array_equal

from sparsecond import conditioning, linalg
from sparsecond.conditioning import (
    ConditionReport,
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
    componentwise_ratio,
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
from sparsecond.linalg import PatternedMatrix, format17
from sparsecond.patterns import (full_pattern, lower_triangular_pattern, pattern_from_mask,
                                 tridiagonal_pattern)

from explicit_bounds import inverse_bounds, solve_bounds
from reference_oracle import sign_digits, sign_table, whole_table_oracle

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

    @pytest.mark.parametrize("u, v", [([math.inf], [math.inf]),
                                      ([1.0, -math.inf], [1.0, -math.inf]),
                                      ([1e308], [-1e308]), ([math.nan], [1.0])])
    def test_non_finite_or_overflowing_difference_is_inf_without_a_warning(self, u, v):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert componentwise_distance(u, v) == math.inf

    def test_empty_vectors(self):
        assert componentwise_distance([], []) == 0.0


def where_componentwise_ratio(num, den):
    """componentwise_ratio as two nested np.where over every entry: the
    reference the NaN-only repair must match bit for bit. A quotient that
    overflows is +inf, without a warning."""
    num = np.abs(num)
    den = np.abs(den)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        q = num / den
    return np.where(np.isnan(q), np.where((num == 0.0) & (den == 0.0), 0.0, np.inf), q)


_RATIO_SPECIALS = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                                   2.2e-308, -1e-310, 1.0, -3.5, 1e308, -1e308])
_RATIO_VALUES = st.one_of(_RATIO_SPECIALS, st.floats())


@st.composite
def _ratio_operands(draw):
    """Two broadcast-compatible operands; a 0-d one may also be a Python
    float or int."""
    shapes = draw(hnp.mutually_broadcastable_shapes(num_shapes=2, min_dims=0, max_dims=3,
                                                    max_side=4))
    out = []
    for shape in shapes.input_shapes:
        kind = draw(st.sampled_from(["array", "float", "int"])) if shape == () else "array"
        if kind == "float":
            out.append(draw(_RATIO_VALUES))
        elif kind == "int":
            out.append(draw(st.integers(-3, 3)))
        else:
            out.append(draw(hnp.arrays(np.float64, shape, elements=_RATIO_VALUES)))
    return out


class TestComponentwiseRatio:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_ratio_operands())
    def test_same_bits_as_the_where_formula(self, operands):
        num, den = operands
        before = [np.array(x, copy=True) for x in operands]
        got = componentwise_ratio(num, den)
        ref = where_componentwise_ratio(num, den)
        assert isinstance(got, np.ndarray) and got.dtype == ref.dtype
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
        for x, saved in zip(operands, before):
            assert np.asarray(x).tobytes() == saved.tobytes()

    def test_conventions(self):
        num = np.array([0.0, -0.0, 1.0, -2.0, math.inf, math.nan, 0.0, 3.0])
        den = np.array([0.0, 0.0, 0.0, -0.0, math.inf, 1.0, -math.inf, -1.5])
        assert_array_equal(componentwise_ratio(num, den),
                           [0.0, 0.0, math.inf, math.inf, math.inf, math.inf, 0.0, 2.0])
        # a repair indexed by the NaN mask still broadcasts
        assert_array_equal(componentwise_ratio(np.zeros((2, 1)), np.array([0.0, 1.0, math.nan])),
                           [[0.0, 0.0, math.inf]] * 2)


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

    @pytest.mark.parametrize("pattern_kind", ["tridiag4", "dense3"])
    def test_same_bytes_for_a_patterned_matrix_and_its_entries(self, pattern_kind):
        """The support is A's nonzeros: the bounds and the oracle give a
        PatternedMatrix, its plain entries and the entries under the full
        pattern the same bytes (the oracle perturbs the same m entries)."""
        rng = np.random.default_rng(46)
        pat = tridiagonal_pattern(4) if pattern_kind == "tridiag4" else full_pattern(3)
        a = PatternedMatrix(pat, rng.standard_normal((pat.n, pat.n)) * pat.mask)
        b = rng.standard_normal(pat.n)
        calls = (bound_inverse_entries, lambda m: bound_inverse_entry(m, 2, 1),
                 lambda m: bound_solve_entries(m, b), lambda m: bound_solve_entry(m, b, 2),
                 lambda m: oracle_condition("det", m), lambda m: oracle_condition("inv", m),
                 lambda m: oracle_condition("solve", m, b))
        for call in calls:
            expected = np.asarray(call(a))
            assert np.isfinite(expected).all()
            for same in (a.entries, PatternedMatrix.dense(a.entries)):
                assert np.asarray(call(same)).tobytes() == expected.tobytes()

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
                explicit_inv = inverse_bounds(a)
                explicit_solve = solve_bounds(a, b)
                for cond, batched, explicit in (
                        (cond_inverse_entries(a), bound_inverse_entries(a), explicit_inv),
                        (cond_solve_entries(a, b), bound_solve_entries(a, b), explicit_solve)):
                    both = np.isfinite(batched) & np.isfinite(explicit)
                    assert_allclose(batched[both], explicit[both], rtol=1e-9)
                    assert np.all(cond <= batched * (1 + 1e-9))


class TestOracle:
    @pytest.mark.filterwarnings("error")
    def test_rejects_bad_delta(self):
        for delta in (0.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                oracle_condition("det", A22, delta=delta)

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

    @pytest.mark.parametrize("m", range(0, 7))
    def test_sign_table_is_the_product_order(self, m):
        table = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=m)))
        table = table[np.any(table != 0.0, axis=1)]
        got = sign_table(m)
        assert got.dtype == table.dtype and got.shape == table.shape
        assert got.tobytes() == table.tobytes()

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


class TestMinorBoundsFromOneInverse:
    """bound_inverse_entries gets every minor's inverse from one G; the
    explicit minors of explicit_bounds are the reference."""

    def test_singular_matrix_is_all_inf(self):
        got = bound_inverse_entries(SING)
        assert got.shape == (2, 2) and np.all(got == math.inf)
        _assert_same(inverse_bounds(SING), got)

    def test_lower_triangular_structurally_singular_minors(self):
        a = tri_matrix(np.random.default_rng(40), 6)
        got = bound_inverse_entries(a)
        # deleting row l and column k < l leaves a zero on the diagonal
        assert np.array_equal(np.isinf(got), np.triu(np.ones((6, 6), dtype=bool), 1))
        _assert_same(inverse_bounds(a), got)

    @pytest.mark.parametrize("blocks", [(2, 3), (1, 1), (1, 2, 1)])
    def test_block_diagonal_pattern(self, blocks):
        rng = np.random.default_rng(41)
        n = sum(blocks)
        mask = np.zeros((n, n), dtype=bool)
        for start, size in zip(np.cumsum((0,) + blocks), blocks):
            mask[start:start + size, start:start + size] = True
        a = PatternedMatrix(pattern_from_mask(mask), rng.standard_normal((n, n)) * mask)
        got = bound_inverse_entries(a)
        # a minor that takes its row from one block and its column from the
        # other is singular
        assert np.array_equal(np.isinf(got), ~mask)
        _assert_same(inverse_bounds(a), got)

    @pytest.mark.parametrize("value", [3.0, -0.5, 0.0])
    def test_n1(self, value):
        a = PatternedMatrix.dense([[value]])
        assert_array_equal(bound_inverse_entries(a), inverse_bounds(a))

    @pytest.mark.parametrize("power", [-600, 600])
    def test_scale_invariance_far_from_one(self, power):
        # a power-of-two scaling is exact, so the bounds must not move a bit
        a = PatternedMatrix.dense(np.random.default_rng(43).standard_normal((4, 4)))
        scaled = PatternedMatrix.dense(a.entries * 2.0 ** power)
        assert_array_equal(bound_inverse_entries(scaled), bound_inverse_entries(a))

    def test_tridiagonal_n40(self):
        rng = np.random.default_rng(42)
        pat = tridiagonal_pattern(40)
        entries = rng.uniform(-1.0, 1.0, (40, 40)) + np.diag(rng.uniform(3.0, 4.0, 40))
        a = PatternedMatrix(pat, entries * pat.mask)
        got = bound_inverse_entries(a)
        assert np.isfinite(got).all()
        assert_allclose(got, inverse_bounds(a), rtol=1e-9)


_SEEDS = st.integers(0, 2 ** 32 - 1)


def _exact_triangular_solve_conditions(a, b):
    """cond_solve_entries of a lower-triangular system in exact rational
    arithmetic: x by forward substitution, and row k of G = A^-1 by one back
    substitution of g A = e_k each."""
    n = len(b)
    L = [[Fraction(v) for v in row] for row in a.tolist()]
    rhs = [Fraction(v) for v in b.tolist()]
    x = []
    for i in range(n):
        x.append((rhs[i] - sum(L[i][j] * x[j] for j in range(i))) / L[i][i])
    # (|A| |x| + |b|)_i, the weights of |g_ki| in the numerator of entry k
    weights = [sum(abs(L[i][j] * x[j]) for j in range(i + 1)) + abs(rhs[i]) for i in range(n)]
    out = []
    for k in range(n):
        g = [Fraction(0)] * (k + 1)
        g[k] = 1 / L[k][k]
        for i in range(k - 1, -1, -1):
            g[i] = -sum(g[j] * L[j][i] for j in range(i + 1, k + 1)) / L[i][i]
        out.append(sum(abs(g[i]) * weights[i] for i in range(k + 1)) / abs(x[k]))
    return out


def _admissible_system(n, seed):
    """A random admissible pattern (a random mask joined with a random
    permutation), entries and rhs of magnitudes e^+-5, some rhs entries
    exactly zero, and now and then an exactly zero row."""
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < rng.uniform(0.1, 0.8)
    mask[np.arange(n), rng.permutation(n)] = True
    a = rng.standard_normal((n, n)) * np.exp(rng.uniform(-5.0, 5.0, (n, n))) * mask
    if rng.random() < 0.1:
        a[rng.integers(n)] = 0.0
    b = rng.standard_normal(n) * np.exp(rng.uniform(-5.0, 5.0, n)) * (rng.random(n) < 0.7)
    return PatternedMatrix(pattern_from_mask(mask), a), b


class TestReplacementBoundsFromOneInverse:
    """bound_solve_entries gets the inverse of every column-replaced matrix
    from one G as a rank-one update; both bounds dominate the kernels."""

    def test_dominates_the_exact_value_on_a_triangular_n40(self):
        # LAPACK on the explicit column replacement, which is not triangular,
        # gave 7432.34 at k = 12, below the exact 7473.19
        rng = np.random.default_rng(0)
        pat = lower_triangular_pattern(40)
        for _ in range(26):
            a = rng.standard_normal((40, 40)) * pat.mask
            b = rng.standard_normal(40)
        bound = bound_solve_entries(PatternedMatrix(pat, a), b)
        exact = _exact_triangular_solve_conditions(a, b)
        assert float(exact[11]) == pytest.approx(7473.19, abs=0.01)
        assert [k for k in range(40) if not Fraction(bound[k]) >= exact[k]] == []

    # a RuntimeWarning fails it (the filterwarnings of the pytest settings);
    # an "error" mark would also turn hypothesis's own warnings into errors
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 8), _SEEDS)
    def test_dominance_inf_placement_and_scale_invariance(self, n, seed):
        a, b = _admissible_system(n, seed)
        bound_inv, bound_solve = bound_inverse_entries(a), bound_solve_entries(a, b)
        for cond, bound in ((cond_inverse_entries(a), bound_inv),
                            (cond_solve_entries(a, b), bound_solve)):
            both = np.isfinite(cond) & np.isfinite(bound)
            assert np.all(cond[both] <= bound[both] * (1 + 1e-12))
        x = linalg.solve(a, b)
        singular = np.full(n, True) if x is linalg.SINGULAR else x == 0.0
        assert np.array_equal(np.isinf(bound_solve), singular)
        for power in (-600, 600):
            scaled = PatternedMatrix(a.pattern, a.entries * 2.0 ** power)
            assert bound_solve_entries(scaled, b).tobytes() == bound_solve.tobytes()
            assert bound_solve_entries(a, b * 2.0 ** power).tobytes() == bound_solve.tobytes()
        # near the ends of the double range: no warning, no NaN
        for scale in (1e300, 1e-300):
            scaled = PatternedMatrix(a.pattern, a.entries * scale)
            for got in (bound_inverse_entries(scaled), bound_solve_entries(scaled, b),
                        bound_solve_entries(a, b * scale)):
                assert not np.isnan(got).any()


class TestOracleChunks:
    """Trials run in chunks of sign codes; neither the chunk size nor a chunk
    boundary changes a bit of the result."""

    CASES = [
        ("det", PatternedMatrix.dense([[2.0, -1.0], [0.5, 3.0]]), None, {}),
        ("inv", PatternedMatrix.dense([[2.0, -1.0], [0.5, 3.0]]), None, {}),
        ("solve", PatternedMatrix.dense([[2.0, -1.0], [0.5, 3.0]]), [1.0, -2.0], {}),
        ("det", PatternedMatrix(tridiagonal_pattern(3), [[2.0, 1.0, 0.0], [0.5, 3.0, -1.0],
                                                          [0.0, 1.0, 2.0]]), None, {}),
        ("inv", PatternedMatrix(tridiagonal_pattern(3), [[2.0, 1.0, 0.0], [0.5, 3.0, -1.0],
                                                          [0.0, 1.0, 2.0]]), None, {}),
        ("solve", PatternedMatrix(lower_triangular_pattern(2), [[2.0, 0.0], [0.5, 3.0]]),
         [1.0, 4.0], {}),
        # random sign patterns beyond the exhaustive limit
        ("det", PatternedMatrix.dense([[2.0, -1.0], [0.5, 3.0]]), None,
         {"exhaustive_limit": 2, "random_trials": 50, "seed": 5}),
        ("inv", PatternedMatrix.dense([[2.0, -1.0], [0.5, 3.0]]), None,
         {"exhaustive_limit": 2, "random_trials": 50, "seed": 5}),
        ("solve", PatternedMatrix.dense([[2.0, -1.0], [0.5, 3.0]]), [1.0, -2.0],
         {"exhaustive_limit": 2, "random_trials": 50, "seed": 5}),
    ]

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_chunk_size_invariance(self, case, monkeypatch):
        quantity, a, b, kwargs = self.CASES[case]
        expected = np.asarray(oracle_condition(quantity, a, b, **kwargs))
        for digits in (1, 2, 8, 9):
            monkeypatch.setattr(conditioning, "_ORACLE_DIGITS", digits)
            got = np.asarray(oracle_condition(quantity, a, b, **kwargs))
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("m", range(0, 7))
    def test_chunked_digits_are_the_sign_table(self, m):
        table = sign_table(m)
        chunks = [sign_digits(m, start, min(start + 5, 3 ** m))
                  for start in range(0, 3 ** m, 5)]
        assert_array_equal(np.concatenate(chunks) - 1.0, table)

    def test_memory_does_not_grow_with_the_pattern_count(self):
        a = PatternedMatrix.dense([[3.0, 1.0, -0.5], [0.5, 2.5, 1.0], [-1.0, 0.5, 4.0]])
        tracemalloc.start()
        try:
            got = oracle_condition("solve", a, [1.0, -2.0, 0.5])  # m = 12
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(got).all()
        assert peak <= 32e6
        # each output is reduced as it is computed, on a grid of at most
        # 3^9 trials; keeping each chunk's outputs whole takes 2.59 MB
        assert peak <= 1e6

    def test_random_trials_on_the_lapack_path_stay_small(self):
        rng = np.random.default_rng(0)
        a = PatternedMatrix.dense(rng.uniform(-1.0, 1.0, (5, 5)) + 3.0 * np.eye(5))
        b = np.linspace(1.0, 2.0, 5)
        oracle_condition("solve", a, b)  # m = 30: 10000 random trials
        tracemalloc.start()
        try:
            got = oracle_condition("solve", a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(got).all()
        # 7.13 MB is the peak of drawing all trials at once and comparing
        # every chunk's solutions with the reference in full
        assert peak <= 7.13e6

    def test_singular_reference_is_inf(self):
        # LAPACK inverts the non-finite matrix to a finite one without raising
        for a in (SING, PatternedMatrix.dense([[math.inf, 0.0], [0.0, 1.0]])):
            assert oracle_condition("det", a) == math.inf
            inv = oracle_condition("inv", a)
            assert inv.shape == (2, 2) and np.all(inv == math.inf)
            sol = oracle_condition("solve", a, [1.0, 1.0])
            assert sol.shape == (2,) and np.all(sol == math.inf)

    def test_singular_trial_is_an_infinite_distance(self):
        delta = 1e-6
        # perturbing a12 by +delta makes it equal to a22 = fl(1 + delta),
        # so LU meets an exactly zero pivot on that trial
        a = PatternedMatrix.dense([[1.0, 1.0], [1.0, 1.0 + delta]])
        inv = oracle_condition("inv", a, delta=delta)
        assert inv.shape == (2, 2) and np.all(inv == math.inf)
        sol = oracle_condition("solve", a, [1.0, 2.0], delta=delta)
        assert sol.shape == (2,) and np.all(sol == math.inf)

    @pytest.mark.parametrize("m", [9, 10, 11])
    def test_power_of_three_chunks_are_the_sign_digits(self, m, monkeypatch):
        # every code once and in order, the all-zero sign pattern included:
        # the leading digits of the chunks in order, each chunk's grid in C order
        expected = np.insert(sign_digits(m, 0, 3 ** m), (3 ** m - 1) // 2, 1, axis=0)
        digit_table = np.tile(np.arange(3.0), (m, 1))
        for digits in (9, 8, 5):
            monkeypatch.setattr(conditioning, "_ORACLE_DIGITS", digits)
            lead, axes = max(0, m - digits), min(m, digits)
            got = []
            for values in conditioning._sign_chunks(digit_table):
                assert all(isinstance(v, float) for v in values[:lead])
                assert [v.shape for v in values[lead:]] == [
                    tuple(3 if axis == t else 1 for axis in range(axes)) for t in range(axes)]
                got.append(np.stack([v.ravel() for v in np.broadcast_arrays(*values)], axis=1))
            assert len(got) == 3 ** lead
            got = np.concatenate(got).astype(np.int8)
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("quantity, a, b", [
        ("solve", PatternedMatrix.dense([[3.0, 1.0, -0.5], [0.5, 2.5, 1.0], [-1.0, 0.5, 4.0]]),
         [1.0, -2.0, 0.5]),  # m = 12
        ("inv", PatternedMatrix(tridiagonal_pattern(4), [[2.0, 1.0, 0.0, 0.0],
                                                         [0.5, 3.0, -1.0, 0.0],
                                                         [0.0, 1.0, 2.0, 0.25],
                                                         [0.0, 0.0, -1.5, 2.0]]), None),  # m = 10
    ])
    def test_shared_digit_table_keeps_the_oracle_bits(self, quantity, a, b, monkeypatch):
        expected = np.asarray(oracle_condition(quantity, a, b))
        monkeypatch.setattr(conditioning, "_ORACLE_DIGITS", 12)  # one chunk, no scalars
        got = np.asarray(oracle_condition(quantity, a, b))
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


# Values at the edges of the extremes rule: zeros of both signs, subnormals,
# the smallest normal, infinities and NaN (a singular trial)
_EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-320, -1e-320, 2.2250738585072014e-308,
                -2.2250738585072014e-308, math.inf, -math.inf, math.nan]


@st.composite
def _trials_and_reference(draw):
    """The reference of one output and its trials, some of them equal to it
    or to its neighbours, split into chunks."""
    ref = draw(st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)
               | st.sampled_from([0.0, -0.0, 5e-324, 1e-10]))
    value = (st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
             | st.sampled_from(_EDGE_VALUES + [ref, -ref, math.nextafter(ref, math.inf),
                                               math.nextafter(ref, -math.inf)]))
    trials = draw(st.lists(value, min_size=1, max_size=24))
    cuts = sorted(draw(st.lists(st.integers(1, len(trials)), max_size=3)))
    return ref, np.split(np.array(trials), cuts)


class TestExtremesRule:
    """The oracle keeps each output's largest and smallest trial value, and
    max |v - ref| over the trials comes from those two alone."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_trials_and_reference())
    def test_extremes_give_the_explicit_largest_distance(self, case):
        ref, chunks = case
        hi, lo = -np.inf, np.inf
        for chunk in chunks:
            if chunk.size:
                hi, lo = np.maximum(hi, np.max(chunk)), np.minimum(lo, np.min(chunk))
        trials = np.concatenate(chunks)
        with np.errstate(over="ignore", invalid="ignore"):
            got = conditioning._worst_distance(np.array([hi]), np.array([lo]), ref)[0]
            explicit = np.abs(trials - ref).max()
        if np.isnan(explicit):
            assert np.isnan(got)
        else:
            assert np.float64(got).tobytes() == np.float64(explicit).tobytes()


def _oracle_system(seed, quantity, most):
    """A random admissible pattern with n <= 4 (a random permutation and
    random extra positions) and at most `most` perturbed entries, mostly
    near that many; entries and rhs of magnitudes e^+-5, some rhs entries
    exactly zero."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    if quantity == "solve":
        n = min(n, most // 2)
    mask = np.zeros((n, n), dtype=bool)
    mask[np.arange(n), rng.permutation(n)] = True
    room = max(most - n - (n if quantity == "solve" else 0), 0)
    mask.flat[rng.permutation(np.flatnonzero(~mask))[:rng.integers(room // 2, room + 1)]] = True
    a = rng.standard_normal((n, n)) * np.exp(rng.uniform(-5.0, 5.0, (n, n))) * mask
    b = rng.standard_normal(n) * np.exp(rng.uniform(-5.0, 5.0, n)) * (rng.random(n) < 0.7)
    return PatternedMatrix(pattern_from_mask(mask), a), b


def _assert_whole_table_bits(quantity, a, b, digits, **kwargs):
    expected = np.asarray(whole_table_oracle(quantity, a, b, **kwargs))
    with mock.patch.object(conditioning, "_ORACLE_DIGITS", digits):
        got = np.asarray(oracle_condition(quantity, a, b, **kwargs))
    assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


class TestOracleAgainstTheWholeTable:
    """Leading entries as scalars and minors shared between chunks give the
    bytes of the evaluation that gathers every chunk's whole table with a
    fresh memo and leaves the all-zero sign pattern out (reference_oracle)."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from([1, 5, 8, 12]), st.sampled_from(["det", "inv", "solve"]), _SEEDS)
    def test_same_bytes_on_random_patterns(self, digits, quantity, seed):
        # one sign digit per chunk means 3^(m - 1) chunks: keep m small there
        a, b = _oracle_system(seed, quantity, 6 if digits == 1 else 10)
        _assert_whole_table_bits(quantity, a, b, digits)

    DENSE3 = PatternedMatrix.dense([[3.0, 1.0, -0.5], [0.5, 2.5, 1.0], [-1.0, 0.5, 4.0]])
    TRI5 = PatternedMatrix(pattern_from_mask(np.eye(5, dtype=bool) | np.eye(5, k=-1, dtype=bool)
                                             & (np.arange(5) % 2 == 1)[:, None]),
                           np.diag([2.0, 3.0, -1.5, 2.5, 4.0]) + np.diag([0.5, 0.0, -1.0, 0.0], -1))
    # permuted block triangular: LAPACK leaves -3.2e-17 at a structural zero of
    # A^-1, which both sides zero by their own rule (closure, minor matchings)
    _BLOCK5 = np.array([[-1.75, 0.0, -1.75, 0.0, 0.0], [0.0, 0.0, 0.0, -1.5, 1.5],
                        [0.0, -1.25, 0.0, 0.0, 0.0], [-1.5, 0.0, 0.0, 0.0, 0.0],
                        [0.0, 0.0, 0.0, 0.0, -1.0]])
    BLOCK5 = PatternedMatrix(pattern_from_mask(_BLOCK5 != 0.0), _BLOCK5)

    @pytest.mark.parametrize("quantity, a, b, digits, kwargs", [
        ("solve", DENSE3, [1.0, -2.0, 0.5], 8, {}),  # m = 12
        ("inv", PatternedMatrix(pattern_from_mask(~np.eye(4, k=2, dtype=bool)
                                                  & ~np.eye(4, k=-2, dtype=bool)
                                                  & ~np.eye(4, k=3, dtype=bool)),
                                np.diag([2.0, 3.0, -2.5, 2.0]) + np.diag([0.5, -1.0, 0.25], 1)
                                + np.diag([1.0, 0.5, -0.75], -1) + np.diag([0.3], -3)),
         None, 5, {}),  # m = 11
        # random sign rows beyond the exhaustive limit, over six chunks
        ("solve", DENSE3, [1.0, -2.0, 0.5], 2, {"exhaustive_limit": 6, "random_trials": 50}),
        # n = 5 is on the LAPACK path, which gets the scalars broadcast
        ("inv", TRI5, None, 5, {}),
        ("solve", TRI5, [1.0, 0.0, -2.0, 0.5, 1.5], 2,
         {"exhaustive_limit": 6, "random_trials": 40}),
        # a trial with an exactly singular matrix
        ("solve", PatternedMatrix.dense([[1.0, 1.0], [1.0, 1.0 + 1e-6]]), [1.0, 2.0], 1, {}),
        # one grid of 3^12 trials, no scalars
        ("solve", DENSE3, [1.0, -2.0, 0.5], 12, {}),
        ("inv", TRI5, None, 12, {}),
        ("inv", BLOCK5, None, 5, {}),
        ("solve", BLOCK5, [1.0, 0.0, -2.0, 0.0, 0.5], 2,
         {"exhaustive_limit": 6, "random_trials": 40}),
    ], ids=["solve-m12", "inv-m11", "random", "lapack-inv", "lapack-solve", "singular-trial",
            "solve-m12-one-grid", "lapack-inv-one-grid", "lapack-block-inv",
            "lapack-block-solve"])
    def test_same_bytes_on_fixed_cases(self, quantity, a, b, digits, kwargs):
        _assert_whole_table_bits(quantity, a, b, digits, **kwargs)


# A 2 + 2 block lower-triangular mask, symmetrically permuted; the inverse
# has the same zero block, and rows start with a structural zero
_BLOCK_LOWER_MASK = np.array([[1, 1, 0, 0], [1, 1, 0, 0], [1, 1, 1, 1], [1, 1, 1, 1]],
                             dtype=bool)[[2, 0, 3, 1]][:, [2, 0, 3, 1]]


def _oracle_patterns():
    """Full, lower-triangular, tridiagonal and diagonal patterns, n = 1..4,
    and the permuted block-triangular one."""
    for n in range(1, 5):
        yield from (full_pattern(n), lower_triangular_pattern(n), tridiagonal_pattern(n),
                    pattern_from_mask(np.eye(n, dtype=bool)))
    yield pattern_from_mask(_BLOCK_LOWER_MASK)


def _well_conditioned_on(pattern, rng):
    n = pattern.n
    entries = rng.uniform(-1.0, 1.0, (n, n)) + np.diag(rng.uniform(2.0, 3.0, n))
    return PatternedMatrix(pattern, entries * pattern.mask)


def _refuse_lapack(*args, **kwargs):
    raise AssertionError("a trial reached LAPACK")


def _oracle_all(a, b, **kwargs):
    return [np.asarray(oracle_condition(q, a, b, **kwargs)) for q in ("det", "inv", "solve")]


@pytest.mark.filterwarnings("error")
class TestCofactorOracle:
    """Up to n = 4 the oracle evaluates its trials by cofactors; the LAPACK
    path, forced by lowering the size limit, is the reference."""

    @pytest.mark.parametrize("pattern", list(_oracle_patterns()),
                             ids=lambda p: f"n{p.n}-{len(p)}")
    def test_agrees_with_the_lapack_path(self, pattern, monkeypatch):
        rng = np.random.default_rng(50 + len(pattern))
        a = _well_conditioned_on(pattern, rng)
        b = rng.uniform(1.0, 2.0, pattern.n) * rng.choice([-1.0, 1.0], pattern.n)
        kwargs = {"exhaustive_limit": 10, "random_trials": 2000}
        cofactor = _oracle_all(a, b, **kwargs)
        monkeypatch.setattr(conditioning, "_COFACTOR_MAX_N", 0)
        for got, ref in zip(cofactor, _oracle_all(a, b, **kwargs)):
            assert np.array_equal(np.isinf(got), np.isinf(ref))
            assert np.array_equal(got == 0.0, ref == 0.0)
            assert_allclose(got, ref, rtol=1e-8)

    def test_singular_trial_agrees_with_the_lapack_path(self, monkeypatch):
        a = PatternedMatrix.dense([[1.0, 1.0], [1.0, 1.0 + 1e-6]])
        cofactor = _oracle_all(a, [1.0, 2.0])
        monkeypatch.setattr(conditioning, "_COFACTOR_MAX_N", 0)
        for got, ref in zip(cofactor, _oracle_all(a, [1.0, 2.0])):
            assert np.array_equal(np.isinf(got), np.isinf(ref))
            assert_allclose(got, ref, rtol=1e-8)

    @pytest.mark.parametrize("mask", [np.tril(np.ones((n, n), dtype=bool)) for n in range(1, 5)]
                             + [_BLOCK_LOWER_MASK], ids=["tri1", "tri2", "tri3", "tri4", "block"])
    def test_structural_zeros_of_the_inverse_are_exact(self, mask):
        n = len(mask)
        a = _well_conditioned_on(pattern_from_mask(mask), np.random.default_rng(n))
        rows, cols = a.pattern.index_arrays
        table = a.entries[rows, cols][:, None] * (1.0 + 1e-6 * np.array([-1.0, 0.0, 1.0]))
        zero = ~mask.ravel()
        # every trial, not only the snapped oracle output, is exactly zero:
        # the largest and the smallest value over each chunk's grid are; the
        # others keep one sign in every trial
        for perturbed in conditioning._sign_chunks(table):
            trials = list(conditioning._cofactor_outputs("inv", n, rows, cols, perturbed))
            hi, lo = np.array([np.max(v) for v in trials]), np.array([np.min(v) for v in trials])
            assert np.all(hi[zero] == 0.0) and np.all(lo[zero] == 0.0)
            assert np.all((lo[~zero] > 0.0) | (hi[~zero] < 0.0))
        got = oracle_condition("inv", a, random_trials=500)
        assert np.all(got[~mask] == 0.0) and np.all(got[mask] > 0.0)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_no_trial_reaches_lapack(self, n, monkeypatch):
        a = _well_conditioned_on(full_pattern(n), np.random.default_rng(70 + n))
        b = np.linspace(1.0, 2.0, n)
        for name in ("_lu_inverse", "_lu_solve"):
            monkeypatch.setattr(conditioning, name, _refuse_lapack)
        monkeypatch.setattr(np.linalg, "det", _refuse_lapack)
        assert all(np.isfinite(v).all() for v in _oracle_all(a, b, random_trials=500))

    def test_larger_matrices_stay_on_lapack(self, monkeypatch):
        monkeypatch.setattr(conditioning, "_lu_inverse", _refuse_lapack)
        with pytest.raises(AssertionError, match="reached LAPACK"):
            oracle_condition("inv", PatternedMatrix.identity(5), random_trials=10)

    @pytest.mark.parametrize("limit", [4, 0])
    @pytest.mark.parametrize("power", [-600, 600])
    def test_power_of_two_scaling_is_bit_identical(self, limit, power, monkeypatch):
        monkeypatch.setattr(conditioning, "_COFACTOR_MAX_N", limit)
        a = np.array([[3.0, 1.0, -0.5], [0.5, 2.5, 1.0], [-1.0, 0.5, 4.0]])
        b = np.array([1.0, -2.0, 0.5])
        scale = 2.0 ** power
        kwargs = {"exhaustive_limit": 9, "random_trials": 2000}
        expected = _oracle_all(a, b, **kwargs)
        assert expected[0] == pytest.approx(cond_det(a), rel=1e-3)
        for got in (_oracle_all(a * scale, b, **kwargs), _oracle_all(a, b * scale, **kwargs),
                    _oracle_all(a * scale, b / scale, **kwargs)):
            for g, e in zip(got, expected):
                assert g.tobytes() == e.tobytes()

    def test_power_of_two_scaling_on_the_lapack_path_at_n5(self):
        a = _well_conditioned_on(tridiagonal_pattern(5), np.random.default_rng(80))
        scaled = PatternedMatrix(a.pattern, a.entries * 2.0 ** -600)
        kwargs = {"exhaustive_limit": 5, "random_trials": 300}
        assert oracle_condition("det", scaled, **kwargs) == oracle_condition("det", a, **kwargs)
        assert_array_equal(oracle_condition("inv", scaled, **kwargs),
                           oracle_condition("inv", a, **kwargs))


class TestOracleArguments:
    def test_rhs_length_mismatch_names_both_lengths(self):
        with pytest.raises(ValueError, match=r"rhs length \(3,\) .* dimension 2"):
            oracle_condition("solve", A22, [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("trials", [0, -1])
    def test_rejects_no_random_trials(self, trials):
        with pytest.raises(ValueError, match="random_trials"):
            oracle_condition("inv", A22, random_trials=trials)

    def test_empty_matrix_gives_the_closed_forms(self):
        empty = np.zeros((0, 0))
        assert oracle_condition("det", empty) == cond_det(empty) == 0.0
        for got, closed in ((oracle_condition("inv", empty), cond_inverse_entries(empty)),
                            (oracle_condition("solve", empty, []),
                             cond_solve_entries(empty, []))):
            assert got.shape == closed.shape and got.size == 0

    def test_rejects_a_non_square_matrix(self):
        with pytest.raises(ValueError, match="square"):
            oracle_condition("det", np.ones((2, 3)))


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


class TestMaxOnlyInverseReduction:
    """batch_cond_inverse reduces the ratios of the invertible members to
    their max; it equals the max over the entry matrices bit for bit."""

    @staticmethod
    def _mixed_stack(n=5):
        rng = np.random.default_rng(41)
        dense = rng.standard_normal((3, n, n))
        lower = np.tril(rng.standard_normal((3, n, n)))
        zero_pivot = np.tril(rng.standard_normal((n, n)))
        zero_pivot[2, 2] = 0.0
        nonfinite = rng.standard_normal((2, n, n))
        nonfinite[0, 1, 3] = math.inf
        nonfinite[1, 4, 0] = math.nan
        overflowing = np.eye(n)  # its inverse overflows at every scale
        overflowing[:2, :2] = [[1e-300, 0.0], [1.0, 1e-300]]
        members = [*dense, *lower, np.ones((n, n)), zero_pivot, *nonfinite, overflowing,
                   np.diag(np.arange(1.0, n + 1.0))]
        return np.stack([members[i] for i in rng.permutation(len(members))])

    def _assert_max_of_entries(self, stack):
        got = batch_cond_inverse(stack)
        ref = batch_cond_inverse_entries(stack).max(axis=(-1, -2))
        assert got.shape == ref.shape == stack.shape[:1]
        assert got.tobytes() == ref.tobytes()
        return got

    def test_mixed_stack(self):
        got = self._assert_max_of_entries(self._mixed_stack())
        assert np.isinf(got).sum() == 5 and np.isfinite(got).sum() == 7

    def test_all_members_singular(self):
        stack = self._mixed_stack()
        got = self._assert_max_of_entries(stack[~np.isfinite(batch_cond_inverse(stack))])
        assert len(got) == 5 and np.all(got == math.inf)

    def test_all_members_invertible(self):
        stack = np.random.default_rng(42).standard_normal((6, 4, 4))
        assert np.isfinite(self._assert_max_of_entries(stack)).all()

    def test_empty_stack(self):
        assert self._assert_max_of_entries(np.zeros((0, 4, 4))).shape == (0,)


def _well_conditioned_lower(rng, count, n):
    """Lower-triangular stack with diagonal entries of size 1..2 and small
    entries below it."""
    stack = np.tril(rng.standard_normal((count, n, n)), -1) * (0.5 / n)
    diag = np.arange(n)
    stack[:, diag, diag] = rng.uniform(1.0, 2.0, (count, n)) * rng.choice([-1.0, 1.0], (count, n))
    return stack


def _exact_lower_inverse(a):
    """L^-1 in exact rational arithmetic by forward substitution."""
    n = a.shape[0]
    q = [[Fraction(float(v)) for v in row] for row in a]
    x = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            s = Fraction(int(i == j)) - sum((q[i][k] * x[k][j] for k in range(j, i)), Fraction(0))
            x[i][j] = s / q[i][i]
    return x


class TestLowerTriangularPath:
    """Members with nothing above the diagonal are inverted by substitution."""

    @staticmethod
    def _kernels(stack, rhs):
        return (batch_cond_det(stack), batch_cond_inverse_entries(stack),
                batch_cond_solve_entries(stack, rhs))

    @staticmethod
    def _special_members(n):
        """Zero-diagonal, non-finite and overflowing lower-triangular members
        with their right-hand sides; the last pair overflows only in x, whose
        second entry is about -1.9e308 at every scale."""
        eye = np.eye(n)
        zero_diag, nan_below, inf_diag, tiny_diag, big_x = (eye.copy() for _ in range(5))
        zero_diag[n - 1, n - 1] = 0.0
        nan_below[n - 1, 0] = math.nan
        inf_diag[0, 0] = math.inf
        tiny_diag[:2, :2] = [[1e-300, 0.0], [1.0, 1e-300]]
        big_x[:2, :2] = [[1e-154, 0.0], [1.0, 1e-154]]
        stack = np.stack([zero_diag, nan_below, inf_diag, tiny_diag, big_x])
        rhs = np.ones((5, n))
        rhs[4] = 1.9
        return stack, rhs

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [2, 3, 8, 17, 30])
    def test_agrees_with_general_path(self, n, monkeypatch):
        rng = np.random.default_rng(n)
        special, special_rhs = self._special_members(n)
        stack = np.concatenate([_well_conditioned_lower(rng, 40, n), special])
        rhs = np.concatenate([rng.standard_normal((40, n)), special_rhs])
        f = linalg._factor(stack)
        got = self._kernels(stack, rhs)
        monkeypatch.setattr(linalg, "_is_lower", lambda s: np.zeros(len(s), dtype=bool))
        ref_f = linalg._factor(stack)
        ref = self._kernels(stack, rhs)
        assert list(f.ok) == list(ref_f.ok) == [True] * 40 + [False] * 4 + [True]
        assert_allclose(f.g[:40], ref_f.g[:40], rtol=1e-9, atol=1e-15)
        for values, expected in zip(got, ref):
            _assert_same(values, expected)
        assert np.isinf(got[0][40:44]).all() and np.isinf(got[2][40:]).all()

    def test_entries_above_diagonal_are_exactly_zero(self):
        rng = np.random.default_rng(11)
        stack = np.tril(rng.standard_normal((200, 30, 30)))
        f = linalg._factor(stack)
        rows, cols = np.triu_indices(30, 1)
        assert f.ok.all()
        assert (f.g[:, rows, cols] == 0.0).all()
        assert (batch_cond_inverse_entries(stack)[:, rows, cols] == 0.0).all()

    def test_mixed_stack_members_equal_batch_of_one(self):
        rng = np.random.default_rng(12)
        n = 5
        lower = np.tril(rng.standard_normal((3, n, n)))
        dense = rng.standard_normal((3, n, n))
        singular_lower = lower[0].copy()
        singular_lower[2, 2] = 0.0
        singular_dense = dense[0].copy()
        singular_dense[3] = singular_dense[1]
        nonfinite = dense[1].copy()
        nonfinite[0, 4] = math.inf
        stack = np.stack([lower[0], dense[0], singular_lower, lower[1], singular_dense,
                          np.diag(rng.standard_normal(n)), nonfinite, dense[2], lower[2]])
        rhs = rng.standard_normal((len(stack), n))
        whole = self._kernels(stack, rhs)
        for i in range(len(stack)):
            alone = self._kernels(stack[i:i + 1], rhs[i:i + 1])
            for values, value in zip(whole, alone):
                assert values[i].tobytes() == value[0].tobytes()
        assert np.isinf(whole[0][[2, 4, 6]]).all()

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_exact_rational_inverse(self, n):
        rng = np.random.default_rng(100 + n)
        stack = np.tril(rng.standard_normal((4, n, n)))
        f = linalg._factor(stack)
        assert f.ok.all()
        for a, got in zip(f.a, f.g):
            exact = _exact_lower_inverse(a)
            for i, j in itertools.product(range(n), repeat=2):
                if j > i:
                    assert got[i, j] == 0.0
                else:
                    err = abs(Fraction(float(got[i, j])) - exact[i][j])
                    assert err <= Fraction(1, 10 ** 12) * abs(exact[i][j])

    def test_lower_members_never_reach_lapack(self, monkeypatch):
        def no_lapack(*args, **kwargs):
            raise AssertionError("LAPACK called on a lower-triangular stack")

        rng = np.random.default_rng(13)
        stack = np.tril(rng.standard_normal((6, 7, 7)))
        stack[2, 4, 4] = 0.0
        rhs = rng.standard_normal((6, 7))
        expected = batch_cond_solve(stack, rhs)
        monkeypatch.setattr(np.linalg, "inv", no_lapack)
        monkeypatch.setattr(np.linalg, "slogdet", no_lapack)
        assert_array_equal(batch_cond_solve(stack, rhs), expected)
        assert expected[2] == math.inf and np.isfinite(np.delete(expected, 2)).all()
        assert cond_solve(stack[0], rhs[0]) == expected[0]


def report_csv_field_by_field(rep):
    """The report's CSV row built from format17 or str of each field."""
    c_solve = math.nan if rep.c_solve is None else rep.c_solve
    return ",".join([str(rep.n), str(rep.pattern_size), format17(rep.c_det), format17(rep.c_inv),
                     format17(c_solve), format17(rep.minor_bound_max_slack),
                     format17(rep.replacement_bound_max_slack)])


class TestConditionReport:
    def test_csv_row_equals_the_field_by_field_builder(self):
        rng = np.random.default_rng(6)
        tri = np.diag(rng.standard_normal(6)) + np.diag(rng.standard_normal(5), 1)
        reports = [condition_report(a, b) for a in (A22, SING, PatternedMatrix.dense(tri))
                   for b in (None, np.ones(len(a.entries)))]
        specials = (math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e308)
        reports += [ConditionReport(n=2, pattern_size=3, c_det=v, c_inv=specials[i - 1],
                                    c_inv_entries=np.full((2, 2), v),
                                    bound_inv_entries=np.zeros((2, 2)), c_solve=specials[i - 2],
                                    c_solve_entries=None, bound_solve_entries=None)
                    for i, v in enumerate(specials)]
        for rep in reports:
            assert rep.CSV_HEADER == ("n,S_size,c_det,c_inv,c_solve,minor_bound_max_slack,"
                                      "replacement_bound_max_slack")
            assert rep.to_csv_row() == report_csv_field_by_field(rep)

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
        assert condition_report(SING, [1.0, 1.0]).minor_bound_max == math.inf
        assert condition_report(SING, [1.0, 1.0]).replacement_bound_max == math.inf

    @pytest.mark.parametrize("kind", ["lower", "reducible"])
    def test_bound_maxima_skip_structural_zeros(self, kind):
        """Where A^-1 (or x) has a structural zero the condition is 0 and its
        bound +inf; the maxima are over the entries with a nonzero condition."""
        rng = np.random.default_rng(1)
        if kind == "lower":
            a = tri_matrix(rng, 4)
            b = np.array([0.0, 0.0, 1.0, 1.0])
        else:
            # block diagonal plus one coupling entry, on the full pattern
            entries = np.zeros((4, 4))
            entries[:2, :2], entries[2:, 2:] = rng.standard_normal((2, 2, 2))
            entries[0, 3] = 1.0
            a = PatternedMatrix.dense(entries)
            b = np.array([1.0, 0.0, 0.0, 0.0])
        rep = condition_report(a, b)
        text = rep.to_text()
        for values, bounds, largest, name in (
                (rep.c_inv_entries, rep.bound_inv_entries, rep.minor_bound_max,
                 "minor_bound_max"),
                (rep.c_solve_entries, rep.bound_solve_entries, rep.replacement_bound_max,
                 "replacement_bound_max")):
            zero = values == 0.0
            assert zero.any() and np.isinf(bounds[zero]).all()
            assert largest == bounds[~zero].max() < math.inf
            assert largest >= values.max()
            assert f"{name} = {largest:.9g}\n" in text
        if kind == "lower":
            assert rep.minor_bound_max == pytest.approx(13.2857411, rel=1e-8)

    @pytest.mark.parametrize("with_rhs", [False, True])
    def test_one_inverse_per_report(self, with_rhs, monkeypatch):
        calls = []

        def counted(stack, rhs=None):
            calls.append(len(stack))
            return factor(stack, rhs)

        rng = np.random.default_rng(44)
        pat = tridiagonal_pattern(40)
        a = PatternedMatrix(pat, rng.standard_normal((40, 40)) * pat.mask)
        b = rng.standard_normal(40) if with_rhs else None
        factor = linalg._factor
        monkeypatch.setattr(linalg, "_factor", counted)
        condition_report(a, b)
        assert calls == [1]

    def test_one_cond_det_per_report(self, monkeypatch):
        calls = []

        def counted(f):
            calls.append(len(f.ok))
            return det_sums(f)

        rng = np.random.default_rng(44)
        a = PatternedMatrix.dense(rng.standard_normal((5, 5)))
        det_sums = conditioning._det_sums
        monkeypatch.setattr(conditioning, "_det_sums", counted)
        condition_report(a, rng.standard_normal(5))
        assert calls == [1]

    def test_same_bits_as_the_public_functions(self):
        rng = np.random.default_rng(45)
        pat = tridiagonal_pattern(40)
        for a in (PatternedMatrix.dense(rng.standard_normal((5, 5))), tri_matrix(rng, 6),
                  PatternedMatrix(pat, rng.standard_normal((40, 40)) * pat.mask), SING,
                  PatternedMatrix.dense([[1.0, 1e-12], [1e-12, 1.0]])):
            b = rng.standard_normal(a.n)
            b[0] = 0.0
            rep = condition_report(a, b)
            assert rep.c_det == cond_det(a)
            for got, ref in ((rep.c_inv_entries, cond_inverse_entries(a)),
                             (rep.bound_inv_entries, bound_inverse_entries(a)),
                             (rep.c_solve_entries, cond_solve_entries(a, b)),
                             (rep.bound_solve_entries, bound_solve_entries(a, b))):
                assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


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


def _kernel_outputs(stack, rhs):
    """Every batch kernel on one stack, as raw bytes with shape and dtype."""
    values = (batch_cond_det(stack), batch_cond_inverse(stack), batch_cond_inverse_entries(stack),
              batch_cond_solve_entries(stack, rhs), batch_cond_solve(stack, rhs))
    return [(v.shape, v.dtype, v.tobytes()) for v in values]


@pytest.mark.filterwarnings("error")
class TestTiledKernels:
    """The kernels run over their stack in tiles of _TILE_BYTES per (tile, n, n)
    float array; no output bit depends on the tile size."""

    @staticmethod
    def _mixed_stack(n=6):
        """Dense, lower-triangular, zero-pivot, non-finite, overflowing-inverse
        and overflowing-solution members with their right-hand sides, shuffled."""
        rng = np.random.default_rng(71)
        dense = rng.standard_normal((5, n, n))
        lower = np.tril(rng.standard_normal((5, n, n)))
        zero_diag = lower[0].copy()
        zero_diag[3, 3] = 0.0
        singular_dense = dense[0].copy()
        singular_dense[4] = singular_dense[1]
        nonfinite = dense[1:3].copy()
        nonfinite[0, 2, 5] = math.inf
        nonfinite[1, 0, 0] = math.nan
        # inverses that overflow at every scale, and solutions that overflow
        # with an rhs of 1.9 (x_1 or x_2 is about -1.9e308)
        tiny_lower, tiny_dense, big_x_lower, big_x_dense = (np.eye(n) for _ in range(4))
        tiny_lower[:2, :2] = [[1e-300, 0.0], [1.0, 1e-300]]
        tiny_dense[:2, :2] = [[1e-300, 1.0], [0.0, 1e-300]]
        big_x_lower[:2, :2] = [[1e-154, 0.0], [1.0, 1e-154]]
        big_x_dense[:2, :2] = [[1e-154, 1.0], [0.0, 1e-154]]
        members = [*dense, *lower, np.ones((n, n)), zero_diag, singular_dense, *nonfinite,
                   tiny_lower, tiny_dense, big_x_lower, big_x_dense]
        rhs = rng.standard_normal((len(members), n))
        rhs[-2:] = 1.9
        rhs[3, 1] = math.inf
        order = rng.permutation(len(members))
        return np.stack(members)[order], rhs[order]

    @staticmethod
    def _members_per_tile(monkeypatch, n, count):
        monkeypatch.setattr(conditioning, "_TILE_BYTES", count * 8 * max(n * n, 1))

    @pytest.mark.parametrize("per_tile", [1, 7])
    def test_tile_size_does_not_change_a_bit(self, per_tile, monkeypatch):
        stack, rhs = self._mixed_stack()
        whole = _kernel_outputs(stack, rhs)
        singles = [_kernel_outputs(stack[i:i + 1], rhs[i:i + 1]) for i in range(len(stack))]
        self._members_per_tile(monkeypatch, 6, per_tile)
        assert _kernel_outputs(stack, rhs) == whole
        for i, alone in enumerate(singles):
            for (shape, dtype, data), (_, _, member) in zip(whole, alone):
                size = len(data) // shape[0]
                assert data[i * size:(i + 1) * size] == member
        kinds = np.isinf(batch_cond_solve(stack, rhs))
        assert 0 < kinds.sum() < len(stack)

    def test_default_tiles_on_a_chunk_equal_one_tile(self, monkeypatch):
        rng = np.random.default_rng(72)
        stack = np.tril(rng.standard_normal((1000, 30, 30)))
        stack[[5, 500], 7, 7] = 0.0
        stack[:100] = rng.standard_normal((100, 30, 30))
        rhs = rng.standard_normal((1000, 30))
        assert 1000 > conditioning._TILE_BYTES // (8 * 30 * 30)
        tiled = _kernel_outputs(stack, rhs)
        monkeypatch.setattr(conditioning, "_TILE_BYTES", 1 << 40)
        assert _kernel_outputs(stack, rhs) == tiled

    @pytest.mark.parametrize("per_tile", [1, 7, None])
    @pytest.mark.parametrize("count, n", [(0, 4), (0, 0), (3, 0), (9, 1), (0, 1)])
    def test_empty_stacks_and_the_smallest_matrices(self, count, n, per_tile, monkeypatch):
        stack = np.arange(1.0, count * n * n + 1.0).reshape(count, n, n)
        if count and n:
            stack[2, 0, 0] = 0.0
            stack[4, 0, 0] = math.nan
        rhs = np.ones((count, n))
        if per_tile is not None:
            self._members_per_tile(monkeypatch, n, per_tile)
        det, inv, inv_entries, solve_entries, solve = (
            np.frombuffer(data, dtype).reshape(shape)
            for shape, dtype, data in _kernel_outputs(stack, rhs))
        assert det.shape == inv.shape == solve.shape == (count,)
        assert inv_entries.shape == (count, n, n) and solve_entries.shape == (count, n)
        if n == 0:
            assert (det == 0.0).all() and (inv == 0.0).all() and (solve == 0.0).all()
        elif count:
            singular = np.isin(np.arange(count), [2, 4])
            assert np.isinf(det[singular]).all() and np.isinf(solve[singular]).all()
            assert (det[~singular] == 1.0).all() and (inv[~singular] == 1.0).all()
            assert (solve[~singular] == 2.0).all()

    @staticmethod
    def _peak(run) -> int:
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_lower_triangular_solve_chunk_peak_memory(self):
        rng = np.random.default_rng(73)
        stack = np.tril(rng.standard_normal((4096, 30, 30)))
        rhs = rng.standard_normal((4096, 30))
        # one tile (0.035 of the stack) and the kernel's arrays of it: 0.113
        assert self._peak(lambda: batch_cond_solve(stack, rhs)) <= 0.13 * stack.nbytes

    @pytest.mark.parametrize("kernel, lower, arrays", [
        # the prescaled copy, whose buffer takes |A|, and the inverse: 2.20
        (batch_cond_solve, True, 2.3),
        # the same two and |G| |A| (its product with |G| goes into the buffer
        # of |A|), then the ratios: 3.13
        (lambda stack, rhs: batch_cond_inverse(stack), False, 3.2)],
        ids=["lower-solve", "dense-inverse"])
    def test_one_tile_peak_memory_in_tile_sized_arrays(self, kernel, lower, arrays):
        members = conditioning._tile_members(30)
        rng = np.random.default_rng(74)
        stack = rng.standard_normal((members, 30, 30))
        stack = np.tril(stack) if lower else stack
        rhs = rng.standard_normal((members, 30))
        assert self._peak(lambda: kernel(stack, rhs)) <= arrays * stack.nbytes


@pytest.mark.filterwarnings("error")
def test_empty_matrix_has_condition_zero():
    """As in cond_det and the oracle; the batches are covered by
    TestTiledKernels.test_empty_stacks_and_the_smallest_matrices."""
    empty = np.zeros((0, 0))
    assert cond_inverse(empty) == 0.0 == cond_det(empty) == oracle_condition("det", empty)
    assert cond_solve(empty, []) == 0.0
