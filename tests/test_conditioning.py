import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose, assert_array_equal

from sparsecond import conditioning, linalg
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
from sparsecond.linalg import PatternedMatrix
from sparsecond.patterns import (full_pattern, lower_triangular_pattern, pattern_from_mask,
                                 tridiagonal_pattern)

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

    @pytest.mark.parametrize("m", range(0, 7))
    def test_sign_table_is_the_product_order(self, m):
        table = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=m)))
        table = table[np.any(table != 0.0, axis=1)]
        got = conditioning._sign_table(m)
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


def _explicit_inverse_bounds(a):
    n = a.n
    return np.array([[bound_inverse_entry(a, k, l) for l in range(1, n + 1)]
                     for k in range(1, n + 1)])


class TestMinorBoundsFromOneInverse:
    """bound_inverse_entries gets every minor's inverse from one G; the
    explicit minors of bound_inverse_entry are the reference."""

    def test_singular_matrix_is_all_inf(self):
        got = bound_inverse_entries(SING)
        assert got.shape == (2, 2) and np.all(got == math.inf)
        _assert_same(_explicit_inverse_bounds(SING), got)

    def test_lower_triangular_structurally_singular_minors(self):
        a = tri_matrix(np.random.default_rng(40), 6)
        got = bound_inverse_entries(a)
        # deleting row l and column k < l leaves a zero on the diagonal
        assert np.array_equal(np.isinf(got), np.triu(np.ones((6, 6), dtype=bool), 1))
        _assert_same(_explicit_inverse_bounds(a), got)

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
        _assert_same(_explicit_inverse_bounds(a), got)

    @pytest.mark.parametrize("value", [3.0, -0.5, 0.0])
    def test_n1(self, value):
        a = PatternedMatrix.dense([[value]])
        assert_array_equal(bound_inverse_entries(a), _explicit_inverse_bounds(a))

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
        assert_allclose(got, _explicit_inverse_bounds(a), rtol=1e-9)


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
        for chunk in (7, 3 ** 8 + 1):
            monkeypatch.setattr(conditioning, "_ORACLE_CHUNK", chunk)
            got = np.asarray(oracle_condition(quantity, a, b, **kwargs))
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("m", range(0, 7))
    def test_chunked_digits_are_the_sign_table(self, m):
        table = conditioning._sign_table(m)
        chunks = [conditioning._sign_digits(m, start, min(start + 5, 3 ** m))
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
        expected = conditioning._sign_digits(m, 0, 3 ** m)
        for chunk in (3 ** 8, 3 ** 5):
            monkeypatch.setattr(conditioning, "_ORACLE_CHUNK", chunk)
            chunks = list(conditioning._sign_chunks(m))
            assert all(len(c) <= chunk for c in chunks)
            got = np.concatenate(chunks)
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()

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
        monkeypatch.setattr(conditioning, "_ORACLE_CHUNK", 3 ** 8 + 1)
        got = np.asarray(oracle_condition(quantity, a, b))
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


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
        m = len(rows)
        digits = conditioning._sign_digits(m, 0, min(3 ** m, 5000))
        levels = 1.0 + 1e-6 * np.array([-1.0, 0.0, 1.0])
        perturbed = (a.entries[rows, cols][:, None] * levels)[np.arange(m)[:, None], digits.T]
        # every trial, not only the snapped oracle output, is exactly zero
        trials = conditioning._cofactor_values("inv", n, rows, cols, perturbed)
        assert np.all(trials[:, ~mask.ravel()] == 0.0) and np.all(trials[:, mask.ravel()] != 0.0)
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
        overflowing = np.eye(n) * 1e-310  # its inverse overflows
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
        with their right-hand sides; the last pair overflows only in x."""
        eye = np.eye(n)
        zero_diag, nan_below, inf_diag, tiny_diag = (eye.copy() for _ in range(4))
        zero_diag[n - 1, n - 1] = 0.0
        nan_below[n - 1, 0] = math.nan
        inf_diag[0, 0] = math.inf
        tiny_diag[:2, :2] = [[1e-300, 0.0], [1.0, 1e-300]]
        stack = np.stack([zero_diag, nan_below, inf_diag, tiny_diag, 1e-300 * eye])
        rhs = np.ones((5, n))
        rhs[4] = 1e10
        return stack, rhs

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [2, 3, 8, 17, 30])
    def test_agrees_with_general_path(self, n, monkeypatch):
        rng = np.random.default_rng(n)
        special, special_rhs = self._special_members(n)
        stack = np.concatenate([_well_conditioned_lower(rng, 40, n), special])
        rhs = np.concatenate([rng.standard_normal((40, n)), special_rhs])
        g, ok = linalg._batched_inverse(stack)
        got = self._kernels(stack, rhs)
        monkeypatch.setattr(linalg, "_is_lower", lambda s: np.zeros(len(s), dtype=bool))
        g_ref, ok_ref = linalg._batched_inverse(stack)
        ref = self._kernels(stack, rhs)
        assert list(ok) == list(ok_ref) == [True] * 40 + [False] * 4 + [True]
        assert_allclose(g[:40], g_ref[:40], rtol=1e-9, atol=1e-15)
        for values, expected in zip(got, ref):
            _assert_same(values, expected)
        assert np.isinf(got[0][40:44]).all() and np.isinf(got[2][40:]).all()

    def test_entries_above_diagonal_are_exactly_zero(self):
        rng = np.random.default_rng(11)
        stack = np.tril(rng.standard_normal((200, 30, 30)))
        g, ok = linalg._batched_inverse(stack)
        rows, cols = np.triu_indices(30, 1)
        assert ok.all()
        assert (g[:, rows, cols] == 0.0).all()
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
        g, ok = linalg._batched_inverse(stack)
        assert ok.all()
        for a, got in zip(stack, g):
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
