import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from sparsecond.conditioning import (bound_inverse_entry, bound_solve_entries, bound_solve_entry,
                                     cond_det, cond_solve_entries)
from sparsecond.fplab import PrecisionConfig, backward_error_omega, forward_substitution
from sparsecond.linalg import (
    SINGULAR,
    PatternedMatrix,
    _batched_inverse,
    _is_lower,
    _lower_inverse,
    determinant,
    inverse,
    read_matrix_file,
    read_vector_file,
    solve,
    write_matrix_file,
    write_vector_file,
)
from sparsecond.patterns import lower_triangular_pattern, tridiagonal_pattern

from explicit_bounds import minor, replace_column

COMPOSE_RTOL = 1e-9


def test_patterned_matrix_rejects_off_pattern_entries():
    pat = lower_triangular_pattern(2)
    with pytest.raises(ValueError):
        PatternedMatrix(pat, np.array([[1.0, 2.0], [3.0, 4.0]]))


def test_patterned_matrix_identity_restricted():
    m = PatternedMatrix.identity(3, tridiagonal_pattern(3))
    assert_array_equal(m.entries, np.eye(3))


def test_determinant_examples():
    assert determinant(np.eye(4)) == 1.0
    # 2x2 cofactor oracle: a11 a22 - a12 a21
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert determinant(a) == pytest.approx(1.0 * 4.0 - 2.0 * 3.0, rel=1e-12)
    assert determinant(np.diag([2.0, 3.0, 4.0])) == pytest.approx(24.0, rel=1e-12)
    assert determinant(np.array([[1.0, 2.0], [2.0, 4.0]])) == 0.0
    assert determinant(np.array([[0.0, 1.0], [1.0, 0.0]])) == -1.0


def test_determinant_permutation_parity():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = rng.standard_normal((4, 4))
        perm = rng.permutation(4)
        parity = np.linalg.det(np.eye(4)[perm])  # +-1
        assert determinant(a[perm]) == pytest.approx(parity * determinant(a), rel=1e-9)


def test_inverse_examples():
    assert_array_equal(inverse(np.eye(3)), np.eye(3))
    # 2x2 adjugate oracle
    g = inverse(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert_allclose(g, np.array([[-2.0, 1.0], [1.5, -0.5]]), rtol=1e-12)
    assert inverse(np.array([[1.0, 2.0], [2.0, 4.0]])) is SINGULAR


def test_inverse_composition_and_det_product():
    rng = np.random.default_rng(13)
    for _ in range(25):
        a = rng.standard_normal((5, 5)) + 3 * np.eye(5)
        g = inverse(a)
        assert np.abs(a @ g - np.eye(5)).max() < COMPOSE_RTOL
        assert determinant(a) * determinant(g) == pytest.approx(1.0, rel=1e-9)


def test_solve_examples():
    assert_array_equal(solve(np.eye(2), [5.0, 6.0]), [5.0, 6.0])
    # substitute into the 2x2 system
    x = solve(np.array([[1.0, 2.0], [3.0, 4.0]]), [1.0, 1.0])
    assert_allclose(x, [-1.0, 1.0], rtol=1e-12)
    assert solve(np.array([[1.0, 0.0], [0.0, 0.0]]), [1.0, 2.0]) is SINGULAR


def test_solve_residual():
    rng = np.random.default_rng(17)
    for _ in range(25):
        a = rng.standard_normal((8, 8))
        b = rng.standard_normal(8)
        x = solve(a, b)
        if x is SINGULAR:
            continue
        scale = np.abs(b).max() + np.abs(a).max() * np.abs(x).max()
        assert np.abs(a @ x - b).max() <= COMPOSE_RTOL * scale


def _singularity_rule_inputs(rng):
    """Exactly singular small-integer matrices (products of integer n x (n-1)
    and (n-1) x n factors with entries in [-3, 3], every second one scaled by
    10^k), then random dense and lower-triangular ones."""
    for i in range(2000):
        n = int(rng.integers(2, 7))
        a = (rng.integers(-3, 4, (n, n - 1)) @ rng.integers(-3, 4, (n - 1, n))).astype(float)
        yield a * 10.0 ** int(rng.integers(-10, 11)) if i % 2 else a
    for n in rng.integers(1, 9, 200):
        yield rng.standard_normal((n, n))
    for n in rng.integers(1, 31, 200):
        # integer diagonals are sometimes exactly zero
        entries = rng.standard_normal((n, n)) if n % 2 else rng.integers(-3, 4, (n, n)) * 1.0
        yield np.tril(entries)


@pytest.mark.filterwarnings("error")
def test_scalar_routines_follow_the_kernel_singularity_rule():
    rng = np.random.default_rng(31)
    singular = 0
    for a in _singularity_rule_inputs(rng):
        b = rng.standard_normal(len(a))
        g = inverse(a)
        assert (g is SINGULAR) == (cond_det(a) == math.inf)
        if g is SINGULAR:
            singular += 1
            assert determinant(a) == 0.0
        else:
            assert g.tobytes() == _batched_inverse(a[None])[0][0].tobytes()
        assert (solve(a, b) is SINGULAR) == bool(np.isinf(cond_solve_entries(a, b)).all())
    assert 0 < singular < 2400
    tiny = np.array([[1e-320]])
    assert inverse(tiny) is SINGULAR and solve(tiny, [1.0]) is SINGULAR
    assert determinant(tiny) == 0.0
    # a finite inverse whose solution overflows
    assert solve([[1e-300]], [1e10]) is SINGULAR
    assert cond_solve_entries([[1e-300]], [1e10])[0] == math.inf
    assert determinant(1e20 * np.eye(30)) == math.inf


def test_minor_examples():
    i3 = PatternedMatrix.dense(np.eye(3))
    assert_array_equal(minor(i3, 1, 1).entries, np.eye(2))
    a = PatternedMatrix.dense([[1.0, 2.0], [3.0, 4.0]])
    assert_array_equal(minor(a, 1, 2).entries, [[3.0]])
    b = PatternedMatrix.dense([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]])
    assert_array_equal(minor(b, 2, 2).entries, [[1.0, 3.0], [7.0, 9.0]])


def test_minor_of_1x1_is_empty():
    assert minor(PatternedMatrix.dense([[2.0]]), 1, 1) is None


def test_first_column_cofactor_expansion():
    # det(A) = sum_i (-1)^(i+1) a_i1 det(A_i1)
    rng = np.random.default_rng(29)
    for _ in range(20):
        a = PatternedMatrix.dense(rng.standard_normal((5, 5)))
        expansion = sum((-1) ** i * a.entries[i, 0] * determinant(minor(a, i + 1, 1))
                        for i in range(5))
        assert expansion == pytest.approx(determinant(a), rel=1e-9)


def test_minor_induced_pattern():
    a = PatternedMatrix(tridiagonal_pattern(4), np.eye(4) * tridiagonal_pattern(4).mask)
    sub = minor(a, 1, 1)
    assert sub.pattern.positions == tridiagonal_pattern(3).positions


def test_replace_column_examples():
    i2 = PatternedMatrix.dense(np.eye(2))
    assert_array_equal(replace_column(i2, 1, [0.0, 1.0]).entries, [[0.0, 0.0], [1.0, 1.0]])
    a = PatternedMatrix.dense([[1.0, 2.0], [3.0, 4.0]])
    assert_array_equal(replace_column(a, 2, [9.0, 9.0]).entries, [[1.0, 9.0], [3.0, 9.0]])


def test_replace_column_with_own_column_is_identity():
    rng = np.random.default_rng(19)
    a = PatternedMatrix.dense(rng.standard_normal((4, 4)))
    for k in range(1, 5):
        ek = np.zeros(4)
        ek[k - 1] = 1.0
        assert_array_equal(replace_column(a, k, a.entries @ ek).entries, a.entries)


def test_replace_column_widens_pattern():
    a = PatternedMatrix(lower_triangular_pattern(3),
                        np.tril(np.ones((3, 3))))
    r = replace_column(a, 3, [1.0, 1.0, 1.0])
    assert (1, 3) in r.pattern


def test_index_bounds_are_caller_faults():
    a = PatternedMatrix.dense(np.eye(2))
    with pytest.raises(ValueError):
        minor(a, 0, 1)
    with pytest.raises(ValueError):
        replace_column(a, 3, [1.0, 1.0])


@pytest.mark.parametrize("call", [
    lambda: bound_inverse_entry(PatternedMatrix.dense(np.eye(2)), 0, 1),
    lambda: bound_inverse_entry(PatternedMatrix.dense(np.eye(2)), 1, 3),
    lambda: bound_solve_entry(PatternedMatrix.dense(np.eye(2)), [1.0, 1.0], 0),
    lambda: bound_solve_entry(PatternedMatrix.dense(np.eye(2)), [1.0, 1.0], 3),
], ids=["inverse_k0", "inverse_l3", "solve_k0", "solve_k3"])
def test_bound_indices_are_caller_faults(call):
    with pytest.raises(ValueError, match="outside"):
        call()


@pytest.mark.parametrize("call", [
    lambda: bound_solve_entries(PatternedMatrix.dense(np.eye(3)), 1.0),
    lambda: cond_solve_entries(np.eye(3), [1.0, 2.0]),
    lambda: solve(np.eye(3), [1.0, 2.0]),
    lambda: forward_substitution(np.eye(3), [1.0, 2.0, 3.0, 4.0], PrecisionConfig(24)),
    lambda: backward_error_omega(np.eye(3), 1.0, [1.0, 1.0, 1.0]),
], ids=["bound_scalar", "cond_short", "solve_short", "substitution_long", "omega_scalar"])
def test_rhs_length_is_a_caller_fault(call):
    with pytest.raises(ValueError, match=r"rhs length \(.*\) does not match matrix dimension"):
        call()


def test_matrix_file_round_trip(tmp_path):
    rng = np.random.default_rng(23)
    a = rng.standard_normal((4, 4))
    path = tmp_path / "m.txt"
    write_matrix_file(a, path)
    assert_array_equal(read_matrix_file(path), a)


def test_vector_file_round_trip(tmp_path):
    v = np.array([1.5, -2.25, 1e-17])
    path = tmp_path / "v.txt"
    write_vector_file(v, path)
    assert_array_equal(read_vector_file(path), v)


def test_matrix_file_rejects_wrong_count(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2\n1 2 3\n")
    with pytest.raises(ValueError):
        read_matrix_file(path)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", range(7))
def test_is_lower_is_the_row_scan(n):
    rng = np.random.default_rng(60 + n)
    values = np.array([0.0, -0.0, 1.0, math.nan])
    stack = values[rng.choice(4, size=(500, n, n), p=[0.4, 0.5, 0.05, 0.05])]
    expected = [not any(a[i, j] != 0.0 for i in range(n) for j in range(i + 1, n)) for a in stack]
    assert _is_lower(stack).tolist() == expected
    assert 0 < sum(expected) or n < 2
    assert _is_lower(stack[:0]).shape == (0,)
    if n >= 2:  # every (0, 1) entry nonzero: the dense shortcut
        stack[:, 0, 1] = values[rng.choice([2, 3], size=500)]
        assert not _is_lower(stack).any()


def _row_loop_lower_inverse(stack):
    """Forward substitution with a negated row product and a unit diagonal:
    the reference the in-place rows must match bit for bit."""
    n = stack.shape[-1]
    out = np.zeros_like(stack)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for i in range(n):
            out[:, i, i] = 1.0
            if i:
                out[:, i, :i] = -(stack[:, i, None, :i] @ out[:, :i, :i])[:, 0]
            out[:, i, : i + 1] /= stack[:, i, i, None]
    return out


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [1, 2, 5, 30])
def test_lower_inverse_rows_equal_the_negated_product(n):
    rng = np.random.default_rng(70 + n)
    stack = np.tril(rng.standard_normal((300, n, n)))
    stack[3, n - 1, n - 1] = 0.0
    stack[4] *= 1e-200
    stack[5, 0, 0] = math.inf
    assert _lower_inverse(stack).tobytes() == _row_loop_lower_inverse(stack).tobytes()
