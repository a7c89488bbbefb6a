import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from sparsecond import conditioning
from sparsecond.conditioning import (bound_inverse_entry, bound_solve_entries, bound_solve_entry,
                                     cond_det, cond_solve_entries)
from sparsecond.fplab import (PrecisionConfig, backward_error_omega, forward_substitution,
                              lop_prediction, solve_accuracy)
from sparsecond.linalg import (
    SINGULAR,
    PatternedMatrix,
    _factor,
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


def _singularity_rule_inputs(rng, power):
    """Exactly singular small-integer matrices (products of integer n x (n-1)
    and (n-1) x n factors with entries in [-3, 3], every second one scaled by
    10^k, |k| <= power), then random dense and lower-triangular ones."""
    for i in range(2000):
        n = int(rng.integers(2, 7))
        a = (rng.integers(-3, 4, (n, n - 1)) @ rng.integers(-3, 4, (n - 1, n))).astype(float)
        yield a * 10.0 ** int(rng.integers(-power, power + 1)) if i % 2 else a
    for n in rng.integers(1, 9, 200):
        yield rng.standard_normal((n, n))
    for n in rng.integers(1, 31, 200):
        # integer diagonals are sometimes exactly zero
        entries = rng.standard_normal((n, n)) if n % 2 else rng.integers(-3, 4, (n, n)) * 1.0
        yield np.tril(entries)


def _representable(scaled: np.ndarray, shift) -> bool:
    """Whether scaled times 2^shift is finite in double: its largest
    magnitude, m 2^e with 0.5 <= m < 1, is below 2^1024 exactly when
    e + shift <= 1024."""
    return math.frexp(float(np.abs(scaled).max(initial=0.0)))[1] + int(shift) <= 1024


@pytest.mark.filterwarnings("error")
def test_scalar_routines_follow_the_kernel_singularity_rule():
    for power in (10, 300):
        rng = np.random.default_rng(31)
        singular = unrepresentable = 0
        for a in _singularity_rule_inputs(rng, power):
            b = rng.standard_normal(len(a))
            f = _factor(a[None], b[None])
            g = inverse(a)
            assert (not f.ok[0]) == (cond_det(a) == math.inf)
            if not f.ok[0]:
                singular += 1
                assert g is SINGULAR and determinant(a) == 0.0
            elif not _representable(f.g[0], f.shift[0]):
                # the one carve-out: A is regular under the rule, but A^-1 is
                # beyond the double range, so inverse() cannot return it
                unrepresentable += 1
                assert g is SINGULAR and math.isfinite(cond_det(a))
            else:
                assert g.tobytes() == np.ldexp(f.g[0], f.shift[0]).tobytes()
            x = solve(a, b)
            assert (not f.solved[0]) == bool(np.isinf(cond_solve_entries(a, b)).all())
            if f.solved[0] and not _representable(f.x[0], f.shift[0] - f.rhs_shift[0]):
                unrepresentable += 1  # the same carve-out for x
                assert x is SINGULAR
            else:
                assert (x is SINGULAR) == (not f.solved[0])
        assert 0 < singular < 2400
        assert unrepresentable == 0 if power == 10 else unrepresentable > 0
    # regular under the rule (its scaled member is [[1.9765625]]), but 1e320
    # is not a double
    tiny = np.array([[1e-320]])
    assert cond_det(tiny) == pytest.approx(1.0, rel=1e-15)
    assert inverse(tiny) is SINGULAR and solve(tiny, [1.0]) is SINGULAR
    assert determinant(tiny) == 1e-320
    # a solution beyond the double range; the scaled system is [[1]] x = [1]
    assert solve([[1e-300]], [1e10]) is SINGULAR
    assert cond_solve_entries([[1e-300]], [1e10])[0] == 2.0
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
    lambda: backward_error_omega(np.eye(3), [1.0, 1.0, 1.0], [1.0, 1.0]),
], ids=["bound_scalar", "cond_short", "solve_short", "substitution_long", "omega_scalar",
        "omega_x_hat_short"])
def test_rhs_length_is_a_caller_fault(call):
    with pytest.raises(ValueError, match=r"rhs length \(.*\) does not match matrix dimension"):
        call()


_B3 = np.ones(3)
_CFG = PrecisionConfig(24)

# every public function that takes a matrix, called on `a` with arguments
# that would be valid for a 3 x 3 matrix
_MATRIX_ARGUMENT = {
    "cond_det": lambda a, path: cond_det(a),
    "cond_inverse": lambda a, path: conditioning.cond_inverse(a),
    "cond_inverse_entries": lambda a, path: conditioning.cond_inverse_entries(a),
    "cond_inverse_entry": lambda a, path: conditioning.cond_inverse_entry(a, 1, 1),
    "cond_solve": lambda a, path: conditioning.cond_solve(a, _B3),
    "cond_solve_entries": lambda a, path: cond_solve_entries(a, _B3),
    "cond_solve_entry": lambda a, path: conditioning.cond_solve_entry(a, _B3, 1),
    "bound_inverse_entries": lambda a, path: conditioning.bound_inverse_entries(a),
    "bound_inverse_entry": lambda a, path: bound_inverse_entry(a, 1, 1),
    "bound_solve_entries": lambda a, path: bound_solve_entries(a, _B3),
    "bound_solve_entry": lambda a, path: bound_solve_entry(a, _B3, 1),
    "oracle_condition": lambda a, path: conditioning.oracle_condition("det", a),
    "determinant": lambda a, path: determinant(a),
    "inverse": lambda a, path: inverse(a),
    "solve": lambda a, path: solve(a, _B3),
    "forward_substitution": lambda a, path: forward_substitution(a, _B3, _CFG),
    "backward_error_omega": lambda a, path: backward_error_omega(a, _B3, _B3),
    "lop_prediction": lambda a, path: lop_prediction(a, _B3),
    "solve_accuracy": lambda a, path: solve_accuracy(a, _B3, _CFG),
    "write_matrix_file": lambda a, path: write_matrix_file(a, path),
    "PatternedMatrix.dense": lambda a, path: PatternedMatrix.dense(a),
}


@pytest.mark.parametrize("shape", [(), (3,), (2, 3)], ids=str)
@pytest.mark.parametrize("name", sorted(_MATRIX_ARGUMENT))
def test_a_matrix_argument_must_be_square(name, shape, tmp_path):
    path = tmp_path / "m.txt"
    with pytest.raises(ValueError, match="square"):
        _MATRIX_ARGUMENT[name](np.ones(shape), path)
    assert not path.exists()


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
