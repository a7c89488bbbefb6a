"""The one zero rule: an entry of A^-1 (of x = A^-1 b) is zero exactly where
the structure of the support says so, and nowhere by a tolerance.

patterns._closure is checked against Jacobi's identity through the matchings
of the minors (reference_oracle.minor_structure) and against the exact
rational zeros of G; the kernels and the oracle against the closed forms and
exact rational references."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsecond import conditioning
from sparsecond.conditioning import (batch_cond_det, batch_cond_inverse, batch_cond_inverse_entries,
                                     batch_cond_solve, batch_cond_solve_entries,
                                     cond_inverse_entries, cond_solve_entries, oracle_condition)
from sparsecond.linalg import PatternedMatrix, _factor
from sparsecond.patterns import (_closure, lower_triangular_pattern, pattern_from_mask,
                                 tridiagonal_pattern)
from sparsecond.smoothed import GaussianModel, sample_batch

from reference_oracle import minor_structure


def _block_triangular(rng, n, extra=0.3):
    """A permuted block upper-triangular boolean mask: diagonal blocks of 1
    to 3 rows, each holding a perfect matching, random positions above them
    with probability `extra`, and rows and columns permuted independently."""
    mask = np.zeros((n, n), dtype=bool)
    start = 0
    while start < n:
        size = min(int(rng.integers(1, 4)), n - start)
        block = rng.random((size, size)) < 0.5
        block[np.arange(size), rng.permutation(size)] = True
        mask[start:start + size, start:start + size] = block
        mask[start:start + size, start + size:] = rng.random((size, n - start - size)) < extra
        start += size
    return mask[rng.permutation(n)][:, rng.permutation(n)]


def _admissible_mask(seed, most):
    """A random admissible mask with n <= most: half of them permuted block
    triangular, the others a random mask joined with a random permutation."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, most + 1))
    if rng.random() < 0.5:
        return rng, _block_triangular(rng, n)
    mask = rng.random((n, n)) < rng.uniform(0.1, 0.7)
    mask[np.arange(n), rng.permutation(n)] = True
    return rng, mask


def _exact_inverse(a):
    """A^-1 of a nonsingular float matrix in exact rational arithmetic, by
    Gauss-Jordan elimination."""
    n = len(a)
    rows = [[Fraction(float(v)) for v in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(a)]
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[c])]
    return [row[n:] for row in rows]


_SEEDS = st.integers(0, 2 ** 32 - 1)


class TestClosure:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_SEEDS)
    def test_closure_is_jacobis_minor_structure(self, seed):
        """closure[k, l] exactly when the mask without row l and column k
        admits a perfect matching: g_kl = +-det(minor) / det(A)."""
        _, mask = _admissible_mask(seed, 8)
        assert (_closure(mask) == minor_structure(mask)).all()

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(_SEEDS)
    def test_exact_zeros_of_a_generic_inverse_are_the_complement(self, seed):
        """On integer entries of up to 2^20 in magnitude, G has an exact
        rational zero exactly outside the closure, and so has _factor's G,
        on the LAPACK path as on the substitution path."""
        rng, mask = _admissible_mask(seed, 6)
        a = rng.integers(1, 2 ** 20, mask.shape) * rng.choice([-1.0, 1.0], mask.shape) * mask
        closure = _closure(mask)
        assert ((np.array(_exact_inverse(a)) != 0) == closure).all()
        assert ((_factor(a[None]).g[0] != 0.0) == closure).all()

    def test_no_perfect_matching_leaves_every_entry(self):
        mask = np.array([[True, True, True], [True, False, False], [True, False, False]])
        assert _closure(mask).all()

    def test_examples(self):
        lower = lower_triangular_pattern(4).mask
        assert (_closure(lower) == lower).all()
        assert _closure(tridiagonal_pattern(5).mask).all()
        # the anti-diagonal matching puts the columns back: the inverse of a
        # permutation matrix is its transpose
        swap = np.eye(3, dtype=bool)[::-1]
        assert (_closure(swap) == swap.T).all()


def _draws(pattern, count):
    n = pattern.n
    model = GaussianModel(pattern=pattern, center=PatternedMatrix(pattern, np.zeros((n, n))),
                          sigma=1.0, center_rhs=np.ones(n))
    return sample_batch(model, 3, 0, count)


@pytest.mark.parametrize("pattern, quantity", [
    (lower_triangular_pattern(30), "inv"), (lower_triangular_pattern(30), "solve"),
    (tridiagonal_pattern(30), "inv")])
def test_no_infinite_condition_on_regular_draws(pattern, quantity):
    """n = 30, seed 3, 512 draws: every draw is regular, and no structurally
    nonzero entry of G or x is exactly zero, so no condition is +inf (a
    tolerance once made 255, 62 and 277 of them +inf)."""
    stack, rhs = _draws(pattern, 512)
    got = batch_cond_inverse(stack) if quantity == "inv" else batch_cond_solve(stack, rhs)
    assert np.isfinite(got).all()


def test_small_inverse_entries_of_a_tridiagonal_matrix():
    """tridiag(-1, 4, -1) at n = 20: |g_1,20| is 1.3e-11 times |g_11|, and
    every entry of cond_inverse_entries is within 1e-9 of the exact rational
    value (|G| |A| |G|)_kl / |g_kl| (once +inf at six corner entries)."""
    n = 20
    a = 4.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    g = [[abs(v) for v in row] for row in _exact_inverse(a)]
    ga = [[sum(row[i] * abs(int(a[i, j])) for i in range(max(0, j - 1), min(n, j + 2)))
           for j in range(n)] for row in g]
    exact = np.array([[float(sum(ga[k][j] * g[j][l] for j in range(n)) / g[k][l])
                       for l in range(n)] for k in range(n)])
    got = cond_inverse_entries(a)
    assert g[0][n - 1] < Fraction(1, 10 ** 10) * g[0][0]
    assert np.isfinite(got).all()
    assert np.abs(got / exact - 1.0).max() <= 1e-9


@pytest.mark.parametrize("n, seed", [(5, 34), (6, 41), (7, 273), (8, 105)])
@pytest.mark.parametrize("quantity", ["inv", "solve"])
def test_oracle_zero_set_on_the_lapack_path(n, seed, quantity):
    """Permuted block-triangular A with at most n + 4 entries (and b with two
    nonzeros) at n > 4, where the oracle's trials run on LAPACK and LAPACK
    leaves round-off where A^-1 is structurally zero: the oracle's zeros are
    the closed forms' zeros, and elsewhere the two agree to 1e-3. With d
    entries that carry a sign, 2^(d + 4) random sign patterns miss none of
    the 2^d with a probability below 2^d e^-16."""
    rng = np.random.default_rng(seed)
    mask = _block_triangular(rng, n)
    a = rng.uniform(1.0, 2.0, (n, n)) * rng.choice([-1.0, 1.0], (n, n)) * mask
    assert mask.sum() <= n + 4 and (np.linalg.inv(a) * ~minor_structure(mask)).any()
    b = np.zeros(n)
    b[rng.permutation(n)[:2]] = rng.uniform(1.0, 2.0, 2)
    a = PatternedMatrix(pattern_from_mask(mask), a)
    signed = mask.sum() + (2 if quantity == "solve" else 0)
    closed = cond_inverse_entries(a) if quantity == "inv" else cond_solve_entries(a, b)
    got = oracle_condition(quantity, a, b if quantity == "solve" else None, exhaustive_limit=0,
                           random_trials=2 ** (signed + 4))
    zero = closed == 0.0
    assert zero.any() and not zero.all()
    assert ((got == 0.0) == zero).all()
    assert np.abs(got[~zero] / closed[~zero] - 1.0).max() <= 1e-3


def test_kernels_apply_the_rule_member_by_member(monkeypatch):
    """A stack over five tiles of three members mixes dense, tridiagonal,
    lower-triangular and reducible non-lower members, some reducible ones in
    a tile with a dense first member; every kernel gives each member the bits
    of its batch of one, so no tile's mask comes from another member."""
    rng = np.random.default_rng(75)
    n = 6
    dense = rng.standard_normal((n, n))
    tri = rng.standard_normal((n, n)) * tridiagonal_pattern(n).mask
    lower = np.tril(rng.standard_normal((n, n)))
    # rows of a lower-triangular matrix reversed: LAPACK pivots and leaves
    # round-off where the inverse is structurally zero
    reducible = [np.tril(rng.uniform(1.0, 2.0, (n, n)))[::-1] for _ in range(4)]
    assert any((np.linalg.inv(r) * ~_closure(r != 0.0)).any() for r in reducible)
    members = [dense, reducible[0], tri, dense * 2.5, reducible[1], lower,
               tri[::-1], reducible[2], dense[::-1], lower * 3.0, reducible[3], tri * 0.5,
               dense.T, lower.T, reducible[0] * 1.5]
    stack = np.stack(members)
    rhs = rng.standard_normal((len(stack), n))
    rhs[:, 1] = 0.0
    monkeypatch.setattr(conditioning, "_TILE_BYTES", 3 * 8 * n * n)
    for kernel, operands in ((batch_cond_det, (stack,)), (batch_cond_inverse, (stack,)),
                             (batch_cond_inverse_entries, (stack,)),
                             (batch_cond_solve_entries, (stack, rhs)),
                             (batch_cond_solve, (stack, rhs))):
        whole = kernel(*operands)
        for i in range(len(stack)):
            alone = kernel(*(x[i:i + 1] for x in operands))
            assert whole[i:i + 1].tobytes() == alone.tobytes(), (kernel.__name__, i)
