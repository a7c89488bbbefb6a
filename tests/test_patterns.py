import itertools

import numpy as np
import pytest

from sparsecond.patterns import (
    SparsityPattern,
    full_pattern,
    is_admissible,
    lower_triangular_pattern,
    pattern_from_mask,
    read_pattern_file,
    tridiagonal_pattern,
    write_pattern_file,
)

from explicit_bounds import drop_row_col, widen_column


def test_sizes():
    assert len(full_pattern(3)) == 9
    assert len(lower_triangular_pattern(4)) == 10
    assert len(tridiagonal_pattern(4)) == 10
    assert len(tridiagonal_pattern(1)) == 1


def test_positions_validated():
    with pytest.raises(ValueError):
        SparsityPattern(2, frozenset({(0, 1)}))
    with pytest.raises(ValueError):
        SparsityPattern(2, frozenset({(3, 1)}))
    with pytest.raises(ValueError):
        SparsityPattern(2, frozenset())
    with pytest.raises(ValueError):
        SparsityPattern(0, frozenset({(1, 1)}))


def test_mask_and_index_arrays():
    pat = lower_triangular_pattern(3)
    expected = np.tril(np.ones((3, 3), dtype=bool))
    assert np.array_equal(pat.mask, expected)
    rows, cols = pat.index_arrays
    assert np.all(rows >= cols)
    assert len(rows) == len(pat)


def test_admissible_full():
    assert is_admissible(full_pattern(4))


def test_admissible_lower_triangular():
    assert is_admissible(lower_triangular_pattern(3))


def test_inadmissible_empty_column():
    # column 1 is identically zero, so every matrix in the class is singular
    assert not is_admissible(SparsityPattern(2, frozenset({(1, 2), (2, 2)})))


def _admissible_brute_force(pattern):
    # a pattern admits an invertible matrix iff it contains a permutation support
    n = pattern.n
    for perm in itertools.permutations(range(1, n + 1)):
        if all((i, perm[i - 1]) in pattern.positions for i in range(1, n + 1)):
            return True
    return False


def test_admissible_matches_brute_force():
    rng = np.random.default_rng(20240501)
    for n in range(1, 6):
        for _ in range(40):
            mask = rng.random((n, n)) < rng.uniform(0.15, 0.9)
            pat = pattern_from_mask(mask)
            if pat is None:
                continue
            assert is_admissible(pat) == _admissible_brute_force(pat)


def test_widen_column():
    pat = widen_column(lower_triangular_pattern(3), 3)
    assert (1, 3) in pat and (2, 3) in pat


def test_drop_row_col():
    pat = drop_row_col(tridiagonal_pattern(3), 2, 2)
    # remaining corners (1,1) and (3,3) reindex to a 2x2 diagonal
    assert pat.positions == frozenset({(1, 1), (2, 2)})


def test_pattern_file_round_trip(tmp_path):
    pat = tridiagonal_pattern(5)
    path = tmp_path / "pat.txt"
    write_pattern_file(pat, path)
    back = read_pattern_file(path)
    assert back == pat


def test_pattern_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3\n1 2 3\n")
    with pytest.raises(ValueError):
        read_pattern_file(path)
