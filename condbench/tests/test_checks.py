"""The benchmark's correctness check must count tampered, nondeterministic and
wrongly exiting outputs as failures.

    python3 -m pytest condbench/tests
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "condbench")]

import checks  # noqa: E402
from sparsecond import (  # noqa: E402
    GaussianModel,
    PatternedMatrix,
    PrecisionConfig,
    estimate_logexp,
    estimate_tail,
    full_pattern,
    lower_triangular_pattern,
    run_accuracy_experiment,
)

SEED = 1
TAIL_SPEC = {"thresholds": "20, 100, 1000", "samples": 200}
LOGEXP_SPEC = {"samples": 200}
ACCURACY_SPEC = {"n": 4, "precision_bits": 24, "sigma": 1, "samples": 200}


def _model(pattern, rhs):
    n = pattern.n
    return GaussianModel(pattern=pattern, center=PatternedMatrix(pattern, np.zeros((n, n))),
                         sigma=1.0, center_rhs=rhs)


@pytest.fixture(scope="module")
def runs():
    """CSV bytes and exit code of each stochastic command, decided as the CLI does."""
    dense = _model(full_pattern(3), None)
    tri = _model(lower_triangular_pattern(4), np.zeros(4))
    tail = estimate_tail(dense, "inv", [20, 100, 1000], 200, SEED)
    logexp = estimate_logexp(dense, "det", math.e, 200, SEED)
    accuracy = run_accuracy_experiment(tri, PrecisionConfig(24), 200, SEED)
    passed = accuracy.backward_check_passed() and accuracy.lop_check_passed()
    return {
        "tail": (tail.to_csv_text().encode(), 3 if "FAIL" in tail.verdicts() else 0),
        "logexp": (logexp.to_csv_text().encode(), 3 if logexp.mean > logexp.theoretical else 0),
        "accuracy": (accuracy.to_csv_text().encode(), 0 if passed else 3),
    }


SPECS = {"tail": TAIL_SPEC, "logexp": LOGEXP_SPEC, "accuracy": ACCURACY_SPEC}


def _problems(runs, command, csv=None, code=None):
    """Check an output of `command`; by default the untouched run's CSV and exit code."""
    run_csv, run_code = runs[command]
    return checks.monte_carlo_problems(command, run_code if code is None else code,
                                       run_csv if csv is None else csv, SPECS[command], SEED)


@pytest.mark.parametrize("command", ["tail", "logexp", "accuracy"])
def test_untampered_output_passes(runs, command):
    assert _problems(runs, command) == []


def _replace_field(csv: bytes, row: int, col: int, value: str) -> bytes:
    lines = csv.decode().split("\n")
    fields = lines[row].split(",")
    fields[col] = value
    lines[row] = ",".join(fields)
    return "\n".join(lines).encode()


def test_tail_counts_increasing_with_threshold_fail(runs):
    csv = runs["tail"][0]
    larger = int(csv.decode().split("\n")[1].split(",")[6]) + 1
    assert _problems(runs, "tail", _replace_field(csv, 3, 6, str(larger)))


def test_tail_truncated_fails(runs):
    assert _problems(runs, "tail", runs["tail"][0][:-40])


def test_logexp_sample_accounting_tampered_fails(runs):
    assert _problems(runs, "logexp", _replace_field(runs["logexp"][0], 1, 9, "150"))


def test_accuracy_lop_tampered_fails(runs):
    assert _problems(runs, "accuracy", _replace_field(runs["accuracy"][0], 5, 5, "7.25"))


def test_accuracy_missing_row_fails(runs):
    lines = runs["accuracy"][0].decode().split("\n")
    assert _problems(runs, "accuracy", "\n".join(lines[:3] + lines[4:]).encode())


def test_nondeterministic_pair_fails(runs):
    first = runs["tail"][0]
    second = _replace_field(first, 2, 7, "0.5")
    assert checks.same_bytes_problems(first, first, "rerun") == []
    assert checks.same_bytes_problems(first, second, "rerun")


@pytest.mark.parametrize("command", ["tail", "logexp", "accuracy"])
@pytest.mark.parametrize("code", [1, 2, -9])
def test_wrong_exit_code_fails(runs, command, code):
    assert _problems(runs, command, code=code)


@pytest.mark.parametrize("command", ["tail", "logexp", "accuracy"])
def test_exit_code_must_match_the_verdict(runs, command):
    flipped = checks.FAIL_EXIT if runs[command][1] == 0 else 0
    assert _problems(runs, command, code=flipped)


def _exact_data():
    return {
        "c_inv_entries": [[1.0, math.inf], [2.0, 3.0]],
        "bound_inv_entries": [[2.0, 5.0], [2.5, 3.0]],
        "c_solve_entries": [1.0, 2.0],
        "bound_solve_entries": [1.5, 2.0],
        "oracle_solve": [4.0001, 5.0],
        "closed_solve": [4.0, 5.0],
        "oracle_inv": [[1.0, math.inf]],
        "closed_inv": [[1.0, math.inf]],
    }


def test_exact_checks():
    assert checks.exact_problems(0, _exact_data(), 2) == []
    assert checks.exact_problems(1, _exact_data(), 2)
    assert checks.exact_problems(0, {}, 2)
    violated = _exact_data()
    violated["c_inv_entries"][1][0] = 2.6
    assert checks.exact_problems(0, violated, 2)
    disagree = _exact_data()
    disagree["oracle_solve"][0] = 4.01
    assert checks.exact_problems(0, disagree, 2)
    misplaced_inf = _exact_data()
    misplaced_inf["oracle_inv"][0][1] = 7.0
    assert checks.exact_problems(0, misplaced_inf, 2)
    assert checks.inf_count(_exact_data()) == 1
