"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines.
"""

import math
import time

import numpy as np
import pytest

from sparsecond.cli import main as cli_main
from sparsecond.conditioning import (
    batch_cond_det,
    batch_cond_inverse_entries,
    batch_cond_solve_entries,
    cond_det,
    cond_inverse,
    cond_inverse_entries,
    cond_solve,
    cond_solve_entries,
    oracle_condition,
)
from sparsecond.fplab import (
    PrecisionConfig,
    backward_error_omega,
    forward_substitution_batch,
    run_accuracy_experiment,
)
from sparsecond.linalg import PatternedMatrix
from sparsecond.patterns import (
    full_pattern,
    lower_triangular_pattern,
    tridiagonal_pattern,
)
from sparsecond.smoothed import (
    GaussianModel,
    estimate_logexp,
    estimate_tail,
    sample_batch,
    verify_ratio_tail,
)


def _verdict(num, name, ok, detail, elapsed, limit):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} {name}: {status} ({detail}; {elapsed:.1f}s / limit {limit:.0f}s)")
    assert ok, f"criterion {num} ({name}): {detail}"
    assert elapsed < limit, f"criterion {num} exceeded its runtime limit"


def _zero_center_model(pattern, sigma=1.0, rhs=False):
    n = pattern.n
    return GaussianModel(pattern=pattern,
                         center=PatternedMatrix(pattern, np.zeros((n, n))),
                         sigma=sigma,
                         center_rhs=np.zeros(n) if rhs else None)


def _phi(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def test_criterion_1_oracle_equivalence():
    """Closed forms agree with the finite-perturbation oracle within 1e-3."""
    start = time.time()
    rng = np.random.default_rng(101)
    # instance families are sized so the oracle enumerates all sign patterns
    # (perturbed-entry count at most 12); the random-sign fallback only lower
    # bounds the supremum and cannot certify 1e-3 agreement
    families = [
        (full_pattern(2), 15, True),
        (full_pattern(3), 15, True),
        (lower_triangular_pattern(2), 10, True),
        (lower_triangular_pattern(3), 15, True),
        (lower_triangular_pattern(4), 15, False),
        (tridiagonal_pattern(3), 15, True),
        (tridiagonal_pattern(4), 15, False),
    ]
    delta = 1e-6
    count = 0
    worst = 0.0

    def _agree(closed, observed):
        nonlocal worst
        closed = np.atleast_1d(np.asarray(closed, dtype=float))
        observed = np.atleast_1d(np.asarray(observed, dtype=float))
        zero = closed == 0.0
        assert np.all(observed[zero] == 0.0)
        rel = np.abs(closed[~zero] - observed[~zero]) / closed[~zero]
        if rel.size:
            worst = max(worst, float(rel.max()))
        assert np.all(rel <= 1e-3)

    for pattern, instances, with_solve in families:
        n = pattern.n
        for _ in range(instances):
            while True:
                entries = rng.uniform(1.0, 2.0, (n, n)) * rng.choice([-1.0, 1.0], (n, n))
                entries = entries * pattern.mask
                if abs(np.linalg.det(entries)) > 1e-3 and np.linalg.cond(entries) < 30:
                    break
            a = PatternedMatrix(pattern, entries)
            _agree(cond_det(a), oracle_condition("det", a, delta=delta))
            _agree(cond_inverse_entries(a), oracle_condition("inv", a, delta=delta))
            if with_solve:
                b = rng.uniform(1.0, 2.0, n) * rng.choice([-1.0, 1.0], n)
                _agree(cond_solve_entries(a, b), oracle_condition("solve", a, b=b, delta=delta))
            count += 1
    _verdict(1, "oracle equivalence", count >= 100,
             f"{count} instances, worst rel diff {worst:.2e} <= 1e-3",
             time.time() - start, 60)


def test_criterion_2_dominance():
    """Entry conditions never exceed their determinant-based bounds."""
    start = time.time()
    n, samples, slack = 4, 10_000, 1e-9
    violations = 0
    worst = -math.inf
    for pat_seed, pattern in ((201, lower_triangular_pattern(n)), (202, full_pattern(n))):
        model = _zero_center_model(pattern, rhs=True)
        offset = 0
        stacks, rhss = [], []
        chunk = 0
        while offset < samples:
            cnt = min(4096, samples - offset)
            s, r = sample_batch(model, pat_seed, chunk, cnt)
            stacks.append(s)
            rhss.append(r)
            offset += cnt
            chunk += 1
        stack = np.concatenate(stacks)
        rhs = np.concatenate(rhss)
        c_det_all = batch_cond_det(stack)
        inv_entries = batch_cond_inverse_entries(stack)
        for k in range(n):
            for l in range(n):
                minors = np.delete(np.delete(stack, l, axis=1), k, axis=2)
                bound = c_det_all + batch_cond_det(minors)
                lhs = inv_entries[:, k, l]
                finite = np.isfinite(bound)
                violations += int(((~np.isfinite(lhs)) & finite).sum())
                gap = lhs[finite & np.isfinite(lhs)] / bound[finite & np.isfinite(lhs)] - 1.0
                if gap.size:
                    worst = max(worst, float(gap.max()))
                violations += int((gap > slack).sum())
        solve_entries = batch_cond_solve_entries(stack, rhs)
        for k in range(n):
            replaced = stack.copy()
            replaced[:, :, k] = rhs
            bound = c_det_all + batch_cond_det(replaced)
            lhs = solve_entries[:, k]
            finite = np.isfinite(bound)
            violations += int(((~np.isfinite(lhs)) & finite).sum())
            gap = lhs[finite & np.isfinite(lhs)] / bound[finite & np.isfinite(lhs)] - 1.0
            if gap.size:
                worst = max(worst, float(gap.max()))
            violations += int((gap > slack).sum())
    _verdict(2, "minor/replacement bound dominance", violations == 0,
             f"0 required, {violations} violations, worst rel gap {worst:.2e}",
             time.time() - start, 60)


def test_criterion_3_ratio_tail():
    """Gaussian ratio tail: below the bound and on the exact probability."""
    start = time.time()
    samples = 1_000_000
    worst_z = 0.0
    ok = True
    run = 0
    for mu in (0.0, 1.0, -1.0):
        for varsigma in (0.5, 1.0):
            est = verify_ratio_tail(mu, varsigma, [2.0, 5.0, 10.0, 50.0],
                                    samples, seed=300 + run)
            run += 1
            for t, emp, bound in zip(est.thresholds, est.empirical, est.theoretical):
                exact = (_phi((-t / (t + 1) - mu) / varsigma)
                         - _phi((-t / (t - 1) - mu) / varsigma))
                se = math.sqrt(max(exact * (1 - exact), 1e-12) / samples)
                worst_z = max(worst_z, abs(emp - exact) / se)
                ok &= emp <= bound
                ok &= abs(emp - exact) <= 3 * se
    _verdict(3, "gaussian ratio tail", ok,
             f"6 parameter pairs x 4 thresholds, worst |emp-exact|/se {worst_z:.2f} <= 3",
             time.time() - start, 60)


def test_criterion_4_det_tail():
    """Determinant tail boundedness on the 4x4 triangular pattern."""
    start = time.time()
    pattern = lower_triangular_pattern(4)
    thresholds = [300.0, 500.0, 1000.0, 5000.0]
    ok = True
    detail = []
    for name, center in (("zero", PatternedMatrix(pattern, np.zeros((4, 4)))),
                         ("identity", PatternedMatrix.identity(4, pattern))):
        model = GaussianModel(pattern=pattern, center=center, sigma=1.0)
        est = estimate_tail(model, "det", thresholds, 100_000, seed=400)
        assert all(b < 1.0 for b in est.theoretical)  # all non-vacuous
        ok &= est.passed()
        detail.append(f"{name}: max wilson {max(est.wilson_upper):.2e}")
    _verdict(4, "determinant tail bound", ok,
             "; ".join(detail) + f" vs min bound {min(est.theoretical):.3f}",
             time.time() - start, 120)


def test_criterion_5_triangular_solve_tail_and_logexp():
    """Triangular solve condition: tail bound and expected-log bound."""
    start = time.time()
    model = _zero_center_model(lower_triangular_pattern(10), rhs=True)
    est = estimate_tail(model, "solve", [1e6, 1e7], 10_000, seed=500)
    assert all(b < 1.0 for b in est.theoretical)
    le = estimate_logexp(model, "solve", math.e, 10_000, seed=501)
    assert le.theoretical == pytest.approx(14.856, abs=5e-3)
    _verdict(5, "triangular solve tail and log-expectation", est.passed() and le.passed(),
             f"max wilson {max(est.wilson_upper):.2e} vs bound {min(est.theoretical):.3f}; "
             f"mean ln cond {le.mean:.2f} <= 14.856",
             time.time() - start, 120)


def test_criterion_6_inverse_tail():
    """Inversion condition tail boundedness on the full 4x4 pattern."""
    start = time.time()
    model = _zero_center_model(full_pattern(4))
    est = estimate_tail(model, "inv", [1e5, 1e6], 10_000, seed=600)
    assert all(b < 1.0 for b in est.theoretical)
    _verdict(6, "inversion tail bound", est.passed(),
             f"wilson {max(est.wilson_upper):.2e} vs bound {min(est.theoretical):.4f}",
             time.time() - start, 120)


def test_criterion_7_backward_error():
    """Emulated substitution stays componentwise backward stable."""
    start = time.time()
    per_combo = 112  # 9 combos x 112 = 1008 >= 1000 instances
    soft_viol = 0
    hard_viol = 0
    total = 0
    rng = np.random.default_rng(700)
    for n in (8, 32, 128):
        for p in (16, 24, 40):
            cfg = PrecisionConfig(p)
            L = np.tril(rng.standard_normal((per_combo, n, n)))
            diag = np.abs(L[:, np.arange(n), np.arange(n)])
            while (diag < 1e-3).any():
                i, j = np.nonzero(diag < 1e-3)
                L[i, j, j] = rng.standard_normal(len(i))
                diag = np.abs(L[:, np.arange(n), np.arange(n)])
            b = rng.standard_normal((per_combo, n))
            x_hat = forward_substitution_batch(L, b, cfg)
            bound = 2.0 * math.log2(n) * cfg.eps_mach
            for i in range(per_combo):
                omega = backward_error_omega(L[i], b[i], x_hat[i])
                soft_viol += omega > bound
                hard_viol += omega > 2.0 * bound
                total += 1
    ok = soft_viol <= 0.001 * total and hard_viol == 0
    _verdict(7, "backward error of emulated substitution", ok,
             f"{total} solves, {soft_viol} above 2*log2(n)*eps "
             f"(allowed {int(0.001 * total)}), {hard_viol} above twice that",
             time.time() - start, 60)


def test_criterion_8_loss_of_precision():
    """Per-sample and mean loss of precision against the decomposition."""
    start = time.time()
    model = _zero_center_model(lower_triangular_pattern(10), rhs=True)
    summary = run_accuracy_experiment(model, PrecisionConfig(24), 10_000, seed=800)
    per_sample_ok = summary.lop_violations <= 0.001 * summary.samples
    mean_ok = summary.mean_lop <= 7.274 + 0.5
    _verdict(8, "loss-of-precision decomposition", per_sample_ok and mean_ok,
             f"{summary.lop_violations} samples above prediction+0.5 "
             f"(allowed {int(0.001 * summary.samples)}); mean LoP {summary.mean_lop:.3f} "
             f"<= 7.774",
             time.time() - start, 120)


def test_criterion_9_homogeneity():
    """All three condition numbers are invariant under joint scaling."""
    start = time.time()
    rng = np.random.default_rng(900)
    worst = 0.0
    for _ in range(100):
        a = PatternedMatrix.dense(rng.standard_normal((3, 3)))
        b = rng.standard_normal(3)
        base = (cond_det(a), cond_inverse(a), cond_solve(a, b))
        for lam in (-3.0, 0.25, 10.0):
            scaled = PatternedMatrix.dense(lam * a.entries)
            got = (cond_det(scaled), cond_inverse(scaled), cond_solve(scaled, lam * b))
            for u, v in zip(base, got):
                worst = max(worst, abs(u - v) / abs(v))
    _verdict(9, "scale invariance", worst <= 1e-12,
             f"100 instances x 3 scales, worst rel drift {worst:.2e} <= 1e-12",
             time.time() - start, 60)


def test_criterion_10_determinism(tmp_path):
    """Stochastic commands are pure functions of (spec, seed)."""
    start = time.time()
    tail_spec = tmp_path / "tail.txt"
    tail_spec.write_text(
        "pattern = lower_triangular\nn = 4\ncenter = zero\nsigma = 1\n"
        "quantity = det\nthresholds = 300,500\nsamples = 20000\nseed = 1000\n")
    acc_spec = tmp_path / "acc.txt"
    acc_spec.write_text(
        "pattern = lower_triangular\nn = 6\ncenter = zero\ncenter_rhs = zero\n"
        "sigma = 1\nprecision_bits = 24\nsamples = 1000\nseed = 1001\n")
    outputs = []
    for name, spec in (("tail", tail_spec), ("accuracy", acc_spec)):
        files = [tmp_path / f"{name}{i}.csv" for i in range(3)]
        assert cli_main([name, "--spec", str(spec), "--out", str(files[0])]) == 0
        assert cli_main([name, "--spec", str(spec), "--out", str(files[1])]) == 0
        assert cli_main([name, "--spec", str(spec), "--out", str(files[2]),
                         "--workers", "2"]) == 0
        blobs = [f.read_bytes() for f in files]
        outputs.append(blobs[0] == blobs[1] == blobs[2])
    _verdict(10, "seeded determinism across reruns and workers", all(outputs),
             "tail and accuracy CSVs byte-identical for reruns and workers 1 vs 2",
             time.time() - start, 120)
