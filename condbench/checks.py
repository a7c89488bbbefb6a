"""Correctness checks built from properties that any correct program satisfies.

Each check returns a list of problems; an empty list means the output
passed. Outputs are compared byte for byte only with other runs of the same
input (determinism and worker invariance), never with a stored output: drift
against the recorded baseline digest is reported on its own and is not a
failure. The package is imported inside the checks because the runner puts
the checkout's src/ on the path only once it has found it there.
"""

from __future__ import annotations

import math

FAIL_EXIT = 3  # exit code of a failed theoretical check


def exit_problems(code: int, expected: int) -> list:
    if code != expected:
        return [f"exit code {code}, expected {expected}"]
    return []


def same_bytes_problems(first: bytes, second: bytes, what: str) -> list:
    if first != second:
        return [f"{what}: outputs differ ({len(first)} vs {len(second)} bytes)"]
    return []


def _tail(text: str, spec: dict, seed: int):
    from sparsecond import parse_tail_csv

    est = parse_tail_csv(text)
    problems = []
    if est.to_csv_text() != text:
        problems.append("tail CSV does not round-trip through parse_tail_csv")
    wanted = sorted(float(t) for t in str(spec["thresholds"]).replace(",", " ").split())
    if list(est.thresholds) != wanted:
        problems.append(f"thresholds {est.thresholds} != spec {wanted}")
    counts = est.exceed_counts
    if any(a < b for a, b in zip(counts, counts[1:])):
        problems.append(f"exceed counts increase with the threshold: {counts}")
    if any(not est.singular_count <= c <= est.samples for c in counts):
        problems.append("an exceed count lies outside [singular_count, samples]")
    if any(e != c / est.samples for e, c in zip(est.empirical, counts)):
        problems.append("empirical frequency is not exceed_count / samples")
    fail = any(b < 1.0 and w > b for w, b in zip(est.wilson_upper, est.theoretical))
    return problems, est.samples, est.seed, FAIL_EXIT if fail else 0


def _logexp(text: str, spec: dict, seed: int):
    from sparsecond import parse_logexp_csv

    est = parse_logexp_csv(text)
    problems = []
    if est.to_csv_text() != text:
        problems.append("logexp CSV does not round-trip through parse_logexp_csv")
    if est.used_samples + est.singular_count != est.samples:
        problems.append("used_samples + singular_count != samples")
    if est.used_samples > 0 and not math.isfinite(est.mean):
        problems.append(f"mean {est.mean} is not finite over {est.used_samples} samples")
    if not est.std_error >= 0.0:
        problems.append(f"negative std_error {est.std_error}")
    return problems, est.samples, est.seed, FAIL_EXIT if est.mean > est.theoretical else 0


ACCURACY_HEADER = "seed,n,sigma,p,rel_error,lop,omega,backward_bound,lop_prediction"


def _accuracy(text: str, spec: dict, seed: int):
    from sparsecond.fplab import LOP_SLACK_DIGITS, smoothed_lop_bound

    lines = text.split("\n")
    if lines[0] != ACCURACY_HEADER or lines[-1] != "":
        raise ValueError("not an accuracy CSV")
    rows = [line.split(",") for line in lines[1:-1]]
    if any(len(r) != 9 for r in rows):
        raise ValueError("accuracy CSV row without 9 fields")
    n, p, sigma = int(spec["n"]), int(spec["precision_bits"]), float(spec["sigma"])
    problems = []
    constants = (str(seed), str(n), format(sigma, ".17g"), str(p))
    if {tuple(r[:4]) for r in rows} != {constants}:
        problems.append("seed, n, sigma or p column differs from the input")
    rel, lop, omega, bb, pred = ([float(r[i]) for r in rows] for i in range(4, 9))
    eps = 2.0 ** -p
    for r, l in zip(rel, lop):
        want = math.inf if math.isinf(r) else (max(0.0, math.log10(r / eps)) if r > 0.0 else 0.0)
        if not (l == want or abs(l - want) <= 1e-12 * max(1.0, abs(want))):
            problems.append(f"lop {l} is not the digits lost at rel_error {r}")
            break
    bound = 2.0 * math.log2(n) * eps
    if any(b != bound for b in bb):
        problems.append("backward_bound column is not 2 log2(n) 2^-p")
    if any(not w >= 0.0 for w in omega) or any(not r >= 0.0 for r in rel):
        problems.append("negative or NaN rel_error or omega")
    samples = len(rows)
    usable = [(l, q) for l, q in zip(lop, pred) if math.isfinite(l) and math.isfinite(q)]
    backward_ok = (sum(w > bound for w in omega) <= 0.001 * samples
                   and not any(w > 2.0 * bound for w in omega))
    mean_lop = sum(l for l, _ in usable) / len(usable) if usable else math.nan
    lop_ok = (sum(l > q + LOP_SLACK_DIGITS for l, q in usable) <= 0.001 * samples
              and mean_lop <= smoothed_lop_bound(n, sigma) + LOP_SLACK_DIGITS)
    return problems, samples, seed, 0 if backward_ok and lop_ok else FAIL_EXIT


_PARSERS = {"tail": _tail, "logexp": _logexp, "accuracy": _accuracy}


def monte_carlo_problems(command: str, code: int, csv: bytes, spec: dict, seed: int) -> list:
    """Check one stochastic CLI run: its CSV must parse and satisfy the
    command's invariants, cover the requested samples and seed, and the exit
    code must be the verdict the CSV implies (0 pass, 3 failed check)."""
    try:
        problems, samples, got_seed, verdict = _PARSERS[command](csv.decode("utf-8"), spec, seed)
    except (ValueError, IndexError, UnicodeDecodeError) as exc:
        return [f"{command} CSV unreadable: {exc}"] + exit_problems(code, 0)
    if samples != int(spec["samples"]):
        problems.append(f"CSV covers {samples} samples, spec asks for {spec['samples']}")
    if got_seed != seed:
        problems.append(f"CSV seed {got_seed} != {seed}")
    return problems + exit_problems(code, verdict)


ORACLE_RTOL = 1e-3


def _agree(oracle, closed, what: str) -> list:
    flat_o = [float(v) for v in _flatten(oracle)]
    flat_c = [float(v) for v in _flatten(closed)]
    if len(flat_o) != len(flat_c):
        return [f"{what}: oracle has {len(flat_o)} values, closed form {len(flat_c)}"]
    for o, c in zip(flat_o, flat_c):
        if math.isinf(o) or math.isinf(c):
            if o != c:
                return [f"{what}: oracle {o} vs closed form {c}"]
        elif not abs(o - c) <= ORACLE_RTOL * abs(c):
            return [f"{what}: oracle {o} and closed form {c} differ by more than {ORACLE_RTOL:g}"]
    return []


def _dominated(values, bounds, what: str) -> list:
    bad = sum(1 for v, b in zip(_flatten(values), _flatten(bounds))
              if math.isfinite(v) and math.isfinite(b) and v > b * (1.0 + 1e-12))
    return [f"{what}: {bad} finite values exceed their finite bound"] if bad else []


def _flatten(x):
    if isinstance(x, list):
        for item in x:
            yield from _flatten(item)
    else:
        yield x


def exact_problems(code: int, data: dict, n: int) -> list:
    """Check the exact-tridiag job: the oracle agrees with the closed forms,
    each bound dominates its condition number wherever both are finite, and
    the entry arrays have the instance's shape."""
    problems = exit_problems(code, 0)
    if not data:
        return problems + ["the job wrote no exact.json"]
    shapes = {"c_inv_entries": n * n, "bound_inv_entries": n * n,
              "c_solve_entries": n, "bound_solve_entries": n}
    for key, size in shapes.items():
        count = sum(1 for _ in _flatten(data[key]))
        if count != size:
            problems.append(f"{key} has {count} values, expected {size}")
    problems += _dominated(data["c_inv_entries"], data["bound_inv_entries"], "minor bound")
    problems += _dominated(data["c_solve_entries"], data["bound_solve_entries"],
                           "column-replacement bound")
    problems += _agree(data["oracle_solve"], data["closed_solve"], "oracle solve")
    problems += _agree(data["oracle_inv"], data["closed_inv"], "oracle inv")
    return problems


def inf_count(data: dict) -> int:
    """+inf entries among the exact instance's inverse and solve conditions."""
    return sum(1 for key in ("c_inv_entries", "c_solve_entries")
               for v in _flatten(data[key]) if v == math.inf)
