"""Command-line entry point.

Subcommands: cond, tail, logexp, prop4, accuracy, bounds. Stochastic commands
read a flat key=value spec file and are pure functions of (spec, seed): reruns
produce byte-identical CSV output, independent of the worker count.

Exit codes: 0 success, 1 computed but degenerate (singular input),
2 invalid input or spec, 3 dimension mismatch or a failed theoretical check.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import fplab, smoothed
from .conditioning import condition_report
from .linalg import PatternedMatrix, read_matrix_file, read_vector_file
from .patterns import NAMED_PATTERNS, SparsityPattern, read_pattern_file

_STOCHASTIC_KEYS = {
    "tail": {"pattern", "n", "center", "center_rhs", "sigma", "quantity",
             "thresholds", "samples", "seed"},
    "logexp": {"pattern", "n", "center", "center_rhs", "sigma", "quantity",
               "samples", "seed", "beta"},
    "prop4": {"mu", "sigma", "thresholds", "samples", "seed"},
    "accuracy": {"pattern", "n", "center", "center_rhs", "sigma",
                 "precision_bits", "samples", "seed"},
}


class SpecError(Exception):
    """Invalid spec file or command arguments (exit code 2)."""


def parse_spec_file(path, allowed: set) -> dict:
    """Parse "key = value" lines; '#' starts a comment, blank lines ignored."""
    spec = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise SpecError(f"cannot read spec file {path}: {exc}") from exc
    for lineno, line in enumerate(raw.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SpecError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in allowed:
            raise SpecError(f"{path}:{lineno}: unknown key {key!r}")
        if key in spec:
            raise SpecError(f"{path}:{lineno}: duplicate key {key!r}")
        spec[key] = value
    return spec


def _spec_float(spec, key, default=None) -> float:
    if key not in spec:
        if default is None:
            raise SpecError(f"missing required key {key!r}")
        return default
    try:
        return float(spec[key])
    except ValueError as exc:
        raise SpecError(f"key {key!r}: not a number: {spec[key]!r}") from exc


def _spec_int(spec, key, default=None) -> int:
    if key not in spec:
        if default is None:
            raise SpecError(f"missing required key {key!r}")
        return default
    try:
        return int(spec[key])
    except ValueError as exc:
        raise SpecError(f"key {key!r}: not an integer: {spec[key]!r}") from exc


def _spec_thresholds(spec) -> list:
    if "thresholds" not in spec:
        raise SpecError("missing required key 'thresholds'")
    try:
        return [float(tok) for tok in spec["thresholds"].replace(",", " ").split()]
    except ValueError as exc:
        raise SpecError(f"bad thresholds: {spec['thresholds']!r}") from exc


def _resolve_pattern(spec) -> SparsityPattern:
    kind = spec.get("pattern", "full")
    if kind.startswith("file:"):
        try:
            pattern = read_pattern_file(kind[5:])
        except (OSError, ValueError) as exc:
            raise SpecError(f"pattern file: {exc}") from exc
        if "n" in spec and _spec_int(spec, "n") != pattern.n:
            raise SpecError(f"spec n={spec['n']} does not match pattern file n={pattern.n}")
        return pattern
    if kind not in NAMED_PATTERNS:
        raise SpecError(f"unknown pattern {kind!r}; use "
                        f"{'|'.join(NAMED_PATTERNS)} or file:<path>")
    n = _spec_int(spec, "n")
    if n < 1:
        raise SpecError(f"n must be positive, got {n}")
    return NAMED_PATTERNS[kind](n)


def _resolve_center(spec, pattern: SparsityPattern) -> PatternedMatrix:
    kind = spec.get("center", "zero")
    n = pattern.n
    if kind == "zero":
        return PatternedMatrix(pattern, np.zeros((n, n)))
    if kind == "identity":
        return PatternedMatrix.identity(n, pattern)
    if kind.startswith("file:"):
        try:
            entries = read_matrix_file(kind[5:])
        except (OSError, ValueError) as exc:
            raise SpecError(f"center file: {exc}") from exc
        if entries.shape != (n, n):
            raise SpecError(f"center file dimension {entries.shape[0]} != pattern n={n}")
        try:
            return PatternedMatrix(pattern, entries)
        except ValueError as exc:
            raise SpecError(f"center file: {exc}") from exc
    raise SpecError(f"unknown center {kind!r}; use zero|identity|file:<path>")


def _resolve_center_rhs(spec, n: int, required: bool):
    kind = spec.get("center_rhs")
    if kind is None:
        return np.zeros(n) if required else None
    if kind == "zero":
        return np.zeros(n)
    if kind == "ones":
        return np.ones(n)
    if kind.startswith("file:"):
        try:
            rhs = read_vector_file(kind[5:])
        except (OSError, ValueError) as exc:
            raise SpecError(f"center_rhs file: {exc}") from exc
        if len(rhs) != n:
            raise SpecError(f"center_rhs length {len(rhs)} != n={n}")
        return rhs
    raise SpecError(f"unknown center_rhs {kind!r}; use zero|ones|file:<path>")


def _build_model(spec, need_rhs: bool) -> smoothed.GaussianModel:
    pattern = _resolve_pattern(spec)
    center = _resolve_center(spec, pattern)
    sigma = _spec_float(spec, "sigma")
    rhs = _resolve_center_rhs(spec, pattern.n, required=need_rhs)
    try:
        return smoothed.GaussianModel(pattern=pattern, center=center, sigma=sigma,
                                      center_rhs=rhs)
    except ValueError as exc:
        raise SpecError(str(exc)) from exc


def _resolve_seed(spec, args) -> int:
    if args.seed is not None:
        seed = args.seed
    elif "seed" in spec:
        seed = _spec_int(spec, "seed")
    else:
        raise SpecError("stochastic command needs a seed (spec key or --seed)")
    if seed < 0:
        raise SpecError(f"seed must be nonnegative, got {seed}")
    return seed


def _write_out(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# subcommands

def cmd_cond(args) -> int:
    try:
        entries = read_matrix_file(args.matrix)
    except (OSError, ValueError) as exc:
        raise SpecError(str(exc)) from exc
    if args.pattern:
        try:
            pattern = read_pattern_file(args.pattern)
        except (OSError, ValueError) as exc:
            raise SpecError(str(exc)) from exc
        if pattern.n != entries.shape[0]:
            print(f"error: pattern n={pattern.n} does not match matrix n={entries.shape[0]}",
                  file=sys.stderr)
            return 3
    else:
        pattern = None
    rhs = None
    if args.rhs:
        try:
            rhs = read_vector_file(args.rhs)
        except (OSError, ValueError) as exc:
            raise SpecError(str(exc)) from exc
        if len(rhs) != entries.shape[0]:
            print(f"error: rhs length {len(rhs)} does not match matrix n={entries.shape[0]}",
                  file=sys.stderr)
            return 3
    try:
        mat = (PatternedMatrix(pattern, entries) if pattern is not None
               else PatternedMatrix.dense(entries))
    except ValueError as exc:
        raise SpecError(str(exc)) from exc
    report = condition_report(mat, rhs)
    sys.stdout.write(report.to_text(entries=args.entries))
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            fh.write(report.CSV_HEADER + "\n" + report.to_csv_row() + "\n")
    return 1 if report.singular else 0


def cmd_tail(args) -> int:
    spec = parse_spec_file(args.spec, _STOCHASTIC_KEYS["tail"])
    quantity = spec.get("quantity", "det")
    model = _build_model(spec, need_rhs=(quantity == "solve"))
    estimate = smoothed.estimate_tail(
        model, quantity, _spec_thresholds(spec),
        _spec_int(spec, "samples"), _resolve_seed(spec, args), workers=args.workers)
    sys.stdout.write(estimate.to_report_text())
    _write_out(args, estimate.to_csv_text())
    return 3 if "FAIL" in estimate.verdicts() else 0


def cmd_logexp(args) -> int:
    spec = parse_spec_file(args.spec, _STOCHASTIC_KEYS["logexp"])
    quantity = spec.get("quantity", "det")
    model = _build_model(spec, need_rhs=(quantity == "solve"))
    estimate = smoothed.estimate_logexp(
        model, quantity, _spec_float(spec, "beta", math.e),
        _spec_int(spec, "samples"), _resolve_seed(spec, args), workers=args.workers)
    sys.stdout.write(estimate.to_report_text())
    _write_out(args, estimate.to_csv_text())
    return 3 if estimate.verdict() == "FAIL" else 0


def cmd_prop4(args) -> int:
    spec = parse_spec_file(args.spec, _STOCHASTIC_KEYS["prop4"])
    estimate = smoothed.verify_ratio_tail(
        _spec_float(spec, "mu"), _spec_float(spec, "sigma"),
        _spec_thresholds(spec), _spec_int(spec, "samples"),
        _resolve_seed(spec, args), workers=args.workers)
    sys.stdout.write(estimate.to_report_text())
    _write_out(args, estimate.to_csv_text())
    return 3 if "FAIL" in estimate.verdicts() else 0


def cmd_accuracy(args) -> int:
    spec = parse_spec_file(args.spec, _STOCHASTIC_KEYS["accuracy"])
    spec.setdefault("pattern", "lower_triangular")
    spec.setdefault("center_rhs", "zero")
    model = _build_model(spec, need_rhs=True)
    try:
        cfg = fplab.PrecisionConfig(_spec_int(spec, "precision_bits"))
    except ValueError as exc:
        raise SpecError(str(exc)) from exc
    summary = fplab.run_accuracy_experiment(
        model, cfg, _spec_int(spec, "samples"), _resolve_seed(spec, args),
        workers=args.workers)
    sys.stdout.write(summary.to_report_text())
    _write_out(args, summary.to_csv_text())
    return 0 if summary.passed() else 3


def cmd_bounds(args) -> int:
    if args.pattern not in NAMED_PATTERNS:
        raise SpecError(f"unknown pattern {args.pattern!r}")
    n = args.n
    if n < 1:
        raise SpecError(f"n must be positive, got {n}")
    sigma = math.inf if args.no_sigma_factor else args.sigma
    if sigma is None:
        raise SpecError("--sigma is required (or pass --no-sigma-factor)")
    if not sigma > 0:
        raise SpecError(f"sigma must be positive, got {sigma}")
    beta = args.beta
    s_size = len(NAMED_PATTERNS[args.pattern](n))
    thresholds = [float(tok) for tok in args.t.replace(",", " ").split()] if args.t else []
    triangular = args.pattern == "lower_triangular"
    lines = [f"bounds: pattern={args.pattern} n={n} S_size={s_size} "
             f"sigma={'inf' if math.isinf(sigma) else f'{sigma:g}'} beta={beta:g}"]
    try:
        for t in thresholds:
            cells = [f"t={t:<12g}",
                     f"det_tail={smoothed.det_tail_bound(s_size, sigma, t):<12.6g}",
                     f"inv_tail={smoothed.inverse_tail_bound(n, s_size, sigma, t):<12.6g}",
                     f"solve_tail={smoothed.solve_tail_bound(n, s_size, sigma, t):<12.6g}"]
            if triangular:
                cells.append(f"triangular_tail={smoothed.triangular_tail_bound(n, sigma, t):.6g}")
            lines.append("  " + " ".join(cells))
        cells = [f"logexp(beta={beta:g})",
                 f"det={smoothed.det_logexp_bound(s_size, sigma, beta):<12.6g}",
                 f"inv={smoothed.inverse_logexp_bound(n, s_size, sigma, beta):<12.6g}",
                 f"solve={smoothed.solve_logexp_bound(n, s_size, sigma, beta):<12.6g}"]
        if triangular:
            cells.append(f"triangular={smoothed.triangular_logexp_bound(n, sigma, beta):.6g}")
        lines.append("  " + " ".join(cells))
    except ValueError as exc:
        raise SpecError(str(exc)) from exc
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsecond",
        description="Componentwise condition numbers on sparsity patterns: exact values, "
                    "smoothed Monte Carlo experiments, theoretical bound tables, and a "
                    "reduced-precision forward-substitution accuracy lab.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cond", help="condition numbers of one matrix (and optional rhs)")
    p.add_argument("matrix", help="matrix file: first line n, then n rows")
    p.add_argument("--rhs", help="vector file: first line n, then n values")
    p.add_argument("--pattern", help="pattern file (default: full pattern)")
    p.add_argument("--entries", action="store_true", help="print per-entry values")
    p.add_argument("--csv", help="also write a one-row CSV file")
    p.set_defaults(func=cmd_cond)

    for name, func, help_text in (
            ("tail", cmd_tail, "Monte Carlo tail frequencies vs the theoretical bound"),
            ("logexp", cmd_logexp, "Monte Carlo log-expectation vs the theoretical bound"),
            ("prop4", cmd_prop4, "tail of |X| > t|X+1| for Gaussian X vs its bound"),
            ("accuracy", cmd_accuracy, "reduced-precision forward-substitution accuracy")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--spec", required=True, help="flat key=value spec file")
        p.add_argument("--seed", type=int, help="override the spec seed")
        p.add_argument("--out", help="write the CSV here")
        p.add_argument("--workers", type=int, default=1,
                       help="worker processes (never changes results)")
        p.set_defaults(func=func)

    p = sub.add_parser("bounds", help="print theoretical bound values")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sigma", type=float)
    p.add_argument("--beta", type=float, default=math.e)
    p.add_argument("--t", help="comma-separated tail thresholds")
    p.add_argument("--pattern", default="lower_triangular", choices=sorted(NAMED_PATTERNS))
    p.add_argument("--no-sigma-factor", action="store_true",
                   help="evaluate in the sigma -> infinity limit")
    p.set_defaults(func=cmd_bounds)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SpecError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
