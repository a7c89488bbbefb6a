"""Command-line entry point.

Subcommands: cond, tail, logexp, prop4, accuracy, bounds. Stochastic commands
read a flat key=value spec file and are pure functions of (spec, seed): reruns
produce byte-identical CSV output, independent of the worker count.

Exit codes: 0 success, 1 computed but degenerate (singular input),
2 invalid input or spec, 3 a failed theoretical check: a stochastic command
exits 3 exactly when its result's passed() is false.
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


def _spec_number(spec, key, kind=float, default=None):
    """spec[key] as a float or an int (kind), or default when it is absent."""
    if key not in spec:
        if default is None:
            raise SpecError(f"missing required key {key!r}")
        return default
    try:
        return kind(spec[key])
    except ValueError as exc:
        what = "a number" if kind is float else "an integer"
        raise SpecError(f"key {key!r}: not {what}: {spec[key]!r}") from exc


def _read_file(reader, path, what: str = ""):
    """reader(path); SpecError, its message prefixed with what, when it fails."""
    try:
        return reader(path)
    except (OSError, ValueError) as exc:
        raise SpecError(f"{what}{exc}") from exc


def _parse_thresholds(text: str) -> list:
    """Comma- or space-separated threshold values."""
    try:
        return [float(tok) for tok in text.replace(",", " ").split()]
    except ValueError as exc:
        raise SpecError(f"bad thresholds: {text!r}") from exc


def _spec_thresholds(spec) -> list:
    if "thresholds" not in spec:
        raise SpecError("missing required key 'thresholds'")
    return _parse_thresholds(spec["thresholds"])


def _resolve_pattern(spec) -> SparsityPattern:
    kind = spec.get("pattern", "full")
    if kind.startswith("file:"):
        pattern = _read_file(read_pattern_file, kind[5:], "pattern file: ")
        if "n" in spec and _spec_number(spec, "n", int) != pattern.n:
            raise SpecError(f"spec n={spec['n']} does not match pattern file n={pattern.n}")
        return pattern
    if kind not in NAMED_PATTERNS:
        raise SpecError(f"unknown pattern {kind!r}; use "
                        f"{'|'.join(NAMED_PATTERNS)} or file:<path>")
    return NAMED_PATTERNS[kind](_spec_number(spec, "n", int))


def _resolve_center(spec, pattern: SparsityPattern) -> PatternedMatrix:
    kind = spec.get("center", "zero")
    n = pattern.n
    if kind == "zero":
        return PatternedMatrix(pattern, np.zeros((n, n)))
    if kind == "identity":
        return PatternedMatrix.identity(n, pattern)
    if kind.startswith("file:"):
        entries = _read_file(read_matrix_file, kind[5:], "center file: ")
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
        rhs = _read_file(read_vector_file, kind[5:], "center_rhs file: ")
        if len(rhs) != n:
            raise SpecError(f"center_rhs length {len(rhs)} != n={n}")
        return rhs
    raise SpecError(f"unknown center_rhs {kind!r}; use zero|ones|file:<path>")


def _build_model(spec, need_rhs: bool) -> smoothed.GaussianModel:
    pattern = _resolve_pattern(spec)
    center = _resolve_center(spec, pattern)
    sigma = _spec_number(spec, "sigma")
    rhs = _resolve_center_rhs(spec, pattern.n, required=need_rhs)
    return smoothed.GaussianModel(pattern=pattern, center=center, sigma=sigma, center_rhs=rhs)


def _resolve_seed(spec, args) -> int:
    if args.seed is not None:
        seed = args.seed
    elif "seed" in spec:
        seed = _spec_number(spec, "seed", int)
    else:
        raise SpecError("stochastic command needs a seed (spec key or --seed)")
    if seed < 0:
        raise SpecError(f"seed must be nonnegative, got {seed}")
    return seed


# ---------------------------------------------------------------------------
# subcommands

def cmd_cond(args) -> int:
    entries = _read_file(read_matrix_file, args.matrix)
    pattern = _read_file(read_pattern_file, args.pattern) if args.pattern else None
    rhs = _read_file(read_vector_file, args.rhs) if args.rhs else None
    mat = (PatternedMatrix(pattern, entries) if pattern is not None
           else PatternedMatrix.dense(entries))
    report = condition_report(mat, rhs)
    sys.stdout.write(report.to_text(entries=args.entries))
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            fh.write(report.CSV_HEADER + "\n" + report.to_csv_row() + "\n")
    return 1 if report.singular else 0


def _run_tail(spec, args):
    quantity = spec.get("quantity", "det")
    model = _build_model(spec, need_rhs=(quantity == "solve"))
    return smoothed.estimate_tail(
        model, quantity, _spec_thresholds(spec),
        _spec_number(spec, "samples", int), _resolve_seed(spec, args), workers=args.workers)


def _run_logexp(spec, args):
    quantity = spec.get("quantity", "det")
    model = _build_model(spec, need_rhs=(quantity == "solve"))
    return smoothed.estimate_logexp(
        model, quantity, _spec_number(spec, "beta", default=math.e),
        _spec_number(spec, "samples", int), _resolve_seed(spec, args), workers=args.workers)


def _run_prop4(spec, args):
    return smoothed.verify_ratio_tail(
        _spec_number(spec, "mu"), _spec_number(spec, "sigma"),
        _spec_thresholds(spec), _spec_number(spec, "samples", int),
        _resolve_seed(spec, args), workers=args.workers)


def _run_accuracy(spec, args):
    spec.setdefault("pattern", "lower_triangular")
    spec.setdefault("center_rhs", "zero")
    model = _build_model(spec, need_rhs=True)
    return fplab.run_accuracy_experiment(
        model, fplab.PrecisionConfig(_spec_number(spec, "precision_bits", int)),
        _spec_number(spec, "samples", int), _resolve_seed(spec, args), workers=args.workers)


# command -> (spec keys, run(spec, args) -> result, help); every result has
# passed(), to_report_text() and to_csv_text()
_EXPERIMENTS = {
    "tail": ({"pattern", "n", "center", "center_rhs", "sigma", "quantity",
              "thresholds", "samples", "seed"},
             _run_tail, "Monte Carlo tail frequencies vs the theoretical bound"),
    "logexp": ({"pattern", "n", "center", "center_rhs", "sigma", "quantity",
                "samples", "seed", "beta"},
               _run_logexp, "Monte Carlo log-expectation vs the theoretical bound"),
    "prop4": ({"mu", "sigma", "thresholds", "samples", "seed"},
              _run_prop4, "tail of |X| > t|X+1| for Gaussian X vs its bound"),
    "accuracy": ({"pattern", "n", "center", "center_rhs", "sigma",
                  "precision_bits", "samples", "seed"},
                 _run_accuracy, "reduced-precision forward-substitution accuracy"),
}


def cmd_experiment(args) -> int:
    keys, run, _ = _EXPERIMENTS[args.command]
    result = run(parse_spec_file(args.spec, keys), args)
    sys.stdout.write(result.to_report_text())
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(result.to_csv_text())
    return 0 if result.passed() else 3


def cmd_bounds(args) -> int:
    """A line per threshold and one for beta, with a cell per row of smoothed._BOUNDS;
    the triangular one, last and unpadded, on a lower-triangular pattern only."""
    pattern = NAMED_PATTERNS[args.pattern](args.n)
    sigma = math.inf if args.no_sigma_factor else args.sigma
    if sigma is None:
        raise SpecError("--sigma is required (or pass --no-sigma-factor)")
    bounds = [(quantity, pair) for quantity, pair in smoothed._BOUNDS.items()
              if quantity != "triangular" or smoothed._is_lower_triangular(pattern)]

    def line(head: str, which: int, suffix: str, x: float) -> str:
        cells = [head]
        for quantity, pair in bounds:
            spec = ".6g" if quantity == "triangular" else "<12.6g"
            cells.append(f"{quantity}{suffix}={pair[which](args.n, len(pattern), sigma, x):{spec}}")
        return "  " + " ".join(cells)

    lines = [f"bounds: pattern={args.pattern} n={args.n} S_size={len(pattern)} "
             f"sigma={sigma:g} beta={args.beta:g}"]
    lines += [line(f"t={t:<12g}", 0, "_tail", t) for t in _parse_thresholds(args.t or "")]
    lines.append(line(f"logexp(beta={args.beta:g})", 1, "", args.beta))
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

    for name, (_, _, help_text) in _EXPERIMENTS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--spec", required=True, help="flat key=value spec file")
        p.add_argument("--seed", type=int, help="override the spec seed")
        p.add_argument("--out", help="write the CSV here")
        p.add_argument("--workers", type=int, default=1,
                       help="worker processes, at most one per 4096-draw chunk "
                            "(never changes results)")
        p.set_defaults(func=cmd_experiment)

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
