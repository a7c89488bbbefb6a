"""Processes the benchmark starts, one mode each:

    child.py setup <workload> <seed> <spec-file> import, parse the spec, build the
                                                 model or instances, exit
    child.py exact <seed> <out-dir>              the exact-tridiag job
    child.py trace <workload> <seed> <spec-file> <out-dir>
                                                 run a workload in-process at one
                                                 worker with spans, write trace.json

Run from the root of a checkout with PYTHONPATH pointing at its src/.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import workloads


def setup(name: str, seed: int, spec_path: str) -> int:
    workload = workloads.WORKLOADS[name]
    if isinstance(workload, workloads.Exact):
        workloads.exact_instances(seed, workload.n)
        return 0
    from sparsecond import cli

    spec = cli.parse_spec_file(spec_path, set(workload.spec))
    workloads.build_model(spec, workload.command)
    return 0


def exact_job(seed: int, out_dir: str) -> int:
    """condition_report on the tridiagonal instance, then the oracle against
    the closed forms on the two small instances; writes report.txt,
    report.csv and exact.json to out_dir."""
    from sparsecond import conditioning

    inst = workloads.exact_instances(seed, workloads.WORKLOADS["exact-tridiag"].n)
    report = conditioning.condition_report(inst.big, inst.big_rhs)
    text = report.to_text(entries=True)
    row = report.to_csv_row()
    oracle_solve = conditioning.oracle_condition("solve", inst.dense3, inst.dense3_rhs)
    oracle_inv = conditioning.oracle_condition("inv", inst.tri4)
    arrays = {
        "c_inv_entries": report.c_inv_entries,
        "bound_inv_entries": report.bound_inv_entries,
        "c_solve_entries": report.c_solve_entries,
        "bound_solve_entries": report.bound_solve_entries,
        "oracle_solve": oracle_solve,
        "closed_solve": conditioning.cond_solve_entries(inst.dense3, inst.dense3_rhs),
        "oracle_inv": oracle_inv,
        "closed_inv": conditioning.cond_inverse_entries(inst.tri4),
    }
    out = Path(out_dir)
    (out / "report.txt").write_text(text, encoding="utf-8")
    (out / "report.csv").write_text(report.CSV_HEADER + "\n" + row + "\n", encoding="utf-8")
    (out / "exact.json").write_text(
        json.dumps({key: value.tolist() for key, value in arrays.items()}), encoding="utf-8")
    return 1 if report.singular else 0


def trace(name: str, seed: int, spec_path: str, out_dir: str) -> int:
    import tracer

    rec = tracer.Recorder()
    tracer.install(rec)
    workload = workloads.WORKLOADS[name]
    if isinstance(workload, workloads.Exact):
        # The job's own code (instances, output files) stands in for the CLI.
        code = rec.span("cli.main", exact_job, (seed, out_dir))
    else:
        from sparsecond import cli

        argv = [workload.command, "--spec", spec_path, "--seed", str(seed),
                "--out", str(Path(out_dir) / "out.csv"), "--workers", "1"]
        code = rec.span("cli.main", cli.main, (argv,))
    (Path(out_dir) / "trace.json").write_text(json.dumps(rec.summary()), encoding="utf-8")
    return code


def main(argv) -> int:
    mode = argv[0]
    if mode == "setup":
        return setup(argv[1], int(argv[2]), argv[3])
    if mode == "exact":
        return exact_job(int(argv[1]), argv[2])
    if mode == "trace":
        return trace(argv[1], int(argv[2]), argv[3], argv[4])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
