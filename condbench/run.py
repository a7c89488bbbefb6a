"""Benchmark of the sparsecond package.

    python3 condbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the package is imported from ./src as it
stands, nothing is installed. Every invocation of the program is a fresh
process, timed from spawn to exit, with the BLAS fixed at one thread per
process so that no workload runs more threads than its --workers.

--trace 0 times the untraced program and prints the end-to-end metrics;
--trace 1 alternates untraced and traced one-worker invocations and prints
the per-layer metrics (see tracer.py). Every invocation's output is checked
(checks.py). The last line of standard output is the result JSON; the line
before it holds the details: quartiles, run counts, the environment, the
output digest and its drift against baseline_digests.json, and the problems
found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import tomllib
from dataclasses import dataclass
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
SETUP_PROBES_PER_REP = 2
MIN_REPS = 3
CHILD_TIMEOUT_S = 60.0
BLAS_THREADS = 1

END_TO_END = {"wall_s": "s", "samples_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "smoothed.sample_batch.busy_s": "s",
    "smoothed.sample_batch.draws_per_s": "1/s",
    "smoothed.sample_batch.peak_alloc_mb": "MB",
    "conditioning.batch_cond_inverse.busy_s": "s",
    "conditioning.batch_cond_solve.busy_s": "s",
    "conditioning.batch.peak_alloc_mb": "MB",
    "conditioning.batch.finite_ratio": "ratio",
    "conditioning.condition_report.busy_s": "s",
    "conditioning.condition_report.inf_entries": "count",
    "conditioning.bound_inverse_entries.busy_s": "s",
    "conditioning.bound_solve_entries.busy_s": "s",
    "linalg.lu_factor.calls": "count",
    "linalg.lu_factor.busy_s": "s",
    "conditioning.oracle_condition.busy_s": "s",
    "conditioning.oracle_condition.trials": "count",
    "fplab.forward_substitution_batch.busy_s": "s",
    "fplab.run_accuracy_experiment.self_s": "s",
    "smoothed.estimate.self_s": "s",
    "smoothed.chunks": "count",
    "smoothed.parallel_efficiency": "ratio",
    "cli.format.busy_s": "s",
    "cli.format.bytes": "bytes",
    "cli.main.self_s": "s",
    "cli.startup_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.self_sum_s": "s",
}

TIMING_NOTE = ("CPUs are not pinned and CPU frequency is not fixed: an unprivileged container "
               "cannot do either, so every figure is a median over repeated invocations")


@dataclass
class Invocation:
    wall_s: float
    code: int
    peak_rss_mb: float
    out_dir: Path


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def spawn(cmd, cwd: Path, env: dict) -> Invocation:
    """Run cmd to completion; wall time from spawn to exit, and the largest
    resident set of the process and of the workers it waited for."""
    with open(cwd / "log.txt", "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=log, stderr=subprocess.STDOUT,
                                start_new_session=True)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, _kill_group, (proc.pid,))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # leftovers of a crashed run; normally none
    return Invocation(wall, proc.returncode, usage.ru_maxrss / 1024.0, cwd)


def quartiles(values) -> dict:
    values = sorted(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


class Bench:
    """One benchmark run of one workload: invokes, checks and times the program."""

    def __init__(self, root: Path, run_dir: Path, name: str, seed: int):
        self.run_dir, self.name, self.seed = run_dir, name, seed
        self.workload = workloads.WORKLOADS[name]
        self.exact = isinstance(self.workload, workloads.Exact)
        self.spec_path = run_dir / "spec.txt"
        if not self.exact:
            self.spec_path.write_text(self.workload.spec_text(), encoding="utf-8")
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0",
                        TMPDIR=str(run_dir), OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
                        OMP_NUM_THREADS=str(BLAS_THREADS), MKL_NUM_THREADS=str(BLAS_THREADS))
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.exit_codes = {}
        self.reference = None
        self.extra = {}

    def _invoke(self, cmd) -> Invocation:
        out_dir = self.run_dir / f"inv-{self.attempted}"
        out_dir.mkdir()
        self.attempted += 1
        inv = spawn(cmd, out_dir, self.env)
        self.exit_codes[str(inv.code)] = self.exit_codes.get(str(inv.code), 0) + 1
        return inv

    def _fail(self, label: str, problems) -> None:
        """Record one invocation's problems; it failed if there are any."""
        self.failed += bool(problems)
        self.problems.extend(f"{label}: {p}" for p in problems)

    def setup_probe(self) -> float:
        inv = self._invoke([sys.executable, str(HERE / "child.py"), "setup", self.name,
                            str(self.seed), str(self.spec_path)])
        self._fail("setup", checks.exit_problems(inv.code, 0))
        shutil.rmtree(inv.out_dir)
        return inv.wall_s

    def run(self, workers: int, traced: bool = False):
        """One invocation, checked; returns it and, when traced, its trace summary."""
        label = f"{'traced' if traced else 'untraced'} run at {workers} worker(s)"
        if traced:
            cmd = [sys.executable, str(HERE / "child.py"), "trace", self.name, str(self.seed),
                   str(self.spec_path), "."]
        elif self.exact:
            cmd = [sys.executable, str(HERE / "child.py"), "exact", str(self.seed), "."]
        else:
            cmd = [sys.executable, "-m", "sparsecond", self.workload.command,
                   "--spec", str(self.spec_path), "--seed", str(self.seed),
                   "--out", "out.csv", "--workers", str(workers)]
        inv = self._invoke(cmd)
        output, problems = self._check(inv)
        if self.reference is None:
            self.reference = output
        else:
            problems += checks.same_bytes_problems(self.reference, output,
                                                   "compared with the first 1-worker run")
        self._fail(label, problems)
        summary = None
        if traced and (inv.out_dir / "trace.json").is_file():
            summary = json.loads((inv.out_dir / "trace.json").read_text(encoding="utf-8"))
        shutil.rmtree(inv.out_dir)
        return inv, summary

    def _check(self, inv: Invocation):
        def read(name):
            path = inv.out_dir / name
            return path.read_bytes() if path.is_file() else b""

        if self.exact:
            output = read("report.txt") + read("report.csv") + read("exact.json")
            data = json.loads(read("exact.json") or b"{}")
            if data:
                self.extra["inf_entries"] = checks.inf_count(data)
            return output, checks.exact_problems(inv.code, data, self.workload.n)
        output = read("out.csv")
        return output, checks.monte_carlo_problems(self.workload.command, inv.code, output,
                                                   self.workload.spec, self.seed)

    def repeat(self, seconds: float, rep) -> None:
        """Call rep() until the next call would end past `seconds`."""
        start = time.perf_counter()
        durations = []
        while True:
            t = time.perf_counter()
            rep()
            durations.append(time.perf_counter() - t)
            elapsed = time.perf_counter() - start
            if len(durations) >= MIN_REPS and elapsed + statistics.median(durations) > seconds:
                return

    def digest(self) -> dict:
        sha = hashlib.sha256(self.reference or b"").hexdigest()
        baseline_file = HERE / "baseline_digests.json"
        baseline = None
        if baseline_file.is_file():
            baseline = json.loads(baseline_file.read_text()).get(self.name, {}).get(str(self.seed))
        return {"sha256": sha, "baseline_sha256": baseline,
                "drift": None if baseline is None else sha != baseline}

    # ------------------------------------------------------------------
    def end_to_end(self, seconds: float):
        self.run(1)  # warm-up, and the 1-worker reference every run must equal
        setup, walls, rss = [], [], []

        def rep():
            # Probes interleave with the timed runs so that both sample the
            # same stretch of machine noise.
            setup.extend(self.setup_probe() for _ in range(SETUP_PROBES_PER_REP))
            inv, _ = self.run(self.workload.workers)
            walls.append(inv.wall_s)
            rss.append(inv.peak_rss_mb)

        self.repeat(seconds, rep)
        setup_s = statistics.median(setup)
        rates = [self.workload.draws / (w - setup_s) for w in walls]
        stats = {"wall_s": quartiles(walls), "samples_per_s": quartiles(rates),
                 "setup_s": quartiles(setup), "peak_rss_mb": quartiles(rss)}
        return {name: stats[name]["median"] for name in END_TO_END}, stats

    def per_layer(self, seconds: float):
        self.run(1)  # warm-up, and the 1-worker reference every run must equal
        one, two, traced, selfs = [], [], [], []

        def rep():
            one.append(self.run(1)[0].wall_s)
            if not self.exact:
                two.append(self.run(2)[0].wall_s)
            inv, summary = self.run(1, traced=True)
            if summary is not None:
                metrics, self_by_span = layer_metrics(summary, inv.wall_s)
                traced.append(metrics)
                selfs.append(self_by_span)
                self.extra["missing_wrap_targets"] = summary["missing"]

        self.repeat(seconds, rep)
        if not traced:
            raise RuntimeError("no traced invocation wrote its spans")
        stats = {name: quartiles([t[name] for t in traced]) for name in traced[0]}
        untraced = statistics.median(one)
        stats["trace.overhead_s"] = quartiles([t["trace.wall_s"] - untraced for t in traced])
        stats["smoothed.parallel_efficiency"] = quartiles(
            [untraced / (2.0 * w) for w in two] if two else [0.0])
        self.extra["untraced_1_worker_wall_s"] = quartiles(one)
        self.extra["self_s_by_span"] = {
            name: statistics.median(s.get(name, 0.0) for s in selfs)
            for name in sorted({k for s in selfs for k in s})}
        return {name: stats[name]["median"] for name in PER_LAYER}, stats


def layer_metrics(summary: dict, wall_s: float):
    """Per-layer figures of one traced invocation (0 where a layer did not
    run), and the self time of every span name."""
    spans, counts, peaks = summary["spans"], summary["counts"], summary["peaks_mb"]

    def busy(name):
        return spans.get(name, {}).get("busy", 0.0)

    def self_s(name):
        return spans.get(name, {}).get("self", 0.0)

    def calls(name):
        return float(spans.get(name, {}).get("calls", 0))

    sample_busy = busy("smoothed.sample_batch")
    startup = wall_s - summary["root_s"]
    self_by_span = {name: entry["self"] for name, entry in spans.items()}
    self_by_span["cli.startup"] = startup
    return {
        "smoothed.sample_batch.busy_s": sample_busy,
        "smoothed.sample_batch.draws_per_s":
            counts.get("draws", 0.0) / sample_busy if sample_busy > 0 else 0.0,
        "smoothed.sample_batch.peak_alloc_mb": peaks.get("smoothed.sample_batch", 0.0),
        "conditioning.batch_cond_inverse.busy_s": busy("conditioning.batch_cond_inverse"),
        "conditioning.batch_cond_solve.busy_s": busy("conditioning.batch_cond_solve"),
        "conditioning.batch.peak_alloc_mb": max(
            peaks.get("conditioning.batch_cond_inverse", 0.0),
            peaks.get("conditioning.batch_cond_solve", 0.0)),
        "conditioning.batch.finite_ratio":
            counts.get("batch_finite", 0.0) / counts["batch_values"]
            if counts.get("batch_values") else 0.0,
        "conditioning.condition_report.busy_s": busy("conditioning.condition_report"),
        "conditioning.condition_report.inf_entries": counts.get("report_inf_entries", 0.0),
        "conditioning.bound_inverse_entries.busy_s": busy("conditioning.bound_inverse_entries"),
        "conditioning.bound_solve_entries.busy_s": busy("conditioning.bound_solve_entries"),
        "linalg.lu_factor.calls": calls("linalg.lu_factor"),
        "linalg.lu_factor.busy_s": busy("linalg.lu_factor"),
        "conditioning.oracle_condition.busy_s": busy("conditioning.oracle_condition"),
        "conditioning.oracle_condition.trials": counts.get("oracle_trials", 0.0),
        "fplab.forward_substitution_batch.busy_s": busy("fplab.forward_substitution_batch"),
        "fplab.run_accuracy_experiment.self_s": self_s("fplab.run_accuracy_experiment"),
        "smoothed.estimate.self_s": self_s("smoothed.estimate"),
        "smoothed.chunks": calls("smoothed.sample_batch"),
        "cli.format.busy_s": busy("cli.format"),
        "cli.format.bytes": counts.get("format_bytes", 0.0),
        "cli.main.self_s": self_s("cli.main"),
        "cli.startup_s": startup,
        "trace.wall_s": wall_s,
        "trace.self_sum_s": sum(self_by_span.values()),
    }, self_by_span


def environment(root: Path) -> dict:
    import numpy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    commit = None
    if (root / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, check=False)
        commit = done.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((root / "src" / "sparsecond").rglob("*.py")):
        src.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    pyproject = root / "pyproject.toml"
    version = (tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["version"]
               if pyproject.is_file() else None)
    return {
        "git_commit": commit,
        "source_sha256": src.hexdigest(),
        "package_version": version,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads_given": BLAS_THREADS,
        "note": TIMING_NOTE,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "sparsecond" / "__init__.py").is_file():
        print(f"error: no src/sparsecond package under {root}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    seed = workloads.program_seed(args.seed)
    run_dir = root / ".bench_run" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        bench = Bench(root, run_dir, args.workload, seed)
        if args.trace:
            metrics, stats = bench.per_layer(args.seconds)
            units = PER_LAYER
        else:
            metrics, stats = bench.end_to_end(args.seconds)
            units = END_TO_END
        digest = bench.digest()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass  # another run is using it

    details = {
        "workload": args.workload, "seed": args.seed, "program_seed": seed,
        "trace": args.trace, "stats": stats, "exit_codes": bench.exit_codes,
        "failure_rate": bench.failed / bench.attempted,
        "output_digest": digest, "problems": bench.problems[:20],
        "environment": environment(root), **bench.extra,
    }
    print(json.dumps(details))
    print(json.dumps({
        "correct": not bench.problems, "attempted": bench.attempted, "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
