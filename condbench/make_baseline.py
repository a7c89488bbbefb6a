"""Record the output digest of every workload input in baseline_digests.json.

    python3 condbench/make_baseline.py [workload ...]

Run from the root of a checkout at the commit that defines the baseline.
Each input (workload, program seed) is run once at one worker and checked;
run.py then reports whether a later run's output still has this digest.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run
import workloads


def main(names) -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    path = run.HERE / "baseline_digests.json"
    digests = json.loads(path.read_text()) if path.is_file() else {}
    for name in names or sorted(workloads.WORKLOADS):
        digests[name] = {}
        for seed in range(workloads.INPUT_POOL):
            run_dir = root / ".bench_run" / f"baseline-{name}-{seed}"
            run_dir.mkdir(parents=True)
            try:
                bench = run.Bench(root, run_dir, name, seed)
                bench.run(1)
            finally:
                shutil.rmtree(run_dir, ignore_errors=True)
            if bench.problems:
                print(f"{name} seed {seed}: {bench.problems}", file=sys.stderr)
                return 1
            digests[name][str(seed)] = bench.digest()["sha256"]
            print(name, seed, digests[name][str(seed)], flush=True)
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
