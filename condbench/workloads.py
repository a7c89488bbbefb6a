"""The benchmark's four workloads and the inputs they are built from.

Every input is a pure function of the run's seed. The benchmark maps --seed
onto one of INPUT_POOL program seeds, so that each input has an output digest
recorded in baseline_digests.json (written by make_baseline.py) and every run
can report drift against it. numpy and the package are imported inside the
functions, so that the runner can import this module before it has found
the checkout's src/.
"""

from __future__ import annotations

from dataclasses import dataclass

INPUT_POOL = 16


@dataclass(frozen=True)
class MonteCarlo:
    """A stochastic CLI command run on a spec file."""

    command: str
    workers: int
    spec: dict

    @property
    def draws(self) -> int:
        return int(self.spec["samples"])

    def spec_text(self) -> str:
        return "".join(f"{key} = {value}\n" for key, value in self.spec.items())


@dataclass(frozen=True)
class Exact:
    """In-process library calls on seeded instances; no sampling, no pool."""

    n: int = 40
    workers: int = 1
    # Perturbed instances the oracle evaluates, 3^m - 1 per call: "solve" on
    # the dense 3 x 3 (m = 12) and "inv" on the tridiagonal 4 x 4 (m = 10).
    # They are this workload's draws for samples_per_s.
    draws: int = (3 ** 12 - 1) + (3 ** 10 - 1)


# Draw counts are multiples of CHUNK_SIZE (4096) so that two workers get
# equal shares, and are sized so that one invocation takes 1.5-3 s on a
# 2-core machine; a run then holds enough invocations for a steady median.
WORKLOADS = {
    # Dense general path: batched LU/inverse kernels, sampling writes every
    # entry, and the only workload whose timed runs use the process pool.
    "tail-full-inv": MonteCarlo("tail", 2, {
        "pattern": "full", "n": 30, "center": "zero", "sigma": 1, "quantity": "inv",
        "thresholds": "2000, 10000, 100000, 1000000", "samples": 16384}),
    # Half of every sampled stack is structural zeros, yet each draw pays for
    # a general LU; mean-of-logs reduction; plain single-process baseline.
    "logexp-tri-solve": MonteCarlo("logexp", 1, {
        "pattern": "lower_triangular", "n": 30, "center": "zero", "center_rhs": "ones",
        "sigma": 1, "quantity": "solve", "samples": 16384}),
    # The only workload that runs fplab (emulated substitution, double
    # reference, backward error) and writes a large CSV, one row per draw.
    "accuracy-tri": MonteCarlo("accuracy", 1, {
        "pattern": "lower_triangular", "n": 30, "center": "zero", "center_rhs": "zero",
        "sigma": 1, "precision_bits": 24, "samples": 8192}),
    # condition_report on a tridiagonal n=40 instance (pure-Python LU behind
    # the scalar path), then the exhaustive oracle at its largest sizes.
    "exact-tridiag": Exact(),
}


def program_seed(seed: int) -> int:
    return seed % INPUT_POOL


def build_model(spec: dict, command: str):
    """GaussianModel (and PrecisionConfig for accuracy) from a parsed spec,
    through the package's public API. Covers the keys the workloads use."""
    import numpy as np

    from sparsecond import GaussianModel, PatternedMatrix, PrecisionConfig
    from sparsecond.patterns import NAMED_PATTERNS

    n = int(spec["n"])
    pattern = NAMED_PATTERNS[spec["pattern"]](n)
    if spec["center"] != "zero":
        raise ValueError(f"unsupported center {spec['center']!r}")
    rhs = {"ones": np.ones(n), "zero": np.zeros(n), None: None}[spec.get("center_rhs")]
    model = GaussianModel(pattern=pattern, center=PatternedMatrix(pattern, np.zeros((n, n))),
                          sigma=float(spec["sigma"]), center_rhs=rhs)
    if command == "accuracy":
        return model, PrecisionConfig(int(spec["precision_bits"]))
    return model, None


@dataclass(frozen=True)
class ExactInstances:
    big: object          # PatternedMatrix, tridiagonal n x n
    big_rhs: object
    dense3: object       # PatternedMatrix, dense 3 x 3: oracle "solve", m = 12
    dense3_rhs: object
    tri4: object         # PatternedMatrix, tridiagonal 4 x 4: oracle "inv", m = 10


def exact_instances(seed: int, n: int = 40) -> ExactInstances:
    """Seeded instances for the exact-tridiag workload.

    The n x n tridiagonal instance has N(0, 1) entries on the pattern and is
    taken as drawn. The two small oracle instances are redrawn until they are
    well conditioned with no tiny solution or inverse entry: the oracle is a
    finite-difference estimate with delta = 1e-6, and it agrees with the first
    order closed forms to 1e-3 only when delta times the condition is small.
    """
    import numpy as np

    from sparsecond import PatternedMatrix, full_pattern, tridiagonal_pattern

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed)))

    def on_pattern(pattern):
        a = np.zeros((pattern.n, pattern.n))
        rows, cols = pattern.index_arrays
        a[rows, cols] = rng.standard_normal(len(rows))
        return PatternedMatrix(pattern, a)

    big = on_pattern(tridiagonal_pattern(n))
    big_rhs = rng.standard_normal(n)

    while True:
        dense3 = on_pattern(full_pattern(3))
        rhs3 = rng.standard_normal(3)
        x = np.abs(np.linalg.solve(dense3.entries, rhs3))
        if np.linalg.cond(dense3.entries) <= 20.0 and x.min() >= 0.1 * x.max():
            break
    while True:
        tri4 = on_pattern(tridiagonal_pattern(4))
        if np.linalg.cond(tri4.entries) > 20.0:
            continue
        g = np.abs(np.linalg.inv(tri4.entries))
        if g.min() >= 0.01 * g.max():
            break
    return ExactInstances(big, big_rhs, dense3, rhs3, tri4)
