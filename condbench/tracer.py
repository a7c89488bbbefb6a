"""In-memory spans around calls into the package's modules.

The package is not edited: the traced process replaces module and class
attributes that the program looks up at call time with wrappers that record
a span (name, start, end, parent) per call. Spans are kept in memory and
summarised once the traced work has finished.
"""

from __future__ import annotations

import functools
import time
import tracemalloc
from collections import defaultdict

import numpy as np

from sparsecond import PatternedMatrix, conditioning, fplab, linalg, smoothed

MB = float(1 << 20)


class Recorder:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self._stack = []
        self.counts = defaultdict(float)
        self.peaks = defaultdict(float)
        self.missing = []

    def span(self, name, fn, args=(), kwargs=None, memory=False):
        """Call fn(*args, **kwargs) inside a span; with memory, record
        tracemalloc's peak over the call."""
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        track = memory and not tracemalloc.is_tracing()
        if track:
            tracemalloc.start()
        start = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter()
            if track:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.peaks[name] = max(self.peaks[name], peak / MB)
            self._stack.pop()
            self.spans[idx][1:3] = [start, end]

    def wrap(self, owner, attr, name, after=None, memory=False):
        """Replace owner.attr by a spanned wrapper; after(rec, args, kwargs, result)
        records counts from each call."""
        orig = getattr(owner, attr, None)
        if orig is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            result = self.span(name, orig, args, kwargs, memory)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)

    def summary(self) -> dict:
        """Per name: calls, busy (time not nested in a span of the same
        name) and self (duration minus the child spans) in seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "busy": 0.0, "self": 0.0})
        for i, (name, start, end, parent) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["self"] += (end - start) - child[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                entry["busy"] += end - start
        roots = [end - start for _, start, end, parent in self.spans if parent < 0]
        return {"spans": dict(out), "counts": dict(self.counts), "peaks_mb": dict(self.peaks),
                "root_s": sum(roots), "missing": self.missing}


def _count_draws(rec, args, kwargs, result):
    rec.counts["draws"] += result[0].shape[0]


def _count_finite(rec, args, kwargs, result):
    rec.counts["batch_values"] += result.shape[0]
    rec.counts["batch_finite"] += int(np.isfinite(result).sum())


def _count_bytes(rec, args, kwargs, result):
    rec.counts["format_bytes"] += len(result.encode("utf-8"))


def _count_report_infs(rec, args, kwargs, result):
    for values in (result.c_inv_entries, result.c_solve_entries):
        if values is not None:
            rec.counts["report_inf_entries"] += int(np.isinf(values).sum())


def _count_trials(rec, args, kwargs, result):
    """Trials of one oracle call: all 3^m - 1 nonzero sign patterns when the
    perturbed entry count m is within the exhaustive limit."""
    quantity, a = args[0], args[1]
    if isinstance(a, PatternedMatrix):
        n, m = a.n, len(a.pattern)
    else:
        n = np.asarray(a).shape[0]
        m = n * n
    if quantity == "solve":
        m += n
    exhaustive = m <= kwargs.get("exhaustive_limit", 12)
    rec.counts["oracle_trials"] += 3 ** m - 1 if exhaustive else kwargs.get("random_trials", 10_000)


def install(rec: Recorder) -> None:
    """Wrap the package attributes behind every per-layer metric."""
    for module in (smoothed, fplab):
        rec.wrap(module, "sample_batch", "smoothed.sample_batch", _count_draws, memory=True)
        rec.wrap(module, "batch_cond_solve", "conditioning.batch_cond_solve", _count_finite,
                 memory=True)
    rec.wrap(smoothed, "batch_cond_inverse", "conditioning.batch_cond_inverse", _count_finite,
             memory=True)
    rec.wrap(smoothed, "estimate_tail", "smoothed.estimate")
    rec.wrap(smoothed, "estimate_logexp", "smoothed.estimate")
    # The accuracy experiment: its chunking runs in smoothed._gather_values,
    # while its per-chunk body (double reference, errors) is fplab's own work.
    rec.wrap(fplab, "run_accuracy_experiment", "fplab.run_accuracy_experiment")
    rec.wrap(fplab, "_gather_values", "smoothed.estimate")
    rec.wrap(fplab, "_chunk_accuracy_values", "fplab.run_accuracy_experiment")
    rec.wrap(fplab, "forward_substitution_batch", "fplab.forward_substitution_batch")

    rec.wrap(conditioning, "condition_report", "conditioning.condition_report",
             _count_report_infs)
    rec.wrap(conditioning, "bound_inverse_entries", "conditioning.bound_inverse_entries")
    rec.wrap(conditioning, "bound_solve_entries", "conditioning.bound_solve_entries")
    rec.wrap(conditioning, "oracle_condition", "conditioning.oracle_condition", _count_trials)
    rec.wrap(linalg, "lu_factor", "linalg.lu_factor")

    for cls in (smoothed.TailEstimate, smoothed.LogExpectationEstimate, fplab.AccuracySummary):
        rec.wrap(cls, "to_csv_text", "cli.format", _count_bytes)
        rec.wrap(cls, "to_report_text", "cli.format", _count_bytes)
    rec.wrap(conditioning.ConditionReport, "to_text", "cli.format", _count_bytes)
    rec.wrap(conditioning.ConditionReport, "to_csv_row", "cli.format", _count_bytes)
