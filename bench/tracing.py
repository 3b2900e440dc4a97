"""Span tracing around the program's layers, from outside the program.

The tracer replaces a function at the module attribute the program calls it
through (``imvu.fl.privatize_vector``, ``imvu.designer.linprog``, ...) with
a wrapper that records a span: name, start, end, parent, and optional
counts computed from the arguments or the result.  Spans stay in memory
until the run writes them out.  ``uninstall`` puts the original functions
back, so untraced passes run the unmodified program.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict

from imvu import accounting, cli, designer, dme, fl, mechanism, rng, table_io


def _linprog_counts(args, kwargs, result):
    a_ub = kwargs["A_ub"]
    return {"rows": int(a_ub.shape[0]), "nnz": int((a_ub != 0).sum())}


def _fisher_counts(args, kwargs, result):
    return {"evals": int(result[1].evaluations)}


def _chunk_counts(args, kwargs, result):
    _, start, stop, _ = args
    first = (start // rng.COORD_CHUNK) * rng.COORD_CHUNK
    return {"chunks": len(range(first, stop, rng.COORD_CHUNK))}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# (module, attribute, span name, counts from (args, kwargs, result)).  A
# function is listed once per module that calls it by name.
PROBES = (
    (cli, "design_mvu", "design_mvu", None),
    (cli, "validate_table", "validate_table", None),
    (designer, "validate_table", "validate_table", None),
    (designer, "linprog", "linprog", _linprog_counts),
    # the implementation behind both eps_prime and the pure-mode report
    (accounting, "_eps_prime_impl", "eps_prime", None),
    (accounting, "fisher_sup", "fisher_sup", _fisher_counts),
    (table_io, "verify_accounting", "verify_accounting", None),
    (fl, "spent_epsilon", "spent_epsilon", None),
    (dme, "privatize_vector", "privatize_vector", None),
    (fl, "privatize_vector", "privatize_vector", None),
    (mechanism, "pmf", "pmf", None),
    (mechanism, "clip", "clip", None),
    (fl, "clip", "clip", None),
    (mechanism, "coordinate_uniforms", "coordinate_uniforms", _chunk_counts),
    (fl, "substream", "substream", None),
    (fl, "client_update", "client_update", None),
    (fl, "train_fl", "train_fl", None),
    (dme, "dme_mse", "dme_mse", None),
    (cli, "save_mechanism", "save_mechanism", _file_bytes),
    (cli, "load_mechanism", "load_mechanism", None),
)


class Tracer:
    """Records spans while installed; one instance per benchmark run."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, counts]
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def span(self, name: str, fn, counts=None):
        """Wrap ``fn`` so each call records a span named ``name``."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else None, None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if counts is not None:
                spans[idx][4] = counts(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for module, attr, name, counts in PROBES:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.span(name, original, counts))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds, summed counts.

        Inclusive time skips spans nested in a span of the same name, so a
        function reached twice on one call path is not counted twice.
        """
        out = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        for idx, (name, start, end, parent, counts) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["self_s"] += (end - start) - child_time[idx]
            if not self._has_ancestor(idx, name):
                row["incl_s"] += end - start
            for key, value in (counts or {}).items():
                row[key] = row.get(key, 0) + value
        return dict(out)

    def _has_ancestor(self, idx: int, name: str) -> bool:
        parent = self.spans[idx][3]
        while parent is not None:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path) -> None:
        """One JSON document: the span list and the per-name summary."""
        with open(path, "w") as handle:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "counts"],
                    "spans": self.spans,
                    "summary": self.summary(),
                },
                handle,
            )
            handle.write("\n")


def layer_metrics(summary: dict, passes: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of BENCHMARK.json, per traced pass."""

    def get(name, key):
        return summary.get(name, {}).get(key, 0) / passes

    metrics = {
        "designer.design_mvu_s": (get("design_mvu", "incl_s"), "s"),
        "designer.validate_table_s": (get("validate_table", "incl_s"), "s"),
        "designer.linprog_calls": (get("linprog", "calls"), "count"),
        "designer.linprog_s": (get("linprog", "incl_s"), "s"),
        "designer.lp_ub_rows": (get("linprog", "rows"), "count"),
        "designer.lp_ub_nnz": (get("linprog", "nnz"), "count"),
        "accounting.eps_prime_calls": (get("eps_prime", "calls"), "count"),
        "accounting.eps_prime_s": (get("eps_prime", "incl_s"), "s"),
        "accounting.fisher_calls": (get("fisher_sup", "calls"), "count"),
        "accounting.fisher_s": (get("fisher_sup", "incl_s"), "s"),
        "accounting.fisher_evals": (get("fisher_sup", "evals"), "count"),
        "accounting.verify_s": (get("verify_accounting", "incl_s"), "s"),
        "accounting.spent_epsilon_calls": (get("spent_epsilon", "calls"), "count"),
        "accounting.spent_epsilon_s": (get("spent_epsilon", "incl_s"), "s"),
        "mechanism.privatize_calls": (get("privatize_vector", "calls"), "count"),
        "mechanism.privatize_s": (get("privatize_vector", "incl_s"), "s"),
        "mechanism.pmf_s": (get("pmf", "incl_s"), "s"),
        "mechanism.clip_s": (get("clip", "incl_s"), "s"),
        "mechanism.sample_decode_s": (get("privatize_vector", "self_s"), "s"),
        "rng.coordinate_uniforms_calls": (get("coordinate_uniforms", "calls"), "count"),
        "rng.coordinate_uniforms_s": (get("coordinate_uniforms", "incl_s"), "s"),
        "rng.chunk_generators": (get("coordinate_uniforms", "chunks"), "count"),
        "rng.substream_calls": (get("substream", "calls"), "count"),
        "rng.substream_s": (get("substream", "incl_s"), "s"),
        "fl.client_update_calls": (get("client_update", "calls"), "count"),
        "fl.client_update_s": (get("client_update", "incl_s"), "s"),
        "fl.train_self_s": (get("train_fl", "self_s"), "s"),
        "dme.dme_mse_self_s": (get("dme_mse", "self_s"), "s"),
        "table_io.save_s": (get("save_mechanism", "incl_s"), "s"),
        "table_io.load_s": (get("load_mechanism", "self_s"), "s"),
        "table_io.file_bytes": (get("save_mechanism", "bytes"), "bytes"),
    }
    return metrics
