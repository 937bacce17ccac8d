"""In-process spans around spectrend's public stage functions.

``install`` replaces each traced function with a wrapper *at its module
attribute*.  The CLI calls stages through the module (``operator.build_operator``)
and ``build_operator`` looks up ``knn_bandwidths``/``kernel_matrix`` as module
globals, so nested stages are caught without touching the package source.

Each span records name, start, end, parent span id, run id and the process
high-water RSS at its end.  Spans stay in memory; the child writes them out
once the run is over.  Counts are computed from stage arguments and results
*after* the span has closed, on a paused clock, so counting never inflates a
span.
"""

from __future__ import annotations

import functools
import importlib
import os
import resource
import time

import numpy as np

# module -> functions wrapped, in pipeline order
TRACED = {
    "models": ("simulate",),
    "data": ("load_scalar_record", "interpolate_uniform", "load_field_stack"),
    "embed": ("delay_embed",),
    "operator": ("build_operator", "knn_bandwidths", "kernel_matrix",
                 "row_stochastic", "eigendecompose", "write_eigenvalue_table"),
    "spectral": ("classify_modes", "project", "write_mode_table", "write_projection"),
    "cli": ("main",),
}

# inclusive span times reported as per-layer metrics (``<name>_s``)
TIMED = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns
         if fn != "build_operator"]

# RSS high-water marks at the end of these spans (``<name>.maxrss_mb``)
MAXRSS = ("operator.build_operator", "operator.eigendecompose")

# exact counts (integers or ratios of integers) gathered by the hooks below
COUNTS = ("data.bytes_in", "embed.points", "embed.dim", "operator.n",
          "operator.kernel_pairs", "operator.P_bytes", "operator.nnz_frac",
          "operator.modes", "operator.degenerate", "operator.max_residual",
          "operator.max_dual_residual")

NNZ_THRESHOLD = 1e-16


def maxrss_mb() -> float:
    """High-water resident set size of this process in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _count_input(counts, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    counts["data.bytes_in"] = counts.get("data.bytes_in", 0) + os.path.getsize(path)


def _count_embed(counts, args, kwargs, emb):
    counts["embed.points"] = int(emb.points.shape[0])
    counts["embed.dim"] = int(emb.points.shape[1])


def _count_kernel(counts, args, kwargs, S):
    counts["operator.kernel_pairs"] = int(S.size)


def _count_operator(counts, args, kwargs, op):
    P = op.P
    counts["operator.n"] = int(op.n)
    counts["operator.P_bytes"] = int(P.nbytes)
    counts["operator.nnz_frac"] = int(np.count_nonzero(P > NNZ_THRESHOLD)) / P.size


def _count_eig(counts, args, kwargs, dec):
    counts["operator.modes"] = int(dec.n_modes)
    counts["operator.degenerate"] = len(dec.degenerate)
    counts["operator.max_residual"] = float(np.max(dec.residuals))
    counts["operator.max_dual_residual"] = float(np.max(dec.dual_residuals))


HOOKS = {
    "data.load_scalar_record": _count_input,
    "data.load_field_stack": _count_input,
    "embed.delay_embed": _count_embed,
    "operator.kernel_matrix": _count_kernel,
    "operator.build_operator": _count_operator,
    "operator.eigendecompose": _count_eig,
}


class Tracer:
    """Span recorder; one instance per traced process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.counts = {}
        self._stack = []
        self._paused = 0.0    # seconds spent in count hooks, hidden from spans

    def now(self) -> float:
        return time.perf_counter() - self._paused

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name, "run": self.run_id,
                    "parent": self._stack[-1] if self._stack else None,
                    "start": self.now(), "end": None}
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = self.now()
                span["maxrss_mb"] = maxrss_mb()
                self._stack.pop()
            if hook is not None:
                t0 = time.perf_counter()
                hook(self.counts, args, kwargs, result)
                self._paused += time.perf_counter() - t0
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Wrap every function in TRACED at its spectrend module attribute."""
    for mod_name, fns in TRACED.items():
        module = importlib.import_module(f"spectrend.{mod_name}")
        for fn_name in fns:
            setattr(module, fn_name,
                    tracer.wrap(f"{mod_name}.{fn_name}", getattr(module, fn_name)))


def self_times(spans) -> dict:
    """Span id -> duration minus the time its direct children cover."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans, counts) -> dict:
    """Per-layer numbers of one traced run, keyed by metric name.

    Stages a workload never calls read 0 (time) and counts it never makes
    read 0 too, so every workload reports the same set of names.
    """
    out = {f"{name}_s": sum(s["end"] - s["start"] for s in spans if s["name"] == name)
           for name in TIMED}
    own = self_times(spans)
    out["cli.self_s"] = sum(own[s["id"]] for s in spans if s["name"] == "cli.main")
    for name in MAXRSS:
        marks = [s["maxrss_mb"] for s in spans if s["name"] == name]
        out[f"{name}.maxrss_mb"] = max(marks) if marks else 0.0
    for name in COUNTS:
        out[name] = counts.get(name, 0)
    return out
