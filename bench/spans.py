"""Span tracing of z2flow's layers from outside the library.

Inside ``with Tracer():`` the public boundary functions listed in
``TARGETS`` are replaced, on the modules that look them up, by wrappers that
record one span each: (name, start, end, parent span, benchmark call id,
work).  Spans stay in memory until ``Tracer.write``; ``layer_metrics``
reduces them to the per-layer metrics.  Nothing here is imported by the
untraced run.
"""

from __future__ import annotations

import gzip
import json
import time

import z2flow.cli as cli
import z2flow.flow as flow
import z2flow.models as models
import z2flow.pairs as pairs
from z2flow.paths import OperatorPath


def _n3(args):
    """Computed operation count of a dense factorization: rows * cols * min,
    which is n^3 for the square matrices the engine passes."""
    rows, cols = args[0].shape
    return rows * cols * min(rows, cols)


# (owner, attribute, span name, work function); an owner is the module whose
# global lookup the engine uses, so only calls made through it are traced
_MODEL_FACTORIES = ("build_example_path", "build_rank_one_pair", "build_insulator_path",
             "build_insulator_disordered", "build_bifurcation_path")
TARGETS = (
    [(flow, "skew_singular_system", "linalg.skew_singular_system", _n3),
     (flow, "singular_values", "linalg.singular_values", _n3),
     (flow, "pfaffian_sign", "linalg.pfaffian_sign", None),
     (flow, "sf2_finite", "flow.sf2_finite", None),
     (flow, "sf2_path", "flow.sf2_path", None),
     (pairs, "sf2_path", "flow.sf2_path", None),
     (cli, "sf2_path", "flow.sf2_path", None),
     (flow, "parity_path", "flow.parity_path", None),
     (flow, "parity_path_general", "flow.parity_path_general", None),
     (OperatorPath, "at", "paths.at", None),
     (pairs, "phase_complete", "pairs.phase_complete", None),
     (pairs, "parity_via_pairs", "pairs.parity_via_pairs", None),
     (pairs, "straight_line_sf2", "pairs.straight_line_sf2", None),
     (cli, "pi_index", "pairs.pi_index", None),
     (cli, "j_index", "pairs.j_index", None),
     (cli, "index_pairing_rhs", "pairs.index_pairing_rhs", None),
     (cli, "run", "cli.run", None),
     (cli, "_emit", "cli.emit", None),
     (models, "half_flux_kernel_dim", "models.half_flux_kernel_dim", None),
     (cli, "half_flux_kernel_dim", "models.half_flux_kernel_dim", None)]
    + [(owner, name, f"models.{name}", None)
       for owner in (models, cli) for name in _MODEL_FACTORIES]
)

class Tracer:
    """In-memory span recorder around the layer boundaries in ``TARGETS``."""

    def __init__(self):
        self.spans = []        # (name, start, end, parent index, call id, work)
        self.flow_results = []  # (call id, windows, evaluations, depth, max rank)
        self.call_id = None
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn, work):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.call_id,
                                     work(args) if work else 0)
            if name == "flow.sf2_path":
                self.flow_results.append((
                    self.call_id, len(result.windows), result.evaluations,
                    result.refinement_depth,
                    max((w.rank for w in result.windows), default=0)))
            return result

        return traced

    def __enter__(self):
        """Install the wrappers; leaving the block restores the originals."""
        for owner, attr, name, work in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, work))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def write(self, file):
        """Write the spans as gzipped JSON rows."""
        with gzip.open(file, "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "call", "work"],
                       "spans": self.spans}, fh)


def flow_counters(flow_results) -> dict:
    """Machine-independent counters over the FlowResults of one pass."""
    windows = sum(r[1] for r in flow_results)
    evaluations = sum(r[2] for r in flow_results)
    return {
        "flow.windows": windows,
        "flow.evaluations": evaluations,
        "flow.evaluations_per_window": evaluations / windows if windows else 0.0,
        "flow.refinement_depth_max": max((r[3] for r in flow_results), default=0),
        "flow.window_rank_max": max((r[4] for r in flow_results), default=0),
    }


def layer_metrics(spans) -> dict:
    """Per-function totals, layer self times and computed work of one pass."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = {}

    def add(key, value):
        totals[key] = totals.get(key, 0.0) + value

    for i, (name, start, end, parent, _, work) in enumerate(spans):
        layer = name.split(".", 1)[0]
        add(f"{name}.calls", 1)
        add(f"{name}.s", end - start)
        if work:
            add(f"{name}.work_n3", work)
        add(f"{layer}.self_s", end - start - child_time[i])
        if name.startswith("models.build_") and (
                parent < 0 or not spans[parent][0].startswith("models.build_")):
            add("models.build.s", end - start)
    return totals
