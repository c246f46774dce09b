"""Spans around the public functions of each mixflow layer, from outside.

The benchmark patches each function where the program looks it up (a
module attribute or a class attribute), records one span per call (name,
start, end, parent span, operation) in flat in-memory arrays, and restores
the originals when the traced pass ends. Nothing in the program changes.
"""

from __future__ import annotations

import os
import time
from array import array
from contextlib import contextmanager

import numpy as np

# span name -> layer; the root span of every CLI call belongs to `cli`
LAYER_OF = {
    "cli.solve": "cli", "cli.pga": "cli", "cli.check": "cli", "cli.write": "cli",
    "network.load": "network",
    "paths.yen": "paths", "paths.merge": "paths",
    "costs.evaluate_links": "costs", "costs.cnl_commonalities": "costs",
    "solver.build": "solver", "solver.solve": "solver",
    "solver.link_flows": "solver", "solver.path_costs": "solver",
    "solver.perceived_costs": "solver", "solver.swap_directions": "solver",
    "pga.solve": "pga",
    "diagnostics.link_flows_from_paths": "diagnostics",
    "diagnostics.ncp_residual": "diagnostics",
    "diagnostics.flow_deviation": "diagnostics",
    "diagnostics.r_squared": "diagnostics",
}
LAYERS = ("network", "paths", "costs", "solver", "pga", "diagnostics", "cli")

# the helpers the solve loop calls itself (uniform_flows, group_sums in the
# conservation check, group_view) stay unwrapped: their time is solver.self_s
_ASSIGNMENT_METHODS = {
    "__init__": "solver.build", "link_flows": "solver.link_flows",
    "path_costs": "solver.path_costs", "perceived_costs": "solver.perceived_costs",
    "swap_directions": "solver.swap_directions",
}
_WRITERS = ("write_link_flows_csv", "write_path_flows_csv", "write_trace_csv",
            "write_outer_trace_csv", "write_path_dump", "write_summary_json")
_DIAGNOSTICS = ("link_flows_from_paths", "ncp_residual", "flow_deviation", "r_squared")


class Tracer:
    """Span store: one row per traced call, appended in call order."""

    def __init__(self):
        self.names = list(LAYER_OF)
        self._name_id = {n: i for i, n in enumerate(self.names)}
        self.op = array("l")
        self.parent = array("l")
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.current_op = -1
        self.yen_paths = 0        # paths returned by Yen calls
        self.write_bytes = 0      # bytes in files the cli writers wrote

    def mark(self):
        """Position of the next span and the counters, to measure one pass from."""
        return len(self.start), self.yen_paths, self.write_bytes

    def span(self, name, fn, on_return=None):
        """`fn` wrapped so that every call records a span named `name`."""
        nid = self._name_id[name]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.op.append(self.current_op)
            self.parent.append(self._stack[-1])
            self.name.append(nid)
            self.start.append(clock())
            self.end.append(0.0)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.end[idx] = clock()
            if on_return is not None:
                on_return(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_yen(self, args, result):
        self.yen_paths += len(result)

    def _count_bytes(self, args, result):
        self.write_bytes += os.path.getsize(args[0])

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,parent,op,name,start_s,end_s\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.parent[i]},{self.op[i]},{self.names[self.name[i]]},"
                         f"{self.start[i]!r},{self.end[i]!r}\n")

    def totals(self, lo, hi):
        """Per-name summed seconds, self seconds and call counts over spans [lo, hi)."""
        n_names = len(self.names)
        if hi <= lo:
            zeros = np.zeros(n_names)
            return zeros, zeros, np.zeros(n_names, dtype=int)
        # slicing copies, so no buffer of the growing arrays stays exported
        name = np.frombuffer(self.name[lo:hi], dtype=np.int_)
        parent = np.frombuffer(self.parent[lo:hi], dtype=np.int_) - lo
        dur = np.frombuffer(self.end[lo:hi]) - np.frombuffer(self.start[lo:hi])
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=hi - lo)
        self_dur = dur - child
        return (np.bincount(name, weights=dur, minlength=n_names),
                np.bincount(name, weights=self_dur, minlength=n_names),
                np.bincount(name, minlength=n_names))


@contextmanager
def installed(tracer, cli, pga, solver, costs, diagnostics):
    """Patch every traced name for the duration of the block."""
    patches = [
        (cli, "load_network", tracer.span("network.load", cli.load_network)),
        (cli, "yen_k_shortest", tracer.span("paths.yen", cli.yen_k_shortest,
                                            tracer._count_yen)),
        (pga, "yen_k_shortest", tracer.span("paths.yen", pga.yen_k_shortest,
                                            tracer._count_yen)),
        (pga, "merge_path_sets", tracer.span("paths.merge", pga.merge_path_sets)),
        (cli, "pga_solve", tracer.span("pga.solve", cli.pga_solve)),
        (pga, "solve_assignment", tracer.span("solver.solve", pga.solve_assignment)),
        (solver, "solve_assignment", tracer.span("solver.solve", solver.solve_assignment)),
        (costs, "evaluate_links", tracer.span("costs.evaluate_links", costs.evaluate_links)),
        (costs, "cnl_commonalities", tracer.span("costs.cnl_commonalities",
                                                 costs.cnl_commonalities)),
    ]
    patches += [(solver.Assignment, method,
                 tracer.span(name, getattr(solver.Assignment, method)))
                for method, name in _ASSIGNMENT_METHODS.items()]
    patches += [(cli, fn, tracer.span("cli.write", getattr(cli, fn), tracer._count_bytes))
                for fn in _WRITERS]
    patches += [(diagnostics, fn, tracer.span(f"diagnostics.{fn}", getattr(diagnostics, fn)))
                for fn in _DIAGNOSTICS]
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapped in patches:
            setattr(owner, attr, wrapped)
        yield tracer
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)


def layer_metrics(tracer, mark, iterations, paths_kept):
    """Per-layer metrics of the spans recorded since `mark` (one traced pass).

    `iterations` is the pass's solver iteration count and `paths_kept` the
    paths in its final path sets, both read from the program's own output
    files; they are the bases of `solver.ms_per_iter` and
    `paths.new_per_generated`.
    """
    lo, yen_paths, write_bytes = mark
    hi = len(tracer.start)
    generated = tracer.yen_paths - yen_paths
    total, self_s, calls = tracer.totals(lo, hi)
    idx = {n: i for i, n in enumerate(tracer.names)}

    def s(name):
        return float(total[idx[name]])

    def n(name):
        return int(calls[idx[name]])

    solve_s = s("solver.solve")
    metrics = {
        "network.load_s": s("network.load"),
        "paths.yen_s": s("paths.yen"),
        "paths.yen_calls": n("paths.yen"),
        "paths.merge_s": s("paths.merge"),
        "paths.new_per_generated": paths_kept / generated if generated else 0.0,
        "solver.build_s": s("solver.build"),
        "solver.build_calls": n("solver.build"),
        "solver.solve_s": solve_s,
        "solver.self_s": float(self_s[idx["solver.solve"]]),
        "solver.ms_per_iter": solve_s * 1e3 / iterations if iterations else 0.0,
        "solver.perceived_costs_s": s("solver.perceived_costs"),
        "solver.swap_directions_s": s("solver.swap_directions"),
        "solver.link_flows_s": s("solver.link_flows"),
        "solver.path_costs_s": s("solver.path_costs"),
        "costs.cnl_commonalities_s": s("costs.cnl_commonalities"),
        "costs.cnl_calls": n("costs.cnl_commonalities"),
        "costs.evaluate_links_s": s("costs.evaluate_links"),
        "costs.evaluate_links_calls": n("costs.evaluate_links"),
        "diagnostics.certify_s": s("cli.check"),
        "cli.write_s": s("cli.write"),
        "cli.write_bytes": tracer.write_bytes - write_bytes,
        "trace.spans": hi - lo,
    }
    for layer in LAYERS:
        metrics[f"self.{layer}_s"] = float(sum(
            self_s[i] for i, name in enumerate(tracer.names) if LAYER_OF[name] == layer))
    return metrics
