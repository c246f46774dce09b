"""Path generation-assignment outer loop.

Alternates k-shortest-path generation on current per-class link costs with
a loose inner equilibrium solve until the total cost stabilizes, then runs
one final solve at the tight gap. Flows on existing paths carry over
between outer iterations; newly generated paths start empty and pick up
flow through the swap direction. A round skips Yen for every group whose
known paths already hold its k cheapest. `generate_paths` is also the
one-shot path generator of `mixflow solve`: its free-flow round is PGA's first.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from . import costs as cost_model
from .network import VEHICLE_CLASSES
from .paths import Graph, PathSet, holds_k_cheapest, merge_path_sets, yen_k_shortest
from .solver import Assignment, SolveResult, solve_assignment


@dataclass(frozen=True)
class PgaConfig:
    k: int = 10                   # paths generated per (OD, class) per round
    outer_tol: float = 0.01       # |relative total-cost change| stop threshold
    inner_gap: float = 0.1        # loose gap for per-round solves
    max_outer: int = 20

    def __post_init__(self):
        # every check is written so that NaN fails it
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if not 0 < self.outer_tol < np.inf:
            raise ValueError("outer_tol must be positive and finite")
        if not 0 < self.inner_gap < np.inf:
            raise ValueError("inner_gap must be positive and finite")
        if self.max_outer < 1:
            raise ValueError("max_outer must be at least 1")


@dataclass
class OuterRow:
    m: int
    new_paths: int
    total_cost: float
    error: float
    inner_iters: int
    seconds: float
    gen_seconds: float    # of `seconds`, spent generating and merging paths


@dataclass
class PgaResult:
    solve: SolveResult
    path_set: PathSet
    outer: list
    outer_converged: bool


def generate_paths(network, link_state, k, known=None):
    """Up to k Yen paths for every demanded (OD, class) at the link state's
    per-class costs, as a fresh PathSet; one `Graph` per class serves all
    of that class's calls, built at its first demanded group. Groups whose
    paths in the PathSet `known` hold their k cheapest are left out."""
    path_set = PathSet()
    graphs = {}
    for od_index, od in enumerate(network.od_pairs):
        for cls in VEHICLE_CLASSES:
            if od.demand(cls) <= 0:
                continue
            if cls not in graphs:
                graphs[cls] = Graph(network, link_state.cost(cls))
            if known is not None and holds_k_cheapest(
                    graphs[cls], known.group(od_index, cls), od.origin, od.destination, k):
                continue
            for path in yen_k_shortest(network, link_state.cost(cls), od.origin,
                                       od.destination, k, graph=graphs[cls]):
                path_set.add(od_index, cls, path)
    return path_set


def _carry_over(assignment, previous):
    """The previous round's flows, or uniform ones in the first round.

    Merging keeps the previous round's paths first in each group, so they
    take their old flows and the new paths start empty.
    """
    if previous is None:
        return assignment.uniform_flows()
    carried = previous.flows_by_group()
    flows = np.zeros(assignment.n_paths)
    for g in assignment.groups:
        old = carried[(g.od_index, g.vehicle_class)]
        flows[g.start:g.start + len(old)] = old
    return flows


def pga_solve(network, params, pga_config, solver_config):
    """Run generation/assignment rounds at pga_config.inner_gap, then the final
    solve at solver_config.gap_tol."""
    path_set = PathSet()
    inner_config = replace(solver_config, gap_tol=pga_config.inner_gap)
    outer = []
    prev_total = None
    outer_converged = False
    result = None
    for m in range(1, pga_config.max_outer + 1):
        # later rounds generate at the costs the previous solve priced last
        link_state = (cost_model.free_flow_state(network, params) if result is None
                      else result.flow.link_state)
        tick = time.perf_counter()
        path_set, new_count = merge_path_sets(
            path_set, generate_paths(network, link_state, pga_config.k, known=path_set))
        gen_seconds = time.perf_counter() - tick
        assignment = Assignment(network, path_set, params)
        result = solve_assignment(assignment, inner_config,
                                  initial_flows=_carry_over(assignment, result))
        total = result.total_cost
        error = float("inf") if prev_total is None else (total - prev_total) / total
        outer.append(OuterRow(m, new_count, total, error,
                              result.iterations, time.perf_counter() - tick, gen_seconds))
        prev_total = total
        if m >= 2 and abs(error) <= pga_config.outer_tol:
            outer_converged = True
            break
    final = solve_assignment(assignment, solver_config, initial_flows=result.flow.f)
    return PgaResult(solve=final, path_set=path_set, outer=outer,
                     outer_converged=outer_converged)
