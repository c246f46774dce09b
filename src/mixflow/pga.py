"""Path generation-assignment outer loop.

Alternates k-shortest-path generation on current per-class link costs with
a loose inner equilibrium solve until the total cost stabilizes, then runs
one final solve at the tight gap. Flows on existing paths carry over
between outer iterations; newly generated paths start empty and pick up
flow through the swap direction. `generate_paths` is also the one-shot
path generator of `mixflow solve`: its free-flow round is PGA's first.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from . import costs as cost_model
from .network import VEHICLE_CLASSES
from .paths import PathSet, merge_path_sets, yen_k_shortest
from .solver import Assignment, SolveResult, solve_assignment


@dataclass(frozen=True)
class PgaConfig:
    k: int = 10                   # paths generated per (OD, class) per round
    outer_tol: float = 0.01       # |relative total-cost change| stop threshold
    inner_gap: float = 0.1        # loose gap for per-round solves
    final_gap: float = None       # tight gap; None falls back to solver config
    max_outer: int = 20

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.outer_tol <= 0:
            raise ValueError("outer_tol must be positive")
        if self.inner_gap <= 0:
            raise ValueError("inner_gap must be positive")
        if self.max_outer < 1:
            raise ValueError("max_outer must be at least 1")
        if self.final_gap is not None and not 0 < self.final_gap <= self.inner_gap:
            raise ValueError("expected 0 < final_gap <= inner_gap")


@dataclass
class OuterRow:
    m: int
    new_paths: int
    total_cost: float
    error: float
    inner_iters: int
    seconds: float


@dataclass
class PgaResult:
    solve: SolveResult
    path_set: PathSet
    outer: list
    outer_converged: bool

    @property
    def flow(self):
        return self.solve.flow


def generate_paths(network, link_state, k):
    """Up to k Yen paths for every demanded (OD, class) at the link state's
    per-class costs, as a fresh PathSet."""
    path_set = PathSet()
    for od_index, od in enumerate(network.od_pairs):
        for cls in VEHICLE_CLASSES:
            if od.demand(cls) <= 0:
                continue
            for path in yen_k_shortest(network, link_state.cost(cls),
                                       od.origin, od.destination, k):
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
    """Run generation/assignment rounds, then the final tight solve."""
    path_set = PathSet()
    inner_config = replace(solver_config, gap_tol=pga_config.inner_gap)
    outer = []
    prev_total = None
    outer_converged = False
    result = None
    for m in range(1, pga_config.max_outer + 1):
        if result is None:
            link_state = cost_model.free_flow_state(network, params)
        else:
            link_state = cost_model.evaluate_links(network, result.flow.x_rv,
                                                   result.flow.x_av, params)
        tick = time.perf_counter()
        path_set, new_count = merge_path_sets(
            path_set, generate_paths(network, link_state, pga_config.k))
        assignment = Assignment(network, path_set, params)
        result = solve_assignment(assignment, inner_config,
                                  initial_flows=_carry_over(assignment, result))
        total = result.total_cost
        error = float("inf") if prev_total is None else (total - prev_total) / total
        outer.append(OuterRow(m, new_count, total, error,
                              result.iterations, time.perf_counter() - tick))
        prev_total = total
        if m >= 2 and abs(error) <= pga_config.outer_tol:
            outer_converged = True
            break
    final_gap = pga_config.final_gap
    final_config = solver_config if final_gap is None else replace(solver_config, gap_tol=final_gap)
    assignment = Assignment(network, path_set, params)
    final = solve_assignment(assignment, final_config,
                             initial_flows=_carry_over(assignment, result))
    return PgaResult(solve=final, path_set=path_set, outer=outer,
                     outer_converged=outer_converged)
