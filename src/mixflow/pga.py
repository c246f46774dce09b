"""Path generation-assignment outer loop.

Alternates k-shortest-path generation on current per-class link costs with
a loose inner equilibrium solve until the total cost stabilizes, then runs
one final solve at the tight gap. A path set is its paths and their group
ids 2 * od index + class index, in ascending group order. Merging keeps
every old path, and its flow moves to the position the merge reports; new
paths start empty and pick up flow through the swap direction. Each round's
Yen search starts from a group's known paths and returns only new ones, so
a group whose known paths hold its k cheapest costs one pass of spur
searches over them. `generate_paths`
is also the one-shot path generator of `mixflow solve`: its free-flow round is
PGA's first.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from . import costs as cost_model
from .paths import Graph, merge_path_sets, yen_k_shortest
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
    outer: list
    outer_converged: bool


def generate_paths(network, link_state, k, known=(), known_group=()):
    """Up to k Yen paths, link-id tuples, for every demanded (OD, class) at
    the link state's per-class costs, as `(paths, group)` in ascending group
    order; one `Graph` per class serves all of that class's calls, built at
    its first demanded group. A group's paths in `known` (with ascending
    group ids `known_group`) count among its k and are not returned again,
    so a group whose known paths hold its k cheapest gets none."""
    paths, sizes, graphs = [], [], {}
    at = np.searchsorted(known_group, np.arange(network.group_demand.size + 1)).tolist()
    groups = np.flatnonzero(~(network.group_demand <= 0))
    for group in groups.tolist():
        od, cls = network.od_pairs[group // 2], group % 2
        if cls not in graphs:
            graphs[cls] = Graph(network, link_state.cost[cls])
        found = yen_k_shortest(network, link_state.cost[cls], od.origin, od.destination, k,
                               graph=graphs[cls], known=known[at[group]:at[group + 1]])
        paths += found
        sizes.append(len(found))
    return paths, np.repeat(groups, sizes)


def pga_solve(network, params, pga_config, solver_config):
    """Run generation/assignment rounds at pga_config.inner_gap, then the final
    solve at solver_config.gap_tol."""
    paths, group, flows = (), (), None
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
        paths, group, positions = merge_path_sets(
            paths, group, *generate_paths(network, link_state, pga_config.k, paths, group))
        gen_seconds = time.perf_counter() - tick
        assignment = Assignment(network, paths, group, params)
        if result is not None:    # every old path carries its flow over
            flows = np.zeros(assignment.n_paths)
            flows[positions] = result.flow.f
        result = solve_assignment(assignment, inner_config, initial_flows=flows)
        total = result.total_cost
        error = float("inf") if prev_total is None else (total - prev_total) / total
        outer.append(OuterRow(m, len(paths) - positions.size, total, error,
                              result.iterations, time.perf_counter() - tick, gen_seconds))
        prev_total = total
        if m >= 2 and abs(error) <= pga_config.outer_tol:
            outer_converged = True
            break
    final = solve_assignment(assignment, solver_config, initial_flows=result.flow.f)
    return PgaResult(solve=final, outer=outer, outer_converged=outer_converged)
