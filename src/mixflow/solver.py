"""Flow-swapping equilibrium solver over a fixed per-(OD, class) path set.

Each iteration reprices the network once at the current flows, computes a
pairwise flow-exchange direction within every (OD, class) group, scales it
by a step bounded through the largest relative outflow, and applies it.
The modified step rule reuses the swap-volume ratio when the volume is
shrinking; the baseline configuration always takes the damped step.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import costs as cost_model
from .network import RV, VEHICLE_CLASSES

MODIFIED = "modified"
BASELINE = "baseline"


class SolverError(RuntimeError):
    """Numerical failure inside the solver loop (with iteration context)."""


@dataclass(frozen=True)
class SolverConfig:
    gap_tol: float = 1e-4
    gamma_init: float = 9.5        # first-iteration step damping
    gamma_growth: float = 1e-4     # additive damping increment per iteration
    max_iters: int = 10000
    mode: str = MODIFIED
    h_floor: float = 1e-10         # outflow-rate floor at (near-)equilibrium

    def __post_init__(self):
        if self.gap_tol <= 0:
            raise ValueError("gap_tol must be positive")
        if self.gamma_init <= 0:
            raise ValueError("gamma_init must be positive")
        if self.gamma_growth < 0:
            raise ValueError("gamma_growth must be nonnegative")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.mode not in (MODIFIED, BASELINE):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.h_floor <= 0:
            raise ValueError("h_floor must be positive")


@dataclass
class TraceRow:
    iteration: int
    gap: float
    swap_volume: float
    total_cost: float
    step: float
    damping: float
    millis: float


@dataclass
class FlowState:
    f: np.ndarray        # per-path flows in assignment order
    x_rv: np.ndarray     # per-link rv flows
    x_av: np.ndarray     # per-link av flows
    iteration: int


@dataclass
class SolveResult:
    flow: FlowState
    trace: list
    converged: bool
    gap: float
    total_cost: float
    wall_seconds: float
    groups: list         # the assignment's groups; group g owns flow.f[g.start:g.stop]

    @property
    def iterations(self):
        return self.flow.iteration

    def flows_by_group(self):
        """Per-path flows keyed by (od_index, class), in group order."""
        return {(g.od_index, g.vehicle_class): self.flow.f[g.start:g.stop] for g in self.groups}


@dataclass
class _Group:
    od_index: int
    vehicle_class: str
    demand: float
    start: int
    stop: int
    paths: tuple


class Assignment:
    """Array-backed view of a path set bound to one network and parameter set.

    Groups are ordered by (od_index, rv-before-av); only (OD, class) pairs
    with positive demand participate. Construction fails if any demanded
    group has an empty path set.
    """

    def __init__(self, network, path_set, params):
        self.network = network
        self.params = params
        self.groups = []
        blocks = {}   # (group size, is rv) -> group starts
        n_paths = 0
        for od_index, od in enumerate(network.od_pairs):
            for cls in VEHICLE_CLASSES:
                demand = od.demand(cls)
                if demand <= 0:
                    continue
                paths = path_set.group(od_index, cls)
                if not paths:
                    raise ValueError(
                        f"od {od_index} ({od.origin}->{od.destination}) has demand "
                        f"{demand} for class {cls} but no paths")
                self.groups.append(_Group(od_index, cls, demand, n_paths,
                                          n_paths + len(paths), paths))
                blocks.setdefault((len(paths), cls == RV), []).append(n_paths)
                n_paths += len(paths)
        if n_paths == 0:
            raise ValueError("network has no demand")
        self.n_paths = n_paths
        # one column per (link, class): link index, plus n_links for av entries
        n_links = network.n_links
        path_sizes = np.fromiter((len(p.links) for g in self.groups for p in g.paths),
                                 np.intp, n_paths)
        self.path_starts = np.cumsum(path_sizes) - path_sizes
        self.entry_path = np.repeat(np.arange(n_paths, dtype=np.intp), path_sizes)
        self.entry_col = np.fromiter(
            (network.link_index[a] + (n_links if g.vehicle_class != RV else 0)
             for g in self.groups for p in g.paths for a in p.links),
            np.intp, len(self.entry_path))
        self.group_starts = np.asarray([g.start for g in self.groups], dtype=np.intp)
        self.group_sizes = np.asarray([g.stop - g.start for g in self.groups], dtype=np.intp)
        self.group_demands = np.asarray([g.demand for g in self.groups])
        self.demand_per_path = np.repeat(self.group_demands, self.group_sizes)
        self.rv_paths = np.fromiter((k for g in self.groups if g.vehicle_class == RV
                                     for k in range(g.start, g.stop)), np.intp)
        lengths = {l.id: l.length for l in network.links}
        self.cnl_entries = cost_model.cnl_entries(
            (g.paths for g in self.groups if g.vehicle_class == RV), lengths)
        # the groups of one size and class as one (groups, size) block of path
        # indices; single-path groups never swap
        self.swap_blocks = [(np.add.outer(starts, np.arange(size)), is_rv)
                            for (size, is_rv), starts in sorted(blocks.items()) if size > 1]

    def uniform_flows(self):
        """Each group's demand spread evenly over its paths."""
        return np.repeat(self.group_demands / self.group_sizes, self.group_sizes)

    def link_flows(self, flows):
        n = self.network.n_links
        x = np.bincount(self.entry_col, weights=flows[self.entry_path], minlength=2 * n)
        return x[:n], x[n:]

    def path_costs(self, link_state):
        per_entry = np.concatenate([link_state.cost_rv, link_state.cost_av])[self.entry_col]
        return np.add.reduceat(per_entry, self.path_starts)

    def perceived_costs(self, flows, path_cost_vec):
        params = self.params
        rv = self.rv_paths
        observed = path_cost_vec[rv]
        commonality = cost_model.cnl_commonalities(
            self.cnl_entries, observed, params.dispersion, params.nesting)
        perceived = np.array(path_cost_vec, dtype=float)
        perceived[rv] = cost_model.perceived_cost_rv(
            observed, flows[rv], self.demand_per_path[rv], commonality, params)
        return perceived

    def swap_directions(self, flows, perceived, degree_rv, degree_av):
        """Net pairwise flow exchange toward cheaper paths within every group.

        Every ordered pair of a group trades flow proportional to the
        sender's flow times the positive cost difference raised to the
        class degree; the net per-path exchange sums to zero over the group.
        """
        direction = np.zeros(self.n_paths)
        for block, is_rv in self.swap_blocks:
            f, c = flows[block], perceived[block]
            diff = c[:, :, None] - c[:, None, :]
            np.maximum(diff, 0.0, out=diff)
            degree = degree_rv if is_rv else degree_av
            if degree != 1.0:
                diff **= degree
            direction[block] = np.matmul(f[:, None, :], diff)[:, 0, :] - f * diff.sum(axis=2)
        return direction

    def group_sums(self, flows):
        return np.add.reduceat(flows, self.group_starts)


def max_relative_outflow(flows, direction, floor):
    """Largest drain rate -direction/flow over entries with flow and nonpositive
    direction; floored so the step divides safely at (near-)equilibrium."""
    mask = (flows > 0) & (direction <= 0)
    if not mask.any():
        return floor
    rate = float(np.max(-direction[mask] / flows[mask]))
    return rate if rate > floor else floor


def swap_volume(direction):
    """Total exchanged volume: the L1 norm of the swap direction."""
    return float(np.abs(direction).sum())


def step_size(iteration, drain, volume, prev_volume, prev_damping, config):
    """Step and damping for this iteration.

    The first iteration always takes the damped step. Afterwards the
    damping grows additively each iteration; the modified rule switches to
    the volume-ratio step whenever the swap volume is not increasing, while
    the baseline rule keeps the damped step throughout.
    """
    if iteration == 1:
        damping = config.gamma_init
        return 1.0 / (drain * damping), damping
    damping = prev_damping + config.gamma_growth
    if config.mode == BASELINE or volume > prev_volume:
        return 1.0 / (drain * damping), damping
    return (volume / prev_volume) / drain, damping


def update_flows(flows, direction, step, demand_per_path):
    """Apply one swap step; clamps sub-ulp negatives, rejects real ones."""
    new = flows + step * direction
    bad = new < -1e-9 * demand_per_path
    if bad.any():
        k = int(np.argmax(bad))
        raise SolverError(f"step produced negative flow {new[k]} at path {k}; "
                          "step size exceeded the feasibility bound")
    return np.maximum(new, 0.0)


def relative_gap(assignment, flows, perceived):
    """Demand-weighted excess perceived cost over each group minimum,
    normalized by total perceived cost."""
    denominator = float(flows @ perceived)
    if denominator == 0.0:
        raise ValueError("zero total perceived cost; no demand to measure")
    group_min = np.minimum.reduceat(perceived, assignment.group_starts)
    excess = perceived - np.repeat(group_min, assignment.group_sizes)
    return float(flows @ excess) / denominator


def total_cost(flows, perceived):
    """Total perceived travel cost over all paths and classes."""
    return float(flows @ perceived)


def solve(network, path_set, params, config, initial_flows=None, callback=None):
    """Run the flow-swapping loop until the relative gap meets config.gap_tol.

    Returns a SolveResult whose flow state is the iterate the reported gap
    certifies (the terminating iteration's update is not applied). Reaching
    max_iters is flagged via converged=False, not raised. The optional
    callback(iteration, flows, direction) fires after every applied update.
    """
    assignment = Assignment(network, path_set, params)
    return solve_assignment(assignment, config, initial_flows, callback)


def solve_assignment(assignment, config, initial_flows=None, callback=None):
    params = assignment.params
    if config.mode == BASELINE:
        degree_rv = degree_av = 1.0
    else:
        degree_rv, degree_av = params.swap_degree_rv, params.swap_degree_av
    if initial_flows is None:
        flows = assignment.uniform_flows()
    else:
        flows = np.array(initial_flows, dtype=float)
        if flows.shape != (assignment.n_paths,):
            raise ValueError(f"initial flows have shape {flows.shape}, "
                             f"expected ({assignment.n_paths},)")
    trace = []
    damping = None
    prev_volume = None
    converged = False
    started = time.perf_counter()
    iteration = 0
    while iteration < config.max_iters:
        iteration += 1
        tick = time.perf_counter()
        x_rv, x_av = assignment.link_flows(flows)
        link_state = cost_model.evaluate_links(assignment.network, x_rv, x_av, params)
        observed = assignment.path_costs(link_state)
        perceived = assignment.perceived_costs(flows, observed)
        if not np.isfinite(perceived).all():
            k = int(np.argmax(~np.isfinite(perceived)))
            raise SolverError(f"non-finite perceived cost at iteration {iteration}, "
                              f"path index {k}")
        direction = assignment.swap_directions(flows, perceived, degree_rv, degree_av)
        drain = max_relative_outflow(flows, direction, config.h_floor)
        volume = swap_volume(direction)
        step, damping = step_size(iteration, drain, volume, prev_volume, damping, config)
        gap = relative_gap(assignment, flows, perceived)
        trace.append(TraceRow(iteration, gap, volume, total_cost(flows, perceived),
                              step, damping, (time.perf_counter() - tick) * 1e3))
        # a negative gap means the cost normalization is out of domain
        # (negative total perceived cost); never treat it as converged
        if 0.0 <= gap <= config.gap_tol:
            converged = True
            break
        if iteration == config.max_iters:
            break
        flows = update_flows(flows, direction, step, assignment.demand_per_path)
        _check_conservation(assignment, flows, iteration)
        if callback is not None:
            callback(iteration, flows, direction)
        prev_volume = volume
    x_rv, x_av = assignment.link_flows(flows)
    last = trace[-1]
    return SolveResult(
        flow=FlowState(f=flows, x_rv=x_rv, x_av=x_av, iteration=iteration),
        trace=trace,
        converged=converged,
        gap=last.gap,
        total_cost=last.total_cost,
        wall_seconds=time.perf_counter() - started,
        groups=assignment.groups,
    )


def _check_conservation(assignment, flows, iteration):
    drift = np.abs(assignment.group_sums(flows) - assignment.group_demands)
    limit = 1e-9 * assignment.group_demands
    if np.any(drift > limit):
        k = int(np.argmax(drift - limit))
        g = assignment.groups[k]
        raise SolverError(f"demand conservation drift {drift[k]:.3e} in od {g.od_index} "
                          f"class {g.vehicle_class} at iteration {iteration}")
