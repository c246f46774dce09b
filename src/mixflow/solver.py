"""Flow-swapping equilibrium solver over a fixed path set of (OD, class) groups.

Each iteration reprices the network once at the current flows, computes a
pairwise flow-exchange direction within every (OD, class) group, scales it
by a step bounded through the largest relative outflow, and applies it.
The modified step rule reuses the swap-volume ratio when the volume is
shrinking; the baseline configuration always takes the damped step. A
modified solve whose gap has not halved in STALL_WINDOW iterations falls
back to the baseline rule, damped from GAMMA_INIT, for the rest of the run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import costs as cost_model
from .network import VEHICLE_CLASSES
from .paths import path_rows

MODIFIED = "modified"
BASELINE = "baseline"

H_FLOOR = 1e-10   # outflow-rate floor at (near-)equilibrium
STALL_WINDOW = 500   # modified iterations without the gap halving before the fallback
GAMMA_INIT = 9.5     # damping of a rule's first step


class SolverError(RuntimeError):
    """Numerical failure inside the solver loop (with iteration context)."""


@dataclass(frozen=True)
class SolverConfig:
    gap_tol: float = 1e-4
    gamma_growth: float = 1e-4     # additive damping increment per iteration
    max_iters: int = 10000
    mode: str = MODIFIED

    def __post_init__(self):
        # every check is written so that NaN fails it
        if not 0 < self.gap_tol < np.inf:
            raise ValueError("gap_tol must be positive and finite")
        if not 0 <= self.gamma_growth < np.inf:
            raise ValueError("gamma_growth must be nonnegative and finite")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.mode not in (MODIFIED, BASELINE):
            raise ValueError(f"unknown mode {self.mode!r}")


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
    f: np.ndarray                       # per-path flows in assignment order
    x: np.ndarray                       # (class, link) link flows
    link_state: cost_model.LinkState    # link costs at x
    path_costs: np.ndarray              # observed per-path costs at link_state


@dataclass
class SolveResult:
    flow: FlowState
    trace: list          # one TraceRow per iteration; the last one reports `flow`
    converged: bool
    paths: tuple         # the assignment's link-id tuples; path k carries flow.f[k]
    path_group: np.ndarray   # each path's (OD, class) group 2 * od_index + class index
    fallback_at: int = None   # stalled modified solve: its last modified iteration

    gap = property(lambda self: self.trace[-1].gap)
    total_cost = property(lambda self: self.trace[-1].total_cost)
    iterations = property(lambda self: len(self.trace))


class Assignment:
    """Array-backed view of a path set bound to one network and parameter set.

    `paths` and `path_group`, each path's (OD, class) group 2 * od_index +
    class index, hold the given paths sorted stably by group, less those of
    groups without positive demand. Construction fails on a non-integer or
    out-of-range group id, a demanded group without paths, and a path that
    `mixflow check` would reject as a path of its group (`paths.path_rows`).
    """

    def __init__(self, network, paths, path_group, params):
        self.network = network
        self.params = params
        if (path_group := np.asarray(path_group)).dtype.kind not in "iu" and path_group.size:
            raise ValueError(f"path group ids have dtype {path_group.dtype}, expected integers")
        path_group = path_group.astype(np.intp, copy=False)
        n_groups = network.group_demand.size
        if path_group.shape != (len(paths),):
            raise ValueError(f"{path_group.size} group ids for {len(paths)} paths")
        if (bad := (path_group < 0) | (path_group >= n_groups)).any():
            raise ValueError(f"path group {path_group[bad][0]} is outside 0..{n_groups - 1}")
        demanded = ~(network.group_demand <= 0)   # a NaN demand stays in
        order = np.argsort(path_group, kind="stable")
        order = order[demanded[path_group[order]]]
        self.paths = tuple(map(paths.__getitem__, order.tolist()))
        self.path_group = path_group[order]
        ids = np.flatnonzero(demanded)
        self.group_demands = network.group_demand[ids]
        self.group_sizes = np.bincount(self.path_group, minlength=n_groups)[ids]
        if not self.group_sizes.all():
            group = int(ids[np.argmin(self.group_sizes)])
            od, cls = network.od_pairs[group // 2], VEHICLE_CLASSES[group % 2]
            raise ValueError(f"od {group // 2} ({od.origin}->{od.destination}) has demand "
                             f"{network.group_demand[group]} for class {cls} but no paths")
        if not self.paths:
            raise ValueError("network has no demand")
        self.n_paths = n_paths = len(self.paths)
        self.group_starts = np.cumsum(self.group_sizes) - self.group_sizes
        self.demand_per_path = np.repeat(self.group_demands, self.group_sizes)
        path_sizes, link = path_rows(network, self.paths, self.path_group)
        self.entry_path = np.repeat(np.arange(n_paths, dtype=np.intp), path_sizes)
        self.cnl_entries = cost_model.cnl_entries(link, self.entry_path, self.path_group,
                                                  network.lengths)
        # each entry's column in the flat (class, link) layout: link index, plus n_links for av
        path_rv = self.path_group % 2 == 0
        self.entry_col = link
        self.entry_col[~path_rv[self.entry_path]] += network.n_links
        self.rv_paths = np.flatnonzero(path_rv)
        self.rv_demand = self.demand_per_path[self.rv_paths]
        self.drift_limit = 1e-9 * self.group_demands
        # every within-group pair (lo, hi) with lo < hi once, in path order:
        # path k pairs with each later path of its group
        group_stops = self.group_starts + self.group_sizes
        later = np.repeat(group_stops, self.group_sizes) - 1 - np.arange(n_paths)
        self.pair_lo = np.repeat(np.arange(n_paths), later)
        self.pair_hi = (self.pair_lo + 1 + np.arange(self.pair_lo.size)
                        - np.repeat(np.cumsum(later) - later, later))

    def uniform_flows(self):
        """Each group's demand spread evenly over its paths."""
        return np.repeat(self.group_demands / self.group_sizes, self.group_sizes)

    def link_flows(self, flows):
        n = self.network.n_links
        return np.bincount(self.entry_col, flows[self.entry_path], 2 * n).reshape(2, n)

    def path_costs(self, link_state):
        return np.bincount(self.entry_path, link_state.cost.ravel()[self.entry_col], self.n_paths)

    def perceived_costs(self, flows, path_cost_vec):
        params = self.params
        rv = self.rv_paths
        observed = path_cost_vec[rv]
        commonality = cost_model.cnl_commonalities(
            self.cnl_entries, observed, params.dispersion, params.nesting)
        perceived = path_cost_vec.copy()
        perceived[rv] = cost_model.perceived_cost_rv(
            observed, flows[rv], self.rv_demand, commonality, params)
        return perceived

    def swap_directions(self, flows, perceived):
        """Net pairwise flow exchange toward cheaper paths within every group.

        In each pair the dearer path sends its flow times the cost difference
        to the cheaper one, so a path without flow never gets a negative
        direction and each group's exchange sums to zero.
        """
        lo, hi = self.pair_lo, self.pair_hi
        rate = perceived[lo] - perceived[hi]
        sender = np.where(rate > 0.0, lo, hi)
        np.abs(rate, out=rate)
        rate *= flows[sender]   # flow moved from the sender to the other path
        return (np.bincount(lo + hi - sender, rate, self.n_paths)
                - np.bincount(sender, rate, self.n_paths))

    def group_sums(self, flows):
        return np.add.reduceat(flows, self.group_starts)


def max_relative_outflow(flows, direction, floor):
    """Largest drain rate -direction/flow over paths with negative direction,
    floored so the step divides safely at (near-)equilibrium. A path without
    flow never gets a negative swap direction, so no divisor is zero."""
    rates = np.divide(direction, flows, out=np.zeros_like(flows), where=direction < 0)
    rate = -float(rates.min())
    return rate if rate > floor else floor


def swap_volume(direction):
    """Total exchanged volume: the L1 norm of the swap direction."""
    return float(np.abs(direction).sum())


def step_size(drain, volume, prev_volume, damping, mode, gamma_growth):
    """Step and damping of rule `mode` for this iteration, given the damping
    of its last one.

    A rule's first step, at the start of the solve or after a stall fallback
    (`damping` None), is damped at GAMMA_INIT. Afterwards the damping grows
    by `gamma_growth` each iteration; the modified rule switches to the
    volume-ratio step whenever the swap volume is not increasing, while the
    baseline rule keeps the damped step throughout.
    """
    if damping is None:
        return 1.0 / (drain * GAMMA_INIT), GAMMA_INIT
    damping += gamma_growth
    if mode == BASELINE or volume > prev_volume:
        return 1.0 / (drain * damping), damping
    return (volume / prev_volume) / drain, damping


def update_flows(flows, direction, step, demand_per_path):
    """Apply one swap step; clamps sub-ulp negatives, rejects real ones."""
    new = flows + step * direction
    if new.min() < 0.0 and (bad := new < -1e-9 * demand_per_path).any():
        k = int(np.argmax(bad))
        raise SolverError(f"step produced negative flow {new[k]} at path {k}; "
                          "step size exceeded the feasibility bound")
    return np.maximum(new, 0.0, out=new)


def relative_gap(assignment, flows, perceived, total):
    """Demand-weighted excess perceived cost over each group minimum,
    normalized by `total`, the total perceived cost."""
    group_min = np.minimum.reduceat(perceived, assignment.group_starts)
    excess = perceived - np.repeat(group_min, assignment.group_sizes)
    return float((flows * excess).sum()) / total


def total_cost(flows, perceived):
    """Total perceived travel cost over all paths and classes; a `sum`, as a
    BLAS dot product's thread count would change its last bits."""
    return float((flows * perceived).sum())


def solve(network, paths, path_group, params, config, initial_flows=None, callback=None):
    """Run the flow-swapping loop on `Assignment(network, paths, path_group,
    params)` until the relative gap meets config.gap_tol.

    Returns a SolveResult whose flow state is the iterate the reported gap
    certifies, priced as that iteration priced it (the terminating
    iteration's update is not applied). Reaching max_iters is flagged via
    converged=False, not raised. The optional callback(iteration, flows,
    direction) fires after every applied update.
    """
    assignment = Assignment(network, paths, path_group, params)
    return solve_assignment(assignment, config, initial_flows, callback)


def solve_assignment(assignment, config, initial_flows=None, callback=None):
    params = assignment.params
    if initial_flows is None:
        flows = assignment.uniform_flows()
    else:
        flows = np.array(initial_flows, dtype=float)
        if flows.shape != (assignment.n_paths,):
            raise ValueError(f"initial flows have shape {flows.shape}, "
                             f"expected ({assignment.n_paths},)")
        if (bad := ~((flows >= 0) & (flows < np.inf))).any():   # NaN fails both
            raise ValueError(f"initial flows: path {np.argmax(bad)} has flow "
                             f"{flows[bad][0]}, expected finite and nonnegative")
        _check_conservation(assignment, flows, 0)
    trace = []
    mode, damping, fallback_at = config.mode, None, None   # the rule in force
    prev_volume = None
    converged = False
    mark_gap = mark_at = None     # the last gap at most half the one marked before it
    for iteration in range(1, config.max_iters + 1):
        tick = time.perf_counter()
        x = assignment.link_flows(flows)
        link_state = cost_model.evaluate_links(assignment.network, x, params)
        observed = assignment.path_costs(link_state)
        perceived = assignment.perceived_costs(flows, observed)
        total = total_cost(flows, perceived)
        # a non-finite perceived cost makes the total non-finite
        if not abs(total) < np.inf and not np.isfinite(perceived).all():
            k = int(np.argmax(~np.isfinite(perceived)))
            raise SolverError(f"non-finite perceived cost at iteration {iteration}, "
                              f"path index {k}")
        # the relative gap divides by the total, so a nonpositive one leaves it undefined
        if not total > 0.0:
            scale = params.nesting / params.dispersion
            raise SolverError(f"total perceived cost {total:.6g} at iteration {iteration} is not "
                              f"positive: nesting/dispersion ({scale:.6g}) is too large against "
                              "the dollar-cost scale")
        gap = relative_gap(assignment, flows, perceived, total)
        direction = assignment.swap_directions(flows, perceived)
        drain = max_relative_outflow(flows, direction, H_FLOOR)
        volume = swap_volume(direction)
        step, damping = step_size(drain, volume, prev_volume, damping, mode, config.gamma_growth)
        trace.append(TraceRow(iteration, gap, volume, total, step, damping,
                              (time.perf_counter() - tick) * 1e3))
        if gap <= config.gap_tol:
            converged = True
            break
        if iteration == config.max_iters:
            break
        if mark_at is None or gap <= 0.5 * mark_gap:
            mark_gap, mark_at = gap, iteration
        elif mode == MODIFIED and iteration - mark_at >= STALL_WINDOW:
            # stalled: the next iterations run the baseline rule from GAMMA_INIT
            mode, damping, fallback_at = BASELINE, None, iteration
        flows = update_flows(flows, direction, step, assignment.demand_per_path)
        _check_conservation(assignment, flows, iteration)
        if callback is not None:
            callback(iteration, flows, direction)
        prev_volume = volume
    return SolveResult(FlowState(flows, x, link_state, observed),
                       trace, converged, assignment.paths, assignment.path_group, fallback_at)


def _check_conservation(assignment, flows, iteration):
    drift = np.abs(assignment.group_sums(flows) - assignment.group_demands)
    if (drift > assignment.drift_limit).any():
        k = int(np.argmax(drift - assignment.drift_limit))
        od, cls = divmod(int(assignment.path_group[assignment.group_starts[k]]), 2)
        where = f"at iteration {iteration}" if iteration else "in the initial flows"
        error = SolverError if iteration else ValueError    # the caller gave the initial flows
        raise error(f"demand conservation drift {drift[k]:.3e} in od {od} "
                    f"class {VEHICLE_CLASSES[cls]} {where}")
