"""Independent equilibrium verification and flow-comparison metrics.

`certify_rows` reprices path flows from scratch: flat arrays with one row
per path ((OD, class) group, flow, link count) and one entry per (row, link).
Link flows and path costs are `np.bincount`s over the entries, rv perceived
costs come from the cross-nested kernel of `costs`, and the residuals are
segment reductions over (OD, class) groups. `certify` reads only a
`SolveResult`'s paths, groups and flows, never `Assignment`'s arrays, so it
certifies solver output rather than echo it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import costs as cost_model
from .network import VEHICLE_CLASSES
from .paths import path_rows


@dataclass
class EquilibriumReport:
    ncp_residual: float                   # $.veh/h, aggregate complementarity gap
    max_complementarity_violation: float  # $, worst single-path min(f, C - min)
    feasibility_violation: float          # veh/h, demand mismatch + negativity
    min_cost: dict                        # (od_index, class) -> lowest perceived cost
    total_cost: float
    relative_residual: float
    missing_demand: dict = field(default_factory=dict)  # (od_index, class) -> demand, no flows

    def _entries(self):
        """(text key, csv key, value) of every reported number."""
        names = ("ncp_residual", "relative_residual", "max_complementarity_violation",
                 "feasibility_violation", "total_cost")
        rows = [(name, name, getattr(self, name)) for name in names]
        for label, table in (("min_cost", self.min_cost), ("missing_demand", self.missing_demand)):
            rows += [(f"{label}[{od},{cls}]", f"{label}_{od}_{cls}", value)
                     for (od, cls), value in sorted(table.items())]
        return rows

    def to_text(self):
        return "\n".join(f"{key} = {value:.6g}" for key, _, value in self._entries())

    def csv_rows(self):
        return [(key, f"{value:.6g}") for _, key, value in self._entries()]


def link_flows_from_paths(network, column, entry_flow):
    """(class, link) link flows: the flow of every (row, link) entry summed
    into its column, the link index plus n_links for av rows."""
    n = network.n_links
    return np.bincount(column, entry_flow, 2 * n).reshape(2, n)


def ncp_residual(flows, costs, group, demand):
    """Complementarity-system residuals of a candidate flow pattern.

    `flows` and `costs` hold each path's flow and perceived cost, `group`
    its (OD, class) group 2 * od_index + class index, and `demand` the
    demand of every group. A demanded group without paths is reported
    missing, and its whole demand counts as infeasible.
    """
    n = demand.size
    lowest = np.full(n, np.inf)
    np.minimum.at(lowest, group, costs)
    excess = costs - lowest[group]
    paths = np.bincount(group, minlength=n)
    residual = float(np.abs(flows * excess).sum())
    total = float((flows * costs).sum())
    return EquilibriumReport(
        ncp_residual=residual,
        max_complementarity_violation=float(np.minimum(flows, excess).max(initial=0.0)),
        feasibility_violation=float(np.abs(np.bincount(group, flows, n) - demand).sum()
                                    + np.maximum(-flows, 0.0).sum()),
        min_cost=_by_group(paths > 0, lowest),
        total_cost=total,
        relative_residual=residual / total if total > 0 else float("inf"),
        missing_demand=_by_group((paths == 0) & (demand > 0), demand),
    )


def _by_group(mask, values):
    """{(od_index, class): value} of the groups in `mask`."""
    return {(g // 2, VEHICLE_CLASSES[g % 2]): float(values[g])
            for g in np.flatnonzero(mask).tolist()}


def certify_rows(network, group, flow, sizes, link, params):
    """Equilibrium report of path-flow rows: each row's (OD, class) group
    2 * od index + class index (0 rv, 1 av), flow and link count, and the
    link index of every (row, link) entry, row by row."""
    row = np.repeat(np.arange(flow.size), sizes)
    cls = group % 2
    column = link + network.n_links * cls[row]
    state = cost_model.evaluate_links(
        network, link_flows_from_paths(network, column, flow[row]), params)
    costs = np.bincount(row, state.cost.ravel()[column], flow.size)
    demand = network.group_demand
    # every rv row in one cross-nested evaluation; av perceived costs are observed
    rv = np.flatnonzero(cls == 0)
    if (bad := demand[group[rv]] <= 0).any():
        raise ValueError(f"od {group[rv][bad].min() // 2} class rv has flows "
                         "but no positive demand")
    entries = cost_model.cnl_entries(link, row, group, network.lengths)
    commonality = cost_model.cnl_commonalities(entries, costs[rv], params.dispersion,
                                               params.nesting)
    costs[rv] = cost_model.perceived_cost_rv(costs[rv], flow[rv], demand[group[rv]],
                                             commonality, params)
    return ncp_residual(flow, costs, group, demand)


def certify(network, result, params):
    """Equilibrium report of a SolveResult's flows, repriced from the link ids
    of its paths, checked by `paths.path_rows`, not from the solver's arrays."""
    return certify_rows(network, result.path_group, result.flow.f,
                        *path_rows(network, result.paths, result.path_group), params)


def flow_deviation(link_flows, reference_flows):
    """L1 deviation from the reference link flows, normalized by their total."""
    x = np.asarray(link_flows, dtype=float)
    ref = np.asarray(reference_flows, dtype=float)
    if x.shape != ref.shape:
        raise ValueError("flow vectors must share the link index set")
    denom = float(ref.sum())
    if denom <= 0:
        raise ValueError("reference flows sum to zero")
    return float(np.abs(x - ref).sum()) / denom


def r_squared(link_flows, reference_flows):
    """Coefficient of determination of flows against the reference."""
    x = np.asarray(link_flows, dtype=float)
    ref = np.asarray(reference_flows, dtype=float)
    ss_tot = float(((ref - ref.mean()) ** 2).sum())
    if ss_tot == 0:
        raise ValueError("reference flows are constant")
    ss_res = float(((x - ref) ** 2).sum())
    return 1.0 - ss_res / ss_tot
