"""Independent equilibrium verification and flow-comparison metrics.

Everything here recomputes its inputs from first principles (plain loops
over paths) so it can certify solver output rather than echo it.
`certify` reprices a path-flow pattern from scratch and feeds the rebuilt
perceived costs to `ncp_residual`; a demanded (OD, class) group with no
flows counts its whole demand as infeasible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import costs as cost_model
from .network import AV, RV, VEHICLE_CLASSES

USED_PATH_FRACTION = 1e-6   # f > fraction*q counts a path as used


@dataclass
class EquilibriumReport:
    ncp_residual: float                   # $.veh/h, aggregate complementarity gap
    max_complementarity_violation: float  # $, worst single-path min(f, C - min)
    feasibility_violation: float          # veh/h, demand mismatch + negativity
    min_cost: dict                        # (od_index, class) -> lowest perceived cost
    total_cost: float
    relative_residual: float

    def to_text(self):
        lines = [
            f"ncp_residual = {self.ncp_residual:.6g}",
            f"relative_residual = {self.relative_residual:.6g}",
            f"max_complementarity_violation = {self.max_complementarity_violation:.6g}",
            f"feasibility_violation = {self.feasibility_violation:.6g}",
            f"total_cost = {self.total_cost:.6g}",
        ]
        for (od_index, cls), value in sorted(self.min_cost.items()):
            lines.append(f"min_cost[{od_index},{cls}] = {value:.6g}")
        return "\n".join(lines)

    def csv_rows(self):
        rows = [("ncp_residual", f"{self.ncp_residual:.6g}"),
                ("relative_residual", f"{self.relative_residual:.6g}"),
                ("max_complementarity_violation", f"{self.max_complementarity_violation:.6g}"),
                ("feasibility_violation", f"{self.feasibility_violation:.6g}"),
                ("total_cost", f"{self.total_cost:.6g}")]
        for (od_index, cls), value in sorted(self.min_cost.items()):
            rows.append((f"min_cost_{od_index}_{cls}", f"{value:.6g}"))
        return rows


def link_flows_from_paths(path_set, flows_by_group, network):
    """Per-class link flows accumulated path by path."""
    x = {RV: np.zeros(network.n_links), AV: np.zeros(network.n_links)}
    for (od_index, cls), paths in path_set.items():
        flows = flows_by_group.get((od_index, cls))
        if flows is None:
            continue
        for path, flow in zip(paths, flows):
            for link_id in path.links:
                x[cls][network.link_index[link_id]] += flow
    return x[RV], x[AV]


def ncp_residual(flows_by_group, costs_by_group, demand_by_group):
    """Complementarity-system residuals of a candidate flow pattern.

    All three inputs are mappings keyed by (od_index, class): per-path
    flows, per-path perceived costs, and the scalar group demand.
    """
    residual = 0.0
    worst = 0.0
    infeasible = 0.0
    total = 0.0
    min_cost = {}
    for key, flows in flows_by_group.items():
        f = np.asarray(flows, dtype=float)
        c = np.asarray(costs_by_group[key], dtype=float)
        lowest = float(c.min())
        min_cost[key] = lowest
        excess = c - lowest
        residual += float(np.abs(f * excess).sum())
        worst = max(worst, float(np.minimum(f, excess).max()))
        infeasible += abs(float(f.sum()) - demand_by_group[key])
        infeasible += float(np.maximum(-f, 0.0).sum())
        total += float(f @ c)
    relative = residual / total if total > 0 else float("inf")
    return EquilibriumReport(
        ncp_residual=residual,
        max_complementarity_violation=worst,
        feasibility_violation=infeasible,
        min_cost=min_cost,
        total_cost=total,
        relative_residual=relative,
    )


def certify(network, path_set, flows_by_group, params):
    """Equilibrium report of per-path flows keyed by (od_index, class).

    `path_set` holds the paths the flows belong to, in the same order;
    its groups without flows are skipped.
    """
    x_rv, x_av = link_flows_from_paths(path_set, flows_by_group, network)
    state = cost_model.evaluate_links(network, x_rv, x_av, params)
    cost_by_id = {cls: {l.id: state.cost(cls)[i] for i, l in enumerate(network.links)}
                  for cls in VEHICLE_CLASSES}
    lengths = {l.id: l.length for l in network.links}
    costs_by_group = {}
    demand_by_group = {}
    for (od_index, cls), paths in path_set.items():
        flows = flows_by_group.get((od_index, cls))
        if flows is None:
            continue
        observed = np.array([cost_model.path_cost(p, cost_by_id[cls]) for p in paths])
        demand = network.od_pairs[od_index].demand(cls)
        if cls == RV:
            _, ln_alpha = cost_model.overlap_log_weights(paths, lengths)
            commonality = cost_model.cnl_commonalities(
                ln_alpha, observed, params.dispersion, params.nesting)
            perceived = cost_model.perceived_cost_rv(
                observed, flows, demand, commonality, params)
        else:
            perceived = cost_model.perceived_cost_av(observed)
        costs_by_group[(od_index, cls)] = perceived
        demand_by_group[(od_index, cls)] = demand
    report = ncp_residual(flows_by_group, costs_by_group, demand_by_group)
    for od_index, od in enumerate(network.od_pairs):
        for cls in VEHICLE_CLASSES:
            if od.demand(cls) > 0 and (od_index, cls) not in costs_by_group:
                report.feasibility_violation += od.demand(cls)
    return report


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
