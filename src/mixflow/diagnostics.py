"""Independent equilibrium verification and flow-comparison metrics.

Everything here recomputes its inputs from first principles (plain loops
over paths for link flows and path costs) so it can certify solver output
rather than echo it. `certify` reprices a path-flow pattern from scratch
and feeds the rebuilt perceived costs to `ncp_residual`; a demanded (OD, class) group with no
flows is reported missing and counts its whole demand as infeasible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import costs as cost_model
from .network import AV, RV, VEHICLE_CLASSES


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
    costs_by_group = {key: np.array([cost_model.path_cost(p, cost_by_id[key[1]]) for p in paths])
                      for key, paths in path_set.items() if key in flows_by_group}
    demand_by_group = {key: network.od_pairs[key[0]].demand(key[1]) for key in costs_by_group}
    # every rv group in one cross-nested evaluation; av perceived costs are observed
    rv = [key for key in costs_by_group if key[1] == RV]
    if bad := [key for key in rv if not demand_by_group[key] > 0]:
        raise ValueError(f"od {bad[0][0]} class rv has flows but no positive demand")
    sizes = [len(costs_by_group[key]) for key in rv]
    observed = np.fromiter((c for key in rv for c in costs_by_group[key]), float)
    flows = np.fromiter((f for key in rv for f in flows_by_group[key]), float)
    lengths = {l.id: l.length for l in network.links}
    commonality = cost_model.cnl_commonalities(
        cost_model.cnl_entries([path_set.group(*key) for key in rv], lengths),
        observed, params.dispersion, params.nesting)
    perceived = cost_model.perceived_cost_rv(
        observed, flows, np.repeat([demand_by_group[key] for key in rv], sizes),
        commonality, params)
    costs_by_group.update(zip(rv, np.split(perceived, np.cumsum(sizes)[:-1])))
    report = ncp_residual(flows_by_group, costs_by_group, demand_by_group)
    for od_index, od in enumerate(network.od_pairs):
        for cls in VEHICLE_CLASSES:
            if od.demand(cls) > 0 and (od_index, cls) not in costs_by_group:
                report.missing_demand[(od_index, cls)] = od.demand(cls)
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
