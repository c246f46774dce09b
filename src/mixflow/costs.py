"""Link- and path-level cost model.

Covers the flow-share mixed capacity, BPR travel time, speed-based fuel
burn, per-class generalized link cost, additive path cost, and the
cross-nested-logit perceived path cost with its overlap commonality term.
All scalar operations also accept numpy arrays.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from .network import RV

BPR_COEF = 0.15
BPR_POWER = 4.0

# empirical gallons-per-mile fit, speeds in mph
FUEL_DISTANCE_DIVISOR = 36.44
FUEL_SPEED_COEF = 14.58
FUEL_SPEED_POWER = -0.625


@dataclass(frozen=True)
class ClassParams:
    """Behavioral and economic parameters for the two vehicle classes."""

    vot_rv: float = 1.0             # $/minute
    vot_av: float = 0.5             # $/minute
    fuel_price: float = 5.5         # $/gallon
    dispersion: float = 0.1         # 1/$, logit cost sensitivity
    nesting: float = 0.5            # (0, 1], 1 degenerates to plain logit
    swap_degree_rv: float = 0.85
    swap_degree_av: float = 1.0
    penetration: float = 0.5        # av share of total demand
    av_capacity_ratio: float = 2.0  # cap_av fallback multiplier
    flow_floor: float = 1e-9        # veh/h, guards log of vanishing flows

    def __post_init__(self):
        if self.dispersion <= 0:
            raise ValueError("dispersion must be positive")
        if not 0 < self.nesting <= 1:
            raise ValueError("nesting must lie in (0, 1]")
        if not self.vot_rv >= self.vot_av >= 0:
            raise ValueError("expected vot_rv >= vot_av >= 0")
        if self.fuel_price < 0:
            raise ValueError("fuel_price must be nonnegative")
        if self.swap_degree_rv <= 0 or self.swap_degree_av <= 0:
            raise ValueError("swap degrees must be positive")
        if not 0 <= self.penetration <= 1:
            raise ValueError("penetration must lie in [0, 1]")
        if self.av_capacity_ratio <= 0:
            raise ValueError("av_capacity_ratio must be positive")
        if self.flow_floor <= 0:
            raise ValueError("flow_floor must be positive")


@dataclass
class LinkState:
    """Per-link quantities at one flow vector (all fields are arrays)."""

    x_rv: np.ndarray
    x_av: np.ndarray
    mixed_cap: np.ndarray
    minutes: np.ndarray
    gallons: np.ndarray
    cost_rv: np.ndarray
    cost_av: np.ndarray

    def cost(self, vehicle_class):
        return self.cost_rv if vehicle_class == RV else self.cost_av


def _value(a):
    return float(a) if np.ndim(a) == 0 else a


def mixed_capacity(x_rv, x_av, cap_rv, cap_av):
    """Flow-share-weighted harmonic mean of the two class capacities.

    At zero total flow the ratio is indeterminate; the all-rv convention
    (return cap_rv) is used, which never affects equilibrium flows.
    """
    x_rv, x_av = np.asarray(x_rv, dtype=float), np.asarray(x_av, dtype=float)
    total = x_rv + x_av
    with np.errstate(divide="ignore", invalid="ignore"):
        cap = total / (x_rv / cap_rv + x_av / cap_av)
    return _value(np.where(total > 0, cap, cap_rv))


def link_travel_time(x_rv, x_av, free_time, capacity):
    """BPR travel time in minutes at the given per-class flows."""
    ratio = (np.asarray(x_rv, dtype=float) + np.asarray(x_av, dtype=float)) / capacity
    return _value(free_time * (1.0 + BPR_COEF * ratio**BPR_POWER))


def fuel_gallons(length, minutes):
    """Fuel burned traversing a link of `length` miles in `minutes` minutes."""
    length = np.asarray(length, dtype=float)
    mph = 60.0 * length / np.asarray(minutes, dtype=float)
    return _value(length / FUEL_DISTANCE_DIVISOR * FUEL_SPEED_COEF * mph**FUEL_SPEED_POWER)


def link_generalized_cost(minutes, gallons, vot, fuel_price):
    """Dollar cost of a link: time valued at `vot` plus fuel at `fuel_price`."""
    return _value(np.asarray(minutes, dtype=float) * vot + fuel_price * np.asarray(gallons, dtype=float))


def evaluate_links(network, x_rv, x_av, params):
    """Evaluate every per-link quantity at one link-flow vector."""
    x_rv = np.asarray(x_rv, dtype=float)
    x_av = np.asarray(x_av, dtype=float)
    cap = mixed_capacity(x_rv, x_av, network.caps_rv, network.caps_av)
    minutes = link_travel_time(x_rv, x_av, network.free_times, cap)
    gallons = fuel_gallons(network.lengths, minutes)
    return LinkState(
        x_rv=x_rv,
        x_av=x_av,
        mixed_cap=np.atleast_1d(cap),
        minutes=np.atleast_1d(minutes),
        gallons=np.atleast_1d(gallons),
        cost_rv=np.atleast_1d(link_generalized_cost(minutes, gallons, params.vot_rv, params.fuel_price)),
        cost_av=np.atleast_1d(link_generalized_cost(minutes, gallons, params.vot_av, params.fuel_price)),
    )


def free_flow_state(network, params):
    """Every per-link quantity at zero flow."""
    zeros = np.zeros(network.n_links)
    return evaluate_links(network, zeros, zeros, params)


def path_cost(path, link_costs):
    """Sum of member-link costs; `link_costs` maps link id to dollars."""
    return float(sum(link_costs[a] for a in path.links))


@dataclass(frozen=True)
class CnlEntries:
    """Per-(path, member link) entries of consecutive rv path groups, path
    by path. A nest is one link shared within one group."""

    ln_alpha: np.ndarray     # log(link length / path length)
    path_sizes: np.ndarray   # entries per path
    nest: np.ndarray         # nest of each entry
    nest_order: np.ndarray   # entries grouped by nest, in path order within a nest
    nest_sizes: np.ndarray   # entries per nest


def cnl_entries(groups, link_lengths):
    """The entries of an iterable of rv path groups; `link_lengths` maps
    link id to length."""
    alpha, nest, path_sizes = array("d"), array("q"), array("q")
    n_nests = 0
    for paths in groups:
        local = {}
        for p in paths:
            path_sizes.append(len(p.links))
            for a in p.links:
                alpha.append(link_lengths[a] / p.length)
                nest.append(local.setdefault(a, n_nests + len(local)))
        n_nests += len(local)
    nest = np.array(nest, dtype=np.intp)
    return CnlEntries(ln_alpha=np.log(alpha), path_sizes=np.array(path_sizes, dtype=np.intp),
                      nest=nest, nest_order=np.argsort(nest, kind="stable"),
                      nest_sizes=np.bincount(nest, minlength=n_nests))


def _segment_logsumexp(values, sizes):
    """log(sum(exp(v))) over consecutive segments of `values` (overwritten)
    of the given nonzero sizes, each shifted by its maximum."""
    starts = np.cumsum(sizes) - sizes
    peak = np.maximum.reduceat(values, starts)
    values -= np.repeat(peak, sizes)
    np.exp(values, out=values)
    return peak + np.log(np.add.reduceat(values, starts))


def cnl_commonalities(entries, path_costs_vec, theta, u):
    """Cross-nested commonality of the entries' paths at their observed costs.

    Both log-sum-exps (over each nest, then over each path's nests) shift
    every segment by its maximum, so whatever theta*cost is, no exponential
    overflows and every segment sum is at least 1.
    """
    inner = np.repeat(np.asarray(path_costs_vec, dtype=float) * -theta, entries.path_sizes)
    inner += entries.ln_alpha
    inner /= u
    log_nest = _segment_logsumexp(inner[entries.nest_order], entries.nest_sizes)
    exponent = np.multiply(log_nest, u - 1.0, out=log_nest)[entries.nest]
    exponent += entries.ln_alpha / u
    return _segment_logsumexp(exponent, entries.path_sizes)


def perceived_cost_rv(path_cost_vec, flow, demand, commonality, params):
    """Perceived rv path cost: observed cost plus the nested-logit terms;
    `demand` is the demand of each path's group.

    Flows are floored at params.flow_floor inside the log only; equilibrium
    flows are strictly positive but intermediate iterates may touch zero.
    """
    demand = np.asarray(demand, dtype=float)
    if np.any(demand <= 0):
        raise ValueError("rv perceived cost needs positive group demand")
    scale = params.nesting / params.dispersion
    safe_flow = np.maximum(np.asarray(flow, dtype=float), params.flow_floor)
    return _value(np.asarray(path_cost_vec, dtype=float)
                  - scale * np.asarray(commonality, dtype=float)
                  + scale * np.log(safe_flow / demand))

