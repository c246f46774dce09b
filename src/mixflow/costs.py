"""Link- and path-level cost model.

Covers the flow-share mixed capacity, BPR travel time, speed-based fuel
burn, per-class generalized link cost, additive path cost, and the
cross-nested-logit perceived path cost with its overlap commonality term.
All scalar operations also accept numpy arrays.
"""

from __future__ import annotations

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

    def vot(self, vehicle_class):
        return self.vot_rv if vehicle_class == RV else self.vot_av

    def swap_degree(self, vehicle_class):
        return self.swap_degree_rv if vehicle_class == RV else self.swap_degree_av


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


def overlap_log_weights(paths, link_lengths):
    """Log of the length-share overlap weights for one rv path group.

    Returns (link_ids, ln_alpha) where ln_alpha has shape (n_links, n_paths)
    over the links appearing in at least one path of the group; entries for
    absent links are -inf.
    """
    link_ids = sorted({a for p in paths for a in p.links})
    pos = {a: i for i, a in enumerate(link_ids)}
    ln_alpha = np.full((len(link_ids), len(paths)), -np.inf)
    for k, p in enumerate(paths):
        for a in p.links:
            ln_alpha[pos[a], k] = np.log(link_lengths[a] / p.length)
    return link_ids, ln_alpha


def cnl_commonalities(ln_alpha, path_costs_vec, theta, u):
    """Cross-nested commonality of every path in one group.

    Evaluated fully in the log domain with the group costs recentred at
    their minimum, so large theta*cost values cannot overflow or underflow
    the intermediate exponentials.
    """
    c = np.asarray(path_costs_vec, dtype=float)
    c_ref = c.min()
    inner = (ln_alpha - theta * (c - c_ref)[None, :]) / u
    inner_max = inner.max(axis=1)
    finite = inner_max > -np.inf
    log_nest = np.full(inner_max.shape, -np.inf)
    if finite.any():
        rows = inner[finite] - inner_max[finite, None]
        log_nest[finite] = inner_max[finite] + np.log(np.exp(rows).sum(axis=1))
    with np.errstate(invalid="ignore"):
        exponent = ln_alpha / u + (u - 1.0) * log_nest[:, None]
    exponent = np.where(np.isneginf(ln_alpha), -np.inf, exponent)
    outer_max = exponent.max(axis=0)
    h = outer_max + np.log(np.exp(exponent - outer_max[None, :]).sum(axis=0))
    return h - (u - 1.0) * theta * c_ref / u


def perceived_cost_rv(path_cost_vec, flow, demand, commonality, params):
    """Perceived rv path cost: observed cost plus the nested-logit terms.

    Flows are floored at params.flow_floor inside the log only; equilibrium
    flows are strictly positive but intermediate iterates may touch zero.
    """
    if demand <= 0:
        raise ValueError("rv perceived cost needs positive group demand")
    scale = params.nesting / params.dispersion
    safe_flow = np.maximum(np.asarray(flow, dtype=float), params.flow_floor)
    return _value(np.asarray(path_cost_vec, dtype=float)
                  - scale * np.asarray(commonality, dtype=float)
                  + scale * np.log(safe_flow / demand))


def perceived_cost_av(path_cost_vec):
    """Perceived av path cost equals the observed cost (complete information)."""
    return path_cost_vec
