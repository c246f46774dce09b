"""Link- and path-level cost model.

Covers the flow-share mixed capacity, BPR travel time, speed-based fuel
burn, per-class generalized link cost, additive path cost, and the
cross-nested-logit perceived path cost with its overlap commonality term.
The BPR, fuel and dollar-cost formulas are ufunc arithmetic that `evaluate_links`
runs on arrays; `np.power`, not `**`, gives one link the array loop's bits.
Per-class link arrays use the (class, link) layout of `Network.caps`: row i
is class VEHICLE_CLASSES[i], so the flat index is class index * n_links + link.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BPR_COEF = 0.15
BPR_POWER = 4.0

# empirical gallons-per-mile fit, speeds in mph
FUEL_DISTANCE_DIVISOR = 36.44
FUEL_SPEED_COEF = 14.58
FUEL_SPEED_POWER = -0.625

FLOW_FLOOR = 1e-9   # veh/h, guards the log of vanishing flows


@dataclass(frozen=True)
class ClassParams:
    """Behavioral and economic parameters for the two vehicle classes."""

    vot_rv: float = 1.0             # $/minute
    vot_av: float = 0.5             # $/minute
    fuel_price: float = 5.5         # $/gallon
    dispersion: float = 0.1         # 1/$, logit cost sensitivity
    nesting: float = 0.5            # (0, 1], 1 degenerates to plain logit
    penetration: float = 0.5        # av share of total demand
    av_capacity_ratio: float = 2.0  # cap_av fallback multiplier

    def __post_init__(self):
        # every check is written so that NaN fails it
        if not 0 < self.dispersion < np.inf:
            raise ValueError("dispersion must be positive and finite")
        if not 0 < self.nesting <= 1:
            raise ValueError("nesting must lie in (0, 1]")
        if not np.inf > self.vot_rv >= self.vot_av >= 0:
            raise ValueError("expected finite vot_rv >= vot_av >= 0")
        if not 0 <= self.fuel_price < np.inf:
            raise ValueError("fuel_price must be nonnegative and finite")
        if not 0 <= self.penetration <= 1:
            raise ValueError("penetration must lie in [0, 1]")
        if not 0 < self.av_capacity_ratio < np.inf:
            raise ValueError("av_capacity_ratio must be positive and finite")


@dataclass
class LinkState:
    """Per-link quantities at one (class, link) flow array."""

    mixed_cap: np.ndarray
    minutes: np.ndarray
    cost: np.ndarray       # (class, link) generalized cost


def link_travel_time(total, free_time, capacity):
    """BPR travel time in minutes at the given total (all-class) flow."""
    return free_time * (1.0 + BPR_COEF * np.power(total / capacity, BPR_POWER))


def fuel_gallons(length, minutes):
    """Fuel burned traversing a link of `length` miles in `minutes` minutes."""
    mph = 60.0 * length / minutes
    return length / FUEL_DISTANCE_DIVISOR * FUEL_SPEED_COEF * np.power(mph, FUEL_SPEED_POWER)


def link_generalized_cost(minutes, gallons, vot, fuel_price):
    """Dollar cost of a link: time valued at `vot` plus fuel at `fuel_price`."""
    return minutes * vot + fuel_price * gallons


def evaluate_links(network, x, params):
    """Evaluate every per-link quantity at one (class, link) flow array."""
    total = x[0] + x[1]
    # flow-share-weighted harmonic mean of the class capacities; cap_rv at zero flow
    shares = x / network.caps
    cap = np.divide(total, shares[0] + shares[1], out=network.caps[0].copy(), where=total > 0)
    minutes = link_travel_time(total, network.free_times, cap)
    gallons = fuel_gallons(network.lengths, minutes)
    vot = np.array([[params.vot_rv], [params.vot_av]])
    return LinkState(cap, minutes, link_generalized_cost(minutes, gallons, vot, params.fuel_price))


def free_flow_state(network, params):
    """Every per-link quantity at zero flow."""
    return evaluate_links(network, np.zeros((2, network.n_links)), params)


@dataclass(frozen=True)
class CnlEntries:
    """Per-(path, member link) entries of rv paths, path by path. A nest is
    one link shared within one group; nests are numbered 0 .. n_nests - 1."""

    ln_alpha: np.ndarray   # log(link length / path length)
    path: np.ndarray       # path of each entry
    nest: np.ndarray       # nest of each entry
    n_nests: int


def cnl_entries(link, row, group, lengths):
    """The entries of the rv rows, paths 0 .. n_rv - 1 in row order, of path
    rows given as each entry's link index and row (a row's entries in link
    order) and each row's group; `lengths` holds the link lengths."""
    rv = group[row] % 2 == 0
    path, group, link = (np.cumsum(group % 2 == 0) - 1)[row[rv]], group[row[rv]], link[rv]
    link_length = lengths[link]
    # a bincount sums each path in link order, as `sum` over its links does
    ln_alpha = np.log(link_length / np.bincount(path, link_length)[path])
    key = group * lengths.size + link
    order = np.argsort(key, kind="stable")
    first = np.ones(key.size, dtype=bool)
    first[1:] = key[order[1:]] != key[order[:-1]]
    nest = np.empty_like(order)
    nest[order] = np.cumsum(first) - 1
    return CnlEntries(ln_alpha, path, nest, int(first.sum()))


def _segment_logsumexp(values, segment, n):
    """log(sum(exp(v))) of `values` (overwritten) over each of the n nonempty
    segments that `segment` assigns the entries to, shifted by its maximum."""
    peak = np.full(n, -np.inf)
    np.maximum.at(peak, segment, values)
    values -= peak[segment]
    np.exp(values, out=values)
    return peak + np.log(np.bincount(segment, values, n))


def cnl_commonalities(entries, path_costs_vec, theta, u):
    """Cross-nested commonality of the entries' paths at their observed costs.

    Both log-sum-exps (over each nest, then over each path's nests) shift
    every segment by its maximum, so whatever theta*cost is, no exponential
    overflows and every segment sum is at least 1.
    """
    path_costs_vec = np.asarray(path_costs_vec, dtype=float)
    inner = path_costs_vec[entries.path] * -theta
    inner += entries.ln_alpha
    inner /= u
    log_nest = _segment_logsumexp(inner, entries.nest, entries.n_nests)
    exponent = np.multiply(log_nest, u - 1.0, out=log_nest)[entries.nest]
    exponent += entries.ln_alpha / u
    return _segment_logsumexp(exponent, entries.path, path_costs_vec.size)


def perceived_cost_rv(path_cost_vec, flow, demand, commonality, params):
    """Perceived rv path cost: observed cost plus the nested-logit terms;
    `demand` is the (positive) demand of each path's group.

    Flows are floored at FLOW_FLOOR inside the log only; equilibrium
    flows are strictly positive but intermediate iterates may touch zero.
    """
    scale = params.nesting / params.dispersion
    return (path_cost_vec - scale * commonality
            + scale * np.log(np.maximum(flow, FLOW_FLOOR) / demand))
