"""Built-in benchmark topologies and seeded demand synthesis.

The classic 13-node and 24-node test networks ship with their standard
capacities and free-flow times; the demand tables are synthesized from a
seed because no canonical per-class demand exists for the mixed-fleet
setting. Lengths equal free-flow minutes (60 mph free speed).
"""

from __future__ import annotations

import numpy as np

from .network import network_from_tables, validate

# from, to, free_flow_minutes, capacity (veh/h)
_NGUYEN_LINKS = (
    (1, 5, 7, 800), (1, 12, 9, 400), (4, 5, 9, 200), (4, 9, 12, 800),
    (5, 6, 3, 350), (5, 9, 9, 250), (6, 7, 5, 400), (6, 10, 13, 250),
    (7, 8, 5, 250), (7, 11, 9, 300), (8, 2, 9, 550), (9, 10, 10, 550),
    (9, 13, 9, 200), (10, 11, 6, 400), (11, 2, 9, 500), (11, 3, 8, 300),
    (12, 6, 7, 700), (12, 8, 14, 200), (13, 3, 11, 600),
)

NGUYEN_OD_NODES = ((1, 2), (1, 3), (4, 2), (4, 3))

# from, to, capacity (veh/h), length, free_flow_minutes
_SIOUX_FALLS_LINKS = (
    (1, 2, 25900.20064, 6, 6), (1, 3, 23403.47319, 4, 4),
    (2, 1, 25900.20064, 6, 6), (2, 6, 4958.180928, 5, 5),
    (3, 1, 23403.47319, 4, 4), (3, 4, 17110.52372, 4, 4),
    (3, 12, 23403.47319, 4, 4), (4, 3, 17110.52372, 4, 4),
    (4, 5, 17782.7941, 2, 2), (4, 11, 4908.82673, 6, 6),
    (5, 4, 17782.7941, 2, 2), (5, 6, 4947.995469, 4, 4),
    (5, 9, 10000.0, 5, 5), (6, 2, 4958.180928, 5, 5),
    (6, 5, 4947.995469, 4, 4), (6, 8, 4898.587646, 2, 2),
    (7, 8, 7841.81131, 3, 3), (7, 18, 23403.47319, 2, 2),
    (8, 6, 4898.587646, 2, 2), (8, 7, 7841.81131, 3, 3),
    (8, 9, 5050.193156, 10, 10), (8, 16, 5045.822583, 5, 5),
    (9, 5, 10000.0, 5, 5), (9, 8, 5050.193156, 10, 10),
    (9, 10, 13915.78842, 3, 3), (10, 9, 13915.78842, 3, 3),
    (10, 11, 10000.0, 5, 5), (10, 15, 13512.00155, 6, 6),
    (10, 16, 4854.917717, 4, 4), (10, 17, 4993.510694, 8, 8),
    (11, 4, 4908.82673, 6, 6), (11, 10, 10000.0, 5, 5),
    (11, 12, 4908.82673, 6, 6), (11, 14, 4876.508287, 4, 4),
    (12, 3, 23403.47319, 4, 4), (12, 11, 4908.82673, 6, 6),
    (12, 13, 25900.20064, 3, 3), (13, 12, 25900.20064, 3, 3),
    (13, 24, 5091.256152, 4, 4), (14, 11, 4876.508287, 4, 4),
    (14, 15, 5127.526119, 5, 5), (14, 23, 4924.790605, 4, 4),
    (15, 10, 13512.00155, 6, 6), (15, 14, 5127.526119, 5, 5),
    (15, 19, 14564.75315, 3, 3), (15, 22, 9599.180565, 3, 3),
    (16, 8, 5045.822583, 5, 5), (16, 10, 4854.917717, 4, 4),
    (16, 17, 5229.910063, 2, 2), (16, 18, 19679.89671, 3, 3),
    (17, 10, 4993.510694, 8, 8), (17, 16, 5229.910063, 2, 2),
    (17, 19, 4823.950831, 2, 2), (18, 7, 23403.47319, 2, 2),
    (18, 16, 19679.89671, 3, 3), (18, 20, 23403.47319, 4, 4),
    (19, 15, 14564.75315, 3, 3), (19, 17, 4823.950831, 2, 2),
    (19, 20, 5002.607563, 4, 4), (20, 18, 23403.47319, 4, 4),
    (20, 19, 5002.607563, 4, 4), (20, 21, 5059.91234, 6, 6),
    (20, 22, 5075.697193, 5, 5), (21, 20, 5059.91234, 6, 6),
    (21, 22, 5229.910063, 2, 2), (21, 24, 4885.357564, 3, 3),
    (22, 15, 9599.180565, 3, 3), (22, 20, 5075.697193, 5, 5),
    (22, 21, 5229.910063, 2, 2), (22, 23, 5000.0, 4, 4),
    (23, 14, 4924.790605, 4, 4), (23, 22, 5000.0, 4, 4),
    (23, 24, 5078.508436, 2, 2), (24, 13, 5091.256152, 4, 4),
    (24, 21, 4885.357564, 3, 3), (24, 23, 5078.508436, 2, 2),
)


def synthesize_demand(od_nodes, seed, low, high):
    """Seeded per-OD totals, rounded to 0.1 veh/h for tidy fixture files."""
    rng = np.random.default_rng(seed)
    return {tuple(od): round(float(rng.uniform(low, high)), 1) for od in od_nodes}


def nguyen_network(params, demand=None, seed=0, low=300.0, high=900.0):
    """13-node, 19-link benchmark with four OD pairs."""
    if demand is None:
        demand = synthesize_demand(NGUYEN_OD_NODES, seed, low, high)
    rows = [(f, t, float(cap), float(fft), float(fft), None)
            for f, t, fft, cap in _NGUYEN_LINKS]
    network = network_from_tables(13, rows, demand, params)
    assert not validate(network)
    return network


def sioux_falls_od_nodes(seed=0, count=528):
    """Seeded choice of `count` of the 552 ordered node pairs."""
    pairs = [(o, d) for o in range(1, 25) for d in range(1, 25) if o != d]
    rng = np.random.default_rng(seed)
    drop = set(rng.choice(len(pairs), size=len(pairs) - count, replace=False).tolist())
    return tuple(p for i, p in enumerate(pairs) if i not in drop)


def sioux_falls_network(params, demand=None, seed=0, count=528, low=150.0, high=450.0):
    """24-node, 76-link benchmark with synthesized demand."""
    if demand is None:
        demand = synthesize_demand(sioux_falls_od_nodes(seed, count), seed, low, high)
    rows = [(f, t, float(cap), float(length), float(fft), None)
            for f, t, cap, length, fft in _SIOUX_FALLS_LINKS]
    network = network_from_tables(24, rows, demand, params)
    assert not validate(network)
    return network
