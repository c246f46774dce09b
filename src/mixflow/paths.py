"""Loop-free paths, per-(OD, class) path sets, and Yen k-shortest search.

Path identity is the ordered link-id sequence: costs change every
iteration, the link sequence never does. Parallel links are supported, so
two distinct paths may share a node sequence.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .network import AV, RV

_CLASS_ORDER = {RV: 0, AV: 1}

# relative margin of the A* stop rule, far above the float error of the bound
_SLACK = 1e-9


@dataclass(frozen=True)
class Path:
    links: tuple          # ordered link ids
    nodes: tuple          # ordered node ids, len(links) + 1
    length: float         # miles, sum of member-link lengths

    @property
    def key(self):
        return self.links


def build_path(network, link_ids):
    """Construct a Path from link ids, checking adjacency and loop-freeness."""
    if not link_ids:
        raise ValueError("a path needs at least one link")
    links = [network.link(a) for a in link_ids]
    nodes = [links[0].from_node]
    for prev, nxt in zip(links, links[1:]):
        if prev.to_node != nxt.from_node:
            raise ValueError(f"links {prev.id} and {nxt.id} are not adjacent")
    nodes.extend(l.to_node for l in links)
    if len(set(nodes)) != len(nodes):
        raise ValueError(f"path revisits a node: {nodes}")
    return Path(links=tuple(link_ids), nodes=tuple(nodes),
                length=float(sum(l.length for l in links)))


class PathSet:
    """Ordered, duplicate-free path collections keyed by (od_index, class)."""

    def __init__(self):
        self._groups = {}
        self._keys = set()

    def add(self, od_index, vehicle_class, path):
        """Insert a path; returns True when it was not already present."""
        group_key = (od_index, vehicle_class)
        paths = self._groups.setdefault(group_key, [])
        full_key = (od_index, vehicle_class, path.key)
        if full_key in self._keys:
            return False
        self._keys.add(full_key)
        paths.append(path)
        return True

    def group(self, od_index, vehicle_class):
        return tuple(self._groups.get((od_index, vehicle_class), ()))

    def items(self):
        """Groups in deterministic (od_index, rv-before-av) order."""
        order = sorted(self._groups, key=lambda k: (k[0], _CLASS_ORDER[k[1]]))
        return [(k, tuple(self._groups[k])) for k in order]

    def contains(self, od_index, vehicle_class, path):
        return (od_index, vehicle_class, path.key) in self._keys

    def copy(self):
        clone = PathSet()
        clone._groups = {k: list(v) for k, v in self._groups.items()}
        clone._keys = set(self._keys)
        return clone

    def __len__(self):
        return sum(len(v) for v in self._groups.values())


def merge_path_sets(current, generated):
    """Union by canonical key; returns (merged copy, count of new paths).

    Paths of `current` keep their positions in each group; new ones follow.
    """
    merged = current.copy()
    new_count = 0
    for (od_index, vehicle_class), paths in generated.items():
        for path in paths:
            if merged.add(od_index, vehicle_class, path):
                new_count += 1
    return merged, new_count


def _adjacency(network, link_costs):
    """Forward adjacency `(to, link id, cost)` and reverse `(from, cost)`."""
    adj = {n: [] for n in network.nodes}
    radj = {n: [] for n in network.nodes}
    for i, link in enumerate(network.links):
        cost = float(link_costs[i])
        if not 0 < cost < math.inf:
            raise ValueError(f"link {link.id} has cost {cost}; "
                             "expected a positive finite value")
        adj[link.from_node].append((link.to_node, link.id, cost))
        radj[link.to_node].append((link.from_node, cost))
    return adj, radj


def _costs_to(radj, destination):
    """Cheapest cost from every node that reaches `destination` (reverse
    Dijkstra); a lower bound on any spur search's remaining cost."""
    dist = {destination: 0.0}
    heap = [(0.0, destination)]
    while heap:
        cost, node = heapq.heappop(heap)
        if cost > dist[node]:
            continue
        for from_node, step_cost in radj[node]:
            cand = cost + step_cost
            if cand < dist.get(from_node, math.inf):
                dist[from_node] = cand
                heapq.heappush(heap, (cand, from_node))
    return dist


def _shortest(adj, bound, origin, destination, banned_nodes, banned_links):
    """Cheapest path; cost ties resolve to the lexicographically smallest
    node sequence (then link sequence, for parallel links).

    Labels `(cost, nodes, links)` pop in A* order, by cost plus `bound`;
    nodes absent from `bound` cannot reach the destination. Each node keeps
    its smallest label as a whole tuple, so equal-cost prefixes are resolved
    the way full paths are. `bound` sums costs in another order than the
    labels do, but its float error is far below `_SLACK`: once a key exceeds
    the first destination cost grown by `_SLACK` no remaining label can tie
    or beat it, and the smallest destination label is the exact answer.
    """
    push, pop = heapq.heappush, heapq.heappop
    start = (0.0, (origin,), ())
    best = {origin: start}
    heap = [(bound[origin], start)]
    stop = math.inf
    while heap:
        key, label = pop(heap)
        if key > stop:
            break
        cost, nodes, links = label
        node = nodes[-1]
        if best[node] is not label:
            continue
        if node == destination:
            if stop == math.inf:
                stop = cost * (1.0 + _SLACK)
            continue
        for to_node, link_id, step_cost in adj[node]:
            if to_node in banned_nodes or link_id in banned_links:
                continue
            to_bound = bound.get(to_node)
            if to_bound is None:
                continue
            g = cost + step_cost
            cur = best.get(to_node)
            if cur is not None and g > cur[0]:
                continue
            cand = (g, nodes + (to_node,), links + (link_id,))
            if cur is None or cand < cur:
                best[to_node] = cand
                push(heap, (g + to_bound, cand))
    return best.get(destination)


def yen_k_shortest(network, link_costs, origin, destination, k):
    """Up to k cheapest loop-free paths in nondecreasing cost order.

    `link_costs` is indexed like network.links and must be positive and
    finite. Deviations are generated from each accepted path by banning, at
    every spur node, the links that previously accepted paths take out of
    the shared root. Spur nodes start at the index where the path left its
    parent's root (Lawler): an earlier spur would repeat a search whose
    result has already been seen.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    for node in (origin, destination):
        if node not in network.node_set:
            raise ValueError(f"node {node} is not in the network")
    if origin == destination:
        raise ValueError(f"origin {origin} equals destination {destination}")
    adj, radj = _adjacency(network, link_costs)
    bound = _costs_to(radj, destination)
    link_cost_by_id = {network.links[i].id: float(link_costs[i])
                       for i in range(network.n_links)}
    if origin not in bound:
        raise ValueError(f"no path from {origin} to {destination}")
    first = _shortest(adj, bound, origin, destination, frozenset(), frozenset())
    accepted = [first]
    seen = {first[2]}
    candidates = []
    deviation = 0
    while len(accepted) < k:
        _, prev_nodes, prev_links = accepted[-1]
        root_cost = 0.0
        for i in range(deviation):
            root_cost += link_cost_by_id[prev_links[i]]
        for i in range(deviation, len(prev_links)):
            spur_node = prev_nodes[i]
            root_links = prev_links[:i]
            banned_links = {p_links[i] for _, _, p_links in accepted
                            if p_links[:i] == root_links}
            banned_nodes = set(prev_nodes[:i])
            spur = _shortest(adj, bound, spur_node, destination,
                             banned_nodes, banned_links)
            if spur is not None:
                spur_cost, spur_nodes, spur_links = spur
                total_links = root_links + spur_links
                if total_links not in seen:
                    seen.add(total_links)
                    heapq.heappush(candidates, (root_cost + spur_cost,
                                                prev_nodes[:i] + spur_nodes,
                                                total_links, i))
            root_cost += link_cost_by_id[prev_links[i]]
        if not candidates:
            break
        cost, nodes, links, deviation = heapq.heappop(candidates)
        accepted.append((cost, nodes, links))
    lengths = {l.id: l.length for l in network.links}
    return [Path(links=links, nodes=nodes,
                 length=float(sum(lengths[a] for a in links)))
            for _, nodes, links in accepted]


def format_path_line(od_index, vehicle_class, cost, path):
    """One dump line per path: `od_index class cost node_sequence`."""
    nodes = "-".join(str(n) for n in path.nodes)
    return f"{od_index} {vehicle_class} {cost:.6g} {nodes}"
