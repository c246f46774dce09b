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


class PathSet:
    """Ordered, duplicate-free path collections keyed by (od_index, class):
    one insertion-ordered {link ids: path} dict per group."""

    def __init__(self):
        self._groups = {}

    def add(self, od_index, vehicle_class, path):
        """Insert a path; returns True when it was not already present."""
        paths = self._groups.setdefault((od_index, vehicle_class), {})
        if path.links in paths:
            return False
        paths[path.links] = path
        return True

    def group(self, od_index, vehicle_class):
        return tuple(self._groups.get((od_index, vehicle_class), {}).values())

    def items(self):
        """Groups in deterministic (od_index, rv-before-av) order."""
        order = sorted(self._groups, key=lambda k: (k[0], _CLASS_ORDER[k[1]]))
        return [(k, tuple(self._groups[k].values())) for k in order]

    def copy(self):
        clone = PathSet()
        clone._groups = {k: dict(v) for k, v in self._groups.items()}
        return clone

    def __len__(self):
        return sum(map(len, self._groups.values()))


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


class Graph:
    """One class's link costs over node indices 0..n-1 in `network.nodes`
    order, shared by every Yen call at those costs. Node ids are sorted, so
    index tuples compare like node-id tuples and ties resolve as over ids."""

    def __init__(self, network, link_costs):
        self.node_ids = network.nodes
        self.index = {node: i for i, node in enumerate(network.nodes)}
        # (to, link id, cost, (to,), (link id,)): the 1-tuples extend labels
        self.adj = [[] for _ in network.nodes]
        self.radj = [[] for _ in network.nodes]    # (from, cost)
        self.cost, self.length, self._bounds = {}, {}, {}
        for link, cost in zip(network.links, link_costs, strict=True):
            cost = float(cost)
            if not 0 < cost < math.inf:
                raise ValueError(f"link {link.id} has cost {cost}; "
                                 "expected a positive finite value")
            tail, head = self.index[link.from_node], self.index[link.to_node]
            self.adj[tail].append((head, link.id, cost, (head,), (link.id,)))
            self.radj[head].append((tail, cost))
            self.cost[link.id], self.length[link.id] = cost, link.length

    def bound(self, destination):
        """Cheapest cost from every node index to `destination` (`inf` where
        unreachable), a lower bound on any spur search's remaining cost; a
        reverse Dijkstra run on first use and kept."""
        dist = self._bounds.get(destination)
        if dist is None:
            dist = self._bounds[destination] = [math.inf] * len(self.adj)
            dist[destination] = 0.0
            heap = [(0.0, destination)]
            while heap:
                cost, node = heapq.heappop(heap)
                if cost > dist[node]:
                    continue
                for from_node, step_cost in self.radj[node]:
                    cand = cost + step_cost
                    if cand < dist[from_node]:
                        dist[from_node] = cand
                        heapq.heappush(heap, (cand, from_node))
        return dist


def _shortest(adj, bound, origin, destination, limit=math.inf):
    """Cheapest path label `(key, cost, nodes, links)` over node indices, or
    None; cost ties resolve to the smallest node sequence, then link sequence.

    Labels pop in A* order of key = cost + `bound` (`inf` at banned nodes
    and at nodes that cannot reach the destination). Each node keeps its
    smallest label, so equal-cost prefixes resolve the way full paths do.
    The bound's float error is far below `_SLACK`: once a key exceeds the
    first destination cost grown by `_SLACK`, no label left can tie or beat
    it. Before that, a key above `limit` ends the search, which may then
    return a path dearer than `limit` instead of the cheapest, or None.
    """
    push, pop, inf = heapq.heappush, heapq.heappop, math.inf
    start = (bound[origin], 0.0, (origin,), ())
    best = [None] * len(bound)
    best[origin] = start
    heap = [start]
    stop = limit
    while heap:
        label = pop(heap)
        key, cost, nodes, links = label
        if key > stop:
            break
        node = nodes[-1]
        if best[node] is not label:
            continue
        if node == destination:
            if stop == limit:
                stop = cost * (1.0 + _SLACK)
            continue
        for to_node, _, step_cost, to_step, link_step in adj[node]:
            to_bound = bound[to_node]
            if to_bound == inf:
                continue
            g = cost + step_cost
            cur = best[to_node]
            if cur is not None and g > cur[1]:
                continue
            cand = (g + to_bound, g, nodes + to_step, links + link_step)
            if cur is None or cand < cur:
                best[to_node] = cand
                push(heap, cand)
    return best[destination]


def yen_k_shortest(network, link_costs, origin, destination, k, graph=None):
    """Up to k cheapest loop-free paths in nondecreasing cost order.

    `link_costs` is indexed like network.links and must be positive and
    finite; `graph`, when given, is a `Graph` already built on them and
    `link_costs` is not read again. Deviations are generated from each
    accepted path by banning, at every spur node, the links that previously
    accepted paths take out of the shared root. Spur nodes start at the
    index where the path left its parent's root (Lawler): an earlier spur
    would repeat a search whose result has already been seen. A spur search
    stops above the cost of the candidate that would be accepted last, when
    there are enough candidates to know it.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    for node in (origin, destination):
        if node not in network.node_set:
            raise ValueError(f"node {node} is not in the network")
    if origin == destination:
        raise ValueError(f"origin {origin} equals destination {destination}")
    if graph is None:
        graph = Graph(network, link_costs)
    adj, cost_of, inf = graph.adj, graph.cost, math.inf
    source, sink = graph.index[origin], graph.index[destination]
    bound = graph.bound(sink)
    if bound[source] == inf:
        raise ValueError(f"no path from {origin} to {destination}")
    accepted = [_shortest(adj, bound, source, sink)[1:]]
    seen = {accepted[0][2]}
    candidates, deviation = [], 0
    while len(accepted) < k:
        _, prev_nodes, prev_links = accepted[-1]
        root_cost = 0.0
        sharing = [p for _, _, p in accepted]    # accepted paths sharing the root
        spur_adj, spur_bound = adj.copy(), bound.copy()
        nearest = heapq.nsmallest(k - len(accepted), candidates)
        limit = (nearest[-1][0] * (1.0 + _SLACK) if len(nearest) == k - len(accepted)
                 else inf)
        for i, spur_node in enumerate(prev_nodes[:-1]):
            if i >= deviation:
                # the banned links all leave the spur node: only its list changes
                banned_links = {p[i] for p in sharing}
                spur_adj[spur_node] = [e for e in adj[spur_node] if e[1] not in banned_links]
                spur = _shortest(spur_adj, spur_bound, spur_node, sink, limit - root_cost)
                if spur is not None:
                    _, spur_cost, spur_nodes, spur_links = spur
                    total_links = prev_links[:i] + spur_links
                    if total_links not in seen:
                        seen.add(total_links)
                        heapq.heappush(candidates, (root_cost + spur_cost,
                                                    prev_nodes[:i] + spur_nodes,
                                                    total_links, i))
            root_cost += cost_of[prev_links[i]]
            spur_bound[spur_node] = inf    # root nodes are banned
            sharing = [p for p in sharing if p[i] == prev_links[i]]
        if not candidates:
            break
        cost, nodes, links, deviation = heapq.heappop(candidates)
        accepted.append((cost, nodes, links))
    ids, lengths = graph.node_ids, graph.length
    return [Path(links=links, nodes=tuple(map(ids.__getitem__, nodes)),
                 length=float(sum(map(lengths.__getitem__, links))))
            for _, nodes, links in accepted]


def format_path_line(od_index, vehicle_class, cost, path):
    """One dump line per path: `od_index class cost node_sequence`."""
    nodes = "-".join(str(n) for n in path.nodes)
    return f"{od_index} {vehicle_class} {cost:.6g} {nodes}"
