"""Loop-free paths, per-(OD, class) path sets, and Yen k-shortest search.

Path identity is the ordered link-id sequence: costs change every
iteration, the link sequence never does. Parallel links are supported, so
two distinct paths may share a node sequence.
"""

from __future__ import annotations

import bisect
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
        self.radj = [[] for _ in network.nodes]    # (from, cost, link id)
        self.cost, self._bounds = {}, {}
        for link, cost in zip(network.links, link_costs, strict=True):
            cost = float(cost)
            if not 0 < cost < math.inf:
                raise ValueError(f"link {link.id} has cost {cost}; "
                                 "expected a positive finite value")
            tail, head = self.index[link.from_node], self.index[link.to_node]
            self.adj[tail].append((head, link.id, cost, (head,), (link.id,)))
            self.radj[head].append((tail, cost, link.id))
            self.cost[link.id] = cost

    def bound(self, destination):
        """`(dist, tree)` to `destination`, by a reverse Dijkstra on first use:
        `dist[v]` is node index v's cheapest cost (`inf` if unreachable) and
        `tree[v]` its tree path as (nodes, links, link costs, margin), the least
        lead of a tree link over its node's next out-link (cost + head `dist`)."""
        kept = self._bounds.get(destination)
        if kept is None:
            dist, tree = [math.inf] * len(self.adj), [None] * len(self.adj)
            dist[destination] = 0.0
            parent, order = {}, []
            heap = [(0.0, destination)]
            while heap:
                cost, node = heapq.heappop(heap)
                if cost > dist[node]:
                    continue
                order.append(node)
                for from_node, step_cost, link in self.radj[node]:
                    cand = cost + step_cost
                    if cand < dist[from_node]:
                        dist[from_node] = cand
                        parent[from_node] = (node, link, step_cost)
                        heapq.heappush(heap, (cand, from_node))
            tree[destination] = ((destination,), (), (), math.inf)
            for node in order[1:]:    # each node's parent comes before it
                head, link, step_cost = parent[node]
                nodes, links, costs, margin = tree[head]
                margin = min([margin] + [c + dist[to] - dist[node]
                                         for to, other, c, _, _ in self.adj[node] if other != link])
                tree[node] = ((node,) + nodes, (link,) + links, (step_cost,) + costs, margin)
            kept = self._bounds[destination] = dist, tree
        return kept


def _shortest(adj, bound, tree, origin, destination, out, limit=math.inf):
    """Cheapest path `(cost, nodes, links)` over node indices from `origin`
    by one of its out-links `out` if it costs at most `limit`, else None or
    a dearer path; cost ties resolve to the smallest node, then link sequence.
    `bound` is `inf` at banned nodes and at nodes that cannot reach the end.

    The cheapest out-link and its head's `tree` path (`Graph.bound`) are the
    answer, with the search's forward cost sum, when they win every choice
    by a `_SLACK` margin and avoid `origin` and the banned nodes. Otherwise
    labels pop in A* order of key = cost + `bound`, and each node keeps its
    smallest label, so equal-cost prefixes resolve the way full paths do.
    The bound's float error is far below `_SLACK`, so once a key exceeds the
    first destination cost grown by `_SLACK` no label left can tie or beat
    it; before that, a key above `limit` ends the search."""
    first = second = math.inf
    pick = None
    for entry in out:
        value = entry[2] + bound[entry[0]]
        if value < first:
            first, second, pick = value, first, entry
        elif value < second:
            second = value
    if pick is None or first > limit:
        return None
    nodes, links, costs, margin = tree[pick[0]]
    slack = first * _SLACK
    if (second - first > slack and margin > slack and origin not in nodes
            and math.inf not in map(bound.__getitem__, nodes)):
        cost = pick[2]
        for step in costs:
            cost += step
        return cost, (origin,) + nodes, pick[4] + links
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
        for to_node, _, step_cost, to_step, link_step in (out if node == origin else adj[node]):
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
    return None if best[destination] is None else best[destination][1:]


def _deviations(graph, bound, tree, sink, nodes, links, start, trie, limit):
    """Spur paths `(cost, nodes, links, i)` off the path (`nodes`, `links`),
    added to `trie`, at each spur index i from `start` on, by `_shortest`
    within `limit`; root nodes are banned, and so are the trie's links off
    the root."""
    adj, root_cost, spur_bound, children = graph.adj, 0.0, bound.copy(), trie
    for i, spur_node in enumerate(nodes[:-1]):
        below = children.setdefault(links[i], {})
        if i >= start:
            out = [e for e in adj[spur_node] if e[1] not in children]
            spur = _shortest(adj, spur_bound, tree, spur_node, sink, out, limit - root_cost)
            if spur is not None:
                yield root_cost + spur[0], nodes[:i] + spur[1], links[:i] + spur[2], i
        root_cost += graph.cost[links[i]]
        spur_bound[spur_node] = math.inf
        children = below


def yen_k_shortest(network, link_costs, origin, destination, k, graph=None):
    """Up to k cheapest loop-free paths in nondecreasing cost order.

    `link_costs` is indexed like network.links and must be positive and
    finite; `graph`, when given, is a `Graph` already built on them and
    `link_costs` is not read again. Deviations are generated from each
    accepted path by banning, at every spur node, the links that previously
    accepted paths (kept in a trie) take out of the shared root. Spur nodes
    start at the index where the path left its parent's root (Lawler): an
    earlier spur would repeat a search whose result has already been seen.
    A spur search stops above the cost of the candidate that would be
    accepted last, when there are enough candidates to know it.
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
    source, sink = graph.index[origin], graph.index[destination]
    bound, tree = graph.bound(sink)
    if bound[source] == math.inf:
        raise ValueError(f"no path from {origin} to {destination}")
    accepted = [_shortest(graph.adj, bound, tree, source, sink, graph.adj[source])]
    seen, trie = {accepted[0][2]}, {}
    candidates, deviation = [], 0    # candidates in ascending order
    while len(accepted) < k:
        _, prev_nodes, prev_links = accepted[-1]
        need = k - len(accepted)
        limit = candidates[need - 1][0] * (1.0 + _SLACK) if len(candidates) >= need else math.inf
        for candidate in _deviations(graph, bound, tree, sink, prev_nodes, prev_links,
                                     deviation, trie, limit):
            if candidate[2] not in seen:
                seen.add(candidate[2])
                bisect.insort(candidates, candidate)
        if not candidates:
            break
        cost, nodes, links, deviation = candidates.pop(0)
        accepted.append((cost, nodes, links))
    ids = graph.node_ids
    return [Path(links=links, nodes=tuple(map(ids.__getitem__, nodes)))
            for _, nodes, links in accepted]


def holds_k_cheapest(graph, paths, origin, destination, k):
    """True when `paths` is not empty and no other loop-free path from
    `origin` to `destination` costs at most their k-th cheapest grown by
    `_SLACK` (any, with fewer than k), so Yen returns only paths of `paths`.
    Any other path leaves their trie by a link that is not a trie child."""
    sink = graph.index[destination]
    bound, tree = graph.bound(sink)
    costs = sorted(sum(map(graph.cost.__getitem__, path.links)) for path in paths)
    limit = costs[k - 1] * (1.0 + _SLACK) if len(costs) >= k else math.inf
    trie, walks = {}, []
    for path in paths:    # each trie node is searched off the first path through it
        children, shared = trie, 0
        while path.links[shared] in children:
            children, shared = children[path.links[shared]], shared + 1
        walks.append((path, shared + 1 if trie else 0))
        for link in path.links[shared:]:
            children = children.setdefault(link, {})
    return bool(paths) and not any(
        cost <= limit for path, start in walks
        for cost, *_ in _deviations(graph, bound, tree, sink, tuple(map(
            graph.index.__getitem__, path.nodes)), path.links, start, trie, limit))


def format_path_line(od_index, vehicle_class, cost, path):
    """One dump line per path: `od_index class cost node_sequence`."""
    nodes = "-".join(str(n) for n in path.nodes)
    return f"{od_index} {vehicle_class} {cost:.6g} {nodes}"
