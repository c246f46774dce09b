"""Loop-free paths, per-(OD, class) path sets, and Yen k-shortest search.

Path identity is the ordered link-id sequence: costs change every
iteration, the link sequence never does. Parallel links are supported, so
two distinct paths may share a node sequence.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .network import AV, RV

_CLASS_ORDER = {RV: 0, AV: 1}


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
    adj = {n: [] for n in network.nodes}
    for i, link in enumerate(network.links):
        cost = float(link_costs[i])
        if cost <= 0:
            raise ValueError(f"link {link.id} has nonpositive cost {cost}")
        adj[link.from_node].append((link.to_node, link.id, cost))
    return adj


def _shortest(adj, origin, destination, banned_nodes, banned_links):
    """Cheapest path; cost ties resolve to the lexicographically smallest
    node sequence (then link sequence, for parallel links).

    Per-node labels keep the best (cost, node sequence) seen, so equal-cost
    prefixes through a node are resolved the same way full paths are: the
    lexicographic winner at the first differing node wins any completion.
    """
    start = (0.0, (origin,), ())
    best = {origin: start}
    heap = [start]
    while heap:
        entry = heapq.heappop(heap)
        cost, nodes, links = entry
        node = nodes[-1]
        if node == destination:
            return entry
        if best.get(node) != entry:
            continue
        for to_node, link_id, step_cost in adj[node]:
            if to_node in banned_nodes or link_id in banned_links:
                continue
            cand = (cost + step_cost, nodes + (to_node,), links + (link_id,))
            cur = best.get(to_node)
            if cur is None or cand[:2] < cur[:2]:
                best[to_node] = cand
                heapq.heappush(heap, cand)
    return None


def yen_k_shortest(network, link_costs, origin, destination, k):
    """Up to k cheapest loop-free paths in nondecreasing cost order.

    `link_costs` is indexed like network.links. Deviations are generated
    from each accepted path by banning, at every spur node, the links that
    previously accepted paths take out of the shared root.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    for node in (origin, destination):
        if node not in network.node_set:
            raise ValueError(f"node {node} is not in the network")
    adj = _adjacency(network, link_costs)
    link_cost_by_id = {network.links[i].id: float(link_costs[i])
                       for i in range(network.n_links)}
    first = _shortest(adj, origin, destination, frozenset(), frozenset())
    if first is None:
        raise ValueError(f"no path from {origin} to {destination}")
    accepted = [first]
    seen = {first[2]}
    candidates = []
    while len(accepted) < k:
        _, prev_nodes, prev_links = accepted[-1]
        root_cost = 0.0
        for i in range(len(prev_links)):
            spur_node = prev_nodes[i]
            root_links = prev_links[:i]
            banned_links = {p_links[i] for _, _, p_links in accepted
                            if p_links[:i] == root_links}
            banned_nodes = set(prev_nodes[:i])
            spur = _shortest(adj, spur_node, destination, banned_nodes, banned_links)
            if spur is not None:
                spur_cost, spur_nodes, spur_links = spur
                total_links = root_links + spur_links
                if total_links not in seen:
                    seen.add(total_links)
                    heapq.heappush(candidates, (root_cost + spur_cost,
                                                prev_nodes[:i] + spur_nodes,
                                                total_links))
            root_cost += link_cost_by_id[prev_links[i]]
        if not candidates:
            break
        accepted.append(heapq.heappop(candidates))
    lengths = {l.id: l.length for l in network.links}
    return [Path(links=links, nodes=nodes,
                 length=float(sum(lengths[a] for a in links)))
            for _, nodes, links in accepted]


def format_path_line(od_index, vehicle_class, cost, path):
    """One dump line per path: `od_index class cost node_sequence`."""
    nodes = "-".join(str(n) for n in path.nodes)
    return f"{od_index} {vehicle_class} {cost:.6g} {nodes}"
