"""Loop-free paths, path-set merging, and Yen k-shortest search.

A path is its tuple of link ids: costs change every iteration, the link
sequence never does. Parallel links are supported, so two distinct paths
may share a node sequence; `node_sequences` derives them where printed.
"""

from __future__ import annotations

import bisect
import heapq
import math
from itertools import chain

import numpy as np

from .network import VEHICLE_CLASSES

# relative margin of the A* stop rule, far above the float error of the bound
_SLACK = 1e-9


def merge_path_sets(paths, group, new_paths, new_group):
    """The path set (`paths`, `group`) with (`new_paths`, `new_group`) added:
    `(paths, group, positions)` in ascending group order, each group's old
    paths first and in order, then its new ones; `positions[i]` is where old
    path i went. Paths are not compared, so a new path must be new."""
    groups = np.concatenate([np.asarray(group, np.intp), np.asarray(new_group, np.intp)])
    order = np.argsort(groups, kind="stable")
    positions = np.empty_like(order)
    positions[order] = np.arange(order.size)
    both = (*paths, *new_paths)
    return tuple(map(both.__getitem__, order.tolist())), groups[order], positions[:len(paths)]


def _lowest(indices):
    return int(indices.min()) if indices.size else None


def path_row_fault(network, group, sizes, link, key):
    """`(row, message)` of the first path row to fail a check, or None: row i
    is path `key(i)` of group `group[i]`, its `sizes[i]` link indices next in
    `link`. Each check runs over all rows, in the order one row meets them:
    a link at least, adjacency, no revisited node, the od's ends, no duplicate."""
    if (i := _lowest(np.flatnonzero(sizes < 1))) is not None:
        return i, "a path needs at least one link"
    n, stops = sizes.size, np.cumsum(sizes)
    starts = stops - sizes
    node_index = {v: i for i, v in enumerate(network.nodes)}
    tail = np.array([node_index[l.from_node] for l in network.links], np.int32)[link]
    head = np.array([node_index[l.to_node] for l in network.links], np.int32)[link]
    apart = head[:-1] != tail[1:]
    apart[stops[:-1] - 1] = False
    if (e := _lowest(np.flatnonzero(apart))) is not None:
        return (int(np.searchsorted(stops, e, side="right")),
                f"links {network.links[link[e]].id} and {network.links[link[e + 1]].id} "
                "are not adjacent")
    # each row's nodes, its first tail then every head, row i from at[i] on
    nodes = np.insert(head, starts, tail[starts])
    at = starts + np.arange(n)
    # a revisit is a pair of equal neighbours among the sorted (row, node) keys
    visits = np.repeat(np.arange(n) * len(node_index), sizes + 1)
    visits += nodes
    visits.sort(kind="stable")    # the default int64 sort maps in 0.2 MB more code
    if (i := _lowest(visits[1:][visits[1:] == visits[:-1]] // len(node_index))) is not None:
        return i, ("path revisits a node: "
                   f"{[network.nodes[v] for v in nodes[at[i]:at[i] + sizes[i] + 1]]}")
    ends = np.array([(node_index[q.origin], node_index[q.destination])
                     for q in network.od_pairs])[group // 2]
    astray = (ends != np.stack([nodes[at], nodes[at + sizes]], 1)).any(1)
    if (i := _lowest(np.flatnonzero(astray))) is not None:
        return i, f"path {key(i)} does not connect od {group[i] // 2}"
    del tail, head, nodes, visits    # before the duplicate table, to keep the peak memory down
    # a duplicate is a later one of equal neighbours among the stably sorted
    # (group, link sequence) rows, each one np.void; loop-free paths fit n_nodes columns
    table = np.full((n, sizes.max(initial=0) + 1), -1, dtype=np.int32)
    table[:, 0] = group
    table[np.repeat(np.arange(n), sizes),
          np.arange(link.size) - np.repeat(starts - 1, sizes)] = link
    rows = table.view(np.dtype((np.void, table.itemsize * table.shape[1])))[:, 0]
    order = np.argsort(rows, kind="stable")
    if (i := _lowest(order[1:][rows[order[1:]] == rows[order[:-1]]])) is not None:
        return i, f"duplicate row for path {key(i)}"
    return None


def path_rows(network, paths, group):
    """`(sizes, link)` of `paths` of groups `group` as path rows; a ValueError
    names the od and class of a `path_row_fault`, a KeyError an unknown link id."""
    sizes = np.fromiter(map(len, paths), np.intp, len(paths))
    link = np.fromiter(map(network.link_index.__getitem__, chain.from_iterable(paths)), np.intp)
    if fault := path_row_fault(network, group, sizes, link,
                               lambda i: "-".join(map(str, paths[i]))):
        od, cls = divmod(int(group[fault[0]]), 2)
        raise ValueError(f"od {od} class {VEHICLE_CLASSES[cls]}: {fault[1]}")
    return sizes, link


class Graph:
    """One class's link costs over node indices 0..n-1 in `network.nodes`
    order, shared by every Yen call at those costs. Node ids are sorted, so
    index tuples compare like node-id tuples and ties resolve as over ids."""

    def __init__(self, network, link_costs):
        self.index = {node: i for i, node in enumerate(network.nodes)}
        # (to, link id, cost, (to,), (link id,)): the 1-tuples extend labels
        self.adj = [[] for _ in network.nodes]
        self.radj = [[] for _ in network.nodes]    # (from, cost, link id)
        self.cost, self.ends, self._bounds = {}, {}, {}    # ends: link id -> (tail, head) indices
        for link, cost in zip(network.links, link_costs, strict=True):
            cost = float(cost)
            if not 0 < cost < math.inf:
                raise ValueError(f"link {link.id} has cost {cost}; "
                                 "expected a positive finite value")
            tail, head = self.index[link.from_node], self.index[link.to_node]
            self.adj[tail].append((head, link.id, cost, (head,), (link.id,)))
            self.radj[head].append((tail, cost, link.id))
            self.cost[link.id] = cost
            self.ends[link.id] = tail, head

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


def yen_k_shortest(network, link_costs, origin, destination, k, graph=None, known=()):
    """Up to k cheapest loop-free link-id tuples in nondecreasing cost order,
    less the paths of `known`, which count among the k like any other.

    `link_costs` is indexed like network.links and must be positive and
    finite; `graph`, when given, is a `Graph` already built on them and
    `link_costs` is not read again. Deviations are generated from each
    accepted path by banning, at every spur node, the links that previously
    accepted paths (kept in a trie) take out of the shared root. Spur nodes
    start at the index where the path left its parent's root (Lawler): an
    earlier spur would repeat a search whose result has already been seen.
    A spur search stops above the cost of the candidate that would be
    accepted last, when there are enough candidates to know it.

    Known paths (distinct, loop-free, origin to destination) all enter the
    trie first and start as candidates at their left-to-right link-cost
    sums; one pass searches each trie node off the first known path through
    it, so it finds only other paths, and an accepted known path is not
    searched again. Without known paths the search starts from the cheapest.
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
    trie, walks, candidates = {}, [], []    # candidates in ascending order
    for links in known:
        children, shared = trie, 0
        while links[shared] in children:
            children, shared = children[links[shared]], shared + 1
        nodes = (graph.ends[links[0]][0], *(graph.ends[link][1] for link in links))
        walks.append((nodes, links, shared + 1 if trie else 0))
        for link in links[shared:]:
            children = children.setdefault(link, {})
        candidates.append((sum(map(graph.cost.__getitem__, links)), nodes, links, -1))
    if not known:
        candidates.append(_shortest(graph.adj, bound, tree, source, sink, graph.adj[source]) + (0,))
    candidates.sort()
    seen = {candidate[2] for candidate in candidates}
    found, need = [], k
    while need:
        limit = candidates[need - 1][0] * (1.0 + _SLACK) if len(candidates) >= need else math.inf
        for nodes, links, start in walks:
            for candidate in _deviations(graph, bound, tree, sink, nodes, links, start,
                                         trie, limit):
                if candidate[2] not in seen:
                    seen.add(candidate[2])
                    bisect.insort(candidates, candidate)
        if not candidates:
            break
        walk = candidates.pop(0)[1:]    # (nodes, links, deviation)
        walks = [walk] if walk[2] >= 0 else []
        found += walks
        need -= 1
    return [links for _, links, _ in found]


def node_sequences(network, paths):
    """Each path's node ids: its first link's tail, then every link's head."""
    tail = {link.id: link.from_node for link in network.links}
    head = {link.id: link.to_node for link in network.links}
    return [(tail[links[0]], *map(head.__getitem__, links)) for links in paths]


def format_path_line(od_index, vehicle_class, cost, nodes):
    """One dump line per path: `od_index class cost node_sequence`."""
    return f"{od_index} {vehicle_class} {cost:.6g} {'-'.join(map(str, nodes))}"
