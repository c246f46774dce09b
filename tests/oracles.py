"""Independent reference implementations used only to generate expected values.

Nothing here may import from the code paths it is checking beyond plain
data types: enumeration instead of Yen, label-correcting search instead of
the heap search, direct transliterations instead of log-domain evaluation.
`plain_yen` is the Yen search `paths.yen_k_shortest` ran before its spur
searches were bounded by a reverse shortest-path tree and started at the
deviation node: a full spur search at every index, plain Dijkstra. It is
kept as the reference the bounded search must match path for path.
`certify_by_paths` is the equilibrium certificate as it ran path by path
over dicts keyed by link id and (OD, class), the reference of the flat
array certificate; it shares only the link cost model and the CNL kernel,
which have oracles of their own. `build_path` is the per-path constructor
the `path_flows.csv` reader's array checks are fuzzed against.
"""

import heapq

import numpy as np
from mpmath import mp

from mixflow import costs as cost_model
from mixflow.diagnostics import EquilibriumReport
from mixflow.network import AV, RV, VEHICLE_CLASSES
from mixflow.paths import Path


def enumerate_simple_paths(network, origin, destination):
    """All loop-free paths as (links, nodes) tuples, by exhaustive DFS."""
    out = {}
    for i, link in enumerate(network.links):
        out.setdefault(link.from_node, []).append((link.to_node, link.id))
    results = []

    def walk(node, nodes, links):
        if node == destination:
            results.append((tuple(links), tuple(nodes)))
            return
        for to_node, link_id in out.get(node, ()):
            if to_node in nodes:
                continue
            walk(to_node, nodes + [to_node], links + [link_id])

    walk(origin, [origin], [])
    return results


def incidence(path_set, od_index, vehicle_class, link_id, path):
    """1 if the link belongs to a path registered in the set, else 0."""
    if path.links not in {p.links for p in path_set.group(od_index, vehicle_class)}:
        raise KeyError(f"unknown path key {path.links}")
    return int(link_id in path.links)


def path_cost_by_id(links, cost_by_id):
    return sum(cost_by_id[a] for a in links)


def path_cost(path, link_costs):
    """Sum of member-link costs; `link_costs` maps link id to dollars."""
    return float(path_cost_by_id(path.links, link_costs))


def build_path(network, link_ids):
    """Construct a Path from link ids, checking adjacency and loop-freeness;
    an unknown link id raises KeyError."""
    if not link_ids:
        raise ValueError("a path needs at least one link")
    links = [network.links[network.link_index[a]] for a in link_ids]
    nodes = [links[0].from_node]
    for prev, nxt in zip(links, links[1:]):
        if prev.to_node != nxt.from_node:
            raise ValueError(f"links {prev.id} and {nxt.id} are not adjacent")
    nodes.extend(l.to_node for l in links)
    if len(set(nodes)) != len(nodes):
        raise ValueError(f"path revisits a node: {nodes}")
    return Path(links=tuple(link_ids), nodes=tuple(nodes))


def k_cheapest_paths(network, link_costs, origin, destination, k):
    """The k cheapest simple paths by enumeration, cost then node order."""
    cost_by_id = {l.id: float(link_costs[i]) for i, l in enumerate(network.links)}
    ranked = sorted(
        ((path_cost_by_id(links, cost_by_id), nodes, links)
         for links, nodes in enumerate_simple_paths(network, origin, destination)),
        key=lambda t: (t[0], t[1], t[2]))
    return ranked[:k]


def bellman_ford(network, link_costs, origin, destination):
    """Label-correcting shortest path, independent of the heap search."""
    cost_by_id = {l.id: float(link_costs[i]) for i, l in enumerate(network.links)}
    best = {origin: (0.0, (origin,), ())}
    for _ in range(len(network.nodes)):
        changed = False
        for link in network.links:
            cur = best.get(link.from_node)
            if cur is None:
                continue
            cand = (cur[0] + cost_by_id[link.id],
                    cur[1] + (link.to_node,),
                    cur[2] + (link.id,))
            old = best.get(link.to_node)
            if old is None or cand[:2] < old[:2]:
                best[link.to_node] = cand
                changed = True
        if not changed:
            break
    return best.get(destination)



def _plain_shortest(adj, origin, destination, banned_nodes, banned_links):
    """Plain Dijkstra over (cost, node sequence, link sequence) labels."""
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


def plain_yen(network, link_costs, origin, destination, k):
    """Up to k (cost, nodes, links) in Yen order: every spur index of every
    accepted path is searched, each search a plain Dijkstra."""
    adj = {n: [] for n in network.nodes}
    for i, link in enumerate(network.links):
        adj[link.from_node].append((link.to_node, link.id, float(link_costs[i])))
    cost_by_id = {l.id: float(link_costs[i]) for i, l in enumerate(network.links)}
    first = _plain_shortest(adj, origin, destination, frozenset(), frozenset())
    if first is None:
        return []
    accepted = [first]
    seen = {first[2]}
    candidates = []
    while len(accepted) < k:
        _, prev_nodes, prev_links = accepted[-1]
        root_cost = 0.0
        for i in range(len(prev_links)):
            root_links = prev_links[:i]
            banned_links = {p_links[i] for _, _, p_links in accepted
                            if p_links[:i] == root_links}
            spur = _plain_shortest(adj, prev_nodes[i], destination,
                                   set(prev_nodes[:i]), banned_links)
            if spur is not None and root_links + spur[2] not in seen:
                seen.add(root_links + spur[2])
                heapq.heappush(candidates, (root_cost + spur[0],
                                            prev_nodes[:i] + spur[1],
                                            root_links + spur[2]))
            root_cost += cost_by_id[prev_links[i]]
        if not candidates:
            break
        accepted.append(heapq.heappop(candidates))
    return accepted


def mixed_capacity(x_rv, x_av, cap_rv, cap_av):
    """Flow-share-weighted harmonic mean of the two class capacities of one link.

    At zero total flow the ratio is indeterminate; the all-rv convention
    (return cap_rv) is used, which never affects equilibrium flows.
    """
    total = x_rv + x_av
    return total / (x_rv / cap_rv + x_av / cap_av) if total > 0 else cap_rv


def path_length(path, lengths):
    """Sum of member-link lengths in path order; `lengths` maps link id to length."""
    return sum(lengths[a] for a in path.links)


def overlap_alpha(link_id, path, lengths):
    """Length share of the link within `path`; zero when the link is not a
    member. `lengths` maps link id to length."""
    if link_id not in path.links:
        return 0.0
    return lengths[link_id] / path_length(path, lengths)


def alpha_matrix(paths, lengths):
    """Dense (link, path) overlap weights over the links of `paths` in id
    order; `lengths` maps link id to length."""
    link_ids = sorted({a for p in paths for a in p.links})
    return np.array([[overlap_alpha(a, p, lengths) for p in paths] for a in link_ids])


def naive_cnl_commonality(alpha, path_costs, theta, u):
    """Direct float transliteration of the commonality expression."""
    alpha = np.asarray(alpha, dtype=float)
    c = np.asarray(path_costs, dtype=float)
    n_links, n_paths = alpha.shape
    h = np.empty(n_paths)
    with np.errstate(divide="ignore", over="ignore"):
        for k in range(n_paths):
            total = 0.0
            for b in range(n_links):
                if alpha[b, k] == 0.0:
                    continue
                inner = sum((alpha[b, l] * np.exp(-theta * c[l])) ** (1.0 / u)
                            for l in range(n_paths))
                total += alpha[b, k] ** (1.0 / u) * inner ** (u - 1.0)
            h[k] = np.log(total)
    return h


def mp_cnl_commonality(alpha, path_costs, theta, u, dps=60):
    """Extended-precision transliteration of the commonality expression."""
    mp.dps = dps
    alpha = [[mp.mpf(repr(float(v))) for v in row] for row in np.asarray(alpha, dtype=float)]
    c = [mp.mpf(repr(float(v))) for v in np.asarray(path_costs, dtype=float)]
    theta, u = mp.mpf(repr(float(theta))), mp.mpf(repr(float(u)))
    n_links, n_paths = len(alpha), len(c)
    out = []
    for k in range(n_paths):
        total = mp.mpf(0)
        for b in range(n_links):
            if alpha[b][k] == 0:
                continue
            inner = mp.fsum((alpha[b][l] * mp.exp(-theta * c[l])) ** (1 / u)
                            for l in range(n_paths))
            total += alpha[b][k] ** (1 / u) * inner ** (u - 1)
        out.append(float(mp.log(total)))
    return np.array(out)


def mp_perceived_cost_rv(cost, flow, demand, commonality, theta, u, dps=60):
    mp.dps = dps
    scale = mp.mpf(repr(float(u))) / mp.mpf(repr(float(theta)))
    value = (mp.mpf(repr(float(cost))) - scale * mp.mpf(repr(float(commonality)))
             + scale * mp.log(mp.mpf(repr(float(flow))) / mp.mpf(repr(float(demand)))))
    return float(value)


def naive_swap_direction(flows, perceived, degree):
    """Double-loop pairwise exchange, the direct reading of the rule."""
    n = len(flows)
    phi = np.zeros(n)
    for k in range(n):
        for g in range(n):
            gain = max(perceived[g] - perceived[k], 0.0) ** degree
            loss = max(perceived[k] - perceived[g], 0.0) ** degree
            phi[k] += flows[g] * gain - flows[k] * loss
    return phi


def logit_shares(path_costs, theta):
    w = np.exp(-theta * np.asarray(path_costs, dtype=float))
    return w / w.sum()


def cnl_entries_by_paths(groups, link_lengths):
    """CNL entries of rv path groups laid out path by path, each group's nests
    numbered in order of first appearance; `link_lengths` maps link id to
    length."""
    alpha, path, nest = [], [], []
    n_paths = n_nests = 0
    for paths in groups:
        local = {}
        for p in paths:
            length = path_length(p, link_lengths)
            for a in p.links:
                alpha.append(link_lengths[a] / length)
                path.append(n_paths)
                nest.append(local.setdefault(a, n_nests + len(local)))
            n_paths += 1
        n_nests += len(local)
    return cost_model.CnlEntries(np.log(np.array(alpha, dtype=float)),
                                 np.array(path, dtype=np.intp), np.array(nest, dtype=np.intp),
                                 n_nests)


def link_flows_by_paths(path_set, flows_by_group, network):
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


def ncp_residual_by_groups(flows_by_group, costs_by_group, demand_by_group):
    """Complementarity residuals group by group over mappings keyed by
    (od_index, class): per-path flows, per-path perceived costs, demand."""
    residual = worst = infeasible = total = 0.0
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
    return EquilibriumReport(residual, worst, infeasible, min_cost, total,
                             residual / total if total > 0 else float("inf"))


def certify_by_paths(network, path_set, flows_by_group, params):
    """Equilibrium report of per-path flows keyed by (od_index, class), path
    by path: link flows, per-path cost sums over link-id dicts, one CNL
    evaluation of every rv group, and the group-by-group residual loop."""
    x_rv, x_av = link_flows_by_paths(path_set, flows_by_group, network)
    state = cost_model.evaluate_links(network, x_rv, x_av, params)
    cost_by_id = {cls: {l.id: state.cost(cls)[i] for i, l in enumerate(network.links)}
                  for cls in VEHICLE_CLASSES}
    costs_by_group = {key: np.array([path_cost_by_id(p.links, cost_by_id[key[1]]) for p in paths])
                      for key, paths in path_set.items() if key in flows_by_group}
    demand_by_group = {key: network.od_pairs[key[0]].demand(key[1]) for key in costs_by_group}
    rv = [key for key in costs_by_group if key[1] == RV]
    sizes = [len(costs_by_group[key]) for key in rv]
    observed = np.array([c for key in rv for c in costs_by_group[key]], dtype=float)
    flows = np.array([f for key in rv for f in flows_by_group[key]], dtype=float)
    lengths = {l.id: l.length for l in network.links}
    commonality = cost_model.cnl_commonalities(
        cnl_entries_by_paths([path_set.group(*key) for key in rv], lengths),
        observed, params.dispersion, params.nesting)
    perceived = cost_model.perceived_cost_rv(
        observed, flows, np.repeat([demand_by_group[key] for key in rv], sizes),
        commonality, params)
    costs_by_group.update(zip(rv, np.split(perceived, np.cumsum(sizes)[:-1])))
    report = ncp_residual_by_groups({key: flows_by_group[key] for key in costs_by_group},
                                    costs_by_group, demand_by_group)
    for od_index, od in enumerate(network.od_pairs):
        for cls in VEHICLE_CLASSES:
            if od.demand(cls) > 0 and (od_index, cls) not in costs_by_group:
                report.missing_demand[(od_index, cls)] = od.demand(cls)
                report.feasibility_violation += od.demand(cls)
    return report
