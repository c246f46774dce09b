"""Independent reference implementations used only to generate expected values.

Nothing here may import from the code paths it is checking beyond plain
data types: enumeration instead of Yen, label-correcting search instead of
the heap search, direct transliterations instead of log-domain evaluation.
"""

from types import SimpleNamespace

import numpy as np
from mpmath import mp


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
    if not path_set.contains(od_index, vehicle_class, path):
        raise KeyError(f"unknown path key {path.key}")
    return int(link_id in path.links)


def path_cost_by_id(links, cost_by_id):
    return sum(cost_by_id[a] for a in links)


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


def overlap_alpha(link, path):
    """Length share of `link` within `path`; zero when the link is not a member."""
    if link.id not in path.links:
        return 0.0
    return link.length / path.length


def alpha_matrix(paths, lengths):
    """Dense (link, path) overlap weights over the links of `paths` in id
    order; `lengths` maps link id to length."""
    link_ids = sorted({a for p in paths for a in p.links})
    return np.array([[overlap_alpha(SimpleNamespace(id=a, length=lengths[a]), p)
                      for p in paths] for a in link_ids])


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
