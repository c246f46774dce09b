import re

import numpy as np
import pytest

from mixflow.costs import ClassParams, free_flow_state
from mixflow.fixtures import sioux_falls_network
from mixflow.network import AV, RV, VEHICLE_CLASSES, Link, Network, ODPair
from mixflow.paths import (Graph, Path, PathSet, _shortest, format_path_line,
                           holds_k_cheapest, merge_path_sets, yen_k_shortest)

from conftest import diamond_network, random_network
from oracles import bellman_ford, build_path, incidence, k_cheapest_paths, plain_yen


def test_build_path_validates_adjacency():
    net = diamond_network()
    path = build_path(net, (1, 2))
    assert path.nodes == (1, 2, 4)
    assert path.links == (1, 2)
    with pytest.raises(ValueError):
        build_path(net, (1, 4))  # links 1->2 then 3->4 are not adjacent


def test_build_path_rejects_loops():
    links = (Link(1, 1, 2, 1.0, 1.0, 10.0, 20.0),
             Link(2, 2, 3, 1.0, 1.0, 10.0, 20.0),
             Link(3, 3, 1, 1.0, 1.0, 10.0, 20.0),
             Link(4, 1, 4, 1.0, 1.0, 10.0, 20.0))
    net = Network(nodes=(1, 2, 3, 4), links=links, od_pairs=())
    with pytest.raises(ValueError):
        build_path(net, (1, 2, 3, 4))


def test_yen_single_path_matches_label_correcting_oracle():
    rng = np.random.default_rng(21)
    for _ in range(40):
        net = random_network(rng)
        costs = rng.uniform(0.5, 5.0, size=net.n_links)
        od = net.od_pairs[0]
        expected = bellman_ford(net, costs, od.origin, od.destination)
        got = yen_k_shortest(net, costs, od.origin, od.destination, 1)
        assert expected is not None
        assert len(got) == 1
        assert got[0].links == expected[2]
        assert got[0].nodes == expected[1]


def test_yen_diamond_exhausts_paths():
    net = diamond_network()
    paths = yen_k_shortest(net, np.array([1.0, 1.0, 1.0, 2.0]), 1, 4, 5)
    assert [p.links for p in paths] == [(1, 2), (3, 4)]


def test_yen_cost_tie_breaks_lexicographically():
    # both routes cost 4; node sequence (1,2,4) beats (1,3,4)
    net = diamond_network()
    paths = yen_k_shortest(net, np.array([3.0, 1.0, 1.0, 3.0]), 1, 4, 2)
    assert [p.nodes for p in paths] == [(1, 2, 4), (1, 3, 4)]


def test_yen_handles_parallel_links():
    links = (Link(1, 1, 2, 1.0, 1.0, 10.0, 20.0),
             Link(2, 1, 2, 1.0, 1.0, 10.0, 20.0),
             Link(3, 1, 2, 1.0, 1.0, 10.0, 20.0))
    net = Network(nodes=(1, 2), links=links, od_pairs=())
    paths = yen_k_shortest(net, np.array([2.0, 1.0, 3.0]), 1, 2, 5)
    assert [p.links for p in paths] == [(2,), (1,), (3,)]
    assert all(p.nodes == (1, 2) for p in paths)


def test_yen_matches_enumeration_on_random_graphs():
    rng = np.random.default_rng(22)
    for _ in range(30):
        net = random_network(rng, n_nodes=int(rng.integers(4, 8)))
        costs = rng.uniform(0.5, 3.0, size=net.n_links)
        od = net.od_pairs[0]
        expected = k_cheapest_paths(net, costs, od.origin, od.destination, 6)
        got = yen_k_shortest(net, costs, od.origin, od.destination, 6)
        assert [p.links for p in got] == [links for _, _, links in expected]


def test_yen_deterministic():
    rng = np.random.default_rng(23)
    net = random_network(rng)
    costs = rng.uniform(0.5, 3.0, size=net.n_links)
    od = net.od_pairs[0]
    first = yen_k_shortest(net, costs, od.origin, od.destination, 4)
    second = yen_k_shortest(net, costs, od.origin, od.destination, 4)
    assert [p.links for p in first] == [p.links for p in second]


def test_yen_rejects_bad_inputs():
    net = diamond_network()
    with pytest.raises(ValueError):
        yen_k_shortest(net, np.ones(4), 1, 99, 2)
    with pytest.raises(ValueError):
        yen_k_shortest(net, np.zeros(4), 1, 4, 2)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="link 1 has cost"):
            yen_k_shortest(net, np.array([bad, 1.0, 1.0, 1.0]), 1, 4, 2)
    with pytest.raises(ValueError, match="link 1 has cost inf"):
        yen_k_shortest(net, np.full(4, np.inf), 1, 4, 2)
    with pytest.raises(ValueError):
        yen_k_shortest(net, np.ones(4), 1, 4, 0)
    with pytest.raises(ValueError):
        yen_k_shortest(net, np.ones(4), 4, 1, 1)  # no path back
    with pytest.raises(ValueError, match="origin 1 equals destination 1"):
        yen_k_shortest(net, np.ones(4), 1, 1, 3)


def _tie_heavy_network(rng, cyclic, shuffle=False):
    """A random digraph with about a fifth of its links doubled by parallel
    copies. Link ids follow list order, as in every loaded network, unless
    `shuffle` lists the links in random order."""
    base = random_network(rng, n_nodes=int(rng.integers(4, 9)), cyclic=cyclic)
    links = list(base.links)
    for link in base.links:
        if rng.random() < 0.2:
            links.append(Link(len(links) + 1, link.from_node, link.to_node,
                              link.length, link.free_time, link.cap_rv, link.cap_av))
    if shuffle:
        links = [links[i] for i in rng.permutation(len(links))]
    return Network(nodes=base.nodes, links=tuple(links), od_pairs=base.od_pairs)


_TIE_COSTS = {
    "integer": lambda rng, n: rng.integers(1, 5, size=n).astype(float),
    "tenths": lambda rng, n: rng.integers(1, 30, size=n) * 0.1,
    "thirds": lambda rng, n: rng.integers(1, 12, size=n) / 3,
}


def test_yen_matches_plain_yen_on_tie_heavy_graphs():
    """The bounded search returns the reference search's paths exactly.

    Equal path costs abound here. On multiples of 0.1 and 1/3 Yen's
    forward sums and enumeration's sums can round apart at the ulp, so the
    enumeration is asserted on integer costs only.
    """
    rng = np.random.default_rng(404)
    kinds = sorted(_TIE_COSTS)
    for case in range(360):
        net = _tie_heavy_network(rng, cyclic=bool(case % 2))
        kind = kinds[case // 2 % len(kinds)]
        costs = _TIE_COSTS[kind](rng, net.n_links)
        k = 1 + case % 14
        od = net.od_pairs[0]
        expected = plain_yen(net, costs, od.origin, od.destination, k)
        got = yen_k_shortest(net, costs, od.origin, od.destination, k)
        assert [p.links for p in got] == [links for _, _, links in expected], (case, kind)
        assert [p.nodes for p in got] == [nodes for _, nodes, _ in expected], (case, kind)
        if kind == "integer":
            enumerated = k_cheapest_paths(net, costs, od.origin, od.destination, k)
            assert [p.links for p in got] == [links for _, _, links in enumerated]


def test_yen_parallel_ties_follow_link_ids_not_list_order():
    """Equal-cost parallel links resolve to the smaller link sequence even
    when the network lists them out of id order."""
    links = (Link(7, 1, 2, 1.0, 1.0, 10.0, 20.0),
             Link(3, 1, 2, 1.0, 1.0, 10.0, 20.0),
             Link(5, 2, 3, 1.0, 1.0, 10.0, 20.0))
    net = Network(nodes=(1, 2, 3), links=links, od_pairs=())
    paths = yen_k_shortest(net, np.ones(3), 1, 3, 3)
    assert [p.links for p in paths] == [(3, 5), (7, 5)]
    rng = np.random.default_rng(405)
    for case in range(120):
        net = _tie_heavy_network(rng, cyclic=bool(case % 2), shuffle=True)
        costs = _TIE_COSTS["integer"](rng, net.n_links)
        k = 1 + case % 14
        od = net.od_pairs[0]
        expected = k_cheapest_paths(net, costs, od.origin, od.destination, k)
        got = yen_k_shortest(net, costs, od.origin, od.destination, k)
        assert [p.links for p in got] == [links for _, _, links in expected], case


def _relabelled(rng, net):
    """`net` with its nodes renamed to distinct ids drawn from 1..1000 in
    random order, so that id order no longer follows the old numbering."""
    ids = rng.choice(np.arange(1, 1001), size=len(net.nodes), replace=False)
    new = dict(zip(net.nodes, (int(i) for i in ids)))
    links = tuple(Link(l.id, new[l.from_node], new[l.to_node], l.length, l.free_time,
                       l.cap_rv, l.cap_av) for l in net.links)
    od_pairs = tuple(ODPair(new[od.origin], new[od.destination], od.demand_rv,
                            od.demand_av) for od in net.od_pairs)
    return Network(nodes=tuple(new.values()), links=links, od_pairs=od_pairs)


def test_yen_ties_follow_node_ids_not_positions():
    """Non-contiguous node ids in random order: ties still resolve to the
    smallest node-id sequence, as in the reference search."""
    rng = np.random.default_rng(406)
    kinds = sorted(_TIE_COSTS)
    relabelled = 0
    for case in range(240):
        base = _tie_heavy_network(rng, cyclic=bool(case % 2))
        net = _relabelled(rng, base)
        relabelled += net.nodes != base.nodes
        costs = _TIE_COSTS[kinds[case // 2 % len(kinds)]](rng, net.n_links)
        k = 1 + case % 14
        od = net.od_pairs[0]
        expected = plain_yen(net, costs, od.origin, od.destination, k)
        got = yen_k_shortest(net, costs, od.origin, od.destination, k)
        assert [p.links for p in got] == [links for _, _, links in expected], case
        assert [p.nodes for p in got] == [nodes for _, nodes, _ in expected], case
    assert relabelled == 240


def test_shared_graph_matches_calls_without_one():
    """Every (origin, destination) pair served from one `Graph` in shuffled
    order returns what a call that builds its own graph returns."""
    rng = np.random.default_rng(407)
    kinds = sorted(_TIE_COSTS)
    for case in range(40):
        net = _relabelled(rng, _tie_heavy_network(rng, cyclic=bool(case % 2)))
        costs = _TIE_COSTS[kinds[case % len(kinds)]](rng, net.n_links)
        graph = Graph(net, costs)
        pairs = [(o, d) for o in net.nodes for d in net.nodes if o != d]
        for j in rng.permutation(len(pairs)):
            origin, dest = pairs[j]
            k = 1 + j % 8
            try:
                expected = yen_k_shortest(net, costs, origin, dest, k)
            except ValueError as exc:
                assert str(exc) == f"no path from {origin} to {dest}"
                with pytest.raises(ValueError, match="no path"):
                    yen_k_shortest(net, costs, origin, dest, k, graph=graph)
                continue
            assert yen_k_shortest(net, costs, origin, dest, k, graph=graph) == expected


def test_graph_rejects_nonpositive_or_infinite_costs():
    net = diamond_network()
    for bad in (0.0, np.inf, -1.0, np.nan):
        costs = np.ones(4)
        costs[2] = bad
        message = f"link 3 has cost {float(bad)}; expected a positive finite value"
        with pytest.raises(ValueError, match=re.escape(message)):
            Graph(net, costs)
    with pytest.raises(ValueError):
        Graph(net, np.ones(3))    # one cost per link


def test_yen_exact_when_bounds_round_above_forward_sums():
    """Links far below an ulp of the prefix cost: the forward sums of
    (1,2,3,4,5) stay at 1.0 while its bound at node 3 rounds the key up to
    1 + ulp, above the destination key 1.0 of (1,2,5). The search must keep
    popping past the first destination label to return the smaller nodes."""
    tiny = 0.3 * 2.0 ** -52
    spec = [(1, 2, 1.0), (2, 3, tiny), (3, 4, tiny), (4, 5, tiny), (2, 5, tiny)]
    links = tuple(Link(i + 1, a, b, 1.0, 1.0, 10.0, 20.0)
                  for i, (a, b, _) in enumerate(spec))
    net = Network(nodes=(1, 2, 3, 4, 5), links=links, od_pairs=())
    costs = np.array([c for _, _, c in spec])
    got = yen_k_shortest(net, costs, 1, 5, 2)
    assert [p.nodes for p in got] == [(1, 2, 3, 4, 5), (1, 2, 5)]
    assert [p.links for p in got] == [links for _, _, links in plain_yen(net, costs, 1, 5, 2)]


def test_yen_matches_plain_yen_on_sioux_falls():
    """Seed 7 at free flow, k = 10, every 25th OD in both classes."""
    params = ClassParams()
    net = sioux_falls_network(params, seed=7)
    state = free_flow_state(net, params)
    for od in net.od_pairs[::25]:
        for cls in VEHICLE_CLASSES:
            costs = state.cost(cls)
            expected = plain_yen(net, costs, od.origin, od.destination, 10)
            got = yen_k_shortest(net, costs, od.origin, od.destination, 10)
            assert [p.links for p in got] == [links for _, _, links in expected]
            assert [p.nodes for p in got] == [nodes for _, nodes, _ in expected]


def _two_way(net):
    """`net` with a reverse copy of every link that has none, so that spur
    searches can loop back through the nodes they started from."""
    pairs = {(l.from_node, l.to_node) for l in net.links}
    links = list(net.links)
    for link in net.links:
        if (link.to_node, link.from_node) not in pairs:
            links.append(Link(len(links) + 1, link.to_node, link.from_node, link.length,
                              link.free_time, link.cap_rv, link.cap_av))
    return Network(nodes=net.nodes, links=tuple(links), od_pairs=net.od_pairs)


class _Reads(list):
    """An adjacency list that counts the node lists a search reads."""
    reads = 0

    def __getitem__(self, node):
        self.reads += 1
        return super().__getitem__(node)


def test_spur_shortcut_equals_full_search_spur_by_spur():
    """Integer, tie-heavy costs on two-way graphs, random banned nodes and
    first links, finite and infinite limits: a spur search answered from
    the reverse tree returns what the full search returns (the same search
    with no tree margin trusted), and a path within the limit is never
    dropped."""
    rng = np.random.default_rng(408)
    answered = searched = 0
    for case in range(150):
        net = _two_way(_tie_heavy_network(rng, cyclic=bool(case % 2)))
        graph = Graph(net, _TIE_COSTS["integer"](rng, net.n_links))
        n = len(net.nodes)
        for _ in range(20):
            sink, origin = (int(v) for v in rng.choice(n, size=2, replace=False))
            bound, tree = graph.bound(sink)
            untrusted = [t and t[:3] + (0.0,) for t in tree]
            banned = bound.copy()
            for node in rng.choice(n, size=int(rng.integers(0, n - 1)), replace=False):
                if node not in (origin, sink):
                    banned[node] = np.inf
            out = [e for e in graph.adj[origin] if rng.random() < 0.7]
            full = _shortest(graph.adj, banned, untrusted, origin, sink, out)
            limit = (np.inf if full is None or rng.random() < 0.3
                     else float(rng.choice([full[0], full[0] - 1, full[0] + 1,
                                            full[0] * rng.uniform(0.5, 1.5)])))
            want = _shortest(graph.adj, banned, untrusted, origin, sink, out, limit)
            adj = _Reads(graph.adj)
            got = _shortest(adj, banned, tree, origin, sink, out, limit)
            if want is not None and want[0] <= limit:
                assert got == want, case
            else:
                assert got is None or got[0] > limit, case
            if got is not None and not adj.reads:    # answered from the tree
                assert got == full, case
                answered += 1
            searched += bool(adj.reads)
    assert answered > 500 and searched > 500, (answered, searched)


def test_settled_groups_hold_their_k_cheapest():
    """Known paths from Yen at one set of costs, checked at perturbed costs:
    whenever the check says settled, Yen at the new costs returns known
    paths only. A group that knows every loop-free path but one of its k
    cheapest is never settled, and one that knows them all always is."""
    rng = np.random.default_rng(409)
    kinds = sorted(_TIE_COSTS)
    verdicts = {True: 0, False: 0}
    for case in range(300):
        net = _two_way(_tie_heavy_network(rng, cyclic=bool(case % 2))) if case % 3 == 0 \
            else _tie_heavy_network(rng, cyclic=bool(case % 2))
        od = net.od_pairs[0]
        k = 1 + case % 8
        costs = _TIE_COSTS[kinds[case % len(kinds)]](rng, net.n_links)
        known = PathSet()
        for _ in range(int(rng.integers(1, 3))):
            for path in yen_k_shortest(net, costs, od.origin, od.destination, k):
                known.add(0, RV, path)
            costs = costs * rng.choice([1.0, 0.5, 2.0], size=net.n_links) \
                if rng.random() < 0.5 else costs * rng.uniform(0.8, 1.25, size=net.n_links)
        paths = known.group(0, RV)
        settled = holds_k_cheapest(Graph(net, costs), paths, od.origin, od.destination, k)
        verdicts[settled] += 1
        if settled:
            links = {p.links for p in paths}
            got = yen_k_shortest(net, costs, od.origin, od.destination, k)
            assert all(p.links in links for p in got), case
        # every loop-free path, cheapest first; the one left out is among the k cheapest
        every = [Path(links, nodes) for _, nodes, links in k_cheapest_paths(
            net, costs, od.origin, od.destination, None)]    # k = None: all of them
        graph = Graph(net, costs)
        missing = int(rng.integers(len(every)))
        rest = every[:missing] + every[missing + 1:]
        k = int(rng.integers(missing + 1, len(every) + 1))
        assert not holds_k_cheapest(graph, rest, od.origin, od.destination, k), case
        assert holds_k_cheapest(graph, every, od.origin, od.destination, int(rng.integers(1, 9)))
    assert min(verdicts.values()) > 50, verdicts


def _two_sets(net):
    first = PathSet()
    first.add(0, RV, build_path(net, (1, 2)))
    second = PathSet()
    second.add(0, RV, build_path(net, (3, 4)))
    second.add(0, AV, build_path(net, (1, 2)))
    return first, second


def test_merge_with_itself_adds_nothing():
    net = diamond_network()
    first, _ = _two_sets(net)
    merged, new_count = merge_path_sets(first, first)
    assert new_count == 0
    assert len(merged) == len(first)


def test_merge_disjoint_sets():
    net = diamond_network()
    first, second = _two_sets(net)
    merged, new_count = merge_path_sets(first, second)
    assert new_count == 2
    assert len(merged) == 3
    again, count2 = merge_path_sets(merged, second)
    assert count2 == 0
    assert len(again) == 3


def test_merge_preserves_existing_order():
    net = diamond_network()
    first, second = _two_sets(net)
    merged, _ = merge_path_sets(first, second)
    assert merged.group(0, RV)[0].links == (1, 2)
    assert merged.group(0, RV)[1].links == (3, 4)


def test_incidence_membership_and_errors():
    net = diamond_network()
    ps = PathSet()
    path = build_path(net, (1, 2))
    ps.add(0, RV, path)
    assert incidence(ps, 0, RV, 1, path) == 1
    assert incidence(ps, 0, RV, 3, path) == 0
    stranger = build_path(net, (3, 4))
    with pytest.raises(KeyError):
        incidence(ps, 0, RV, 1, stranger)


def test_incidence_length_identity():
    net = diamond_network()
    path = build_path(net, (3, 4))
    ps = PathSet()
    ps.add(0, AV, path)
    total = sum(incidence(ps, 0, AV, l.id, path) * l.length for l in net.links)
    assert total == pytest.approx(30.0, rel=1e-12)    # links 3 and 4: 10 + 20 miles


def test_path_set_iteration_order():
    net = diamond_network()
    ps = PathSet()
    ps.add(1, AV, build_path(net, (1, 2)))
    ps.add(0, AV, build_path(net, (1, 2)))
    ps.add(0, RV, build_path(net, (3, 4)))
    keys = [key for key, _ in ps.items()]
    assert keys == [(0, RV), (0, AV), (1, AV)]


def test_format_path_line():
    net = diamond_network()
    path = build_path(net, (1, 2))
    assert format_path_line(3, RV, 12.5, path) == "3 rv 12.5 1-2-4"
