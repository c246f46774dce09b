import numpy as np
import pytest

from mixflow.network import AV, RV, Link, Network
from mixflow.paths import (PathSet, build_path, format_path_line, merge_path_sets,
                           yen_k_shortest)

from conftest import diamond_network, random_network
from oracles import bellman_ford, incidence, k_cheapest_paths


def test_build_path_validates_adjacency():
    net = diamond_network()
    path = build_path(net, (1, 2))
    assert path.nodes == (1, 2, 4)
    assert path.length == pytest.approx(20.0)
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
    with pytest.raises(ValueError):
        yen_k_shortest(net, np.ones(4), 1, 4, 0)
    with pytest.raises(ValueError):
        yen_k_shortest(net, np.ones(4), 4, 1, 1)  # no path back


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
    assert total == pytest.approx(path.length, rel=1e-12)


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
