import os

import numpy as np
import pytest

from mixflow.costs import ClassParams
from mixflow.network import VEHICLE_CLASSES, Link, Network, ODPair

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def data_path(name):
    return os.path.join(DATA_DIR, name)


def parallel_network(specs, demand_rv=0.0, demand_av=0.0):
    """2-node network with one parallel link per (free_time, cap_rv) spec."""
    links = tuple(Link(i + 1, 1, 2, ft, ft, cap, 2 * cap)
                  for i, (ft, cap) in enumerate(specs))
    return Network(nodes=(1, 2), links=links,
                   od_pairs=(ODPair(1, 2, demand_rv, demand_av),))


def parallel_paths(network, *classes):
    """Every link of a `parallel_network` as a path of od 0, once for each
    class in `classes`: `(paths, group ids)`."""
    paths = [(link.id,) for link in network.links]
    return paths * len(classes), np.repeat([VEHICLE_CLASSES.index(c) for c in classes],
                                           len(paths))


def diamond_network(demand_rv=10.0, demand_av=10.0):
    """Four nodes, exactly two simple paths from 1 to 4.

    Path costs sit in the tens of dollars so rv perceived costs stay
    positive at these demands.
    """
    links = (Link(1, 1, 2, 10.0, 10.0, 100.0, 200.0),
             Link(2, 2, 4, 10.0, 10.0, 100.0, 200.0),
             Link(3, 1, 3, 10.0, 10.0, 100.0, 200.0),
             Link(4, 3, 4, 20.0, 20.0, 100.0, 200.0))
    return Network(nodes=(1, 2, 3, 4), links=links,
                   od_pairs=(ODPair(1, 4, demand_rv, demand_av),))


def random_network(rng, n_nodes=None, extra_edge_prob=0.35, both_classes=True,
                   cyclic=True):
    """Connected random digraph: a random arborescence plus extra arcs.

    The arborescence points parent -> child with parent < child, so
    cyclic=False (extra arcs restricted to a < b) yields a DAG.
    """
    if n_nodes is None:
        n_nodes = int(rng.integers(4, 11))
    nodes = tuple(range(1, n_nodes + 1))
    edges = set()
    for child in nodes[1:]:
        parent = int(rng.integers(1, child))
        edges.add((parent, child))
    for a in nodes:
        for b in nodes:
            if a == b or (not cyclic and a > b):
                continue
            if rng.random() < extra_edge_prob:
                edges.add((a, b))
    links = tuple(Link(i + 1, a, b,
                       round(float(rng.uniform(1.0, 8.0)), 3),
                       round(float(rng.uniform(2.0, 10.0)), 3),
                       float(rng.integers(300, 1200)),
                       float(rng.integers(600, 2400)))
                  for i, (a, b) in enumerate(sorted(edges)))
    dest = n_nodes
    q = float(rng.integers(200, 900))
    if both_classes:
        od = ODPair(1, dest, q / 2, q / 2)
    else:
        od = ODPair(1, dest, q, 0.0)
    return Network(nodes=nodes, links=links, od_pairs=(od,))


@pytest.fixture
def params():
    return ClassParams()


_ACCEPTANCE_RESULTS = []


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when == "call" and "test_acceptance" in item.nodeid:
        _ACCEPTANCE_RESULTS.append((item.name, report.passed))


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for name, passed in _ACCEPTANCE_RESULTS:
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"  {status}  {name}")
