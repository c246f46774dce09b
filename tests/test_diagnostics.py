import numpy as np
import pytest

from mixflow.diagnostics import (EquilibriumReport, certify, flow_deviation,
                                 link_flows_from_paths, ncp_residual, r_squared)
from mixflow.network import AV, RV
from mixflow.paths import PathSet, build_path
from mixflow.solver import SolverConfig, solve

from conftest import diamond_network, parallel_network


def test_link_flows_zero_paths():
    net = diamond_network()
    ps = PathSet()
    ps.add(0, RV, build_path(net, (1, 2)))
    x_rv, x_av = link_flows_from_paths(ps, {(0, RV): np.array([0.0])}, net)
    assert not x_rv.any()
    assert not x_av.any()


def test_link_flows_accumulate_shared_link():
    # one rv and one av path over the diamond, both using link 1
    net = diamond_network()
    ps = PathSet()
    ps.add(0, RV, build_path(net, (1, 2)))
    ps.add(0, AV, build_path(net, (1, 2)))
    x_rv, x_av = link_flows_from_paths(
        ps, {(0, RV): np.array([3.0]), (0, AV): np.array([4.0])}, net)
    assert x_rv[0] == 3.0 and x_av[0] == 4.0
    assert x_rv[2] == 0.0 and x_av[2] == 0.0


def test_link_flows_sum_within_one_class():
    from mixflow.network import Link, Network, ODPair
    links = (Link(1, 1, 2, 1.0, 1.0, 10.0, 20.0),
             Link(2, 2, 3, 1.0, 1.0, 10.0, 20.0),
             Link(3, 2, 3, 1.0, 1.0, 10.0, 20.0))
    net = Network(nodes=(1, 2, 3), links=links, od_pairs=(ODPair(1, 3, 7.0, 0.0),))
    ps = PathSet()
    ps.add(0, RV, build_path(net, (1, 2)))
    ps.add(0, RV, build_path(net, (1, 3)))
    x_rv, _ = link_flows_from_paths(ps, {(0, RV): np.array([3.0, 4.0])}, net)
    assert x_rv[0] == 7.0  # shared first link carries both paths


def test_ncp_residual_exact_equilibrium():
    report = ncp_residual({(0, AV): np.array([4.0, 6.0])},
                          {(0, AV): np.array([5.0, 5.0])},
                          {(0, AV): 10.0})
    assert report.ncp_residual == 0.0
    assert report.max_complementarity_violation == 0.0
    assert report.feasibility_violation == 0.0
    assert report.min_cost[(0, AV)] == 5.0


def test_ncp_residual_frozen_example():
    report = ncp_residual({(0, AV): np.array([5.0, 5.0])},
                          {(0, AV): np.array([10.0, 12.0])},
                          {(0, AV): 10.0})
    assert report.ncp_residual == pytest.approx(10.0)
    assert report.feasibility_violation == 0.0
    assert report.max_complementarity_violation == pytest.approx(2.0)
    assert report.total_cost == pytest.approx(110.0)
    assert report.relative_residual == pytest.approx(10.0 / 110.0)


def test_ncp_residual_demand_mismatch():
    report = ncp_residual({(0, AV): np.array([11.0, 0.0])},
                          {(0, AV): np.array([10.0, 10.0])},
                          {(0, AV): 10.0})
    assert report.feasibility_violation == pytest.approx(1.0)


def test_ncp_residual_counts_negative_flows():
    report = ncp_residual({(0, AV): np.array([11.0, -1.0])},
                          {(0, AV): np.array([10.0, 10.0])},
                          {(0, AV): 10.0})
    assert report.feasibility_violation == pytest.approx(1.0)


def test_flow_deviation_identity_and_frozen():
    x = np.array([10.0, 20.0])
    assert flow_deviation(x, x) == 0.0
    assert flow_deviation(np.array([10.0, 20.0]), np.array([20.0, 10.0])) == pytest.approx(2.0 / 3.0)


def test_flow_deviation_is_asymmetric():
    a = np.array([10.0, 20.0])
    b = np.array([5.0, 10.0])
    assert flow_deviation(a, b) != flow_deviation(b, a)


def test_flow_deviation_rejects_zero_reference():
    with pytest.raises(ValueError):
        flow_deviation(np.array([1.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        flow_deviation(np.array([1.0, 2.0]), np.array([1.0]))


def test_r_squared_identity_and_offset():
    ref = np.array([5.0, 10.0, 15.0, 20.0])
    assert r_squared(ref, ref) == 1.0
    offset = ref + 2.0
    n = len(ref)
    ss_tot = ((ref - ref.mean()) ** 2).sum()
    assert r_squared(offset, ref) == pytest.approx(1.0 - n * 4.0 / ss_tot)
    assert r_squared(offset, ref) < 1.0


def test_r_squared_never_exceeds_one():
    rng = np.random.default_rng(41)
    ref = rng.uniform(10.0, 100.0, size=20)
    for _ in range(50):
        x = ref + rng.normal(0.0, 5.0, size=20)
        assert r_squared(x, ref) <= 1.0


def test_r_squared_rejects_constant_reference():
    with pytest.raises(ValueError):
        r_squared(np.array([1.0, 2.0]), np.array([3.0, 3.0]))


def test_report_text_and_csv_rows():
    report = EquilibriumReport(1.0, 0.1, 0.0, {(0, RV): 12.0}, 100.0, 0.01)
    text = report.to_text()
    assert "ncp_residual = 1" in text
    assert "min_cost[0,rv] = 12" in text
    rows = dict(report.csv_rows())
    assert rows["relative_residual"] == "0.01"
    assert rows["min_cost_0_rv"] == "12"


def test_residual_bounded_by_gap_times_total_cost(params):
    net = parallel_network([(5.0, 500.0), (6.0, 700.0), (8.0, 400.0)], demand_av=1500.0)
    ps = PathSet()
    for lid in (1, 2, 3):
        ps.add(0, AV, build_path(net, (lid,)))
    result = solve(net, ps, params, SolverConfig(gap_tol=1e-5))
    assert result.converged
    report = certify(net, ps, result.flows_by_group(), params)
    assert report.ncp_residual <= 1e-5 * report.total_cost * (1.0 + 1e-9)


def test_certify_rejects_rv_flows_without_demand(params):
    # a hand-built network whose od has no rv demand, given rv flows anyway
    net = diamond_network(demand_rv=0.0, demand_av=10.0)
    ps = PathSet()
    ps.add(0, RV, build_path(net, (1, 2)))
    ps.add(0, AV, build_path(net, (1, 2)))
    flows = {(0, RV): np.array([5.0]), (0, AV): np.array([10.0])}
    with pytest.raises(ValueError, match="od 0 class rv has flows but no positive demand"):
        certify(net, ps, flows, params)
    flows.pop((0, RV))
    assert certify(net, ps, flows, params).feasibility_violation == 0.0
