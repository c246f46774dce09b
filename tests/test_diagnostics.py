from dataclasses import replace

import numpy as np
import pytest

from mixflow.cli import _read_path_flows_csv
from mixflow.costs import ClassParams, free_flow_state
from mixflow.diagnostics import (EquilibriumReport, certify, certify_rows, flow_deviation,
                                 link_flows_from_paths, ncp_residual, r_squared)
from mixflow.fixtures import nguyen_network, sioux_falls_network
from mixflow.network import AV, RV
from mixflow.pga import generate_paths
from mixflow.solver import Assignment, SolverConfig, solve

from conftest import diamond_network, parallel_network, parallel_paths
from oracles import certify_by_paths, flows_by_group, groups_of


def test_link_flows_zero_paths():
    # one rv path over diamond links 1 and 2 (indices 0 and 1) without flow
    net = diamond_network()
    x_rv, x_av = link_flows_from_paths(net, np.array([0, 1]), np.array([0.0, 0.0]))
    assert not x_rv.any()
    assert not x_av.any()


def test_link_flows_accumulate_shared_link():
    # one rv and one av path over the diamond, both using link 1; av columns
    # follow the n_links rv columns
    net = diamond_network()
    x_rv, x_av = link_flows_from_paths(net, np.array([0, 1, 4, 5]),
                                       np.array([3.0, 3.0, 4.0, 4.0]))
    assert x_rv[0] == 3.0 and x_av[0] == 4.0
    assert x_rv[2] == 0.0 and x_av[2] == 0.0


def test_link_flows_sum_within_one_class():
    from mixflow.network import Link, Network, ODPair
    links = (Link(1, 1, 2, 1.0, 1.0, 10.0, 20.0),
             Link(2, 2, 3, 1.0, 1.0, 10.0, 20.0),
             Link(3, 2, 3, 1.0, 1.0, 10.0, 20.0))
    net = Network(nodes=(1, 2, 3), links=links, od_pairs=(ODPair(1, 3, 7.0, 0.0),))
    # rv paths (1, 2) and (1, 3) at flows 3 and 4
    x_rv, _ = link_flows_from_paths(net, np.array([0, 1, 0, 2]), np.array([3.0, 3.0, 4.0, 4.0]))
    assert x_rv[0] == 7.0  # shared first link carries both paths


def _one_av_group(flows, costs, demand=10.0):
    """ncp_residual of one (od 0, av) group: group id 1 of the demand vector."""
    return ncp_residual(np.array(flows), np.array(costs), np.ones(len(flows), dtype=np.intp),
                        np.array([0.0, demand]))


def test_ncp_residual_exact_equilibrium():
    report = _one_av_group([4.0, 6.0], [5.0, 5.0])
    assert report.ncp_residual == 0.0
    assert report.max_complementarity_violation == 0.0
    assert report.feasibility_violation == 0.0
    assert report.min_cost[(0, AV)] == 5.0


def test_ncp_residual_frozen_example():
    report = _one_av_group([5.0, 5.0], [10.0, 12.0])
    assert report.ncp_residual == pytest.approx(10.0)
    assert report.feasibility_violation == 0.0
    assert report.max_complementarity_violation == pytest.approx(2.0)
    assert report.total_cost == pytest.approx(110.0)
    assert report.relative_residual == pytest.approx(10.0 / 110.0)


def test_ncp_residual_demand_mismatch():
    report = _one_av_group([11.0, 0.0], [10.0, 10.0])
    assert report.feasibility_violation == pytest.approx(1.0)


def test_ncp_residual_counts_negative_flows():
    report = _one_av_group([11.0, -1.0], [10.0, 10.0])
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
    ps = parallel_paths(net, AV)
    result = solve(net, *ps, params, SolverConfig(gap_tol=1e-5))
    assert result.converged
    report = certify(net, result, params)
    assert report.ncp_residual <= 1e-5 * report.total_cost * (1.0 + 1e-9)


def test_certify_rejects_rv_flows_without_demand(params):
    # a hand-built network whose od has no rv demand, given rv flows anyway:
    # rows of group 0 (od 0 rv) and 1 (od 0 av), each on the path 1-2
    net = diamond_network(demand_rv=0.0, demand_av=10.0)
    link = np.array([net.link_index[a] for a in (1, 2)] * 2)
    with pytest.raises(ValueError, match="od 0 class rv has flows but no positive demand"):
        certify_rows(net, np.array([0, 1]), np.array([5.0, 10.0]), np.array([2, 2]), link, params)
    report = certify_rows(net, np.array([1]), np.array([10.0]), np.array([2]), link[2:], params)
    assert report.feasibility_violation == 0.0


@pytest.fixture(scope="module", params=["nguyen0", "sioux_falls7"])
def solved(request):
    """Network, paths by (OD, class) and SolveResult of a Nguyen seed 0 (k 8,
    gap 1e-4) or Sioux Falls seed 7 (k 10, gap 5e-3) solve."""
    params = ClassParams()
    fixture, seed, k, gap = {"nguyen0": (nguyen_network, 0, 8, 1e-4),
                             "sioux_falls7": (sioux_falls_network, 7, 10, 5e-3)}[request.param]
    net = fixture(params, seed=seed)
    ps = generate_paths(net, free_flow_state(net, params), k)
    result = solve(net, *ps, params, SolverConfig(gap_tol=gap))
    assert result.converged
    return net, {(g.od_index, g.vehicle_class): g.paths
                 for g in groups_of(Assignment(net, *ps, params))}, result


def _variants(net, ps, flows, rng):
    """(name, paths by group, flows by group, params) cases around one solve."""
    params = ClassParams()
    keys = list(flows)
    perturbed = {key: f * rng.uniform(0.5, 1.5, size=f.size) for key, f in flows.items()}
    for key in rng.choice(len(keys), size=len(keys) // 4, replace=False):
        f = perturbed[keys[key]]
        f[rng.integers(0, f.size)] = float(rng.choice([0.0, -1.0, -1e-3]))
    single, single_flows = {}, {}
    for key, paths in ps.items():
        single[key] = paths[:1]
        single_flows[key] = np.array([float(flows[key].sum()) * rng.uniform(0.9, 1.1)])
    dropped = {key: flows[key] for i, key in enumerate(keys) if i % 7 != 3}
    yield "solved", ps, flows, params
    yield "perturbed", ps, perturbed, params
    yield "single-path groups", single, single_flows, params
    yield "missing groups", ps, dropped, params
    # theta * cost in the thousands: every exponential of the CNL would overflow
    yield "extreme theta*cost", ps, perturbed, ClassParams(dispersion=60.0, nesting=0.2)


def _assert_reports_match(report, expected, network):
    for name in ("ncp_residual", "max_complementarity_violation", "total_cost",
                 "relative_residual"):
        assert getattr(report, name) == pytest.approx(getattr(expected, name), rel=1e-12, abs=0.0)
    # the demand mismatch of solved flows is float residue, so it is compared
    # relative to the total demand, the scale `check` bounds it at
    total_demand = sum(od.demand_rv + od.demand_av for od in network.od_pairs)
    assert report.feasibility_violation == pytest.approx(
        expected.feasibility_violation, rel=1e-12, abs=1e-12 * total_demand)
    # an rv perceived cost is a difference of dollar-scale terms, and one near
    # zero keeps their absolute error: it is compared at the mean cost per vehicle
    mean_cost = abs(expected.total_cost) / total_demand
    assert report.min_cost.keys() == expected.min_cost.keys()
    for key, value in expected.min_cost.items():
        assert report.min_cost[key] == pytest.approx(value, rel=1e-12, abs=1e-12 * mean_cost)
    assert report.missing_demand == expected.missing_demand


def test_certify_matches_path_by_path_oracle(solved):
    # a SolveResult carries every demanded group on the solve's own paths, so the
    # single-path and missing-group variants reach `certify_rows` only through
    # the reader in the test below
    net, ps, result = solved
    rng = np.random.default_rng(5)
    for name, path_set, flows, params in _variants(net, ps, flows_by_group(result), rng):
        if name in ("single-path groups", "missing groups"):
            continue
        expected = certify_by_paths(net, path_set, flows, params)
        assert np.isfinite(expected.ncp_residual), name
        varied = replace(result, flow=replace(result.flow, f=np.concatenate(list(flows.values()))))
        _assert_reports_match(certify(net, varied, params), expected, net)


def test_read_and_certify_rows_match_path_by_path_oracle(solved, tmp_path):
    # rows written in a random order, so every group is interleaved with others
    net, ps, result = solved
    rng = np.random.default_rng(6)
    for name, path_set, flows, params in _variants(net, ps, flows_by_group(result), rng):
        rows = [f"{od},{cls},{'-'.join(map(str, p))},{float(f)!r}"
                for (od, cls), paths in path_set.items() if (od, cls) in flows
                for p, f in zip(paths, flows[(od, cls)])]
        csv = tmp_path / "path_flows.csv"
        csv.write_text("\n".join(["od,class,path_key,flow"] + list(rng.permutation(rows)))
                       + "\n", encoding="utf-8")
        report = certify_rows(net, *_read_path_flows_csv(csv, net), params)
        _assert_reports_match(report, certify_by_paths(net, path_set, flows, params), net)
