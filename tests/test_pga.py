import numpy as np
import pytest

from mixflow.network import RV, Link, Network, ODPair
from mixflow.pga import PgaConfig, pga_solve
from mixflow.solver import SolverConfig

from conftest import diamond_network


def test_pga_config_validation():
    with pytest.raises(ValueError):
        PgaConfig(k=0)
    with pytest.raises(ValueError):
        PgaConfig(outer_tol=0.0)


def test_path_set_saturates_on_small_network(params):
    net = diamond_network()  # 2 simple paths per class
    result = pga_solve(net, params, PgaConfig(k=5, outer_tol=0.01, max_outer=10),
                       SolverConfig(gap_tol=1e-5))
    assert result.outer[0].new_paths == 4  # 2 paths x 2 classes
    assert all(row.new_paths == 0 for row in result.outer[1:])
    assert result.outer_converged
    assert result.solve.converged


def test_stable_total_cost_stops_at_second_round(params):
    net = diamond_network()
    result = pga_solve(net, params, PgaConfig(k=5, outer_tol=0.01),
                       SolverConfig(gap_tol=1e-5))
    assert len(result.outer) == 2
    assert abs(result.outer[1].error) <= 0.01
    assert np.isinf(result.outer[0].error)


def test_huge_tolerance_still_runs_two_rounds(params):
    net = diamond_network()
    result = pga_solve(net, params, PgaConfig(k=1, outer_tol=10.0),
                       SolverConfig(gap_tol=1e-4))
    assert len(result.outer) == 2


def test_path_set_grows_monotonically(params):
    # second round sees congested costs and can discover new paths
    links = (Link(1, 1, 2, 2.0, 2.0, 150.0, 300.0),
             Link(2, 2, 4, 2.0, 2.0, 150.0, 300.0),
             Link(3, 1, 3, 2.5, 2.5, 800.0, 1600.0),
             Link(4, 3, 4, 2.5, 2.5, 800.0, 1600.0),
             Link(5, 1, 4, 6.0, 6.0, 900.0, 1800.0))
    net = Network(nodes=(1, 2, 3, 4), links=links,
                  od_pairs=(ODPair(1, 4, 400.0, 400.0),))
    result = pga_solve(net, params, PgaConfig(k=2, outer_tol=1e-3, max_outer=6),
                       SolverConfig(gap_tol=1e-4))
    sizes = []
    total = 0
    for row in result.outer:
        total += row.new_paths
        sizes.append(total)
    assert sizes == sorted(sizes)
    assert len(result.path_set) == total


def test_new_paths_start_from_carried_flows(params):
    # saturated set on round 2: flows must carry over, conservation must hold
    net = diamond_network()
    result = pga_solve(net, params, PgaConfig(k=5, outer_tol=0.01),
                       SolverConfig(gap_tol=1e-5))
    q_rv = net.od_pairs[0].demand_rv
    q_av = net.od_pairs[0].demand_av
    for (_, cls), flows in result.solve.flows_by_group().items():
        expected = q_rv if cls == RV else q_av
        assert flows.sum() == pytest.approx(expected, rel=1e-9)


def test_outer_exhaustion_flagged_but_final_solve_runs(params):
    # inner solves too short to settle: TC keeps moving, |E| never small
    net = diamond_network(demand_rv=0.0, demand_av=150.0)
    result = pga_solve(net, params,
                       PgaConfig(k=5, outer_tol=1e-15, max_outer=3, inner_gap=1e-9),
                       SolverConfig(gap_tol=1e-6, max_iters=2))
    assert len(result.outer) == 3
    assert not result.outer_converged
    assert len(result.solve.trace) <= 2  # final solve obeys max_iters too


def test_final_gap_override(params):
    # the final solve runs at the solver's gap, not at the loose inner_gap
    net = diamond_network()
    result = pga_solve(net, params,
                       PgaConfig(k=5, outer_tol=0.01, inner_gap=0.1),
                       SolverConfig(gap_tol=1e-6))
    assert result.solve.converged
    assert result.solve.gap <= 1e-6


def test_sioux_falls_dev_shrinks_with_k(params):
    # more generated paths per OD bring link flows closer to the widest run
    from mixflow.diagnostics import flow_deviation
    from mixflow.fixtures import sioux_falls_network

    net = sioux_falls_network(params, seed=7)
    flows = {}
    for k in (4, 7, 10):
        res = pga_solve(net, params,
                        PgaConfig(k=k, outer_tol=0.01, inner_gap=0.1, max_outer=5),
                        SolverConfig(gap_tol=0.01, max_iters=3000))
        assert res.solve.converged
        flows[k] = res.solve.flow
    for attr in ("x_rv", "x_av"):
        ref = getattr(flows[10], attr)
        devs = [flow_deviation(getattr(flows[k], attr), ref) for k in (4, 7, 10)]
        assert devs[-1] == 0.0
        for earlier, later in zip(devs, devs[1:]):
            assert later <= earlier + 0.01
