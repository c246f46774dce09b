import numpy as np
import pytest

from mixflow.costs import ClassParams, evaluate_links, free_flow_state
from mixflow.fixtures import nguyen_network
from mixflow.network import AV, RV, Link, Network, ODPair
from mixflow.paths import PathSet, build_path, yen_k_shortest
from mixflow.pga import generate_paths
from mixflow.solver import (Assignment, BASELINE, SolverConfig,
                            SolverError, max_relative_outflow,
                            relative_gap, solve, step_size, swap_volume,
                            total_cost, update_flows)
from mixflow import costs as cost_model
from mixflow import diagnostics

from conftest import parallel_network, random_network
from oracles import (alpha_matrix, logit_shares, mp_cnl_commonality, mp_perceived_cost_rv,
                     naive_cnl_commonality, naive_swap_direction)


def test_init_uniform_splits_demand(params):
    net = parallel_network([(5.0, 800.0)] * 4, demand_av=100.0)
    ps = PathSet()
    for lid in (1, 2, 3, 4):
        ps.add(0, AV, build_path(net, (lid,)))
    asn = Assignment(net, ps, params)
    flows = asn.uniform_flows()
    assert np.allclose(flows, 25.0)


def test_init_uniform_single_path_gets_everything(params):
    net = parallel_network([(5.0, 800.0)], demand_av=42.0)
    ps = PathSet()
    ps.add(0, AV, build_path(net, (1,)))
    asn = Assignment(net, ps, params)
    assert np.allclose(asn.uniform_flows(), 42.0)


def test_zero_demand_class_is_skipped(params):
    net = parallel_network([(5.0, 800.0)] * 2, demand_av=100.0)  # rv demand 0
    ps = PathSet()
    for lid in (1, 2):
        ps.add(0, AV, build_path(net, (lid,)))
    asn = Assignment(net, ps, params)
    assert [g.vehicle_class for g in asn.groups] == [AV]
    assert asn.n_paths == 2


def test_missing_paths_for_demanded_group_rejected(params):
    net = parallel_network([(5.0, 800.0)] * 2, demand_rv=50.0, demand_av=50.0)
    ps = PathSet()
    ps.add(0, AV, build_path(net, (1,)))  # rv group left empty
    with pytest.raises(ValueError, match="no paths"):
        Assignment(net, ps, params)


def swap_direction(flows, perceived, degree):
    """Swap direction of one av group of len(flows) parallel links."""
    net = parallel_network([(5.0, 800.0)] * len(flows), demand_av=1.0)
    ps = PathSet()
    for lid in range(1, len(flows) + 1):
        ps.add(0, AV, build_path(net, (lid,)))
    asn = Assignment(net, ps, ClassParams())
    return asn.swap_directions(np.asarray(flows, dtype=float),
                               np.asarray(perceived, dtype=float), 1.0, degree)


def test_swap_direction_frozen_linear():
    phi = swap_direction(np.array([10.0, 0.0]), np.array([5.0, 3.0]), 1.0)
    assert np.allclose(phi, [-20.0, 20.0])


def test_swap_direction_frozen_sublinear():
    phi = swap_direction(np.array([10.0, 0.0]), np.array([5.0, 3.0]), 0.85)
    expected = 10.0 * 2.0**0.85
    assert phi[1] == pytest.approx(expected, abs=1e-3)
    assert phi[1] == pytest.approx(18.025, abs=1e-3)
    assert phi[0] == pytest.approx(-expected, abs=1e-3)


def test_swap_direction_vanishes_at_equal_costs():
    phi = swap_direction(np.array([7.0, 1.0, 2.0]), np.array([4.0, 4.0, 4.0]), 0.85)
    assert np.allclose(phi, 0.0)


def test_swap_direction_matches_naive_oracle_and_sums_to_zero():
    rng = np.random.default_rng(31)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        flows = rng.uniform(0.0, 50.0, size=n)
        perceived = rng.uniform(0.0, 20.0, size=n)
        degree = float(rng.choice([0.5, 0.85, 1.0, 1.3]))
        phi = swap_direction(flows, perceived, degree)
        assert np.allclose(phi, naive_swap_direction(flows, perceived, degree), rtol=1e-12, atol=1e-9)
        norm = np.abs(phi).sum()
        assert abs(phi.sum()) <= 1e-9 * max(norm, 1.0)


def test_max_relative_outflow_frozen():
    h = max_relative_outflow(np.array([10.0, 0.0]), np.array([-20.0, 20.0]), 1e-10)
    assert h == pytest.approx(2.0)


def test_max_relative_outflow_floor_at_equilibrium():
    assert max_relative_outflow(np.array([5.0, 5.0]), np.zeros(2), 1e-10) == 1e-10


def test_max_relative_outflow_homogeneous():
    f = np.array([4.0, 6.0, 0.0])
    phi = np.array([-8.0, -3.0, 11.0])
    one = max_relative_outflow(f, phi, 1e-10)
    three = max_relative_outflow(f, 3.0 * phi, 1e-10)
    assert three == pytest.approx(3.0 * one)


def test_swap_volume():
    assert swap_volume(np.zeros(3)) == 0.0
    assert swap_volume(np.array([-20.0, 20.0])) == 40.0
    assert swap_volume(np.array([20.0, -20.0])) == 40.0


def test_step_size_first_iteration():
    config = SolverConfig()
    step, damping = step_size(1, 2.0, 100.0, None, None, config)
    assert damping == 9.5
    assert step == pytest.approx(1.0 / 19.0)
    assert step == pytest.approx(0.05263, abs=1e-5)


def test_step_size_ratio_branch():
    config = SolverConfig(gamma_growth=0.0)
    step, _ = step_size(2, 2.0, 50.0, 100.0, 9.5, config)
    assert step == pytest.approx(0.25)


def test_step_size_damped_branch():
    config = SolverConfig(gamma_growth=0.0)
    step, damping = step_size(2, 2.0, 150.0, 100.0, 10.0, config)
    assert damping == 10.0
    assert step == pytest.approx(0.05)


def test_step_size_damping_grows_every_iteration():
    config = SolverConfig(gamma_growth=0.5)
    _, damping = step_size(2, 1.0, 50.0, 100.0, 9.5, config)
    assert damping == 10.0


def test_step_size_baseline_always_damped():
    config = SolverConfig(mode=BASELINE, gamma_growth=0.0)
    step, _ = step_size(2, 2.0, 50.0, 100.0, 10.0, config)
    assert step == pytest.approx(0.05)


def test_update_flows_frozen():
    f = update_flows(np.array([10.0, 0.0]), np.array([-20.0, 20.0]), 0.05,
                     np.array([10.0, 10.0]))
    assert np.allclose(f, [9.0, 1.0])


def test_update_flows_zero_step_is_identity():
    f = np.array([3.0, 7.0])
    out = update_flows(f, np.array([-1.0, 1.0]), 0.0, np.array([10.0, 10.0]))
    assert np.array_equal(out, f)


def test_update_flows_clamps_ulp_negatives():
    out = update_flows(np.array([1e-15, 1.0]), np.array([-1.0, 1.0]), 1e-14,
                       np.array([1.0, 1.0]))
    assert out[0] == 0.0


def test_update_flows_raises_on_real_negative():
    with pytest.raises(SolverError):
        update_flows(np.array([1.0, 1.0]), np.array([-10.0, 10.0]), 1.0,
                     np.array([2.0, 2.0]))


def _tiny_assignment(params):
    net = parallel_network([(5.0, 800.0), (6.0, 900.0)], demand_av=10.0)
    ps = PathSet()
    for lid in (1, 2):
        ps.add(0, AV, build_path(net, (lid,)))
    return Assignment(net, ps, params)


def test_relative_gap_frozen(params):
    asn = _tiny_assignment(params)
    gap = relative_gap(asn, np.array([5.0, 5.0]), np.array([10.0, 20.0]))
    assert gap == pytest.approx(1.0 / 3.0)
    assert gap == pytest.approx(0.3333, abs=1e-4)


def test_relative_gap_zero_when_flow_on_minimum(params):
    asn = _tiny_assignment(params)
    assert relative_gap(asn, np.array([10.0, 0.0]), np.array([4.0, 9.0])) == 0.0


def test_relative_gap_in_unit_interval_for_positive_costs(params):
    asn = _tiny_assignment(params)
    rng = np.random.default_rng(32)
    for _ in range(100):
        flows = rng.uniform(0.0, 10.0, size=2)
        costs = rng.uniform(0.1, 30.0, size=2)
        if flows @ costs == 0:
            continue
        gap = relative_gap(asn, flows, costs)
        assert 0.0 <= gap < 1.0


def test_relative_gap_rejects_zero_denominator(params):
    asn = _tiny_assignment(params)
    with pytest.raises(ValueError):
        relative_gap(asn, np.zeros(2), np.array([1.0, 1.0]))


def test_total_cost():
    assert total_cost(np.array([10.0]), np.array([5.0])) == 50.0
    assert total_cost(np.zeros(3), np.ones(3)) == 0.0
    assert total_cost(np.array([2.0, 4.0]), np.array([1.0, 1.0])) == 6.0


def test_solve_symmetric_parallel_links_split_evenly(params):
    net = parallel_network([(5.0, 1000.0), (5.0, 1000.0)], demand_av=600.0)
    ps = PathSet()
    for lid in (1, 2):
        ps.add(0, AV, build_path(net, (lid,)))
    result = solve(net, ps, params, SolverConfig(gap_tol=1e-8))
    assert result.converged
    assert np.allclose(result.flow.f, [300.0, 300.0])
    assert result.gap <= 1e-8


def test_solve_mnl_degenerate_matches_logit_oracle():
    params = ClassParams(nesting=1.0, dispersion=0.1)
    net = parallel_network([(25.0, 1e9), (26.0, 1e9)], demand_rv=1000.0)
    ps = PathSet()
    for lid in (1, 2):
        ps.add(0, RV, build_path(net, (lid,)))
    result = solve(net, ps, params,
                   SolverConfig(gap_tol=1e-4, max_iters=50000, gamma_growth=5.0))
    assert result.converged
    state = evaluate_links(net, result.flow.x_rv, result.flow.x_av, params)
    shares = result.flow.f / 1000.0
    expected = logit_shares(state.cost_rv, params.dispersion)
    assert np.abs(shares - expected).max() < 0.005


def test_solve_zero_direction_at_three_path_fixed_point(params):
    # crafted: equal perceived costs across a group leave phi identically zero
    net = parallel_network([(5.0, 700.0)] * 3, demand_av=300.0)
    ps = PathSet()
    for lid in (1, 2, 3):
        ps.add(0, AV, build_path(net, (lid,)))
    asn = Assignment(net, ps, params)
    flows = asn.uniform_flows()
    x_rv, x_av = asn.link_flows(flows)
    state = cost_model.evaluate_links(net, x_rv, x_av, params)
    perceived = asn.perceived_costs(flows, asn.path_costs(state))
    phi = asn.swap_directions(flows, perceived, 0.85, 1.0)
    assert np.allclose(phi, 0.0)
    bumped = perceived.copy()
    bumped[0] += 1.0
    assert not np.allclose(asn.swap_directions(flows, bumped, 0.85, 1.0), 0.0)


def test_solve_flags_max_iters_without_raising(params):
    net = parallel_network([(5.0, 400.0), (9.0, 300.0)], demand_av=900.0)
    ps = PathSet()
    for lid in (1, 2):
        ps.add(0, AV, build_path(net, (lid,)))
    result = solve(net, ps, params, SolverConfig(gap_tol=1e-12, max_iters=3))
    assert not result.converged
    assert result.iterations == 3
    assert len(result.trace) == 3


def test_solve_callback_sees_every_update(params):
    net = parallel_network([(5.0, 400.0), (9.0, 300.0)], demand_av=900.0)
    ps = PathSet()
    for lid in (1, 2):
        ps.add(0, AV, build_path(net, (lid,)))
    seen = []
    solve(net, ps, params, SolverConfig(gap_tol=1e-12, max_iters=5),
          callback=lambda n, f, phi: seen.append((n, f.sum())))
    assert [n for n, _ in seen] == [1, 2, 3, 4]  # terminal iteration not applied
    assert all(s == pytest.approx(900.0) for _, s in seen)


def test_solve_nguyen_passes_ncp_residual_oracle(params):
    net = nguyen_network(params, seed=0)
    ps = generate_paths(net, free_flow_state(net, params), 8)
    result = solve(net, ps, params, SolverConfig(gap_tol=1e-4, max_iters=20000))
    assert result.converged
    report = diagnostics.certify(net, ps, result.flows_by_group(), params)
    assert report.relative_residual <= 1e-3
    assert report.feasibility_violation <= 1e-6 * sum(
        od.demand_rv + od.demand_av for od in net.od_pairs)


def test_nguyen_equilibrium_conditions_at_tight_gap(params):
    # av: used-path observed costs equalize; rv: perceived costs equalize.
    # The 10*G form of these bounds is exercised on the single-OD fixed-point
    # instances in the acceptance suite; on this multi-OD instance the rv
    # spread measures ~15*G because near-unloaded paths converge last.
    net = nguyen_network(params, seed=0)
    ps = generate_paths(net, free_flow_state(net, params), 8)
    gap_tol = 1e-6
    result = solve(net, ps, params, SolverConfig(gap_tol=gap_tol, max_iters=300000))
    assert result.converged
    asn = Assignment(net, ps, params)
    state = cost_model.evaluate_links(net, result.flow.x_rv, result.flow.x_av, params)
    observed = asn.path_costs(state)
    perceived = asn.perceived_costs(result.flow.f, observed)
    for g in asn.groups:
        sl = slice(g.start, g.stop)
        flows = result.flow.f[sl]
        if g.vehicle_class == AV:
            c = observed[sl]
            used = flows > 1e-6 * g.demand
            c_min = c[used].min()
            assert c[used].max() - c_min <= 10.0 * gap_tol * c_min
        else:
            c = perceived[sl]
            used = flows > params.flow_floor
            spread = (c[used].max() - c[used].min()) / abs(c[used].min())
            assert spread <= 20.0 * gap_tol


def test_solver_link_flows_match_independent_accumulation(params):
    net = nguyen_network(params, seed=0)
    ps = generate_paths(net, free_flow_state(net, params), 8)
    result = solve(net, ps, params, SolverConfig(gap_tol=1e-3, max_iters=20000))
    x_rv, x_av = diagnostics.link_flows_from_paths(ps, result.flows_by_group(), net)
    assert np.allclose(result.flow.x_rv, x_rv, rtol=1e-9)
    assert np.allclose(result.flow.x_av, x_av, rtol=1e-9)


def test_conservation_and_nonnegativity_under_fuzz():
    rng = np.random.default_rng(33)
    params = ClassParams()
    for _ in range(10):
        net = random_network(rng)
        ps = generate_paths(net, free_flow_state(net, params), 3)

        def check(n, flows, phi, asn_sums=[]):
            assert flows.min() >= 0.0

        result = solve(net, ps, params,
                       SolverConfig(gap_tol=1e-12, max_iters=30), callback=check)
        total = sum(od.demand_rv + od.demand_av for od in net.od_pairs)
        assert result.flow.f.sum() == pytest.approx(total, rel=1e-9)


def _grid_network(side, od_pairs):
    """Bidirectional side x side grid with unit-ish link attributes."""
    def node(r, c):
        return r * side + c + 1

    arcs = []
    for r in range(side):
        for c in range(side):
            if c + 1 < side:
                arcs += [(node(r, c), node(r, c + 1)), (node(r, c + 1), node(r, c))]
            if r + 1 < side:
                arcs += [(node(r, c), node(r + 1, c)), (node(r + 1, c), node(r, c))]
    links = tuple(Link(i + 1, a, b, 1.0 + 0.1 * (i % 7), 1.0 + 0.1 * (i % 5), 500.0, 1000.0)
                  for i, (a, b) in enumerate(arcs))
    return Network(nodes=tuple(range(1, side * side + 1)), links=links, od_pairs=od_pairs)


def _ragged_assignment(rng, params, penetration):
    """Several ODs on a 4x4 grid, each demanded class with 1 to 15 Yen paths."""
    od_pairs = []
    for origin, destination in ((1, 16), (4, 13), (2, 15), (6, 11), (5, 8), (3, 4)):
        q = float(rng.uniform(100.0, 900.0))
        od_pairs.append(ODPair(origin, destination, (1 - penetration) * q, penetration * q))
    net = _grid_network(4, tuple(od_pairs))
    ps = PathSet()
    for od_index, od in enumerate(net.od_pairs):
        for cls in (RV, AV):
            if od.demand(cls) > 0:
                k = int(rng.integers(1, 16))
                for path in yen_k_shortest(net, net.free_times, od.origin, od.destination, k):
                    ps.add(od_index, cls, path)
    return Assignment(net, ps, params)


@pytest.mark.parametrize("penetration", [0.0, 0.5, 1.0])
def test_flat_kernels_match_per_group_oracles_fuzz(penetration):
    rng = np.random.default_rng(34)
    sizes = set()
    for trial in range(6):
        theta, u = float(rng.uniform(0.05, 0.5)), float(rng.uniform(0.2, 1.0))
        params = ClassParams(dispersion=theta, nesting=u)
        asn = _ragged_assignment(rng, params, penetration)
        # odd trials shift every cost so far that exp(-theta * cost) underflows
        base = 40000.0 if trial % 2 else 0.0
        observed = base + rng.uniform(5.0, 40.0, size=asn.n_paths)
        flows = rng.uniform(0.0, 50.0, size=asn.n_paths)
        flows[rng.random(asn.n_paths) < 0.2] = 0.0
        degree_rv, degree_av = (float(d) for d in rng.choice([0.5, 0.85, 1.0, 1.3], size=2))
        with np.errstate(all="raise"):
            perceived = asn.perceived_costs(flows, observed)
            phi = asn.swap_directions(flows, perceived, degree_rv, degree_av)
        lengths = {l.id: l.length for l in asn.network.links}
        for g in asn.groups:
            sl = slice(g.start, g.stop)
            sizes.add(g.stop - g.start)
            if g.vehicle_class == RV:
                alpha = alpha_matrix(g.paths, lengths)
                naive = naive_cnl_commonality(alpha, observed[sl], theta, u)
                if base:
                    assert not np.isfinite(naive).all()
                    h = mp_cnl_commonality(alpha, observed[sl], theta, u)
                    expected = [mp_perceived_cost_rv(c, max(f, params.flow_floor), g.demand,
                                                     hk, theta, u)
                                for c, f, hk in zip(observed[sl], flows[sl], h)]
                    assert np.allclose(perceived[sl], expected, rtol=1e-12)
                else:
                    scale = u / theta
                    expected = (observed[sl] - scale * naive
                                + scale * np.log(np.maximum(flows[sl], params.flow_floor)
                                                 / g.demand))
                    assert np.allclose(perceived[sl], expected, rtol=1e-9)
                degree = degree_rv
            else:
                assert np.array_equal(perceived[sl], observed[sl])
                degree = degree_av
            assert np.allclose(phi[sl], naive_swap_direction(flows[sl], perceived[sl], degree),
                               rtol=1e-12, atol=1e-9)
    assert 1 in sizes and max(sizes) >= 12
