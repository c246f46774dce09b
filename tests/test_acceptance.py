"""Acceptance suite: one test per criterion, tolerances pinned inline.

Converged solves from criteria 1-7 register themselves so the residual
bound of criterion 8 can audit every one of them.
"""

import time

import numpy as np
import pytest

from mixflow.costs import ClassParams, evaluate_links, free_flow_state
from mixflow.diagnostics import certify, flow_deviation
from mixflow.fixtures import nguyen_network, sioux_falls_network
from mixflow.network import AV, RV, Link, Network, ODPair
from mixflow.paths import yen_k_shortest
from mixflow.pga import PgaConfig, generate_paths, pga_solve
from mixflow.solver import Assignment, SolverConfig, solve, solve_assignment

from conftest import parallel_network, parallel_paths, random_network
from oracles import (alpha_matrix, build_path, k_cheapest_paths, logit_shares,
                     mp_cnl_commonality, mp_perceived_cost_rv, path_cost)

_CONVERGED_SOLVES = []


def register(network, params, result, gap_tol):
    assert result.converged
    assert 0.0 <= result.gap <= gap_tol
    _CONVERGED_SOLVES.append((network, params, result, gap_tol))


def test_criterion_1_av_user_equilibrium_fixed_point():
    """2-node, 3-parallel-link, av-only: gap <= 1e-6, used costs equal 1e-5."""
    params = ClassParams()
    net = Network(
        nodes=(1, 2),
        links=(Link(1, 1, 2, 5.0, 5.0, 800.0, 1600.0),
               Link(2, 1, 2, 6.0, 6.0, 1200.0, 2400.0),
               Link(3, 1, 2, 20.0, 20.0, 600.0, 1200.0)),
        od_pairs=(ODPair(1, 2, 0.0, 2500.0),),
    )
    ps = parallel_paths(net, AV)
    started = time.perf_counter()
    result = solve(net, *ps, params, SolverConfig(gap_tol=1e-6, max_iters=50000))
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    assert result.converged and result.gap <= 1e-6

    state = evaluate_links(net, result.flow.x, params)
    costs = state.cost[1]
    used = result.flow.f > 1e-6 * 2500.0
    assert used.sum() >= 2
    spread = (costs[used].max() - costs[used].min()) / costs[used].min()
    assert spread <= 1e-5
    # unused paths may not undercut the equilibrium cost
    assert np.all(costs[~used] >= costs[used].max() - 1e-9)
    register(net, params, result, 1e-6)


def test_criterion_2_rv_logit_degenerate_fixed_point():
    """u = 1, two disjoint paths: shares equal the logit split within 0.5%."""
    params = ClassParams(nesting=1.0, dispersion=0.1)
    net = parallel_network([(25.0, 1e9), (26.0, 1e9)], demand_rv=1000.0)
    ps = parallel_paths(net, RV)
    started = time.perf_counter()
    result = solve(net, *ps, params,
                   SolverConfig(gap_tol=1e-4, max_iters=50000, gamma_growth=5.0))
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    assert result.converged

    state = evaluate_links(net, result.flow.x, params)
    shares = result.flow.f / 1000.0
    oracle = logit_shares(state.cost[0], params.dispersion)
    assert np.abs(shares - oracle).max() <= 0.005
    register(net, params, result, 1e-4)


def _overlap_network():
    # two paths share the first half of their length, the third is disjoint
    big = 1e9
    net = Network(
        nodes=(1, 2, 3),
        links=(Link(1, 1, 2, 10.0, 10.0, big, big),
               Link(2, 2, 3, 10.0, 10.0, big, big),
               Link(3, 2, 3, 10.0, 10.0, big, big),
               Link(4, 1, 3, 20.0, 20.0, big, big)),
        od_pairs=(ODPair(1, 3, 900.0, 0.0),),
    )
    return net, ([build_path(net, links) for links in ((1, 2), (1, 3), (4,))], [0, 0, 0])


def test_criterion_3_cnl_overlap_effect():
    """50% overlap penalizes the twin paths at u = 0.5, vanishes at u = 1."""
    net, ps = _overlap_network()

    nested = ClassParams(nesting=0.5, dispersion=0.1)
    result = solve(net, *ps, nested,
                   SolverConfig(gap_tol=1e-4, max_iters=50000, gamma_growth=5.0))
    assert result.converged
    disjoint_share = result.flow.f[2] / 900.0
    assert disjoint_share > 1.0 / 3.0

    # extended-precision equilibrium: with equal observed costs the shares
    # are proportional to exp(commonality)
    lengths = {l.id: l.length for l in net.links}
    alpha = alpha_matrix(ps[0], lengths)
    h = mp_cnl_commonality(alpha, [25.0, 25.0, 25.0], 0.1, 0.5)
    target = np.exp(h[2]) / np.exp(h).sum()
    assert disjoint_share == pytest.approx(target, abs=0.005)

    # at the converged point the perceived costs (extended-precision Eq forms)
    # of all three paths must agree
    state = evaluate_links(net, result.flow.x, nested)
    cost_by_id = {l.id: state.cost[0, i] for i, l in enumerate(net.links)}
    observed = [path_cost(p, cost_by_id) for p in ps[0]]
    h_conv = mp_cnl_commonality(alpha, observed, 0.1, 0.5)
    perceived = [mp_perceived_cost_rv(observed[k], result.flow.f[k], 900.0,
                                      h_conv[k], 0.1, 0.5) for k in range(3)]
    spread = (max(perceived) - min(perceived)) / abs(min(perceived))
    assert spread <= 10.0 * 1e-4
    register(net, nested, result, 1e-4)

    plain = ClassParams(nesting=1.0, dispersion=0.1)
    result_mnl = solve(net, *ps, plain,
                       SolverConfig(gap_tol=1e-4, max_iters=50000, gamma_growth=5.0))
    assert result_mnl.converged
    assert result_mnl.flow.f[2] / 900.0 == pytest.approx(1.0 / 3.0, abs=0.005)
    register(net, plain, result_mnl, 1e-4)


def test_criterion_4_conservation_and_nonnegativity_fuzz():
    """>= 1000 solver iterations on fuzzed networks keep every invariant."""
    rng = np.random.default_rng(1234)
    params = ClassParams()
    iterations = 0
    networks = 0
    while iterations < 1000:
        networks += 1
        net = random_network(rng, n_nodes=int(rng.integers(4, 11)))
        ps = generate_paths(net, free_flow_state(net, params), int(rng.integers(2, 5)))
        assignment = Assignment(net, *ps, params)
        demands = assignment.group_demands
        checks = []

        def check(n, flows, phi):
            sums = assignment.group_sums(flows)
            assert np.all(np.abs(sums - demands) <= 1e-9 * demands)
            assert flows.min() >= 0.0
            phi_sums = np.add.reduceat(phi, assignment.group_starts)
            norms = np.add.reduceat(np.abs(phi), assignment.group_starts)
            assert np.all(np.abs(phi_sums) <= 1e-9 * np.maximum(norms, 1e-300))
            checks.append(n)

        solve_assignment(assignment, SolverConfig(gap_tol=1e-12, max_iters=30),
                         callback=check)
        iterations += len(checks)
    assert iterations >= 1000
    assert networks > 10


def test_criterion_5_modified_beats_baseline_twofold():
    """Nguyen, seeded demand: modified reaches 1e-4 in <= half the iterations."""
    params = ClassParams()
    net = nguyen_network(params, seed=0)
    ps = generate_paths(net, free_flow_state(net, params), 8)
    started = time.perf_counter()
    runs = {}
    for mode in ("modified", "baseline"):
        runs[mode] = solve(net, *ps, params,
                           SolverConfig(gap_tol=1e-4, max_iters=100000, mode=mode))
        assert runs[mode].converged
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    assert runs["modified"].iterations <= runs["baseline"].iterations / 2
    register(net, params, runs["modified"], 1e-4)
    register(net, params, runs["baseline"], 1e-4)


def test_criterion_6_yen_equals_enumeration():
    """100 random DAGs and cyclic digraphs: Yen == exhaustive enumeration."""
    rng = np.random.default_rng(99)
    started = time.perf_counter()
    tested = 0
    while tested < 100:
        cyclic = bool(tested % 2)
        net = random_network(rng, n_nodes=int(rng.integers(4, 9)), cyclic=cyclic)
        costs = rng.uniform(0.5, 4.0, size=net.n_links)
        od = net.od_pairs[0]
        expected = k_cheapest_paths(net, costs, od.origin, od.destination, 10)
        if not expected:
            continue
        got = yen_k_shortest(net, costs, od.origin, od.destination, 10)
        assert [p.links for p in got] == [links for _, _, links in expected]
        assert [p.nodes for p in got] == [nodes for _, nodes, _ in expected]
        tested += 1
    assert time.perf_counter() - started < 10.0


def _layered_network():
    # 1 -> {2,3,4} -> {5,6} -> {7,8} -> 9: exactly 12 simple paths per class
    rng = np.random.default_rng(3)
    links = []

    def add(f, t):
        minutes = round(float(rng.uniform(4, 8)), 2)
        cap = float(rng.integers(400, 900))
        links.append(Link(len(links) + 1, f, t, minutes, minutes, cap, 2.0 * cap))

    for a in (2, 3, 4):
        add(1, a)
    for a in (2, 3, 4):
        for b in (5, 6):
            add(a, b)
    for b in (5, 6):
        for c in (7, 8):
            add(b, c)
    for c in (7, 8):
        add(c, 9)
    return Network(nodes=tuple(range(1, 10)), links=tuple(links),
                   od_pairs=(ODPair(1, 9, 500.0, 400.0),))


def test_criterion_7_pga_consistency_and_dev_pattern():
    """pga(k=12) == direct full-path solve; dev(k) nonincreasing in k."""
    started = time.perf_counter()
    params = ClassParams()
    net = _layered_network()

    from oracles import enumerate_simple_paths
    assert len(enumerate_simple_paths(net, 1, 9)) == 12

    full = generate_paths(net, free_flow_state(net, params), 12)
    assert len(full[0]) == 24  # all 12 paths for both classes

    tight = SolverConfig(gap_tol=1e-6, max_iters=150000)
    direct = solve(net, *full, params, tight)
    assert direct.converged
    res12 = pga_solve(net, params, PgaConfig(k=12), tight)
    assert res12.solve.converged

    total = sum(od.demand_rv + od.demand_av for od in net.od_pairs)
    for xd, xp in zip(direct.flow.x, res12.solve.flow.x):
        carrying = xd > 1e-6 * total
        rel = np.abs(xd - xp)[carrying] / xd[carrying]
        assert rel.max() <= 1e-4
        if (~carrying).any():
            assert np.abs(xd - xp)[~carrying].max() <= 1e-6 * total

    register(net, params, direct, 1e-6)
    register(net, params, res12.solve, 1e-6)

    # dev(k) pattern against the k = 12 reference (short, loose runs:
    # restricted 2-path groups orbit the equilibrium without settling)
    loose = SolverConfig(gap_tol=1e-4, max_iters=4000)
    flows = {}
    for k in (2, 4, 8, 12):
        flows[k] = pga_solve(net, params, PgaConfig(k=k), loose).solve.flow
    for cls in (0, 1):
        ref = flows[12].x[cls]
        devs = [flow_deviation(flows[k].x[cls], ref)
                for k in (2, 4, 8, 12)]
        assert devs[-1] == 0.0
        for earlier, later in zip(devs, devs[1:]):
            assert later <= earlier + 0.01
    assert time.perf_counter() - started < 60.0


def test_criterion_8_ncp_residual_bounded_by_gap_times_cost():
    """Every converged solve from criteria 1-7: residual <= G * TC."""
    assert len(_CONVERGED_SOLVES) >= 6
    for net, params, result, gap_tol in _CONVERGED_SOLVES:
        report = certify(net, result, params)
        assert report.ncp_residual <= gap_tol * report.total_cost * (1.0 + 1e-9)
        assert report.feasibility_violation <= 1e-6 * sum(
            od.demand_rv + od.demand_av for od in net.od_pairs)


def test_criterion_9_sioux_falls_scale_smoke():
    """Standard 24-node/76-link topology, 528 seeded OD pairs, k = 10."""
    started = time.perf_counter()
    params = ClassParams()
    net = sioux_falls_network(params, seed=7)
    assert len(net.nodes) == 24
    assert len(net.links) == 76
    assert len(net.od_pairs) == 528
    ps = generate_paths(net, free_flow_state(net, params), 10)
    result = solve(net, *ps, params, SolverConfig(gap_tol=0.005, max_iters=5000))
    elapsed = time.perf_counter() - started
    assert result.converged
    assert result.iterations <= 5000
    assert elapsed < 300.0
