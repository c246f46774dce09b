import json
import os
import subprocess
import sys
from dataclasses import replace
from operator import attrgetter

import numpy as np
import pytest

import mixflow
from mixflow.costs import FLOW_FLOOR, ClassParams, evaluate_links, free_flow_state
from mixflow.fixtures import (NGUYEN_OD_NODES, nguyen_network, sioux_falls_network,
                              synthesize_demand)
from mixflow.network import AV, RV, VEHICLE_CLASSES, Link, Network, ODPair
from mixflow.paths import yen_k_shortest
from mixflow.pga import generate_paths
from mixflow.solver import (Assignment, BASELINE, GAMMA_INIT, H_FLOOR, MODIFIED,
                            STALL_WINDOW, SolverConfig,
                            SolverError, max_relative_outflow,
                            relative_gap, solve, solve_assignment, step_size,
                            swap_volume, total_cost, update_flows)
from mixflow import costs as cost_model
from mixflow import diagnostics

from conftest import diamond_network, parallel_network, parallel_paths, random_network
from oracles import (alpha_matrix, build_path, flows_by_group, groups_of, link_flows_by_paths,
                     logit_shares, mp_cnl_commonality, mp_perceived_cost_rv,
                     naive_cnl_commonality, naive_swap_direction)


def test_init_uniform_splits_demand(params):
    net = parallel_network([(5.0, 800.0)] * 4, demand_av=100.0)
    ps = parallel_paths(net, AV)
    asn = Assignment(net, *ps, params)
    flows = asn.uniform_flows()
    assert np.allclose(flows, 25.0)


def test_init_uniform_single_path_gets_everything(params):
    net = parallel_network([(5.0, 800.0)], demand_av=42.0)
    asn = Assignment(net, *parallel_paths(net, AV), params)
    assert np.allclose(asn.uniform_flows(), 42.0)


def test_zero_demand_class_is_skipped(params):
    net = parallel_network([(5.0, 800.0)] * 2, demand_av=100.0)  # rv demand 0
    ps = parallel_paths(net, AV)
    asn = Assignment(net, *ps, params)
    assert [g.vehicle_class for g in groups_of(asn)] == [AV]
    assert asn.n_paths == 2


@pytest.mark.parametrize("penetration", [0.0, 0.5, 1.0])
def test_group_demand_table_gives_the_groups_of_assignment_and_generator(penetration):
    """`Network.group_demand[2 * od + class index]` is that OD's class demand;
    its positive entries are the groups of `Assignment` and of the generator,
    in order. An assignment's `paths` and `path_group`, and so a solve's, are
    the generator's paths and groups in its order: the row order of the path
    writers."""
    params = ClassParams(penetration=penetration)
    for net in (nguyen_network(params, seed=0), sioux_falls_network(params, seed=7)):
        assert net.group_demand.dtype == float
        assert net.group_demand.tolist() == [q for od in net.od_pairs
                                             for q in (od.demand_rv, od.demand_av)]
        positive = [(int(g) // 2, VEHICLE_CLASSES[g % 2])
                    for g in np.flatnonzero(net.group_demand > 0)]
        assert len(positive) == len(net.od_pairs) * (1 + (0 < penetration < 1))
        paths, group = generate_paths(net, free_flow_state(net, params), 1)
        assert [(g // 2, VEHICLE_CLASSES[g % 2]) for g in group.tolist()] == positive
        asn = Assignment(net, paths, group, params)
        assert [(g.od_index, g.vehicle_class) for g in groups_of(asn)] == positive
        assert asn.paths == tuple(paths) and asn.path_group.tolist() == group.tolist()
        assert asn.group_demands.tolist() == [net.group_demand[2 * od + VEHICLE_CLASSES.index(c)]
                                              for od, c in positive]
    assert Network(nodes=(1, 2), links=(), od_pairs=()).group_demand.shape == (0,)


def test_nan_demand_group_stays_in_the_assignment(params):
    net = parallel_network([(5.0, 800.0)], demand_rv=float("nan"), demand_av=5.0)
    asn = Assignment(net, *parallel_paths(net, RV, AV), params)
    assert [g.vehicle_class for g in groups_of(asn)] == [RV, AV]


def test_missing_paths_for_demanded_group_rejected(params):
    net = parallel_network([(5.0, 800.0)] * 2, demand_rv=50.0, demand_av=50.0)
    with pytest.raises(ValueError, match="no paths"):    # rv group left empty
        Assignment(net, [build_path(net, (1,))], [1], params)


def test_path_set_with_a_repeated_path_or_a_foreign_group_rejected(params):
    """A group that holds a link sequence twice used to be deduplicated
    silently; a negative group id would wrap around to the last group."""
    net = parallel_network([(5.0, 800.0)] * 2, demand_rv=50.0, demand_av=50.0)
    paths, group = parallel_paths(net, RV, AV)
    with pytest.raises(ValueError, match=r"^od 0 class av: duplicate row for path 2$"):
        Assignment(net, paths + paths[1:2], np.append(group, 1), params)
    for bad in (-1, 2):
        with pytest.raises(ValueError, match=rf"^path group {bad} is outside 0\.\.1$"):
            Assignment(net, paths, np.append(group[:-1], bad), params)
    with pytest.raises(ValueError, match="^3 group ids for 4 paths$"):
        Assignment(net, paths, group[:3], params)
    # a non-integer id would truncate: both av paths would form group 1
    av_net = parallel_network([(5.0, 800.0)] * 2, demand_av=50.0)
    av_paths, _ = parallel_paths(av_net, AV)
    with pytest.raises(ValueError, match="^path group ids have dtype float64, expected integers$"):
        Assignment(av_net, av_paths, [1.7, 1.2], params)
    # an empty [] has a float dtype, and is still read as no paths
    with pytest.raises(ValueError, match="has demand 50.0 for class av but no paths$"):
        Assignment(av_net, [], [], params)


def test_solve_and_certify_reject_the_paths_check_rejects(params):
    """Paths that `mixflow check` rejects as paths of their group: another
    od's path, a one-link path short of its od, a node revisit, and a path
    without links in an av and in an rv group. `solve` raises, and so does
    `certify` on a result built by hand from a good solve; both name the
    path's od and class."""
    nguyen = nguyen_network(params, seed=0)
    link_of = {(l.from_node, l.to_node): l.id for l in nguyen.links}
    nodes = (1, 5, 6, 7, 11, 3)
    other_od = build_path(nguyen, tuple(link_of[a, b] for a, b in zip(nodes, nodes[1:])))
    # the diamond plus link 5 back from node 2 to node 1, so a path can revisit a node
    diamond = diamond_network(demand_rv=60.0, demand_av=60.0)
    diamond = Network(diamond.nodes, diamond.links + (Link(5, 2, 1, 10.0, 10.0, 100.0, 200.0),),
                      diamond.od_pairs)
    cases = [  # network, k, the group whose first path is replaced, the path, message
        (nguyen, 3, 0, other_od, r"od 0 class rv: path 1-5-7-10-16 does not connect od 0"),
        (nguyen, 3, 0, build_path(nguyen, (1,)), r"od 0 class rv: path 1 does not connect od 0"),
        (diamond, 2, 1, (1, 5, 1, 2),
         r"od 0 class av: path revisits a node: \[1, 2, 1, 2, 4\]"),
        (nguyen, 3, 1, (), r"od 0 class av: a path needs at least one link"),
        (nguyen, 3, 0, (), r"od 0 class rv: a path needs at least one link"),
    ]
    for net, k, group_id, path, message in cases:
        paths, group = generate_paths(net, free_flow_state(net, params), k)
        good = solve(net, paths, group, params, SolverConfig(gap_tol=1e-3))
        bad = list(paths)
        bad[int(np.argmax(group == group_id))] = path
        with pytest.raises(ValueError, match=f"^{message}$"):
            solve(net, bad, group, params, SolverConfig(gap_tol=1e-3))
        with pytest.raises(ValueError, match=f"^{message}$"):
            diagnostics.certify(net, replace(good, paths=tuple(bad)), params)


def test_path_set_order_and_zero_demand_groups_do_not_matter(params):
    """Nguyen with av demand on only half its ODs: the generator's path set,
    shuffled and joined by paths of the groups without demand, gives the same
    assignment and solve as the generator's own ascending order."""
    net = nguyen_network(params, seed=0)
    demand = net.group_demand.copy()
    demand[1::4] = 0.0
    net = Network(net.nodes, net.links, tuple(
        ODPair(od.origin, od.destination, rv, av)
        for od, (rv, av) in zip(net.od_pairs, demand.reshape(-1, 2).tolist())))
    state = free_flow_state(net, params)
    paths, group = generate_paths(net, state, 4)
    assert set(group.tolist()) == set(np.flatnonzero(net.group_demand > 0).tolist())
    # 4 av paths of each OD without av demand; the groups interleave at
    # random, and each group's paths keep their order
    idle = np.flatnonzero(net.group_demand == 0)
    everything = list(paths) + [path for g in idle.tolist() for path in yen_k_shortest(
        net, state.cost[1], net.od_pairs[g // 2].origin, net.od_pairs[g // 2].destination, 4)]
    every_group = np.concatenate([group, np.repeat(idle, 4)])
    queues = {g: iter(np.flatnonzero(every_group == g).tolist())
              for g in set(every_group.tolist())}
    order = [next(queues[g]) for g in np.random.default_rng(5).permutation(every_group).tolist()]
    shuffled = Assignment(net, [everything[i] for i in order], every_group[order], params)
    sorted_ = Assignment(net, paths, group, params)
    assert shuffled.paths == sorted_.paths == tuple(paths)
    assert shuffled.path_group.tolist() == sorted_.path_group.tolist() == group.tolist()
    config = SolverConfig(gap_tol=1e-4)
    got, expected = solve_assignment(shuffled, config), solve_assignment(sorted_, config)
    assert got.flow.f.tobytes() == expected.flow.f.tobytes()
    assert [row.gap for row in got.trace] == [row.gap for row in expected.trace]


def swap_direction(flows, perceived):
    """Swap direction of one av group of len(flows) parallel links."""
    net = parallel_network([(5.0, 800.0)] * len(flows), demand_av=1.0)
    asn = Assignment(net, *parallel_paths(net, AV), ClassParams())
    return asn.swap_directions(np.asarray(flows, dtype=float),
                               np.asarray(perceived, dtype=float))


def test_swap_direction_frozen_linear():
    phi = swap_direction(np.array([10.0, 0.0]), np.array([5.0, 3.0]))
    assert np.allclose(phi, [-20.0, 20.0])


def test_swap_direction_vanishes_at_equal_costs():
    phi = swap_direction(np.array([7.0, 1.0, 2.0]), np.array([4.0, 4.0, 4.0]))
    assert np.allclose(phi, 0.0)


def test_swap_direction_matches_naive_oracle_and_sums_to_zero():
    rng = np.random.default_rng(31)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        flows = rng.uniform(0.0, 50.0, size=n)
        perceived = rng.uniform(0.0, 20.0, size=n)
        phi = swap_direction(flows, perceived)
        assert np.allclose(phi, naive_swap_direction(flows, perceived), rtol=1e-12, atol=1e-9)
        norm = np.abs(phi).sum()
        assert abs(phi.sum()) <= 1e-9 * max(norm, 1.0)


def test_swap_direction_ties_and_empty_dearer_paths_move_nothing():
    net = parallel_network([(5.0, 800.0)] * 3, demand_rv=30.0, demand_av=30.0)
    ps = parallel_paths(net, RV, AV)
    asn = Assignment(net, *ps, ClassParams())
    # equal perceived costs within each group, whatever the flows
    flows = np.array([7.0, 13.0, 10.0, 0.0, 25.0, 5.0])
    phi = asn.swap_directions(flows, np.array([4.25] * 3 + [6.5] * 3))
    assert (phi == 0.0).all()
    # the dearer path of every pair has no flow, whether it is first or last in the pair
    flows = np.array([30.0, 0.0, 0.0, 0.0, 0.0, 30.0])
    perceived = np.array([2.0, 5.0, 9.0, 9.0, 5.0, 2.0])
    assert (asn.swap_directions(flows, perceived) == 0.0).all()
    # one dearer path with flow: only its pairs move, toward both cheaper paths
    flows[2] = 4.0
    phi = asn.swap_directions(flows, perceived)
    assert phi[1] == 4.0 * 4.0 and phi[0] == 4.0 * 7.0
    assert phi[2] == -(phi[0] + phi[1]) and (phi[3:] == 0.0).all()


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
    step, damping = step_size(2.0, 100.0, None, None, MODIFIED, SolverConfig().gamma_growth)
    assert damping == 9.5
    assert step == pytest.approx(1.0 / 19.0)
    assert step == pytest.approx(0.05263, abs=1e-5)


def test_step_size_ratio_branch():
    step, _ = step_size(2.0, 50.0, 100.0, 9.5, MODIFIED, 0.0)
    assert step == pytest.approx(0.25)


def test_step_size_damped_branch():
    step, damping = step_size(2.0, 150.0, 100.0, 10.0, MODIFIED, 0.0)
    assert damping == 10.0
    assert step == pytest.approx(0.05)


def test_step_size_damping_grows_every_iteration():
    _, damping = step_size(1.0, 50.0, 100.0, 9.5, MODIFIED, 0.5)
    assert damping == 10.0


def test_step_size_baseline_always_damped():
    step, _ = step_size(2.0, 50.0, 100.0, 10.0, BASELINE, 0.0)
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
    return Assignment(net, *parallel_paths(net, AV), params)


def test_relative_gap_frozen(params):
    asn = _tiny_assignment(params)
    flows, perceived = np.array([5.0, 5.0]), np.array([10.0, 20.0])
    gap = relative_gap(asn, flows, perceived, total_cost(flows, perceived))
    assert gap == pytest.approx(1.0 / 3.0)
    assert gap == pytest.approx(0.3333, abs=1e-4)


def test_relative_gap_zero_when_flow_on_minimum(params):
    asn = _tiny_assignment(params)
    flows, perceived = np.array([10.0, 0.0]), np.array([4.0, 9.0])
    assert relative_gap(asn, flows, perceived, total_cost(flows, perceived)) == 0.0


def test_relative_gap_in_unit_interval_for_positive_costs(params):
    asn = _tiny_assignment(params)
    rng = np.random.default_rng(32)
    for _ in range(100):
        flows = rng.uniform(0.0, 10.0, size=2)
        costs = rng.uniform(0.1, 30.0, size=2)
        if flows @ costs == 0:
            continue
        gap = relative_gap(asn, flows, costs, total_cost(flows, costs))
        assert 0.0 <= gap < 1.0


def test_total_cost():
    assert total_cost(np.array([10.0]), np.array([5.0])) == 50.0
    assert total_cost(np.zeros(3), np.ones(3)) == 0.0
    assert total_cost(np.array([2.0, 4.0]), np.array([1.0, 1.0])) == 6.0


def test_cost_sums_do_not_depend_on_blas_threads():
    """OpenBLAS splits a dot product of over 10000 entries across its threads,
    which changes its last bits; the gap, total cost and certificate total of
    a Sioux Falls run (over 10000 paths) must not depend on the thread count."""
    script = """
from types import SimpleNamespace
import numpy as np
from mixflow.diagnostics import ncp_residual
from mixflow.solver import relative_gap, total_cost
rng = np.random.default_rng(3)
flows, costs = rng.uniform(0.0, 100.0, 21000), rng.uniform(1.0, 50.0, 21000)
group = np.arange(21000) // 7
asn = SimpleNamespace(group_starts=np.arange(0, 21000, 7), group_sizes=np.full(3000, 7))
total = total_cost(flows, costs)
print(total.hex(), relative_gap(asn, flows, costs, total).hex(),
      ncp_residual(flows, costs, group, np.bincount(group, flows)).total_cost.hex())
"""
    src = os.path.dirname(os.path.dirname(mixflow.__file__))
    outputs = {subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              check=True, env=dict(os.environ, PYTHONPATH=src,
                                                   OPENBLAS_NUM_THREADS=threads)).stdout
               for threads in ("1", "2")}
    assert len(outputs) == 1, outputs


def test_outcomes_do_not_depend_on_numpy_avx512_dispatch():
    """With numpy's AVX512 loops turned off, `np.exp`, `np.log` and
    `np.power` round some last bits differently, so flows are byte-identical
    only per host, numpy build and dispatch level. What must hold across
    levels: the Sioux Falls seed 7 one-shot and PGA paths, the Nguyen demand
    seed 1 `modified` paths, convergence, certificates, and iteration counts
    within the 25% that a last-bit change may move a chaotic solve (seed 1:
    1873 iterations here, 1872 without AVX512). Skipped where numpy has no
    AVX512 loops to turn off."""
    script = """
import hashlib, json
try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:    # numpy 1
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
from mixflow import diagnostics
from mixflow.costs import ClassParams, free_flow_state
from mixflow.fixtures import nguyen_network, sioux_falls_network
from mixflow.pga import PgaConfig, generate_paths, pga_solve
from mixflow.solver import SolverConfig, solve
params = ClassParams()
out = {"targets": [t for t in __cpu_dispatch__ if __cpu_features__[t]]}
for name, net, k, gap in (("sioux_falls", sioux_falls_network(params, seed=7), 10, 5e-3),
                          ("nguyen", nguyen_network(params, seed=1), 8, 1e-4)):
    config = SolverConfig(gap_tol=gap, max_iters=5000)
    runs = [("solve", generate_paths(net, free_flow_state(net, params), k), None)]
    if name == "sioux_falls":
        pga = pga_solve(net, params, PgaConfig(k=k), config)
        runs.append(("pga", (pga.solve.paths, pga.solve.path_group), pga.solve))
    for command, (paths, group), result in runs:
        result = result or solve(net, paths, group, params, config)
        report = diagnostics.certify(net, result, params)
        digest = hashlib.sha256(repr((paths, group.tolist())).encode()).hexdigest()
        out[f"{name} {command}"] = (digest,
                                    result.converged, report.relative_residual <= gap,
                                    result.iterations)
print(json.dumps(out))
"""
    off = {"X86_V4", "AVX512_ICL", "AVX512_SPR"}
    src = os.path.dirname(os.path.dirname(mixflow.__file__))
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}

    def run(**extra):
        return json.loads(subprocess.run([sys.executable, "-c", script], capture_output=True,
                                         text=True, check=True,
                                         env=dict(env, PYTHONPATH=src, **extra)).stdout)

    full = run()
    if not off & set(full.pop("targets")):
        pytest.skip("numpy runs no AVX512 loops on this host, so there is none to turn off")
    cut = run(NPY_DISABLE_CPU_FEATURES=",".join(sorted(off)))
    assert not off & set(cut.pop("targets"))
    for case, (digest, converged, certified, iterations) in full.items():
        assert converged and certified, case
        assert cut[case][:3] == [digest, converged, certified], case
        assert abs(cut[case][3] - iterations) <= 0.25 * iterations, case


def test_solve_symmetric_parallel_links_split_evenly(params):
    net = parallel_network([(5.0, 1000.0), (5.0, 1000.0)], demand_av=600.0)
    ps = parallel_paths(net, AV)
    result = solve(net, *ps, params, SolverConfig(gap_tol=1e-8))
    assert result.converged
    assert np.allclose(result.flow.f, [300.0, 300.0])
    assert result.gap <= 1e-8


def test_solve_mnl_degenerate_matches_logit_oracle():
    params = ClassParams(nesting=1.0, dispersion=0.1)
    net = parallel_network([(25.0, 1e9), (26.0, 1e9)], demand_rv=1000.0)
    ps = parallel_paths(net, RV)
    result = solve(net, *ps, params,
                   SolverConfig(gap_tol=1e-4, max_iters=50000, gamma_growth=5.0))
    assert result.converged
    state = evaluate_links(net, result.flow.x, params)
    shares = result.flow.f / 1000.0
    expected = logit_shares(state.cost[0], params.dispersion)
    assert np.abs(shares - expected).max() < 0.005


def test_solve_zero_direction_at_three_path_fixed_point(params):
    # crafted: equal perceived costs across a group leave phi identically zero
    net = parallel_network([(5.0, 700.0)] * 3, demand_av=300.0)
    ps = parallel_paths(net, AV)
    asn = Assignment(net, *ps, params)
    flows = asn.uniform_flows()
    state = cost_model.evaluate_links(net, asn.link_flows(flows), params)
    perceived = asn.perceived_costs(flows, asn.path_costs(state))
    phi = asn.swap_directions(flows, perceived)
    assert np.allclose(phi, 0.0)
    bumped = perceived.copy()
    bumped[0] += 1.0
    assert not np.allclose(asn.swap_directions(flows, bumped), 0.0)


def test_solve_flags_max_iters_without_raising(params):
    net = parallel_network([(5.0, 400.0), (9.0, 300.0)], demand_av=900.0)
    ps = parallel_paths(net, AV)
    result = solve(net, *ps, params, SolverConfig(gap_tol=1e-12, max_iters=3))
    assert not result.converged
    assert result.iterations == 3
    assert len(result.trace) == 3


@pytest.mark.parametrize("config", [SolverConfig(gap_tol=1e-4, max_iters=5000),
                                    SolverConfig(gap_tol=1e-9, max_iters=40)],
                         ids=["converged", "max_iters"])
def test_result_carries_the_pricing_of_its_iterate(params, config):
    """The flow state holds the link state and path costs its last trace row
    was computed from, exactly as a fresh evaluation at its flows gives them."""
    net = nguyen_network(params, seed=0)
    asn = Assignment(net, *generate_paths(net, free_flow_state(net, params), 8), params)
    result = solve_assignment(asn, config)
    assert result.converged == (config.max_iters == 5000)
    assert result.iterations == len(result.trace) == (215 if result.converged else 40)
    flow = result.flow
    assert np.array_equal(flow.x, asn.link_flows(flow.f))
    fresh = evaluate_links(net, flow.x, params)
    for name in ("mixed_cap", "minutes", "cost"):
        assert np.array_equal(getattr(flow.link_state, name), getattr(fresh, name)), name
    assert np.array_equal(flow.path_costs, asn.path_costs(fresh))
    perceived = asn.perceived_costs(flow.f, flow.path_costs)
    total = total_cost(flow.f, perceived)
    assert result.total_cost == total == result.trace[-1].total_cost
    assert result.gap == relative_gap(asn, flow.f, perceived, total) == result.trace[-1].gap


def test_solve_callback_sees_every_update(params):
    net = parallel_network([(5.0, 400.0), (9.0, 300.0)], demand_av=900.0)
    ps = parallel_paths(net, AV)
    seen = []
    solve(net, *ps, params, SolverConfig(gap_tol=1e-12, max_iters=5),
          callback=lambda n, f, phi: seen.append((n, f.sum())))
    assert [n for n, _ in seen] == [1, 2, 3, 4]  # terminal iteration not applied
    assert all(s == pytest.approx(900.0) for _, s in seen)


def _nguyen_start(params):
    """A Nguyen seed 0 assignment (3 paths per group) and its uniform flows."""
    net = nguyen_network(params, seed=0)
    asn = Assignment(net, *generate_paths(net, free_flow_state(net, params), 3), params)
    return asn, asn.uniform_flows()


def test_initial_flows_over_demand_fail_before_the_loop(params):
    """A start 10% over demand used to fail as a drift at iteration 1; one
    within the drift limit still runs."""
    asn, flows = _nguyen_start(params)
    with pytest.raises(ValueError, match=r"^demand conservation drift 3\.411e\+01 in od 0 "
                                         "class rv in the initial flows$"):
        solve_assignment(asn, SolverConfig(), 1.1 * flows)
    assert solve_assignment(asn, SolverConfig(max_iters=1), flows * (1 + 1e-12)).iterations == 1


def test_negative_initial_flows_fail_before_the_loop(params):
    """A negated start used to fail as a step beyond the feasibility bound."""
    asn, flows = _nguyen_start(params)
    with pytest.raises(ValueError, match=r"^initial flows: path 0 has flow -113\.7, "
                                         "expected finite and nonnegative$"):
        solve_assignment(asn, SolverConfig(), -flows)


def test_nan_initial_flow_fails_before_the_loop(params):
    """A NaN start used to fail as a non-finite perceived cost at iteration 1."""
    asn, flows = _nguyen_start(params)
    flows[4] = np.nan
    with pytest.raises(ValueError, match=r"^initial flows: path 4 has flow nan, "
                                         "expected finite and nonnegative$"):
        solve_assignment(asn, SolverConfig(), flows)


def test_solve_nguyen_passes_ncp_residual_oracle(params):
    net = nguyen_network(params, seed=0)
    ps = generate_paths(net, free_flow_state(net, params), 8)
    result = solve(net, *ps, params, SolverConfig(gap_tol=1e-4, max_iters=20000))
    assert result.converged
    report = diagnostics.certify(net, result, params)
    assert report.relative_residual <= 1e-3
    assert report.feasibility_violation <= 1e-6 * sum(
        od.demand_rv + od.demand_av for od in net.od_pairs)


def test_nguyen_equilibrium_conditions_at_tight_gap(params):
    # rv: used-path perceived costs equalize within 20*G at G = 1e-6.
    # av: the used-path observed cost spread shrinks with the gap. Its ratio to
    # G is no solver constant (seed 0 reads ~15*G, seeds 1-7 up to ~4e4*G), so
    # the check is that a tenfold tighter gap cuts the worst spread fivefold.
    net = nguyen_network(params, seed=0)
    ps = generate_paths(net, free_flow_state(net, params), 8)
    asn = Assignment(net, *ps, params)
    av_spread = {}
    for gap_tol in (1e-6, 1e-7):
        result = solve(net, *ps, params, SolverConfig(gap_tol=gap_tol, max_iters=300000))
        assert result.converged
        state = cost_model.evaluate_links(net, result.flow.x, params)
        observed = asn.path_costs(state)
        perceived = asn.perceived_costs(result.flow.f, observed)
        spreads = []
        for g in groups_of(asn):
            sl = slice(g.start, g.stop)
            flows = result.flow.f[sl]
            if g.vehicle_class == AV:
                c = observed[sl]
                used = flows > 1e-6 * g.demand
                spreads.append((c[used].max() - c[used].min()) / c[used].min())
            elif gap_tol == 1e-6:
                c = perceived[sl]
                used = flows > FLOW_FLOOR
                spread = (c[used].max() - c[used].min()) / abs(c[used].min())
                assert spread <= 20.0 * gap_tol
        av_spread[gap_tol] = max(spreads)
    assert av_spread[1e-7] <= 0.2 * av_spread[1e-6], av_spread


def test_both_step_rules_reach_one_equilibrium(params):
    """Nguyen seed 0, k 8, gap 1e-6: the `modified` and `baseline` link flows
    agree per class by relative L1 deviation. Measured 1.79e-6 (rv) and
    1.25e-5 (av) over 602 and 3517 iterations; the bounds 1e-5 and 1e-4 leave
    margins of about 5x and 8x. At gap 1e-4 the two differ by up to 1.3e-2
    on av (seed 2), so a looser gap would not tell them apart."""
    net = nguyen_network(params, seed=0)
    ps = generate_paths(net, free_flow_state(net, params), 8)
    runs = {mode: solve(net, *ps, params, SolverConfig(gap_tol=1e-6, mode=mode))
            for mode in (MODIFIED, BASELINE)}
    assert all(run.converged for run in runs.values())
    rv, av = (diagnostics.flow_deviation(runs[MODIFIED].flow.x[c], runs[BASELINE].flow.x[c])
              for c in (0, 1))
    assert rv <= 1e-5 and av <= 1e-4, (rv, av)


def test_solver_link_flows_match_independent_accumulation(params):
    net = nguyen_network(params, seed=0)
    ps = generate_paths(net, free_flow_state(net, params), 8)
    result = solve(net, *ps, params, SolverConfig(gap_tol=1e-3, max_iters=20000))
    paths = {(g.od_index, g.vehicle_class): g.paths
             for g in groups_of(Assignment(net, *ps, params))}
    x_rv, x_av = link_flows_by_paths(paths, flows_by_group(result), net)
    assert np.allclose(result.flow.x[0], x_rv, rtol=1e-9)
    assert np.allclose(result.flow.x[1], x_av, rtol=1e-9)


def test_conservation_and_nonnegativity_under_fuzz():
    rng = np.random.default_rng(33)
    params = ClassParams()
    for _ in range(10):
        net = random_network(rng)
        ps = generate_paths(net, free_flow_state(net, params), 3)

        def check(n, flows, phi, asn_sums=[]):
            assert flows.min() >= 0.0

        result = solve(net, *ps, params,
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
    paths, group = [], []
    for od_index, od in enumerate(net.od_pairs):
        for c, demand in enumerate((od.demand_rv, od.demand_av)):
            if demand > 0:
                k = int(rng.integers(1, 16))
                found = yen_k_shortest(net, net.free_times, od.origin, od.destination, k)
                paths += found
                group += [2 * od_index + c] * len(found)
    return Assignment(net, paths, group, params)


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
        rng.integers(0, 4, size=2)   # unused: without it penetration 0.5 draws no one-path group
        with np.errstate(all="raise"):
            perceived = asn.perceived_costs(flows, observed)
            phi = asn.swap_directions(flows, perceived)
        lengths = {l.id: l.length for l in asn.network.links}
        for g in groups_of(asn):
            sl = slice(g.start, g.stop)
            sizes.add(g.stop - g.start)
            if g.vehicle_class == RV:
                alpha = alpha_matrix(g.paths, lengths)
                naive = naive_cnl_commonality(alpha, observed[sl], theta, u)
                if base:
                    assert not np.isfinite(naive).all()
                    h = mp_cnl_commonality(alpha, observed[sl], theta, u)
                    expected = [mp_perceived_cost_rv(c, max(f, FLOW_FLOOR), g.demand,
                                                     hk, theta, u)
                                for c, f, hk in zip(observed[sl], flows[sl], h)]
                    assert np.allclose(perceived[sl], expected, rtol=1e-12)
                else:
                    scale = u / theta
                    expected = (observed[sl] - scale * naive
                                + scale * np.log(np.maximum(flows[sl], FLOW_FLOOR)
                                                 / g.demand))
                    assert np.allclose(perceived[sl], expected, rtol=1e-9)
            else:
                assert np.array_equal(perceived[sl], observed[sl])
            assert np.allclose(phi[sl], naive_swap_direction(flows[sl], perceived[sl]),
                               rtol=1e-12, atol=1e-9)
            # what max_relative_outflow relies on: no path drains more than it has
            assert abs(phi[sl].sum()) <= 1e-9 * np.abs(phi[sl]).sum()
        assert (phi[flows == 0] >= 0).all()
    assert 1 in sizes and max(sizes) >= 12


def _pair_list(asn):
    """(lo, hi, whether lo's group is rv) per swap pair, in list order."""
    is_rv = {k: g.vehicle_class == RV for g in groups_of(asn) for k in range(g.start, g.stop)}
    return [(lo, hi, is_rv[lo]) for lo, hi in zip(asn.pair_lo.tolist(), asn.pair_hi.tolist())]


def test_swap_pairs_list_each_within_group_pair_once_in_path_order(params):
    net = nguyen_network(params, seed=0)
    nguyen = Assignment(net, *generate_paths(net, free_flow_state(net, params), 8), params)
    net = sioux_falls_network(params, seed=7)
    sioux = Assignment(net, *generate_paths(net, free_flow_state(net, params), 10), params)
    # 240 av groups, 30 of each size 1..8, one parallel link per path
    links, od_pairs = [], []
    for i, size in enumerate(s for s in range(1, 9) for _ in range(30)):
        od_pairs.append(ODPair(2 * i + 1, 2 * i + 2, 0.0, 10.0))
        links += [Link(len(links) + k + 1, 2 * i + 1, 2 * i + 2, 5.0 + k, 5.0 + k, 800.0,
                       1600.0) for k in range(size)]
    net = Network(nodes=tuple(range(1, 2 * len(od_pairs) + 1)), links=tuple(links),
                  od_pairs=tuple(od_pairs))
    sizes = Assignment(net, [build_path(net, (link.id,)) for link in links],
                       [link.from_node // 2 * 2 + 1 for link in links], params)
    assert [asn.pair_lo.size for asn in (nguyen, sioux, sizes)] == [136, 1056 * 45, 2520]
    for asn in (nguyen, sioux, sizes):
        pairs = _pair_list(asn)
        expected = {(lo, hi, g.vehicle_class == RV) for g in groups_of(asn)
                    for lo in range(g.start, g.stop) for hi in range(lo + 1, g.stop)}
        # each unordered within-group pair exactly once: a one-path group has
        # no pair, and no pair crosses groups or classes
        assert len(pairs) == len(set(pairs)) and set(pairs) == expected
        # in path order: by lo, then by hi
        assert pairs == sorted(pairs)
    single = [g.start for g in groups_of(sizes) if g.stop - g.start == 1]
    paired = np.concatenate([sizes.pair_lo, sizes.pair_hi])
    assert len(single) == 30 and not np.isin(single, paired).any()


def test_nguyen_baseline_iteration_counts_are_pinned(params):
    expected = [1177, 1610, 2034, 1519, 739, 804, 1564, 1027]
    counts = []
    for seed in range(8):
        net = nguyen_network(params, seed=seed)
        ps = generate_paths(net, free_flow_state(net, params), 8)
        result = solve(net, *ps, params, SolverConfig(gap_tol=1e-4, max_iters=5000,
                                                     mode=BASELINE))
        assert result.converged
        counts.append(result.iterations)
    assert counts == expected


def _stall_iteration(trace):
    """First iteration at which the gap has not halved for STALL_WINDOW
    iterations since the last gap that halved the one marked before it."""
    mark_gap = mark_at = None
    for row in trace:
        if mark_at is None or row.gap <= 0.5 * mark_gap:
            mark_gap, mark_at = row.gap, row.iteration
        elif row.iteration - mark_at >= STALL_WINDOW:
            return row.iteration
    return None


@pytest.fixture(scope="module")
def nguyen_modified_solves():
    """Nguyen demand seeds 0-7, `modified` at gap 1e-4: per seed the network,
    path set, result and the (flows, direction) of every applied update."""
    params = ClassParams()
    solves = {}
    for seed in range(8):
        net = nguyen_network(params, seed=seed)
        ps = generate_paths(net, free_flow_state(net, params), 8)
        updates = []
        result = solve(net, *ps, params, SolverConfig(gap_tol=1e-4, max_iters=5000),
                       callback=lambda n, f, phi: updates.append((f, phi)))
        solves[seed] = (net, ps, result, updates)
    return solves


def test_nguyen_modified_falls_back_only_where_the_gap_stalls(nguyen_modified_solves):
    never_stall = {0: 215, 2: 324, 3: 304, 4: 188, 5: 220, 6: 365, 7: 264}
    for seed, (net, ps, result, _) in nguyen_modified_solves.items():
        assert result.converged, seed
        if seed in never_stall:
            assert result.fallback_at is None, seed
            assert result.iterations == never_stall[seed], seed
            assert _stall_iteration(result.trace) is None, seed
            continue
        # demand seed 1 never converged on the modified rule alone
        assert result.fallback_at == _stall_iteration(result.trace) is not None, seed
        report = diagnostics.certify(net, result, ClassParams())
        assert report.relative_residual <= 1e-4, seed


def test_fallback_takes_the_baseline_step_from_gamma_init(nguyen_modified_solves):
    # demand seed 1, the only one of 0-7 that falls back
    net, ps, result, updates = nguyen_modified_solves[1]
    at, trace = result.fallback_at, result.trace
    assert trace[at - 1].damping != GAMMA_INIT
    assert trace[at].damping == GAMMA_INIT     # iteration at + 1
    gamma_growth = SolverConfig().gamma_growth
    for n in range(at + 2, result.iterations + 1):
        assert trace[n - 1].damping == trace[n - 2].damping + gamma_growth
    # the step of every applied fallback update is the damped one
    for n in range(at + 1, result.iterations):
        before, direction = updates[n - 2][0], updates[n - 1][1]
        drain = max_relative_outflow(before, direction, H_FLOOR)
        row = trace[n - 1]
        assert row.step == pytest.approx(1.0 / (drain * row.damping), rel=1e-12), n
    # ... along the swap direction at the flows it starts from
    params = ClassParams()
    asn = Assignment(net, *ps, params)
    before, direction = updates[at - 1][0], updates[at][1]
    state = evaluate_links(net, asn.link_flows(before), params)
    perceived = asn.perceived_costs(before, asn.path_costs(state))
    assert np.allclose(direction, asn.swap_directions(before, perceived), rtol=1e-12, atol=0.0)


def test_fallback_continues_as_a_fresh_baseline_solve(nguyen_modified_solves):
    """After the fallback, a stalled modified solve is a `baseline` solve
    started from the flows of its last modified update, bit for bit: the same
    trace rows after `fallback_at` and the same final flows."""
    params = ClassParams()
    fields = attrgetter("gap", "swap_volume", "total_cost", "step", "damping")
    fell_back = {}
    for seed, (net, ps, result, updates) in nguyen_modified_solves.items():
        at = result.fallback_at
        if at is None:
            continue
        fresh = solve(net, *ps, params,
                      SolverConfig(gap_tol=1e-4, max_iters=5000 - at, mode=BASELINE),
                      initial_flows=updates[at - 1][0])
        assert list(map(fields, fresh.trace)) == list(map(fields, result.trace[at:])), seed
        assert np.array_equal(fresh.flow.f, result.flow.f), seed
        assert fresh.converged and fresh.fallback_at is None, seed
        fell_back[seed] = (at, fresh.iterations)
    assert fell_back == {1: (626, 1247)}


def test_one_ulp_demand_change_keeps_nguyen_modified_outcome(nguyen_modified_solves):
    """A last-bit change of one OD demand neither changes whether a solve
    converges nor moves its iteration count by more than 25%."""
    params = ClassParams()
    for seed, (_, _, result, _) in nguyen_modified_solves.items():
        demand = synthesize_demand(NGUYEN_OD_NODES, seed, 300.0, 900.0)
        for od in sorted(demand)[:2]:
            nudged = dict(demand)
            nudged[od] = float(np.nextafter(demand[od], np.inf))
            net = nguyen_network(params, demand=nudged)
            ps = generate_paths(net, free_flow_state(net, params), 8)
            moved = solve(net, *ps, params, SolverConfig(gap_tol=1e-4, max_iters=5000))
            assert moved.converged == result.converged, (seed, od)
            assert abs(moved.iterations - result.iterations) <= 0.25 * result.iterations, \
                (seed, od, moved.iterations, result.iterations)


def test_baseline_and_sioux_falls_never_fall_back(params):
    # baseline demand seed 2 at gap 1e-7 stalls, and must keep its rule
    net = nguyen_network(params, seed=2)
    ps = generate_paths(net, free_flow_state(net, params), 8)
    result = solve(net, *ps, params, SolverConfig(gap_tol=1e-7, max_iters=2300, mode=BASELINE))
    assert _stall_iteration(result.trace) is not None
    assert result.fallback_at is None
    net = sioux_falls_network(params, seed=7)
    ps = generate_paths(net, free_flow_state(net, params), 10)
    result = solve(net, *ps, params, SolverConfig(gap_tol=5e-3, max_iters=5000))
    assert result.converged and result.iterations == 146
    assert result.fallback_at is None


@pytest.mark.xfail(strict=True, reason="known defect: on rv-only Nguyen demand the stall "
                   "fallback's damped step stalls short of the gap (seed 0 ends at gap 0.0409)")
def test_nguyen_rv_only_demand_converges_at_the_defaults():
    """`mixflow solve --set penetration=0` on Nguyen demand seed 0: k = 10,
    gap 1e-4, max_iters 10000. Every seed 0-7 exhausts the budget today."""
    params = ClassParams(penetration=0.0)
    net = nguyen_network(params, seed=0)
    result = solve(net, *generate_paths(net, free_flow_state(net, params), 10), params,
                   SolverConfig())
    assert result.converged, result.gap
