import hashlib

import numpy as np
import pytest

from mixflow import pga
from mixflow.costs import evaluate_links, free_flow_state
from mixflow.fixtures import nguyen_network, sioux_falls_network
from mixflow.network import RV, VEHICLE_CLASSES, Link, Network, ODPair
from mixflow.paths import merge_path_sets, yen_k_shortest
from mixflow.pga import PgaConfig, generate_paths, pga_solve
from mixflow.solver import Assignment, SolverConfig, solve_assignment

from conftest import diamond_network
from oracles import carry_over_by_groups, flows_by_group, path_nodes


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
    assert len(result.solve.paths) == total


def test_new_paths_start_from_carried_flows(params):
    # saturated set on round 2: flows must carry over, conservation must hold
    net = diamond_network()
    result = pga_solve(net, params, PgaConfig(k=5, outer_tol=0.01),
                       SolverConfig(gap_tol=1e-5))
    q_rv = net.od_pairs[0].demand_rv
    q_av = net.od_pairs[0].demand_av
    for (_, cls), flows in flows_by_group(result.solve).items():
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
    for cls in (0, 1):
        ref = flows[10].x[cls]
        devs = [flow_deviation(flows[k].x[cls], ref) for k in (4, 7, 10)]
        assert devs[-1] == 0.0
        for earlier, later in zip(devs, devs[1:]):
            assert later <= earlier + 0.01


def test_generate_paths_equals_per_call_yen(params):
    """One `Graph` per class serves every group as a call without one would."""
    for net, k in ((nguyen_network(params, seed=0), 8),
                   (sioux_falls_network(params, seed=7), 5)):
        state = free_flow_state(net, params)
        expected = [(2 * i + c, path) for i, od in enumerate(net.od_pairs)
                    for c, demand in enumerate((od.demand_rv, od.demand_av)) if demand > 0
                    for path in yen_k_shortest(net, state.cost[c], od.origin,
                                               od.destination, k)]
        paths, group = generate_paths(net, state, k)
        assert list(zip(group.tolist(), paths)) == expected


# sha256 of generate_paths on Sioux Falls, keyed by (demand seed, k, state);
# recorded before the search moved to node indices and one graph per class
_GENERATED_DIGESTS = {
    (3, 4, "free"): "7b0e6a41163a2e1806702ced8188766660e75ce825a4b40348a6edb3924c6c64",
    (3, 4, "loaded"): "0ceb7b4a0f1b5ee820b73ad3d3f39c0dd0f0c288639cf258586f5104be99d5a4",
    (3, 10, "free"): "ff597966355a74734d0d0172f40ab311961dffa6a5c63dbf39964aa7fd634aed",
    (3, 10, "loaded"): "662d9e72619743be886457347d13760003c0016c552119afe4badc43f2b23c5a",
    (7, 4, "free"): "323cdd88b96eeb1abba50cc6d7660d0a1b0aeef9bdb4c4da973f177121eb47d5",
    (7, 4, "loaded"): "c03ac52f78e6dee39f537e29b256e76ad397af72d1b94cfc9c2c76a9ad9e2fda",
    (7, 10, "free"): "82c77a9715ae64e4f062cd84ea2c7b566fc8eade15b4d23ba8652df134d8ba42",
    (7, 10, "loaded"): "06212e063fbe652b3acab25f697213fa0c57df42661c563b826b10139f46274a",
}


def _digest(net, paths, group):
    h = hashlib.sha256()
    for g, p in zip(group.tolist(), paths):
        h.update(f"{g // 2} {VEHICLE_CLASSES[g % 2]} {p} {path_nodes(net, p)}\n".encode())
    return h.hexdigest()


def test_generated_paths_pinned_on_sioux_falls(params):
    """Free flow and one seeded loaded state (uniform link flows up to 1500
    veh/h per class) give the recorded path sets."""
    got = {}
    for seed in (3, 7):
        net = sioux_falls_network(params, seed=seed)
        rng = np.random.default_rng(seed)
        loaded = evaluate_links(net, np.array([rng.uniform(0, 1500, net.n_links),
                                               rng.uniform(0, 1500, net.n_links)]), params)
        for k in (4, 10):
            for name, state in (("free", free_flow_state(net, params)), ("loaded", loaded)):
                got[(seed, k, name)] = _digest(net, *generate_paths(net, state, k))
    assert got == _GENERATED_DIGESTS


def test_known_paths_leave_pga_merges_unchanged_on_sioux_falls(params, monkeypatch):
    """Seed 7 PGA at k = 10, gap 5e-3: in every round, merging what
    `generate_paths` returns with the round's path set as `known` gives the
    same groups, in the same order, as merging in the paths of a generation
    without `known` that the round's set does not hold yet, while the last
    round leaves most groups out."""
    net = sioux_falls_network(params, seed=7)
    rounds = []

    def recorded(network, link_state, k, known=(), known_group=()):
        rounds.append((link_state, known, known_group))
        return generate_paths(network, link_state, k, known, known_group)

    monkeypatch.setattr(pga, "generate_paths", recorded)
    pga_solve(net, params, PgaConfig(k=10), SolverConfig(gap_tol=5e-3))
    assert len(rounds) == 3
    left_out = []
    for link_state, known, known_group in rounds:
        generated, group = generate_paths(net, link_state, 10, known, known_group)
        merged = merge_path_sets(known, known_group, generated, group)
        held = set(zip(map(int, known_group), known))
        plain, plain_group = generate_paths(net, link_state, 10)
        fresh = [(p, g) for p, g in zip(plain, plain_group.tolist()) if (g, p) not in held]
        expected = merge_path_sets(known, known_group, [p for p, _ in fresh],
                                   [g for _, g in fresh])
        assert len(generated) == len(fresh)
        assert merged[0] == expected[0] and merged[1].tolist() == expected[1].tolist()
        left_out.append(np.unique(expected[1]).size - np.unique(group).size)
    assert left_out[0] == 0 and left_out[2] > 900, left_out


def test_carry_over_matches_per_group_oracle_on_sioux_falls(params, monkeypatch):
    """Seed 7 PGA at k = 10, gap 5e-3: in every round, a solve's flows placed
    at the positions `merge_path_sets` gives its paths equal the group-by-group
    copy bit for bit, and so do the next solve's initial flows; round 2 adds
    paths to 827 groups and round 3 to 19."""
    net = sioux_falls_network(params, seed=7)
    merges, solves = [], []

    def merge(*args):
        merges.append(merge_path_sets(*args))
        return merges[-1]

    def solve(assignment, config, initial_flows=None):
        solves.append((assignment, initial_flows,
                       solve_assignment(assignment, config, initial_flows=initial_flows)))
        return solves[-1][2]

    monkeypatch.setattr(pga, "merge_path_sets", merge)
    monkeypatch.setattr(pga, "solve_assignment", solve)
    result = pga_solve(net, params, PgaConfig(k=10), SolverConfig(gap_tol=5e-3))
    assert len(merges) == 3 and len(solves) == 4    # three rounds and the final solve
    grown = []
    for m in (1, 2):
        previous, _, solved = solves[m - 1]
        assignment, initial, _ = solves[m]
        carried = np.zeros(assignment.n_paths)
        carried[merges[m][2]] = solved.flow.f
        expected = carry_over_by_groups(assignment, previous, solved.flow.f)
        assert carried.tobytes() == expected.tobytes() == initial.tobytes()
        grown.append(int((assignment.group_sizes != previous.group_sizes).sum()))
    assert grown == [827, 19]
    assert [row.new_paths for row in result.outer] == [10560, 1305, 19]


def test_carry_over_matches_per_group_oracle_when_groups_grow_unevenly(params):
    """Nguyen, 2 paths per group, then 3 more for the first group and 1 for
    the last, given last group first: the groups between keep their paths
    and move by the offset."""
    net = nguyen_network(params, seed=0)
    state = free_flow_state(net, params)
    old, old_group = generate_paths(net, state, 2)
    extra, extra_group = generate_paths(net, state, 5, old, old_group)
    first, last = (extra_group == old_group[0]).tolist(), (extra_group == old_group[-1]).tolist()
    grow = [p for p, keep in zip(extra, last) if keep][:1] + [
        p for p, keep in zip(extra, first) if keep][:3]
    new, new_group, positions = merge_path_sets(old, old_group, grow,
                                                [old_group[-1]] + [old_group[0]] * 3)
    before = Assignment(net, old, old_group, params)
    after = Assignment(net, new, new_group, params)
    assert (after.group_sizes - before.group_sizes).tolist() == [3] + [0] * 6 + [1]
    flows = np.random.default_rng(0).uniform(0.0, 100.0, before.n_paths)
    carried = np.zeros(after.n_paths)
    carried[positions] = flows
    assert carried.tobytes() == carry_over_by_groups(after, before, flows).tobytes()
    assert carried[:2].tolist() == flows[:2].tolist() and not carried[2:5].any()
