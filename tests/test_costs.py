import dataclasses
import math

import numpy as np
import pytest

from mixflow.costs import (FLOW_FLOOR, ClassParams, cnl_commonalities, cnl_entries, evaluate_links,
                           fuel_gallons, link_generalized_cost, link_travel_time,
                           perceived_cost_rv)
from mixflow.paths import Path, yen_k_shortest

from conftest import random_network
from oracles import (alpha_matrix, cnl_entries_by_paths, mixed_capacity, mp_cnl_commonality,
                     mp_perceived_cost_rv, naive_cnl_commonality, overlap_alpha, path_cost)


def flat_cnl_entries(groups, lengths):
    """`cnl_entries` of groups of paths over links indexed in id order;
    `lengths` maps link id to length."""
    index = {a: i for i, a in enumerate(sorted(lengths))}
    paths = [(g, p) for g, group in enumerate(groups) for p in group]
    entries = [(index[a], k, g) for k, (g, p) in enumerate(paths) for a in p.links]
    link, path, group = np.array(entries, dtype=np.intp).reshape(-1, 3).T
    return cnl_entries(link, path, group, np.array([lengths[a] for a in sorted(lengths)]))


def test_mixed_capacity_pure_rv_boundary():
    assert mixed_capacity(500.0, 0.0, 2000.0, 4000.0) == 2000.0


def test_mixed_capacity_equal_caps_any_shares():
    assert mixed_capacity(123.0, 456.0, 1500.0, 1500.0) == pytest.approx(1500.0)


def test_mixed_capacity_even_split():
    # harmonic mean of 2000 and 4000 at equal shares
    assert mixed_capacity(300.0, 300.0, 2000.0, 4000.0) == pytest.approx(8000.0 / 3.0, abs=0.01)


def test_mixed_capacity_zero_flow_convention():
    assert mixed_capacity(0.0, 0.0, 2000.0, 4000.0) == 2000.0


def test_mixed_capacity_bracketing_randomized():
    rng = np.random.default_rng(5)
    for _ in range(300):
        x_rv, x_av = rng.uniform(0.0, 5000.0, size=2)
        cap_rv, cap_av = rng.uniform(100.0, 8000.0, size=2)
        cap = mixed_capacity(x_rv, x_av, cap_rv, cap_av)
        assert min(cap_rv, cap_av) - 1e-9 <= cap <= max(cap_rv, cap_av) + 1e-9


def test_link_travel_time_free_flow():
    assert link_travel_time(0.0, 0.0, 7.5, 1000.0) == 7.5


def test_link_travel_time_at_capacity():
    assert link_travel_time(600.0, 400.0, 10.0, 1000.0) == pytest.approx(11.5)


def test_link_travel_time_at_double_capacity():
    assert link_travel_time(1500.0, 500.0, 10.0, 1000.0) == pytest.approx(34.0)


def test_link_travel_time_monotone_per_class():
    rng = np.random.default_rng(6)
    for _ in range(200):
        cap = float(rng.uniform(200.0, 4000.0))
        t0 = float(rng.uniform(1.0, 20.0))
        x_rv, x_av, bump = rng.uniform(0.0, 3000.0, size=3)
        base = link_travel_time(x_rv, x_av, t0, cap)
        assert link_travel_time(x_rv + bump, x_av, t0, cap) >= base
        assert link_travel_time(x_rv, x_av + bump, t0, cap) >= base
        assert base >= t0


def test_composite_time_monotone_when_caps_equal():
    # equal class caps pin the mixed capacity, so time rises with total flow
    rng = np.random.default_rng(61)
    cap = 1500.0
    for _ in range(100):
        x_rv, x_av = rng.uniform(0.0, 2000.0, size=2)
        scale = float(rng.uniform(1.0, 3.0))
        lo = link_travel_time(x_rv, x_av, 8.0, mixed_capacity(x_rv, x_av, cap, cap))
        hi = link_travel_time(scale * x_rv, scale * x_av, 8.0,
                              mixed_capacity(scale * x_rv, scale * x_av, cap, cap))
        assert hi >= lo


def test_fuel_unit_speed():
    # 1 mph: one mile takes 60 minutes
    assert fuel_gallons(1.0, 60.0) == pytest.approx(14.58 / 36.44, rel=1e-12)


def test_fuel_at_30_mph():
    # frozen from the 60-digit transliteration of the fuel curve
    assert fuel_gallons(1.0, 2.0) == pytest.approx(0.04775054925733729, rel=1e-12)
    assert fuel_gallons(1.0, 2.0) == pytest.approx(0.0478, abs=5e-4)


def test_fuel_vanishes_with_length_at_fixed_speed():
    prev = math.inf
    for length in (1.0, 0.1, 0.01, 0.001):
        gallons = fuel_gallons(length, length * 2.0)  # constant 30 mph
        assert gallons < prev
        prev = gallons
    assert prev < 1e-4


def test_link_generalized_cost_zero_prices():
    assert link_generalized_cost(12.0, 0.3, 0.0, 0.0) == 0.0


def test_link_generalized_cost_frozen():
    assert link_generalized_cost(10.0, 0.05, 1.0, 5.5) == pytest.approx(10.275)


def test_link_generalized_cost_vot_monotone():
    base = link_generalized_cost(10.0, 0.05, 0.5, 5.5)
    assert link_generalized_cost(10.0, 0.05, 1.0, 5.5) > base


def test_path_cost_empty_and_single():
    empty = Path(links=(), nodes=())
    assert path_cost(empty, {}) == 0.0
    one = Path(links=(7,), nodes=(1, 2))
    assert path_cost(one, {7: 4.25}) == 4.25
    two = Path(links=(7, 9), nodes=(1, 2, 3))
    assert path_cost(two, {7: 3.0, 9: 4.0}) == 7.0


def test_overlap_alpha_membership():
    path = Path(links=(1, 2), nodes=(1, 2, 3))
    lengths = {1: 2.0, 2: 3.0, 9: 3.0}
    assert overlap_alpha(9, path, lengths) == 0.0
    assert overlap_alpha(1, path, lengths) == pytest.approx(0.4)
    single = Path(links=(1,), nodes=(1, 2))
    assert overlap_alpha(1, single, lengths) == 1.0


def test_overlap_weights_sum_to_one_randomized(params):
    rng = np.random.default_rng(7)
    for _ in range(20):
        net = random_network(rng)
        costs = net.free_times.copy()
        od = net.od_pairs[0]
        paths = yen_k_shortest(net, costs, od.origin, od.destination, 4)
        lengths = {l.id: l.length for l in net.links}
        entries = flat_cnl_entries([paths], lengths)
        sums = np.bincount(entries.path, np.exp(entries.ln_alpha), len(paths))
        assert np.allclose(sums, 1.0, atol=1e-12)
        assert np.allclose(sums, alpha_matrix(paths, lengths).sum(axis=0), atol=1e-12)


def test_cnl_entries_match_the_path_by_path_layout():
    # the flat builder gives each entry the path-by-path builder's ln_alpha
    # bits and path, its nests up to numbering, and so the same commonalities
    rng = np.random.default_rng(19)
    for _ in range(10):
        groups, lengths = [], {}
        for g in range(int(rng.integers(1, 5))):
            # odd groups share the links of the group before them, at other costs
            if g % 2 == 0:
                net = random_network(rng)
            od = net.od_pairs[0]
            costs = net.free_times * rng.uniform(0.5, 2.0, size=net.n_links)
            paths = yen_k_shortest(net, costs, od.origin, od.destination, 6)
            base = 100 * (g - g % 2)
            lengths.update((l.id + base, l.length) for l in net.links)
            groups.append([Path(tuple(a + base for a in p.links), p.nodes)
                           for p in paths])
        flat, by_paths = flat_cnl_entries(groups, lengths), cnl_entries_by_paths(groups, lengths)
        assert np.array_equal(flat.ln_alpha, by_paths.ln_alpha)
        assert np.array_equal(flat.path, by_paths.path)
        assert flat.n_nests == by_paths.n_nests
        pairs = set(zip(flat.nest.tolist(), by_paths.nest.tolist()))
        assert len(pairs) == flat.n_nests
        costs = rng.uniform(5.0, 3000.0, size=sum(map(len, groups)))
        for theta, u in ((1.0, 0.3), (0.1, 0.5)):
            assert np.array_equal(cnl_commonalities(flat, costs, theta, u),
                                  cnl_commonalities(by_paths, costs, theta, u))


def _crafted_group():
    p1 = Path(links=(1, 2), nodes=(1, 2, 3))
    p2 = Path(links=(1, 3), nodes=(1, 2, 3))
    p3 = Path(links=(4,), nodes=(1, 3))
    lengths = {1: 0.5, 2: 0.5, 3: 0.5, 4: 1.0}
    return [p1, p2, p3], lengths


def _commonality(paths, lengths, costs, theta, u):
    return cnl_commonalities(flat_cnl_entries([paths], lengths), costs, theta, u)


def test_commonality_zero_at_unit_nesting():
    paths, lengths = _crafted_group()
    h = _commonality(paths, lengths, [3.0, 5.0, 4.0], theta=0.2, u=1.0)
    assert np.allclose(h, 0.0, atol=1e-12)


def test_commonality_symmetric_disjoint_paths():
    p1 = Path(links=(1,), nodes=(1, 2))
    p2 = Path(links=(2,), nodes=(1, 2))
    h = _commonality([p1, p2], {1: 2.0, 2: 2.0}, [6.0, 6.0], theta=0.1, u=0.5)
    assert h[0] == pytest.approx(h[1], rel=1e-12)


def test_commonality_matches_extended_precision_oracle():
    paths, lengths = _crafted_group()
    costs = [7.0, 7.0, 7.0]
    h = _commonality(paths, lengths, costs, theta=0.1, u=0.5)
    expected = mp_cnl_commonality(alpha_matrix(paths, lengths), costs, 0.1, 0.5)
    assert np.allclose(h, expected, rtol=1e-12, atol=1e-12)
    # hand-derived closed form for the equal-cost overlap instance
    assert h[0] == pytest.approx(math.log(0.5 / math.sqrt(2.0) + 0.5) + 0.7, rel=1e-12)
    assert h[2] == pytest.approx(0.7, rel=1e-12)


def test_commonality_log_domain_matches_naive_when_it_fits():
    rng = np.random.default_rng(8)
    for _ in range(25):
        net = random_network(rng)
        od = net.od_pairs[0]
        paths = yen_k_shortest(net, net.free_times.copy(), od.origin, od.destination, 5)
        lengths = {l.id: l.length for l in net.links}
        costs = rng.uniform(5.0, 40.0, size=len(paths))
        theta = float(rng.uniform(0.02, 0.4))
        u = float(rng.uniform(0.2, 1.0))
        naive = naive_cnl_commonality(alpha_matrix(paths, lengths), costs, theta, u)
        if not np.isfinite(naive).all():
            continue
        stable = _commonality(paths, lengths, costs, theta, u)
        assert np.allclose(stable, naive, rtol=1e-9)


def test_commonality_survives_costs_that_overflow_naive():
    paths, lengths = _crafted_group()
    costs = [40000.0, 40010.0, 40005.0]
    naive = naive_cnl_commonality(alpha_matrix(paths, lengths), costs, theta=0.5, u=0.3)
    assert not np.isfinite(naive).all()
    stable = _commonality(paths, lengths, costs, theta=0.5, u=0.3)
    assert np.isfinite(stable).all()
    expected = mp_cnl_commonality(alpha_matrix(paths, lengths), costs, 0.5, 0.3)
    assert np.allclose(stable, expected, rtol=1e-9)


def test_commonality_shifts_each_segment_by_its_own_maximum():
    # costs thousands of dollars apart within one group: theta * spread / u is
    # far above 745, so a shift shared by the group or by every entry leaves
    # some nest or path summing only underflowed exponentials
    paths, lengths = _crafted_group()
    costs = [100.0, 2100.0, 5100.0]
    stable = _commonality(paths, lengths, costs, theta=1.0, u=0.3)
    expected = mp_cnl_commonality(alpha_matrix(paths, lengths), costs, 1.0, 0.3)
    assert np.allclose(stable, expected, rtol=1e-12, atol=0.0)
    # nest ids are labels: any numbering gives the same bits
    rng = np.random.default_rng(12)
    groups, costs = [paths], list(costs)
    for _ in range(6):
        net = random_network(rng)
        od = net.od_pairs[0]
        group = yen_k_shortest(net, net.free_times.copy(), od.origin, od.destination, 6)
        lengths.update((l.id + 100 * len(groups), l.length) for l in net.links)
        groups.append([Path(tuple(a + 100 * len(groups) for a in p.links), p.nodes)
                       for p in group])
        costs += list(rng.uniform(5.0, 3000.0, size=len(group)))
    entries = flat_cnl_entries(groups, lengths)
    relabel = rng.permutation(entries.n_nests)
    renamed = dataclasses.replace(entries, nest=relabel[entries.nest])
    for theta, u in ((1.0, 0.3), (0.1, 0.5)):
        h = cnl_commonalities(entries, costs, theta, u)
        assert np.isfinite(h).all()
        assert np.array_equal(cnl_commonalities(renamed, costs, theta, u), h)


def test_perceived_cost_rv_single_path_carries_demand():
    params = ClassParams(nesting=1.0, dispersion=0.25)
    # u=1 makes the commonality vanish; f = q kills the log term
    assert perceived_cost_rv(12.5, 80.0, 80.0, 0.0, params) == pytest.approx(12.5)


def test_perceived_cost_rv_log_term_sign():
    params = ClassParams()
    scale = params.nesting / params.dispersion
    below = perceived_cost_rv(10.0, 20.0, 100.0, 0.3, params)
    assert below < 10.0 - scale * 0.3


def test_perceived_cost_rv_ratio_invariance():
    params = ClassParams()
    one = perceived_cost_rv(10.0, 20.0, 100.0, 0.3, params)
    two = perceived_cost_rv(10.0, 40.0, 200.0, 0.3, params)
    assert one == pytest.approx(two, rel=1e-15)


def test_perceived_cost_rv_matches_extended_precision():
    params = ClassParams(nesting=0.6, dispersion=0.15)
    got = perceived_cost_rv(17.0, 35.0, 120.0, 0.42, params)
    want = mp_perceived_cost_rv(17.0, 35.0, 120.0, 0.42, 0.15, 0.6)
    assert got == pytest.approx(want, rel=1e-12)


def test_perceived_cost_rv_floor_guards_zero_flow():
    params = ClassParams()
    value = perceived_cost_rv(10.0, 0.0, 100.0, 0.0, params)
    assert np.isfinite(value)
    expected = 10.0 + params.nesting / params.dispersion * math.log(FLOW_FLOOR / 100.0)
    assert value == pytest.approx(expected)


def test_evaluate_links_respects_free_flow(params):
    net = random_network(np.random.default_rng(9))
    zeros = np.zeros(net.n_links)
    state = evaluate_links(net, zeros, zeros, params)
    assert np.allclose(state.minutes, net.free_times)
    assert np.allclose(state.mixed_cap, net.caps_rv)
    assert np.all(state.cost_rv >= state.cost_av)


def test_evaluate_links_equals_scalar_helpers_bit_for_bit(params):
    rng = np.random.default_rng(17)
    net = random_network(rng)
    n = net.n_links
    for _ in range(5):
        x_rv, x_av = rng.uniform(0.0, 3000.0, size=(2, n))
        x_rv[rng.random(n) < 0.3] = 0.0
        x_av[rng.random(n) < 0.3] = 0.0
        x_rv[0] = x_av[0] = 0.0
        state = evaluate_links(net, x_rv, x_av, params)
        for i, link in enumerate(net.links):
            q_rv, q_av = float(x_rv[i]), float(x_av[i])
            cap = mixed_capacity(q_rv, q_av, link.cap_rv, link.cap_av)
            minutes = link_travel_time(q_rv, q_av, link.free_time, cap)
            gallons = fuel_gallons(link.length, minutes)
            assert state.mixed_cap[i] == cap
            assert state.minutes[i] == minutes
            assert state.cost_rv[i] == link_generalized_cost(minutes, gallons, params.vot_rv,
                                                             params.fuel_price)
            assert state.cost_av[i] == link_generalized_cost(minutes, gallons, params.vot_av,
                                                             params.fuel_price)


def test_class_params_validation():
    with pytest.raises(ValueError):
        ClassParams(dispersion=0.0)
    with pytest.raises(ValueError):
        ClassParams(nesting=1.2)
    with pytest.raises(ValueError):
        ClassParams(vot_rv=0.1, vot_av=0.5)
    with pytest.raises(ValueError):
        ClassParams(penetration=1.5)
