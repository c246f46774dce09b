import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import mixflow
from mixflow.cli import (CONFIG_KEYS, _path_flow_arrays, build_run_config, main,
                         parse_config_text)
from mixflow.costs import (ClassParams, evaluate_links, free_flow_state, fuel_gallons,
                           link_generalized_cost, link_travel_time)
from mixflow.fixtures import nguyen_network, sioux_falls_network
from mixflow.network import Link, Network, ODPair, ParseError, write_network
from mixflow.paths import yen_k_shortest
from mixflow.pga import generate_paths
from mixflow.solver import STALL_WINDOW, Assignment

from conftest import diamond_network
from oracles import build_path, link_flows_by_paths, path_cost, path_nodes


@pytest.fixture
def nguyen_files(tmp_path):
    net = nguyen_network(ClassParams(), seed=0)
    net_file = tmp_path / "nguyen_net.tntp"
    trips_file = tmp_path / "nguyen_trips.tntp"
    write_network(net, net_file, trips_file)
    return str(net_file), str(trips_file)


@pytest.fixture
def diamond_files(tmp_path):
    net = diamond_network(demand_rv=60.0, demand_av=60.0)
    net_file = tmp_path / "d_net.tntp"
    trips_file = tmp_path / "d_trips.tntp"
    write_network(net, net_file, trips_file)
    return str(net_file), str(trips_file)


def read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def test_config_file_parsing():
    values = parse_config_text("# comment\ngap = 1e-5\nmode = baseline  # trailing\n")
    assert values == {"gap": ("1e-5", 2), "mode": ("baseline", 3)}
    with pytest.raises(ParseError):
        parse_config_text("gap 1e-5\n")


def test_build_run_config_rejects_unknown_keys():
    # threads, lambda2 and seed did nothing or were only recorded; flow_floor,
    # h_floor and final_gap were never set to another value. All are gone,
    # gamma_init is a solver constant, and both step rules swap at unit degree
    for key in ("not_a_key", "threads", "lambda2", "seed", "flow_floor", "h_floor",
                "final_gap", "gap_tol", "gamma_init", "swap_degree_rv", "swap_degree_av"):
        with pytest.raises(ValueError, match="unknown config key"):
            build_run_config(None, {key: "1"})


# every config key with a valid non-default value: (text, expected parsed value)
KEY_SAMPLES = {
    "vot_rv": ("2.5", 2.5), "vot_av": ("0.25", 0.25), "fuel_price": ("4", 4.0),
    "dispersion": ("0.2", 0.2), "nesting": ("0.75", 0.75),
    "penetration": ("0.3", 0.3), "av_capacity_ratio": ("1.5", 1.5),
    "gap": ("1e-3", 1e-3), "gamma_growth": ("2e-3", 2e-3),
    "max_iters": ("77", 77), "mode": ("baseline", "baseline"),
    "k": ("5", 5), "outer_tol": ("0.05", 0.05), "inner_gap": ("0.2", 0.2),
    "max_outer": ("3", 3),
    "net": ("n.tntp", "n.tntp"), "trips": ("t.tntp", "t.tntp"), "out_dir": ("o", "o"),
    "check_tol": ("0.01", 0.01),
}


def test_every_config_key_reaches_its_field_with_its_type():
    assert len(CONFIG_KEYS) == 19
    assert set(CONFIG_KEYS) == set(KEY_SAMPLES)
    rc = build_run_config(None, {key: text for key, (text, _) in KEY_SAMPLES.items()})
    for key, (_, expected) in KEY_SAMPLES.items():
        name = "gap_tol" if key == "gap" else key
        owner = next(o for o in (rc.params, rc.solver, rc.pga, rc) if hasattr(o, name))
        value = getattr(owner, name)
        assert type(value) is type(expected), key
        assert value == expected, key
    for key, text in (("k", "5.0"), ("max_iters", "many"), ("gap", "tight")):
        with pytest.raises(ValueError, match=f"config key '{key}' expects"):
            build_run_config(None, {key: text})


@pytest.mark.parametrize("key", sorted(k for k, (_, _, kind) in CONFIG_KEYS.items()
                                       if kind is float))
def test_non_finite_config_values_exit_one(diamond_files, capsys, tmp_path, key):
    net_file, trips_file = diamond_files
    for value in ("nan", "inf", "-inf"):
        code = main(["solve", "--net", net_file, "--trips", trips_file,
                     "--out-dir", str(tmp_path / "out"), "--set", f"{key}={value}"])
        assert code == 1, (key, value)
        err = capsys.readouterr().err
        assert err.startswith("mixflow solve:") and key in err, err
    assert not (tmp_path / "out").exists()


def test_readme_config_table_lists_every_key():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        section = fh.read().split("### Configuration", 1)[1].split("\n### ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    documented = [key for row in rows for key in re.findall(r"`(\w+)`", row.split("|")[1])]
    assert len(documented) == len(set(documented))
    assert set(documented) == set(CONFIG_KEYS)


def test_readme_library_example_converges(capsys):
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        section = fh.read().split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(code, namespace)
    assert namespace["result"].converged
    converged, _, _, residual = capsys.readouterr().out.split()
    # the example solves to gap 1e-4, which bounds the certified residual
    assert converged == "True" and float(residual) <= 1e-4


@pytest.mark.parametrize("text, line_no, message", [
    ("vot_av = 0.5\ndispersion = 0.2\nvot_rv = 0.25\n", 3, "expected finite vot_rv >= vot_av >= 0"),
    ("vot_rv = 0.25\nk = 4\nvot_av = 0.5\n", 3, "expected finite vot_rv >= vot_av >= 0"),
    ("nesting = 2\nnesting = 0.5\nnesting = 1.5\n", 3, "nesting must lie in (0, 1]"),
    ("k = 4\ngap = -1\nmax_iters = 50\n", 2, "gap_tol must be positive and finite"),
    ("mode = max_iters\nmax_iters = 50\n", 1, "unknown mode 'max_iters'"),
    ("gap = 1e-3\nk = 0\n", 2, "k must be at least 1"),
    ("check_tol = 0\ngap = 1e-3\n", 1, "check_tol must be positive and finite"),
], ids=["params-vot_rv-last", "params-vot_av-last", "params-nesting", "solver-gap",
        "solver-mode", "pga-k", "run-check_tol"])
def test_config_range_error_names_file_and_line(tmp_path, capsys, diamond_files, text,
                                                line_no, message):
    """A value that a config class's range check rejects names the file and
    the last line that set a key the check reads; the same value given by
    `--set` keeps the plain message."""
    net_file, trips_file = diamond_files
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text, encoding="utf-8")
    common = ["--net", net_file, "--trips", trips_file, "--out-dir", str(tmp_path / "out")]
    assert main(["solve", "--config", str(cfg), *common]) == 1
    assert capsys.readouterr().err == f"mixflow solve: {cfg}:{line_no}: {message}\n"
    sets = [arg for line in text.splitlines() for arg in ("--set", line.replace(" = ", "="))]
    assert main(["solve", *common, *sets]) == 1
    assert capsys.readouterr().err == f"mixflow solve: {message}\n"
    assert not (tmp_path / "out").exists()


def test_config_range_error_of_a_set_value_keeps_the_plain_message(tmp_path, capsys):
    """A check that reads a key set by `--set` names only the file lines of
    the keys it reads that the file still sets."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("vot_av = 0.5\ngap = -1\n", encoding="utf-8")
    with pytest.raises(ParseError, match=re.escape(f"{cfg}:1: expected finite vot_rv")):
        build_run_config(str(cfg), {"vot_rv": "0.25", "gap": "1e-3"})
    with pytest.raises(ValueError, match="^expected finite vot_rv"):
        build_run_config(str(cfg), {"vot_av": "0.75", "vot_rv": "0.5", "gap": "1e-3"})
    with pytest.raises(ValueError, match="^gap_tol must be positive"):
        build_run_config(str(cfg), {"gap": "-2"})


def test_config_file_plus_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("gap = 1e-3\npenetration = 0.25\n", encoding="utf-8")
    rc = build_run_config(str(cfg), {"gap": "1e-5"})
    assert rc.solver.gap_tol == 1e-5      # cli override wins
    assert rc.params.penetration == 0.25  # file value kept


def test_solve_writes_outputs_and_converges(tmp_path, nguyen_files):
    net_file, trips_file = nguyen_files
    out = tmp_path / "out"
    code = main(["solve", "--net", net_file, "--trips", trips_file,
                 "--out-dir", str(out), "--k", "6"])
    assert code == 0
    summary = json.loads(read(out / "summary.json"))
    assert summary["schema_version"] == 4
    assert "seed" not in summary
    assert summary["converged"] is True
    assert summary["gap"] <= summary["gap_tol"]
    link_lines = read(out / "link_flows.csv").splitlines()
    assert link_lines[0] == "link_id,x_rv,x_av"
    assert len(link_lines) == 1 + 19
    path_lines = read(out / "path_flows.csv").splitlines()
    assert path_lines[0] == "od,class,path_key,flow"
    trace_lines = read(out / "trace.csv").splitlines()
    assert trace_lines[0] == "n,G,O,TC,beta,gamma,millis"
    assert len(trace_lines) == 1 + summary["iterations"]


def test_solve_baseline_takes_more_iterations(tmp_path, nguyen_files):
    net_file, trips_file = nguyen_files
    iters = {}
    for mode in ("modified", "baseline"):
        out = tmp_path / mode
        code = main(["solve", "--net", net_file, "--trips", trips_file,
                     "--out-dir", str(out), "--k", "6", "--mode", mode,
                     "--gap", "1e-4"])
        assert code == 0
        iters[mode] = json.loads(read(out / "summary.json"))["iterations"]
    assert iters["baseline"] > iters["modified"]


def test_solve_missing_trips_exits_one(tmp_path, nguyen_files, capsys):
    net_file, _ = nguyen_files
    out = tmp_path / "out"
    code = main(["solve", "--net", net_file, "--trips", str(tmp_path / "absent.tntp"),
                 "--out-dir", str(out)])
    assert code == 1
    assert not out.exists()
    assert "mixflow solve" in capsys.readouterr().err


def test_solve_max_iters_exit_code(tmp_path, nguyen_files):
    net_file, trips_file = nguyen_files
    out = tmp_path / "out"
    code = main(["solve", "--net", net_file, "--trips", trips_file,
                 "--out-dir", str(out), "--set", "max_iters=2", "--gap", "1e-9"])
    assert code == 2
    assert json.loads(read(out / "summary.json"))["converged"] is False


def test_ill_posed_solve_stops_at_its_first_nonpositive_total(tmp_path, nguyen_files, capsys):
    """At nesting/dispersion = 100 $ the rv perceived costs of Nguyen seed 0
    sum below zero, so the relative gap is undefined: the solve stops at
    iteration 1 instead of running to max_iters."""
    net_file, trips_file = nguyen_files
    code = main(["solve", "--net", net_file, "--trips", trips_file, "--out-dir",
                 str(tmp_path / "out"), "--set", "dispersion=0.01", "--set", "nesting=1.0",
                 "--set", "penetration=0"])
    assert code == 1
    assert re.fullmatch(r"mixflow solve: total perceived cost -\S+ at iteration 1 is not "
                        r"positive: nesting/dispersion \(100\) is too large against the "
                        r"dollar-cost scale\n", capsys.readouterr().err)


def test_solve_deterministic_outputs(tmp_path, nguyen_files):
    net_file, trips_file = nguyen_files
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["solve", "--net", net_file, "--trips", trips_file,
                     "--out-dir", str(out), "--k", "6"]) == 0
        outs.append(out)
    for fname in ("link_flows.csv", "path_flows.csv"):
        assert read(outs[0] / fname) == read(outs[1] / fname)
    # trace rows identical except the wall-time column
    strip = lambda text: ["," .join(line.split(",")[:-1]) for line in text.splitlines()]
    assert strip(read(outs[0] / "trace.csv")) == strip(read(outs[1] / "trace.csv"))


def test_pga_outputs(tmp_path, diamond_files):
    net_file, trips_file = diamond_files
    out = tmp_path / "out"
    code = main(["pga", "--net", net_file, "--trips", trips_file,
                 "--out-dir", str(out), "--k", "5", "--set", "outer_tol=10"])
    assert code == 0
    outer_lines = read(out / "outer_trace.csv").splitlines()
    assert outer_lines[0] == "m,new_paths,TC,E,inner_iters,seconds,gen_seconds"
    assert len(outer_lines) == 1 + 2  # huge tolerance stops after round 2
    for line in outer_lines[1:]:
        seconds, gen_seconds = map(float, line.split(",")[5:])
        assert 0 <= gen_seconds <= seconds
    dump = read(out / "paths.txt").splitlines()
    assert all(len(line.split()) == 4 for line in dump)
    summary = json.loads(read(out / "summary.json"))
    assert summary["command"] == "pga"
    assert summary["outer_iterations"] == 2


def test_pga_matches_direct_solve_total_cost(tmp_path, diamond_files):
    net_file, trips_file = diamond_files
    out_pga = tmp_path / "pga"
    out_solve = tmp_path / "solve"
    assert main(["pga", "--net", net_file, "--trips", trips_file,
                 "--out-dir", str(out_pga), "--k", "5", "--gap", "1e-6"]) == 0
    assert main(["solve", "--net", net_file, "--trips", trips_file,
                 "--out-dir", str(out_solve), "--k", "5", "--gap", "1e-6"]) == 0
    tc_pga = json.loads(read(out_pga / "summary.json"))["total_cost"]
    tc_solve = json.loads(read(out_solve / "summary.json"))["total_cost"]
    assert tc_pga == pytest.approx(tc_solve, rel=1e-4)


@pytest.mark.parametrize("vehicle_class", ["rv", "av"])
def test_ksp_lists_paths_in_cost_order(diamond_files, capsys, vehicle_class):
    net_file, trips_file = diamond_files
    code = main(["ksp", "--net", net_file, "--trips", trips_file,
                 "--origin", "1", "--dest", "4", "--k", "5", "--vehicle-class", vehicle_class])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    costs = [float(line.split()[0]) for line in lines]
    assert costs == sorted(costs)
    assert lines[0].split()[1] == "1-2-4"
    # the path's free-flow dollar cost at the given class's value of time, link by link
    params = ClassParams()
    vot = params.vot_rv if vehicle_class == "rv" else params.vot_av
    expected = 0.0
    for link in diamond_network().links[:2]:    # 1->2 and 2->4
        minutes = link_travel_time(0.0, link.free_time, link.cap_rv)
        expected += link_generalized_cost(minutes, fuel_gallons(link.length, minutes), vot,
                                          params.fuel_price)
    assert lines[0].split()[0] == format(expected, ".6g")


def test_ksp_without_trips(diamond_files, capsys):
    net_file, _ = diamond_files
    assert main(["ksp", "--net", net_file, "--origin", "1", "--dest", "4"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 1


def test_ksp_unreachable_destination(diamond_files, capsys):
    net_file, trips_file = diamond_files
    code = main(["ksp", "--net", net_file, "--trips", trips_file,
                 "--origin", "4", "--dest", "1"])
    assert code == 1
    assert "no path" in capsys.readouterr().err


def test_ksp_rejects_origin_equal_to_destination(nguyen_files, capsys):
    net_file, _ = nguyen_files
    code = main(["ksp", "--net", net_file, "--origin", "1", "--dest", "1", "--k", "3"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "origin 1 equals destination 1" in captured.err


def test_check_accepts_solver_output(tmp_path, diamond_files, capsys):
    net_file, trips_file = diamond_files
    out = tmp_path / "out"
    assert main(["solve", "--net", net_file, "--trips", trips_file,
                 "--out-dir", str(out), "--k", "5", "--gap", "1e-6"]) == 0
    code = main(["check", "--net", net_file, "--trips", trips_file,
                 "--flows", str(out / "path_flows.csv")])
    assert code == 0
    assert "relative_residual" in capsys.readouterr().out


def test_check_rejects_perturbed_flows(tmp_path, diamond_files):
    net_file, trips_file = diamond_files
    out = tmp_path / "out"
    assert main(["solve", "--net", net_file, "--trips", trips_file,
                 "--out-dir", str(out), "--k", "5", "--gap", "1e-6"]) == 0
    rows = read(out / "path_flows.csv").splitlines()
    header, data = rows[0], rows[1:]
    bumped = []
    for i, line in enumerate(data):
        od, cls, key, flow = line.split(",")
        flow = float(flow)
        # +10% on the first path of each group, rebalanced on the second
        flow *= 1.1 if i % 2 == 0 else 0.9
        bumped.append(f"{od},{cls},{key},{flow}")
    perturbed = out / "perturbed.csv"
    perturbed.write_text("\n".join([header] + bumped) + "\n", encoding="utf-8")
    code = main(["check", "--net", net_file, "--trips", trips_file,
                 "--flows", str(perturbed)])
    assert code == 3


def test_check_empty_flows_file(tmp_path, diamond_files, capsys):
    net_file, trips_file = diamond_files
    empty = tmp_path / "empty.csv"
    empty.write_text("od,class,path_key,flow\n", encoding="utf-8")
    code = main(["check", "--net", net_file, "--trips", trips_file,
                 "--flows", str(empty)])
    assert code == 1
    assert "no flow rows" in capsys.readouterr().err


def test_check_rejects_duplicate_rows(tmp_path, diamond_files, capsys):
    net_file, trips_file = diamond_files
    dup = tmp_path / "dup.csv"
    dup.write_text("od,class,path_key,flow\n0,av,1-2,30\n0,av,1-2,30\n",
                   encoding="utf-8")
    code = main(["check", "--net", net_file, "--trips", trips_file,
                 "--flows", str(dup)])
    assert code == 1
    assert "duplicate row" in capsys.readouterr().err


@pytest.mark.parametrize("row, message, settings", [
    ("x,av,1-2,30", "invalid literal for int()", []),
    ("0,av,1-2,abc", "could not convert string to float", []),
    ("0,av,1-2", "bad row", []),
    ("0,bus,1-2,30", "unknown class", []),
    ("5,av,1-2,30", "out of range", []),
    ("0,rv,1-2,30", "od 0 has no rv demand", ["--set", "penetration=1"]),
    ("0,av,1-99,30", "unknown link id 99", []),
    ("0,av,1-4,30", "links 1 and 4 are not adjacent", []),
    ("0,av,1,30", "does not connect od 0", []),
    ("0,av,3-4,30", "duplicate row", []),
    ("0,av,1-2,nan", "non-finite flow", []),
    ("0,av,1-2,inf", "non-finite flow", []),
    ("0,av,1-2,-inf", "non-finite flow", []),
    ("0,av,03-4,30", "duplicate row for path 03-4", []),
    ("0,av,1-5-1-2,30", "path revisits a node: [1, 2, 1, 2, 4]", []),
    ("9,bus,1-2,30", "unknown class 'bus'", []),
    ("0,av,1-99,30\n0,av,1-2", "unknown link id 99", []),
])
def test_check_malformed_row_names_file_and_line(tmp_path, capsys, row, message, settings):
    # the diamond plus link 5 back from node 2 to node 1, so a row can revisit a node
    net = diamond_network(demand_rv=60.0, demand_av=60.0)
    net = Network(net.nodes, net.links + (Link(5, 2, 1, 10.0, 10.0, 100.0, 200.0),),
                  net.od_pairs)
    net_file, trips_file = tmp_path / "net.tntp", tmp_path / "trips.tntp"
    write_network(net, net_file, trips_file)
    net_file, trips_file = str(net_file), str(trips_file)
    bad = tmp_path / "bad.csv"
    bad.write_text(f"od,class,path_key,flow\n0,av,3-4,30\n{row}\n", encoding="utf-8")
    code = main(["check", "--net", net_file, "--trips", trips_file, "--flows", str(bad),
                 *settings])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{bad}:3:" in err
    assert message in err


def _oracle_path_error(net, link_ids):
    """The message `build_path` gives the link ids, or None when it accepts them."""
    try:
        build_path(net, link_ids)
    except KeyError as exc:
        return f"unknown link id {exc.args[0]}"
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("fixture", [nguyen_network, sioux_falls_network])
def test_reader_path_checks_match_build_path_oracle(fixture):
    """One-row files of random link-id sequences: valid Yen paths, random walks
    (Sioux Falls has two-way pairs, so a walk can revisit a node), walks with a
    link swapped for any or an unknown id. The reader raises the oracle's
    message, or passes where it passes unless the path misses its od's ends.
    `Assignment` gives the same outcome, naming the od and class, for the same
    path as the only one of its group; an unknown id stays a KeyError there."""
    net = fixture(ClassParams(), seed=7)
    # one path per demanded group, so each sequence can take its group's place
    base_paths, base_group = generate_paths(net, free_flow_state(net, ClassParams()), 1)
    slot = {g: i for i, g in enumerate(base_group.tolist())}
    rng = np.random.default_rng(11)
    out = {}
    for link in net.links:
        out.setdefault(link.from_node, []).append(link.id)
    sequences = [p for q in net.od_pairs[:40]
                 for p in yen_k_shortest(net, net.free_times, q.origin, q.destination, 3)]
    for _ in range(600):
        walk = [int(rng.integers(1, net.n_links + 1))]
        for _ in range(int(rng.integers(0, 8))):
            if after := out.get(net.links[net.link_index[walk[-1]]].to_node):
                walk.append(int(rng.choice(after)))
        if rng.random() < 0.4:
            walk[rng.integers(len(walk))] = int(rng.choice([0, net.n_links + 1,
                                                             rng.integers(1, net.n_links + 1)]))
        sequences.append(tuple(walk))
    od_of_ends = {(q.origin, q.destination): i for i, q in enumerate(net.od_pairs)}
    seen = set()
    for links in sequences:
        key = "-".join(map(str, links))
        known = [net.links[net.link_index[a]] for a in (links[0], links[-1])
                 if a in net.link_index]
        od = od_of_ends.get((known[0].from_node, known[-1].to_node)) if len(known) == 2 else None
        expected = _oracle_path_error(net, links)
        if expected is None and od is None:
            expected = f"path {key} does not connect od 0"
        row = f"{od or 0},rv,{key},1.5"
        paths = list(base_paths)
        paths[slot[2 * (od or 0)]] = links
        if expected is None:
            _path_flow_arrays(net, [row])
            Assignment(net, paths, base_group, ClassParams())
        else:
            with pytest.raises(ValueError) as info:
                _path_flow_arrays(net, [row])
            assert str(info.value) == expected, row
            if expected.startswith("unknown link id"):
                with pytest.raises(KeyError) as info:
                    Assignment(net, paths, base_group, ClassParams())
                assert f"unknown link id {info.value.args[0]}" == expected, row
            else:
                with pytest.raises(ValueError) as info:
                    Assignment(net, paths, base_group, ClassParams())
                assert str(info.value) == f"od {od or 0} class rv: {expected}", row
        seen.add(next((kind for kind in ("unknown", "adjacent", "revisits", "connect")
                       if kind in (expected or "")), "ok"))
    # the Nguyen network has no cycle, so no walk on it revisits a node
    assert seen == {"ok", "unknown", "adjacent", "connect"} | (
        {"revisits"} if fixture is sioux_falls_network else set())


NET_TEXT = "<NUMBER OF NODES> 2\n<NUMBER OF LINKS> 1\n<END OF METADATA>\n1 2 1000 1 1 ;\n"
TRIPS_TEXT = "<END OF METADATA>\nOrigin 1\n 2 : 10;\n"
CONFIG_TEXT = "# run\ngap = 1e-3\nk = 4\n"


@pytest.mark.parametrize("kind, old, new, line_no, message", [
    ("net", "1 2 1000 1 1", "1 2 nan 1 1", 4, "non-finite number"),
    ("net", "1 2 1000 1 1", "1 2 inf 1 1", 4, "non-finite number"),
    ("net", "1 2 1000 1 1", "1 2 1000 nan 1", 4, "non-finite number"),
    ("net", "1 2 1000 1 1", "1 2 1000 1 -inf", 4, "non-finite number"),
    ("net", "1 2 1000 1 1", "1 inf 1000 1 1", 4, "non-numeric link record"),
    ("trips", "2 : 10", "2 : nan", 3, "nonnegative and finite"),
    ("trips", "2 : 10", "2 : inf", 3, "nonnegative and finite"),
    ("trips", "2 : 10", "2 : 10; 2 : -500.0", 3, "nonnegative and finite"),
    ("trips", "Origin 1", "Origin inf", 2, "bad origin line"),
    ("net", "1 2 1000 1 1", "1.7 2 1000 1 1", 4, "non-numeric link record or node id"),
    ("net", "1 2 1000 1 1", "1 2.0 1000 1 1", 4, "non-numeric link record or node id"),
    ("trips", "Origin 1", "Origin 1.9", 2, "bad origin line"),
    ("trips", "2 : 10", "2.2 : 10", 3, "non-numeric trips entry or node id"),
    ("net", "1 2 1000 1 1", "1 2 0 1 1", 4, "nonpositive or non-finite number"),
    ("net", "1 2 1000 1 1", "1 2 -1000 1 1", 4, "nonpositive or non-finite number"),
    ("net", "1 2 1000 1 1", "1 2 1000 -1 1", 4, "nonpositive or non-finite number"),
    ("net", "1 2 1000 1 1", "1 2 1000 1 0", 4, "nonpositive or non-finite number"),
    ("net", "<END OF METADATA>\n1 2 1000 1 1",
     "<END OF METADATA>\n~ a b capacity length time capacity_av\n1 2 1000 1 1 -2000", 5,
     "nonpositive or non-finite number"),
    ("config", "gap = 1e-3", "gap = abc", 2, "config key 'gap' expects float, got 'abc'"),
    ("config", "gap = 1e-3", "gap = nan", 2, "config key 'gap' must be finite, got 'nan'"),
    ("config", "k = 4", "k = inf", 3, "config key 'k' expects int, got 'inf'"),
    ("config", "k = 4", "k = 5.0", 3, "config key 'k' expects int, got '5.0'"),
    ("config", "k = 4", "dispersion = -inf", 3,
     "config key 'dispersion' must be finite, got '-inf'"),
    ("config", "k = 4", "lambda2 = 1", 3, "unknown config key 'lambda2'"),
])
def test_malformed_number_in_input_names_file_and_line(tmp_path, capsys, kind, old, new,
                                                       line_no, message):
    texts = {"net": NET_TEXT, "trips": TRIPS_TEXT, "config": CONFIG_TEXT}
    texts[kind] = texts[kind].replace(old, new)
    files = {}
    for name, text in texts.items():
        files[name] = tmp_path / f"{name}.tntp"
        files[name].write_text(text, encoding="utf-8")
    code = main(["solve", "--net", str(files["net"]), "--trips", str(files["trips"]),
                 "--config", str(files["config"]), "--out-dir", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{files[kind]}:{line_no}:" in err
    assert message in err
    assert not (tmp_path / "out").exists()


def _corrupt_link_record(rng, line):
    tokens = line.split()
    kind = str(rng.choice(["drop field", "node id", "number"]))
    if kind == "drop field":
        del tokens[int(rng.integers(0, 6))]
    elif kind == "node id":
        i = int(rng.integers(0, 2))
        tokens[i] = str(rng.choice([f"{tokens[i]}.5", f"n{tokens[i]}", "one"]))
    else:
        i = int(rng.integers(2, 6))
        tokens[i] = str(rng.choice(["nan", "inf", "-inf", "1e400", "abc", "0",
                                    f"-{tokens[i]}"]))
    return kind, " ".join(tokens)


def _corrupt_trips_line(rng, line):
    if line.startswith("Origin"):
        return "origin", str(rng.choice(["Origin", "Origin 1.5", "Origin x", "Origin nan"]))
    dest, flow = line.rstrip(";").split(" : ")
    kind = str(rng.choice(["no colon", "drop field", "node id", "number"]))
    if kind == "no colon":
        return kind, f"{dest} {flow};"
    if kind == "drop field":
        return kind, str(rng.choice([f"{dest} :;", f": {flow};"]))
    if kind == "node id":
        return kind, f"{rng.choice([f'{dest}.5', f'x{dest}'])} : {flow};"
    number = str(rng.choice(["nan", "inf", "-inf", f"-{flow}", "1e400", "abc"]))
    return kind, f"{dest} : {number};"


def _corrupt_config_line(rng, line):
    key, value = line.split(" = ")
    value_kind = CONFIG_KEYS[key][2]
    kind = str(rng.choice(["no equals", "empty key", "empty value"]
                          + ["bad value"] * (value_kind is not str)))
    if kind == "bad value":
        # not of the key's type, or a float that is not finite
        bad = ["abc", "nan", "inf"] + ["5.0"] * (value_kind is int)
        return kind, f"{key} = {rng.choice(bad)}"
    return kind, {"no equals": f"{key} {value}", "empty key": f"= {value}",
                  "empty value": f"{key} ="}[kind]


def _corrupt_flows_row(rng, line):
    fields = line.split(",")
    links = fields[2].split("-")
    kind = str(rng.choice(["drop field", "od", "class", "flow"]
                          + ["path"] * 2 + ["link order"] * (len(links) > 1)))
    if kind == "drop field":
        del fields[int(rng.integers(0, 4))]
    elif kind == "od":
        fields[0] = str(rng.choice(["x", "1.5", "-1", "99"]))
    elif kind == "class":
        fields[1] = str(rng.choice(["bus", "RV", ""]))
    elif kind == "flow":
        fields[3] = str(rng.choice(["nan", "inf", "-inf", "abc", ""]))
    elif kind == "path":
        # an unknown link, a non-integer id, or an end that misses the od
        fields[2] = str(rng.choice([f"{fields[2]}-999", f"{fields[2]}-x", "",
                                    "-".join(links[:-1] or ["999"])]))
    else:
        fields[2] = "-".join(reversed(links))   # a loop-free path reversed breaks adjacency
    return kind, ",".join(fields)


FUZZ_CORRUPTIONS = {
    "flows": (_corrupt_flows_row, lambda line: line[:1].isdigit(),
              {"drop field", "od", "class", "flow", "path", "link order"}),
    "net": (_corrupt_link_record, lambda line: line[:1].isdigit(),
            {"drop field", "node id", "number"}),
    "trips": (_corrupt_trips_line, lambda line: line[:1].isdigit() or line.startswith("Origin"),
              {"origin", "no colon", "drop field", "node id", "number"}),
    "config": (_corrupt_config_line, lambda line: " = " in line,
               {"no equals", "empty key", "empty value", "bad value"}),
}


@pytest.mark.parametrize("kind", sorted(FUZZ_CORRUPTIONS))
def test_malformed_input_fuzz_names_file_and_line(tmp_path, capsys, kind):
    """Seeded corruptions of one line of the Nguyen net, trips or config file
    given to `solve`, or of the path_flows.csv of that solve given to `check`,
    each invalid by construction, exit 1 with `<file>:<line>:` naming that line."""
    corrupt, eligible, all_kinds = FUZZ_CORRUPTIONS[kind]
    net = nguyen_network(ClassParams(), seed=0)
    files = {name: tmp_path / f"{name}.txt" for name in ("net", "trips", "config")}
    write_network(net, files["net"], files["trips"])
    files["config"].write_text(
        f"# nguyen\nnet = {files['net']}\ntrips = {files['trips']}\n"
        f"out_dir = {tmp_path / 'out'}\nmode = baseline\ngap = 1e-3\nk = 4\n"
        "dispersion = 0.2\nmax_iters = 50\n", encoding="utf-8")
    command = ["solve", "--config", str(files["config"])]
    if kind == "flows":
        assert main(command) in (0, 2)
        files["flows"] = tmp_path / "out" / "path_flows.csv"
        command = ["check", "--config", str(files["config"]), "--flows", str(files["flows"])]
    lines = read(files[kind]).splitlines()
    candidates = [i for i, line in enumerate(lines) if eligible(line.strip())]
    rng = np.random.default_rng(2024)
    seen = set()
    for _ in range(20):
        i = int(rng.choice(candidates))
        corruption, bad_line = corrupt(rng, lines[i].strip())
        seen.add(corruption)
        files[kind].write_text("\n".join(lines[:i] + [bad_line] + lines[i + 1:]) + "\n",
                               encoding="utf-8")
        code = main(command)
        err = capsys.readouterr().err
        assert code == 1, (corruption, bad_line)
        assert err.startswith(f"mixflow {command[0]}: {files[kind]}:{i + 1}: "), (corruption, err)
    assert seen == all_kinds


@pytest.mark.parametrize("command, fixture, seed, mode, k, gap", [
    ("solve", nguyen_network, 0, "modified", 8, 1e-4),
    ("solve", nguyen_network, 0, "baseline", 8, 1e-4),
    ("solve", nguyen_network, 3, "modified", 8, 1e-4),
    ("solve", nguyen_network, 3, "baseline", 8, 1e-4),
    ("solve", sioux_falls_network, 7, "modified", 10, 5e-3),
    ("pga", nguyen_network, 0, "modified", 8, 1e-4),
    ("pga", nguyen_network, 0, "baseline", 8, 1e-4),
    ("pga", nguyen_network, 3, "modified", 8, 1e-4),
    ("pga", nguyen_network, 3, "baseline", 8, 1e-4),
], ids=["nguyen0-modified", "nguyen0-baseline", "nguyen3-modified", "nguyen3-baseline",
        "sioux_falls7", "pga-nguyen0-modified", "pga-nguyen0-baseline",
        "pga-nguyen3-modified", "pga-nguyen3-baseline"])
def test_converged_solve_passes_its_own_check(tmp_path, command, fixture, seed, mode, k,
                                              gap):
    # path_flows.csv must carry the flows the solver certified: at 6 digits
    # nguyen seed 3 baseline read a residual of 1.00053e-4 > gap
    net_file, trips_file = tmp_path / "net.tntp", tmp_path / "trips.tntp"
    write_network(fixture(ClassParams(), seed=seed), net_file, trips_file)
    common = ["--net", str(net_file), "--trips", str(trips_file)]
    out = tmp_path / "out"
    assert main([command, *common, "--out-dir", str(out), "--mode", mode, "--k", str(k),
                 "--gap", str(gap)]) == 0
    assert main(["check", *common, "--flows", str(out / "path_flows.csv"),
                 "--set", f"check_tol={gap}", "--out-dir", str(tmp_path / "check")]) == 0


def test_check_leaves_numpy_ma_unimported(tmp_path):
    """`check` of a Sioux Falls solve never imports numpy.ma (about 1.3 MB of
    resident memory; the first `np.unique` call imports it)."""
    net_file, trips_file = tmp_path / "net.tntp", tmp_path / "trips.tntp"
    write_network(sioux_falls_network(ClassParams(), seed=7), net_file, trips_file)
    common = ["--net", str(net_file), "--trips", str(trips_file)]
    out = tmp_path / "out"
    assert main(["solve", *common, "--out-dir", str(out), "--k", "10", "--gap", "5e-3"]) == 0
    argv = ["check", *common, "--flows", str(out / "path_flows.csv"), "--set", "check_tol=5e-3"]
    script = ("import sys; from mixflow.cli import main; "
              f"code = main({argv!r}); print(code, 'numpy.ma' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mixflow.__file__)))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.splitlines()[-1] == "0 False"


def test_summary_records_the_fallback_iteration(tmp_path):
    """summary.json names the iteration where a stalled `modified` solve fell
    back to the baseline rule (for pga, its final solve's), or null."""
    net_file, trips_file = tmp_path / "net.tntp", tmp_path / "trips.tntp"
    write_network(nguyen_network(ClassParams(), seed=1), net_file, trips_file)
    common = ["--net", str(net_file), "--trips", str(trips_file), "--k", "8",
              "--gap", "1e-4"]
    for command, mode in (("solve", "modified"), ("pga", "modified"), ("solve", "baseline")):
        out = tmp_path / f"{command}-{mode}"
        assert main([command, *common, "--mode", mode, "--out-dir", str(out)]) == 0
        summary = json.loads(read(out / "summary.json"))
        fallback = summary["fallback_iteration"]
        if mode == "baseline":
            assert fallback is None
        else:
            assert type(fallback) is int
            assert STALL_WINDOW <= fallback < summary["iterations"]


def test_pga_path_dump_prices_path_flows_rows_at_the_final_flows(tmp_path):
    """paths.txt lists the paths of path_flows.csv in its row order, each
    priced at the link costs of the written flows."""
    params = ClassParams()
    net = nguyen_network(params, seed=0)
    net_file, trips_file = tmp_path / "net.tntp", tmp_path / "trips.tntp"
    write_network(net, net_file, trips_file)
    out = tmp_path / "out"
    assert main(["pga", "--net", str(net_file), "--trips", str(trips_file),
                 "--out-dir", str(out), "--k", "8", "--gap", "1e-4"]) == 0
    rows = [line.split(",") for line in read(out / "path_flows.csv").splitlines()[1:]]
    dump = [line.split() for line in read(out / "paths.txt").splitlines()]
    assert len(dump) == len(rows) == 50
    paths = [build_path(net, tuple(int(a) for a in key.split("-"))) for _, _, key, _ in rows]
    path_groups, flows = {}, {}
    for (od, cls, _, flow), p in zip(rows, paths):
        path_groups.setdefault((int(od), cls), []).append(p)
        flows.setdefault((int(od), cls), []).append(float(flow))
    state = evaluate_links(net, link_flows_by_paths(path_groups, flows, net), params)
    cost_by_id = {cls: {l.id: state.cost[c][i] for i, l in enumerate(net.links)}
                  for c, cls in enumerate(("rv", "av"))}
    for (od, cls, _, _), p, (d_od, d_cls, d_cost, d_nodes) in zip(rows, paths, dump):
        assert (d_od, d_cls, d_nodes) == (od, cls, "-".join(map(str, path_nodes(net, p))))
        assert float(d_cost) == pytest.approx(path_cost(p, cost_by_id[cls]), rel=5e-6)


def test_link_count_mismatch_names_metadata_line(tmp_path, capsys):
    net_file = tmp_path / "net.tntp"
    net_file.write_text(NET_TEXT.replace("<NUMBER OF LINKS> 1", "<NUMBER OF LINKS> 2"),
                        encoding="utf-8")
    trips_file = tmp_path / "trips.tntp"
    trips_file.write_text(TRIPS_TEXT, encoding="utf-8")
    code = main(["solve", "--net", str(net_file), "--trips", str(trips_file),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 1
    assert f"{net_file}:2: metadata declares 2 links, file has 1" in capsys.readouterr().err


def test_check_rejects_flows_missing_a_demanded_group(tmp_path, capsys):
    # two disjoint av-only ODs; dropping OD 1's rows leaves every remaining
    # group at equilibrium, but OD 1's demand undelivered. At 0.5 veh/h that
    # demand is far below check_tol x total demand, and still fails the check
    links = (Link(1, 1, 2, 5.0, 5.0, 800.0, 1600.0),
             Link(2, 1, 2, 6.0, 6.0, 900.0, 1800.0),
             Link(3, 3, 4, 5.0, 5.0, 800.0, 1600.0),
             Link(4, 3, 4, 6.0, 6.0, 900.0, 1800.0))
    for q0, q1 in ((80.0, 80.0), (1000.0, 0.5)):
        case = tmp_path / f"q{q1:g}"
        case.mkdir()
        net = Network(nodes=(1, 2, 3, 4), links=links,
                      od_pairs=(ODPair(1, 2, 0.0, q0), ODPair(3, 4, 0.0, q1)))
        net_file, trips_file = case / "net.tntp", case / "trips.tntp"
        write_network(net, net_file, trips_file)
        common = ["--net", str(net_file), "--trips", str(trips_file),
                  "--set", "penetration=1"]
        out = case / "out"
        assert main(["solve", *common, "--out-dir", str(out), "--gap", "1e-6"]) == 0
        flows = out / "path_flows.csv"
        capsys.readouterr()
        assert main(["check", *common, "--flows", str(flows)]) == 0
        assert "missing_demand" not in capsys.readouterr().out
        rows = read(flows).splitlines()
        partial = case / "partial.csv"
        partial.write_text("\n".join(r for r in rows if not r.startswith("1,")) + "\n",
                           encoding="utf-8")
        report_dir = case / "report"
        assert main(["check", *common, "--flows", str(partial),
                     "--out-dir", str(report_dir)]) == 3
        text = capsys.readouterr().out
        assert f"feasibility_violation = {q1:g}" in text
        assert f"missing_demand[1,av] = {q1:g}" in text
        assert f"missing_demand_1_av,{q1:g}" in read(report_dir / "report.csv")


def test_check_writes_report_csv(tmp_path, diamond_files):
    net_file, trips_file = diamond_files
    out = tmp_path / "out"
    assert main(["solve", "--net", net_file, "--trips", trips_file,
                 "--out-dir", str(out), "--k", "5", "--gap", "1e-6"]) == 0
    report_dir = tmp_path / "report"
    assert main(["check", "--net", net_file, "--trips", trips_file,
                 "--flows", str(out / "path_flows.csv"),
                 "--out-dir", str(report_dir)]) == 0
    lines = read(report_dir / "report.csv").splitlines()
    assert lines[0] == "key,value"
    assert any(line.startswith("ncp_residual,") for line in lines)


def test_config_env_var_default(tmp_path, diamond_files, monkeypatch, capsys):
    net_file, trips_file = diamond_files
    cfg = tmp_path / "env.cfg"
    cfg.write_text(f"net = {net_file}\ntrips = {trips_file}\nk = 5\n", encoding="utf-8")
    monkeypatch.setenv("MIXFLOW_CONFIG", str(cfg))
    code = main(["ksp", "--origin", "1", "--dest", "4", "--k", "2"])
    assert code == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 2
