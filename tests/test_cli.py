import json
import os

import numpy as np
import pytest

from mixflow.cli import main, parse_config_text, build_run_config
from mixflow.costs import ClassParams
from mixflow.fixtures import nguyen_network
from mixflow.network import Link, Network, ODPair, ParseError, write_network

from conftest import diamond_network


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
    assert values == {"gap": "1e-5", "mode": "baseline"}
    with pytest.raises(ParseError):
        parse_config_text("gap 1e-5\n")


def test_build_run_config_rejects_unknown_keys():
    # threads and lambda2 were accepted but did nothing; they are gone
    for key in ("not_a_key", "threads", "lambda2"):
        with pytest.raises(ValueError, match="unknown config key"):
            build_run_config(None, {key: "1"})


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
    assert summary["schema_version"] == 2
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
    assert outer_lines[0] == "m,new_paths,TC,E,inner_iters,seconds"
    assert len(outer_lines) == 1 + 2  # huge tolerance stops after round 2
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


def test_ksp_lists_paths_in_cost_order(diamond_files, capsys):
    net_file, trips_file = diamond_files
    code = main(["ksp", "--net", net_file, "--trips", trips_file,
                 "--origin", "1", "--dest", "4", "--k", "5"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    costs = [float(line.split()[0]) for line in lines]
    assert costs == sorted(costs)
    assert lines[0].split()[1] == "1-2-4"


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
])
def test_check_malformed_row_names_file_and_line(tmp_path, diamond_files, capsys,
                                                 row, message, settings):
    net_file, trips_file = diamond_files
    bad = tmp_path / "bad.csv"
    bad.write_text(f"od,class,path_key,flow\n0,av,3-4,30\n{row}\n", encoding="utf-8")
    code = main(["check", "--net", net_file, "--trips", trips_file, "--flows", str(bad),
                 *settings])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{bad}:3:" in err
    assert message in err


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
