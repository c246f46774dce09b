"""Batch command-line front end.

Subcommands: `solve` (one-shot path generation + equilibrium solve), `pga`
(alternating generation/assignment), `ksp` (k-shortest-path dump), and
`check` (equilibrium certificate for a path-flow CSV). Configuration comes
from a flat key=value file (default taken from $MIXFLOW_CONFIG) overridden
by command-line flags; outputs are fixed-format CSV plus a JSON summary.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import costs as cost_model
from . import diagnostics
from .costs import ClassParams
from .network import RV, VEHICLE_CLASSES, ParseError, ValidationError, load_network
from .paths import PathSet, build_path, format_path_line, yen_k_shortest
from .pga import PgaConfig, generate_paths, pga_solve
from .solver import SolverConfig, SolverError, solve

CONFIG_ENV = "MIXFLOW_CONFIG"
SCHEMA_VERSION = 2

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_MAX_ITERS = 2
EXIT_RESIDUAL = 3

_PARAM_KEYS = {"vot_rv", "vot_av", "fuel_price", "dispersion", "nesting",
               "swap_degree_rv", "swap_degree_av", "penetration",
               "av_capacity_ratio", "flow_floor"}
_SOLVER_KEYS = {"gap", "gamma_init", "gamma_growth", "max_iters", "mode", "h_floor"}
_PGA_KEYS = {"k", "outer_tol", "inner_gap", "final_gap", "max_outer"}
_RUN_KEYS = {"net", "trips", "out_dir", "seed", "check_tol"}
_INT_KEYS = {"max_iters", "k", "max_outer", "seed"}
_STR_KEYS = {"mode", "net", "trips", "out_dir"}


@dataclass
class RunConfig:
    params: ClassParams
    solver: SolverConfig
    pga: PgaConfig
    net: str = None
    trips: str = None
    out_dir: str = None       # None = current directory, no check report file
    seed: int = 0
    check_tol: float = 1e-3   # relative residual bound for `check`


def parse_config_text(text, path="<config>"):
    values = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(path, line_no, f"expected key = value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ParseError(path, line_no, f"empty key or value in {line!r}")
        values[key] = value
    return values


def build_run_config(config_path, overrides):
    values = {}
    if config_path:
        with open(config_path, encoding="utf-8") as fh:
            values.update(parse_config_text(fh.read(), path=config_path))
    values.update({k: v for k, v in overrides.items() if v is not None})

    def convert(key, raw):
        if isinstance(raw, str) and key not in _STR_KEYS:
            return int(raw) if key in _INT_KEYS else float(raw)
        return raw

    params_kw, solver_kw, pga_kw, run_kw = {}, {}, {}, {}
    for key, raw in values.items():
        if key in _PARAM_KEYS:
            params_kw[key] = convert(key, raw)
        elif key in _SOLVER_KEYS:
            solver_kw["gap_tol" if key == "gap" else key] = convert(key, raw)
        elif key in _PGA_KEYS:
            pga_kw[key] = convert(key, raw)
        elif key in _RUN_KEYS:
            run_kw[key] = convert(key, raw)
        else:
            raise ValueError(f"unknown config key {key!r}")
    return RunConfig(params=ClassParams(**params_kw),
                     solver=SolverConfig(**solver_kw),
                     pga=PgaConfig(**pga_kw), **run_kw)


def _fmt(x):
    return format(float(x), ".6g")


def _path_key(path):
    return "-".join(str(a) for a in path.links)


def _write(path, lines):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_link_flows_csv(path, network, x_rv, x_av):
    lines = ["link_id,x_rv,x_av"]
    lines += [f"{l.id},{_fmt(x_rv[i])},{_fmt(x_av[i])}" for i, l in enumerate(network.links)]
    _write(path, lines)


def write_path_flows_csv(path, result):
    lines = ["od,class,path_key,flow"]
    for g in result.groups:
        for p, flow in zip(g.paths, result.flow.f[g.start:g.stop]):
            lines.append(f"{g.od_index},{g.vehicle_class},{_path_key(p)},{_fmt(flow)}")
    _write(path, lines)


def write_trace_csv(path, trace):
    lines = ["n,G,O,TC,beta,gamma,millis"]
    lines += [f"{r.iteration},{_fmt(r.gap)},{_fmt(r.swap_volume)},{_fmt(r.total_cost)},"
              f"{_fmt(r.step)},{_fmt(r.damping)},{_fmt(r.millis)}" for r in trace]
    _write(path, lines)


def write_outer_trace_csv(path, rows):
    lines = ["m,new_paths,TC,E,inner_iters,seconds"]
    lines += [f"{r.m},{r.new_paths},{_fmt(r.total_cost)},{_fmt(r.error)},"
              f"{r.inner_iters},{_fmt(r.seconds)}" for r in rows]
    _write(path, lines)


def write_path_dump(path, network, params, result, path_set):
    state = cost_model.evaluate_links(network, result.flow.x_rv, result.flow.x_av, params)
    cost_by_id = {cls: {l.id: state.cost(cls)[i] for i, l in enumerate(network.links)}
                  for cls in VEHICLE_CLASSES}
    lines = []
    for (od_index, cls), paths in path_set.items():
        for p in paths:
            cost = cost_model.path_cost(p, cost_by_id[cls])
            lines.append(format_path_line(od_index, cls, cost, p))
    _write(path, lines)


def write_summary_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load(rc):
    if not rc.net or not rc.trips:
        raise ValueError("both --net and --trips are required")
    return load_network(rc.net, rc.trips, rc.params)


def _write_outputs(rc, command, network, final, path_set, wall, pga=None):
    """Write the solve outputs of `solve` or `pga` (`pga` is the PgaResult)."""
    out = rc.out_dir or "."
    os.makedirs(out, exist_ok=True)
    write_link_flows_csv(os.path.join(out, "link_flows.csv"), network,
                         final.flow.x_rv, final.flow.x_av)
    write_path_flows_csv(os.path.join(out, "path_flows.csv"), final)
    write_trace_csv(os.path.join(out, "trace.csv"), final.trace)
    summary = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "net": rc.net,
        "trips": rc.trips,
        "seed": rc.seed,
        "mode": rc.solver.mode,
        "gap_tol": rc.solver.gap_tol,
        "converged": final.converged, "gap": final.gap,
        "iterations": final.iterations, "total_cost": final.total_cost,
        "wall_seconds": wall, "paths": len(path_set),
    }
    if pga is not None:
        write_outer_trace_csv(os.path.join(out, "outer_trace.csv"), pga.outer)
        write_path_dump(os.path.join(out, "paths.txt"), network, rc.params, final,
                        path_set)
        summary.update({
            "outer_iterations": len(pga.outer),
            "outer_converged": pga.outer_converged,
            "new_paths": [r.new_paths for r in pga.outer],
            "k": rc.pga.k,
        })
    write_summary_json(os.path.join(out, "summary.json"), summary)
    return EXIT_OK if final.converged else EXIT_MAX_ITERS


def cmd_solve(rc):
    network = _load(rc)
    started = time.perf_counter()
    free_flow = cost_model.free_flow_state(network, rc.params)
    path_set = generate_paths(network, free_flow, rc.pga.k)
    result = solve(network, path_set, rc.params, rc.solver)
    return _write_outputs(rc, "solve", network, result, path_set,
                          time.perf_counter() - started)


def cmd_pga(rc):
    network = _load(rc)
    started = time.perf_counter()
    result = pga_solve(network, rc.params, rc.pga, rc.solver)
    return _write_outputs(rc, "pga", network, result.solve, result.path_set,
                          time.perf_counter() - started, pga=result)


def cmd_ksp(rc, origin, destination, k, vehicle_class):
    if not rc.net:
        raise ValueError("--net is required")
    network = load_network(rc.net, rc.trips, rc.params)
    link_costs = cost_model.free_flow_state(network, rc.params).cost(vehicle_class)
    paths = yen_k_shortest(network, link_costs, origin, destination, k)
    cost_by_id = {l.id: link_costs[i] for i, l in enumerate(network.links)}
    for p in paths:
        nodes = "-".join(str(n) for n in p.nodes)
        print(f"{_fmt(cost_model.path_cost(p, cost_by_id))} {nodes}")
    return EXIT_OK


def _read_path_flows_csv(path, network):
    """Path set and per-group flow arrays of a path_flows.csv file."""
    with open(path, encoding="utf-8") as fh:
        rows = [(line_no, line.strip()) for line_no, line in enumerate(fh, start=1)
                if line.strip()]
    if not rows or rows[0][1] != "od,class,path_key,flow":
        raise ParseError(path, rows[0][0] if rows else 1,
                         "expected header od,class,path_key,flow")
    if len(rows) == 1:
        raise ParseError(path, rows[0][0], "no flow rows")
    path_set = PathSet()
    flows = {}
    for line_no, line in rows[1:]:
        try:
            parts = line.split(",")
            if len(parts) != 4:
                raise ValueError(f"bad row {line!r}")
            od_index, cls, key, flow = int(parts[0]), parts[1], parts[2], float(parts[3])
            if cls not in VEHICLE_CLASSES:
                raise ValueError(f"unknown class {cls!r}")
            if not 0 <= od_index < len(network.od_pairs):
                raise ValueError(f"od index {od_index} out of range")
            od = network.od_pairs[od_index]
            if od.demand(cls) <= 0:
                raise ValueError(f"od {od_index} has no {cls} demand")
            p = build_path(network, tuple(int(a) for a in key.split("-")))
            if p.nodes[0] != od.origin or p.nodes[-1] != od.destination:
                raise ValueError(f"path {key} does not connect od {od_index}")
            if not path_set.add(od_index, cls, p):
                raise ValueError(f"duplicate row for path {key}")
        except KeyError as exc:
            raise ParseError(path, line_no, f"unknown link id {exc.args[0]}") from None
        except ValueError as exc:
            raise ParseError(path, line_no, str(exc)) from None
        flows.setdefault((od_index, cls), []).append(flow)
    return path_set, {k: np.asarray(v) for k, v in flows.items()}


def cmd_check(rc, flows_file):
    network = _load(rc)
    path_set, flows = _read_path_flows_csv(flows_file, network)
    report = diagnostics.certify(network, path_set, flows, rc.params)
    print(report.to_text())
    if rc.out_dir:
        os.makedirs(rc.out_dir, exist_ok=True)
        _write(os.path.join(rc.out_dir, "report.csv"),
               ["key,value"] + [f"{k},{v}" for k, v in report.csv_rows()])
    total_demand = sum(od.demand_rv + od.demand_av for od in network.od_pairs)
    certified = (not report.missing_demand
                 and report.relative_residual <= rc.check_tol
                 and report.feasibility_violation <= rc.check_tol * total_demand)
    return EXIT_OK if certified else EXIT_RESIDUAL


def _add_common(parser):
    parser.add_argument("--config", default=os.environ.get(CONFIG_ENV),
                        help=f"key=value config file (default ${CONFIG_ENV})")
    parser.add_argument("--net", help="TNTP-style net file")
    parser.add_argument("--trips", help="TNTP-style trips file")
    parser.add_argument("--out-dir", help="output directory (default .)")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override any config key")


def _overrides(args, extra=()):
    overrides = {"net": args.net, "trips": args.trips, "out_dir": args.out_dir}
    for key, value in extra:
        overrides[key] = value
    for item in args.set:
        if "=" not in item:
            raise ValueError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    return overrides


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="mixflow",
        description="Mixed regular/autonomous traffic assignment solver.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="one-shot path generation + solve")
    _add_common(p_solve)
    p_solve.add_argument("--mode", choices=["modified", "baseline"])
    p_solve.add_argument("--gap", type=float)
    p_solve.add_argument("--k", type=int, help="free-flow paths per (OD, class)")

    p_pga = sub.add_parser("pga", help="alternating generation/assignment")
    _add_common(p_pga)
    p_pga.add_argument("--mode", choices=["modified", "baseline"])
    p_pga.add_argument("--gap", type=float)
    p_pga.add_argument("--k", type=int)

    p_ksp = sub.add_parser("ksp", help="dump k shortest free-flow paths")
    _add_common(p_ksp)
    p_ksp.add_argument("--origin", type=int, required=True)
    p_ksp.add_argument("--dest", type=int, required=True)
    p_ksp.add_argument("--k", type=int, default=1)
    p_ksp.add_argument("--vehicle-class", choices=list(VEHICLE_CLASSES), default=RV)

    p_check = sub.add_parser("check", help="verify a path-flow CSV")
    _add_common(p_check)
    p_check.add_argument("--flows", required=True, help="path_flows.csv to verify")

    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            rc = build_run_config(args.config, _overrides(
                args, [("mode", args.mode), ("gap", args.gap), ("k", args.k)]))
            return cmd_solve(rc)
        if args.command == "pga":
            rc = build_run_config(args.config, _overrides(
                args, [("mode", args.mode), ("gap", args.gap), ("k", args.k)]))
            return cmd_pga(rc)
        if args.command == "ksp":
            rc = build_run_config(args.config, _overrides(args))
            return cmd_ksp(rc, args.origin, args.dest, args.k, args.vehicle_class)
        if args.command == "check":
            rc = build_run_config(args.config, _overrides(args))
            return cmd_check(rc, args.flows)
    except (ParseError, ValidationError, SolverError, ValueError, KeyError, OSError) as exc:
        print(f"mixflow {args.command}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
