"""Batch command-line front end.

Subcommands: `solve` (one-shot path generation + equilibrium solve), `pga`
(alternating generation/assignment), `ksp` (k-shortest-path dump), and
`check` (equilibrium certificate for a path-flow CSV). Configuration comes
from a flat key=value file (default taken from $MIXFLOW_CONFIG) overridden
by command-line flags; outputs are fixed-format CSV plus a JSON summary.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import re
import sys
import time
from dataclasses import dataclass, fields
from itertools import chain, repeat

import numpy as np

from . import costs as cost_model
from . import diagnostics
from .costs import ClassParams
from .network import RV, VEHICLE_CLASSES, ParseError, ValidationError, load_network
from .paths import format_path_line, yen_k_shortest
from .pga import PgaConfig, generate_paths, pga_solve
from .solver import BASELINE, MODIFIED, SolverConfig, SolverError, solve

CONFIG_ENV = "MIXFLOW_CONFIG"
SCHEMA_VERSION = 4

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_MAX_ITERS = 2
EXIT_RESIDUAL = 3


@dataclass
class RunConfig:
    params: ClassParams
    solver: SolverConfig
    pga: PgaConfig
    net: str = None
    trips: str = None
    out_dir: str = None       # None = current directory, no check report file
    check_tol: float = 1e-3   # relative residual bound for `check`

    def __post_init__(self):
        if not 0 < self.check_tol < math.inf:
            raise ValueError("check_tol must be positive and finite")


_SECTIONS = {"params": ClassParams, "solver": SolverConfig, "pga": PgaConfig}
_KINDS = {"int": int, "float": float, "str": str}   # field annotation (a string) -> parser
_ALIASES = {"gap_tol": "gap"}                       # field name -> config key

# config key -> (RunConfig section, or None for RunConfig itself, field, parser)
CONFIG_KEYS = {
    _ALIASES.get(f.name, f.name): (section, f.name, _KINDS[f.type])
    for section, cls in [*_SECTIONS.items(), (None, RunConfig)]
    for f in fields(cls) if f.type in _KINDS
}


def _parse_value(key, raw):
    """The text `raw` as a value of config key `key`."""
    if key not in CONFIG_KEYS:
        raise ValueError(f"unknown config key {key!r}")
    kind = CONFIG_KEYS[key][2]
    try:
        return kind(raw)
    except ValueError:
        raise ValueError(f"config key {key!r} expects {kind.__name__}, got {raw!r}") from None


def parse_config_text(text, path="<config>"):
    """Key -> (value text, last line number) of `key = value` lines. An unknown
    key, a value not of its key's type and a non-finite float name their line."""
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
        try:
            parsed = _parse_value(key, value)
        except ValueError as exc:
            raise ParseError(path, line_no, str(exc)) from None
        if isinstance(parsed, float) and not math.isfinite(parsed):
            raise ParseError(path, line_no, f"config key {key!r} must be finite, got {value!r}")
        values[key] = (value, line_no)
    return values


def build_run_config(config_path, overrides):
    """The RunConfig of a config file and overrides. A failed range check names
    the last file line that set a field its message names, unless a flag did."""
    lines = {}
    if config_path:
        with open(config_path, encoding="utf-8") as fh:
            lines = parse_config_text(fh.read(), path=config_path)
    values = ({key: value for key, (value, _) in lines.items()}
              | {k: v for k, v in overrides.items() if v is not None})

    kwargs = {section: {} for section in (*_SECTIONS, None)}
    for key, raw in values.items():
        value = _parse_value(key, raw)
        section, name, _ = CONFIG_KEYS[key]
        kwargs[section][name] = value
    try:
        return RunConfig(**{section: cls(**kwargs[section]) for section, cls in _SECTIONS.items()},
                         **kwargs[None])
    except ValueError as exc:
        named = set(re.findall(r"\w+", str(exc).split("'", 1)[0]))    # not a quoted value
        line_no = max((lines[key][1] for key, (_, name, _) in CONFIG_KEYS.items()
                       if name in named and key in lines and overrides.get(key) is None), default=0)
        raise ParseError(config_path, line_no, str(exc)) if line_no else exc from None


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
            # round-trip precision, so `check` certifies the flows the solver certified
            lines.append(f"{g.od_index},{g.vehicle_class},{_path_key(p)},{float(flow)!r}")
    _write(path, lines)


def write_trace_csv(path, trace):
    lines = ["n,G,O,TC,beta,gamma,millis"]
    lines += [f"{r.iteration},{_fmt(r.gap)},{_fmt(r.swap_volume)},{_fmt(r.total_cost)},"
              f"{_fmt(r.step)},{_fmt(r.damping)},{_fmt(r.millis)}" for r in trace]
    _write(path, lines)


def write_outer_trace_csv(path, rows):
    lines = ["m,new_paths,TC,E,inner_iters,seconds,gen_seconds"]
    lines += [f"{r.m},{r.new_paths},{_fmt(r.total_cost)},{_fmt(r.error)},"
              f"{r.inner_iters},{_fmt(r.seconds)},{_fmt(r.gen_seconds)}" for r in rows]
    _write(path, lines)


def write_path_dump(path, result):
    _write(path, [format_path_line(g.od_index, g.vehicle_class, cost, p) for g in result.groups
                  for p, cost in zip(g.paths, result.flow.path_costs[g.start:g.stop])])


def write_summary_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load(rc):
    if not rc.net or not rc.trips:
        raise ValueError("both --net and --trips are required")
    return load_network(rc.net, rc.trips, rc.params)


def _write_outputs(rc, command, network, final, wall, pga=None):
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
        "mode": rc.solver.mode,
        "gap_tol": rc.solver.gap_tol,
        "converged": final.converged, "gap": final.gap,
        "iterations": final.iterations, "total_cost": final.total_cost,
        "fallback_iteration": final.fallback_at,
        "wall_seconds": wall, "paths": final.flow.f.size,
    }
    if pga is not None:
        write_outer_trace_csv(os.path.join(out, "outer_trace.csv"), pga.outer)
        write_path_dump(os.path.join(out, "paths.txt"), final)
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
    return _write_outputs(rc, "solve", network, result, time.perf_counter() - started)


def cmd_pga(rc):
    network = _load(rc)
    started = time.perf_counter()
    result = pga_solve(network, rc.params, rc.pga, rc.solver)
    return _write_outputs(rc, "pga", network, result.solve, time.perf_counter() - started,
                          pga=result)


def cmd_ksp(rc, origin, destination, k, vehicle_class):
    if not rc.net:
        raise ValueError("--net is required")
    network = load_network(rc.net, rc.trips, rc.params)
    link_costs = cost_model.free_flow_state(network, rc.params).cost(vehicle_class)
    paths = yen_k_shortest(network, link_costs, origin, destination, k)
    for p in paths:
        cost = sum(link_costs[network.link_index[a]] for a in p.links)
        print(f"{_fmt(cost)} {'-'.join(map(str, p.nodes))}")
    return EXIT_OK


def _fail_first(indices, message):
    """Raise ValueError(message(i)) for the lowest index i in `indices`, if any."""
    if len(indices):
        raise ValueError(message(int(np.min(indices))))


def _path_flow_arrays(network, texts):
    """Flat arrays of path_flows.csv rows: od index, class index (0 rv, 1 av),
    flow and link count per row, link index per (row, link) entry. Each check
    runs over all rows at once, in the order one row meets them, and raises a
    ValueError naming the first row that fails it."""
    n, n_od = len(texts), len(network.od_pairs)
    commas = np.array(list(map(str.count, texts, repeat(","))))
    _fail_first(np.flatnonzero(commas != 3), lambda i: f"bad row {texts[i]!r}")
    fields = ",".join(texts).split(",")
    # od indices clipped to -1 .. n_od, so that one of any size fits the array
    od = np.array(list(map(max, repeat(-1), map(min, map(int, fields[0::4]), repeat(n_od)))))
    flow = np.array(list(map(float, fields[3::4])))
    _fail_first(np.flatnonzero(~np.isfinite(flow)),
                lambda i: f"non-finite flow {fields[4 * i + 3]!r}")
    cls = np.array(list(map({c: i for i, c in enumerate(VEHICLE_CLASSES)}.get,
                            fields[1::4], repeat(-1))))
    _fail_first(np.flatnonzero(cls < 0), lambda i: f"unknown class {fields[4 * i + 1]!r}")
    _fail_first(np.flatnonzero((od < 0) | (od == n_od)),
                lambda i: f"od index {int(fields[4 * i])} out of range")
    demand = np.array([(q.demand_rv, q.demand_av) for q in network.od_pairs])[od, cls]
    _fail_first(np.flatnonzero(demand <= 0),
                lambda i: f"od {od[i]} has no {fields[4 * i + 1]} demand")
    keys = fields[2::4]
    sizes = np.array(list(map(str.count, keys, repeat("-")))) + 1
    ids = map(int, chain.from_iterable(map(str.split, keys, repeat("-"))))
    link = np.fromiter(map(network.link_index.get, ids, repeat(-1)), np.intp, sizes.sum())
    _fail_first(np.flatnonzero(link < 0),
                lambda e: f"unknown link id {int('-'.join(keys).split('-')[e])}")
    stops = np.cumsum(sizes)
    starts = stops - sizes
    node_index = {v: i for i, v in enumerate(network.nodes)}
    tail = np.array([node_index[l.from_node] for l in network.links], np.int32)[link]
    head = np.array([node_index[l.to_node] for l in network.links], np.int32)[link]
    apart = head[:-1] != tail[1:]
    apart[stops[:-1] - 1] = False
    _fail_first(np.flatnonzero(apart),
                lambda e: f"links {network.links[link[e]].id} and "
                f"{network.links[link[e + 1]].id} are not adjacent")
    # each row's nodes, its first tail then every head, row i from at[i] on
    nodes = np.insert(head, starts, tail[starts])
    at = starts + np.arange(n)
    # a revisit is a pair of equal neighbours among the sorted (row, node) keys
    visits = np.repeat(np.arange(n) * len(node_index), sizes + 1)
    visits += nodes
    visits.sort(kind="stable")    # the default int64 sort maps in 0.2 MB more code
    _fail_first(visits[1:][visits[1:] == visits[:-1]] // len(node_index),
                lambda i: "path revisits a node: "
                f"{[network.nodes[v] for v in nodes[at[i]:at[i] + sizes[i] + 1]]}")
    ends = np.array([(node_index[q.origin], node_index[q.destination])
                     for q in network.od_pairs])[od]
    _fail_first(np.flatnonzero((ends != np.stack([nodes[at], nodes[at + sizes]], 1)).any(1)),
                lambda i: f"path {keys[i]} does not connect od {od[i]}")
    del tail, head, nodes, visits    # before the duplicate table, to keep the peak memory down
    # a duplicate is a later one of equal neighbours among the stably sorted
    # (group, link sequence) rows; loop-free paths fit n_nodes columns
    table = np.full((n, sizes.max() + 1), -1, dtype=np.int32)
    table[:, 0] = 2 * od + cls
    table[np.repeat(np.arange(n), sizes),
          np.arange(link.size) - np.repeat(starts - 1, sizes)] = link
    order = np.lexsort(table.T[::-1])
    table = table[order]
    _fail_first(order[1:][(table[1:] == table[:-1]).all(axis=1)],
                lambda i: f"duplicate row for path {keys[i]}")
    return od, cls, flow, sizes, link


def _row_error(network, texts):
    """The message of the first check `_path_flow_arrays` fails on texts, or ""."""
    try:
        _path_flow_arrays(network, texts)
    except ValueError as exc:
        return str(exc)
    return ""


def _read_path_flows_csv(path, network):
    """`_path_flow_arrays` of a path_flows.csv file. A file that fails a check
    is reported at its first failing row, the end of its shortest failing
    prefix of rows, with the first check that row fails."""
    with open(path, encoding="utf-8") as fh:
        lines = list(map(str.strip, fh.read().split("\n")))
    texts = list(filter(None, lines))

    def line_no(k):    # of the k-th nonblank line
        return [i for i, line in enumerate(lines, start=1) if line][k]
    if not texts or texts[0] != "od,class,path_key,flow":
        raise ParseError(path, line_no(0) if texts else 1,
                         "expected header od,class,path_key,flow")
    if len(texts) == 1:
        raise ParseError(path, line_no(0), "no flow rows")
    try:
        return _path_flow_arrays(network, texts[1:])
    except ValueError:
        first = bisect.bisect_left(range(1, len(texts)), True,
                                   key=lambda k: bool(_row_error(network, texts[1:k + 1])))
    raise ParseError(path, line_no(first + 1), _row_error(network, texts[1:first + 2]))


def cmd_check(rc, flows_file):
    network = _load(rc)
    report = diagnostics.certify_rows(network, *_read_path_flows_csv(flows_file, network),
                                      rc.params)
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

    for name, help_text in (("solve", "one-shot path generation + solve"),
                            ("pga", "alternating generation/assignment")):
        p_run = sub.add_parser(name, help=help_text)
        _add_common(p_run)
        p_run.add_argument("--mode", choices=[MODIFIED, BASELINE])
        p_run.add_argument("--gap", type=float)
        p_run.add_argument("--k", type=int, help="paths per (OD, class) per generation round")

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
    solving = args.command in ("solve", "pga")
    extra = [("mode", args.mode), ("gap", args.gap), ("k", args.k)] if solving else ()
    try:
        rc = build_run_config(args.config, _overrides(args, extra))
        if args.command == "ksp":
            return cmd_ksp(rc, args.origin, args.dest, args.k, args.vehicle_class)
        if args.command == "check":
            return cmd_check(rc, args.flows)
        return cmd_solve(rc) if args.command == "solve" else cmd_pga(rc)
    except (ParseError, ValidationError, SolverError, ValueError, KeyError, OSError) as exc:
        print(f"mixflow {args.command}: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
