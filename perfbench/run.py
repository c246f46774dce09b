#!/usr/bin/env python3
"""mixflow benchmark: time to a certified equilibrium through the public CLI.

    python3 perfbench/run.py --workload nguyen|sf_oneshot|sf_pga \\
        --seed N --seconds S --trace 0|1 [--workload-seed W] [--short]

One process runs one workload as a single closed-loop client: each
operation is one `mixflow solve` or `mixflow pga` call through
`mixflow.cli.main`, followed by `mixflow check` on the `path_flows.csv`
it wrote, and starts only after the previous one returned. A pass runs
every operation of the workload once; passes repeat while the next one
fits in `--seconds`, and each timing is the median over passes.

Inputs are generated from the workload seed (`--workload-seed`; 0 for
`nguyen`, whose demand seeds are W..W+7, and 7 for the Sioux Falls
workloads), so that iteration counts repeat exactly from run to run.
`--seed` sets the order in which a pass issues its operations; the
Sioux Falls workloads have one operation, so it changes nothing there.

An operation fails when either call exits nonzero (`check` runs with
`check_tol` set to the solve's gap), or when the solve's total cost differs
from the seed-state value in `reference.json` by more than its gap
(relative). The run is `correct` when every operation produced a result
that could be certified: no crash, a solve that returned a result (exit 0,
or 2 for an exhausted iteration budget), a `check` that read and certified
its output (exit 0, or 3 for a residual above the tolerance), and, for a
solve that reports convergence, the reference total cost and a certified
relative residual within RESIDUAL_MARGIN of the gap. So a stall, or a
converged solve whose rounded `path_flows.csv` certifies just above the gap,
is a failed operation, not an incorrect run; an unreadable output, a wrong
total cost or converged flows that certify far above the gap are both.

Set-up (re-importing `mixflow`, synthesizing the fixtures, writing the TNTP
files) is timed in bursts of SETUP_BURST set-ups, with the garbage collector
held off: one burst before the first pass and one after each pass, so that
`setup_s`, their median, samples the whole run rather than one moment of it.

`--trace 0` reports the end-to-end metrics, measured untraced. `--trace 1`
runs one untraced pass, then traced passes that wrap each layer's public
functions (see tracing.py), and reports the per-layer metrics including
the tracing overhead. The last line of standard output is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`. Run records
and the spans file go to perfbench/out/<workload>/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import glob
import importlib
import io
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

# one BLAS thread, so the program never runs more threads than it asks for;
# set before numpy is imported
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")

SETUP_BURST = 7
NGUYEN_SEEDS = 8
# path_flows.csv holds 6 significant digits, which lifts the certified residual
# of a converged solve slightly above its gap (worst seen: 1.01609e-4 against
# 1e-4 on nguyen demand seed 8, baseline; 9.99e-5 from full-precision flows);
# beyond this factor the written flows are wrong
RESIDUAL_MARGIN = 1.05


@dataclass(frozen=True)
class Operation:
    name: str        # also the key of its seed-state total cost in reference.json
    command: str     # "solve" or "pga"
    trips: str       # trips file name in the workload directory
    args: tuple      # further CLI arguments
    gap: float


@dataclass
class Outcome:
    op: Operation
    code: int        # solve/pga exit code, None when the call raised
    check_code: int  # check exit code, None when not run or raised
    iterations: int = 0
    total_cost: float = float("nan")
    relative_residual: float = float("nan")
    pga_rounds: int = 0
    pga_inner_iterations: int = 0
    paths_kept: int = 0
    reference: float = None
    wall_s: float = 0.0      # both calls, as the client saw them
    cpu_s: float = 0.0

    @property
    def cost_ok(self):
        return (self.reference is None
                or abs(self.total_cost - self.reference) <= self.op.gap * abs(self.reference))

    @property
    def failed(self):
        return self.code != 0 or self.check_code != 0 or not self.cost_ok

    @property
    def correct(self):
        converged_ok = (self.cost_ok and (
            self.check_code == 0
            or self.relative_residual <= self.op.gap * RESIDUAL_MARGIN))
        return (self.code in (0, 2) and self.check_code in (0, 3)
                and (self.code == 2 or converged_ok))

    def describe(self):
        status = "ok" if not self.failed else ("FAILED" if self.correct else "FAILED, INCORRECT")
        ref = "no reference" if self.reference is None else f"reference {self.reference!r}"
        return (f"op {self.op.name}: exit {self.code}, check exit {self.check_code}, "
                f"iterations {self.iterations}, TC {self.total_cost!r} ({ref}), "
                f"relative_residual {self.relative_residual!r}: {status}")


def workload_ops(workload, workload_seed, short):
    """The operations of one pass, and the fixture (network, seed) per trips file."""
    if workload == "nguyen":
        seeds = range(workload_seed, workload_seed + (1 if short else NGUYEN_SEEDS))
        ops = [Operation(f"nguyen/s{s}/{mode}", "solve", f"trips_s{s}.tntp",
                         ("--mode", mode, "--k", "8", "--gap", "1e-4",
                          "--set", "max_iters=5000"), 1e-4)
               for s in seeds for mode in ("modified", "baseline")]
        return ops, {f"trips_s{s}.tntp": ("nguyen", s) for s in seeds}
    command = {"sf_oneshot": "solve", "sf_pga": "pga"}[workload]
    trips = f"trips_s{workload_seed}.tntp"
    op = Operation(f"{workload}/s{workload_seed}", command, trips,
                   ("--k", "10", "--gap", "5e-3"), 5e-3)
    return [op], {trips: ("sioux_falls", workload_seed)}


def import_mixflow():
    """Import mixflow afresh from this checkout's src/, dropping earlier imports."""
    for name in [m for m in sys.modules if m == "mixflow" or m.startswith("mixflow.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    cli = importlib.import_module("mixflow.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"mixflow was imported from {cli.__file__}, not from {SRC}")
    return cli


def set_up(workdir, fixtures):
    """Import the package, synthesize the fixtures and write the TNTP files."""
    cli = import_mixflow()
    fixtures_mod = importlib.import_module("mixflow.fixtures")
    network_mod = importlib.import_module("mixflow.network")
    params = cli.ClassParams()
    os.makedirs(workdir, exist_ok=True)
    for trips, (kind, seed) in sorted(fixtures.items()):
        if kind == "nguyen":
            network = fixtures_mod.nguyen_network(params, seed=seed)
        else:
            network = fixtures_mod.sioux_falls_network(params, seed=seed)
        # every fixture of a workload shares its topology, so one net file serves all
        network_mod.write_network(network, os.path.join(workdir, "net.tntp"),
                                  os.path.join(workdir, trips))
    return cli


def timed_set_ups(workdir, fixtures, count, setups):
    """`count` set-ups with the garbage collector held off; appends their seconds."""
    for _ in range(count):
        gc.collect()
        gc.disable()
        try:
            t0 = time.perf_counter()
            cli = set_up(workdir, fixtures)
            setups.append(time.perf_counter() - t0)
        finally:
            gc.enable()
    return cli


def _relative_residual(check_stdout):
    for line in check_stdout.splitlines():
        key, _, value = line.partition("=")
        if key.strip() == "relative_residual":
            return float(value)
    return float("nan")


def run_operation(cli, op, workdir, reference, main=None):
    """One closed-loop operation: the solve or pga call, then `check` on its output.

    `main` maps a command to the entry point called in place of `cli.main`
    (the traced run passes wrapped ones).
    """
    main = main or {}
    net = os.path.join(workdir, "net.tntp")
    trips = os.path.join(workdir, op.trips)
    out = os.path.join(workdir, "runs", op.name.replace("/", "_"))
    common = ["--net", net, "--trips", trips]
    outcome = Outcome(op, None, None, reference=reference.get(op.name))
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            outcome.code = main.get(op.command, cli.main)(
                [op.command, *common, "--out-dir", out, *op.args])
        if outcome.code not in (0, 2):
            return outcome
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            outcome.check_code = main.get("check", cli.main)(
                ["check", *common, "--flows", os.path.join(out, "path_flows.csv"),
                 "--set", f"check_tol={op.gap!r}"])
        outcome.relative_residual = _relative_residual(buf.getvalue())
        with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        outcome.iterations = summary["iterations"]
        outcome.total_cost = summary["total_cost"]
        outcome.paths_kept = summary["paths"]
        if op.command == "pga":
            with open(os.path.join(out, "outer_trace.csv"), encoding="utf-8") as fh:
                rows = [line.split(",") for line in fh.read().split("\n")[1:] if line]
            outcome.pga_rounds = len(rows)
            outcome.pga_inner_iterations = sum(int(r[4]) for r in rows)
            outcome.iterations += outcome.pga_inner_iterations
    except Exception:   # a crash is a failed, incorrect operation; keep measuring
        traceback.print_exc(file=sys.stderr)
    return outcome


def run_pass(cli, ops, workdir, reference, main=None, before_op=None):
    """Every operation once, in the given order; returns (outcomes, wall s, cpu s)."""
    gc.collect()
    outcomes = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for i, op in enumerate(ops):
        if before_op is not None:
            before_op(i)
        t0, c0 = time.perf_counter(), time.process_time()
        outcome = run_operation(cli, op, workdir, reference, main)
        outcome.wall_s, outcome.cpu_s = time.perf_counter() - t0, time.process_time() - c0
        outcomes.append(outcome)
    return outcomes, time.perf_counter() - wall0, time.process_time() - cpu0


def fingerprint():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = 0
    for path in glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
        "src_lines": src_lines,
    }


def _median(values):
    """Median; of counts, one of the counts, so that a count stays whole."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def end_to_end(passes, setups):
    """End-to-end metric values from the untraced passes of one run."""
    walls = [wall for _, wall, _ in passes]
    cpus = [cpu for _, _, cpu in passes]
    iterations = [sum(o.iterations for o in outcomes) for outcomes, _, _ in passes]
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "setup_s": statistics.median(setups),
        "iterations": _median(iterations),
        "peak_rss_mb": peak_kib / 1024.0,
    }


def traced_passes(cli, ops_for_pass, workdir, reference, deadline):
    """One untraced pass, then traced passes while time is left (at least one).

    Returns (all passes, per-layer metric values as medians over the traced
    passes, the tracer).
    """
    import tracing   # imports numpy, so only after the thread pins are set
    mods = {name: importlib.import_module(f"mixflow.{name}")
            for name in ("pga", "solver", "costs", "diagnostics")}
    passes = [run_pass(cli, ops_for_pass(), workdir, reference)]
    untraced_wall = passes[0][1]
    tracer = tracing.Tracer()
    roots = {cmd: tracer.span(f"cli.{cmd}", cli.main) for cmd in ("solve", "pga", "check")}
    per_pass = []
    while True:
        ops = ops_for_pass()
        mark = tracer.mark()

        def before_op(i, base=len(passes) * len(ops)):
            tracer.current_op = base + i

        with tracing.installed(tracer, cli, **mods):
            outcomes, wall, cpu = run_pass(cli, ops, workdir, reference, roots, before_op)
        passes.append((outcomes, wall, cpu))
        iterations = sum(o.iterations for o in outcomes)
        metrics = tracing.layer_metrics(tracer, mark, iterations,
                                        sum(o.paths_kept for o in outcomes))
        metrics.update({
            "pga.rounds": sum(o.pga_rounds for o in outcomes),
            "pga.inner_iterations": sum(o.pga_inner_iterations for o in outcomes),
            "pga.final_iterations": sum(o.iterations - o.pga_inner_iterations
                                        for o in outcomes if o.op.command == "pga"),
            "diagnostics.relative_residual": max(o.relative_residual for o in outcomes),
            "trace.overhead_s": wall - untraced_wall,
        })
        per_pass.append(metrics)
        if time.perf_counter() + wall > deadline:
            break
    layer = {name: _median([m[name] for m in per_pass]) for name in per_pass[0]}
    return passes, layer, tracer


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["nguyen", "sf_oneshot", "sf_pga"])
    parser.add_argument("--seed", type=int, required=True,
                        help="orders the operations of each pass")
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure for this long: passes repeat while the next fits")
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--workload-seed", type=int,
                        help="fixture seed (default 0 for nguyen, 7 for Sioux Falls)")
    parser.add_argument("--short", action="store_true",
                        help="one nguyen demand seed, one set-up, one pass (and one traced)")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "mixflow")):
        print(f"perfbench: no mixflow sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_PINS)

    workload_seed = args.workload_seed
    if workload_seed is None:
        workload_seed = 0 if args.workload == "nguyen" else 7
    ops, fixtures = workload_ops(args.workload, workload_seed, args.short)
    workdir = os.path.join(OUT, args.workload)
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    with open(BENCHMARK, encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    burst = 1 if args.short or args.trace else SETUP_BURST
    setups = []
    cli = timed_set_ups(workdir, fixtures, burst, setups)
    env = fingerprint()
    print("fingerprint " + json.dumps(env, sort_keys=True))

    rng = random.Random(args.seed)

    def ops_for_pass():
        order = list(ops)
        rng.shuffle(order)
        return order

    start = time.perf_counter()
    deadline = start + args.seconds
    tracer = None
    if args.trace:
        passes, values, tracer = traced_passes(cli, ops_for_pass, workdir, reference,
                                               start if args.short else deadline)
    else:
        passes = []
        while True:
            passes.append(run_pass(cli, ops_for_pass(), workdir, reference))
            cli = timed_set_ups(workdir, fixtures, burst, setups)
            if args.short or time.perf_counter() + passes[-1][1] > deadline:
                break
        values = end_to_end(passes, setups)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    outcomes = [o for pass_outcomes, _, _ in passes for o in pass_outcomes]
    for o in passes[0][0]:
        print(o.describe())
    attempted = len(outcomes)
    failed = sum(o.failed for o in outcomes)
    correct = all(o.correct for o in outcomes)
    print(f"workload {args.workload}: workload seed {workload_seed}, order seed {args.seed}, "
          f"{len(passes)} passes of {len(ops)} operations, traced={args.trace}")
    print(f"failed_share = {failed / attempted!r} ratio ({failed}/{attempted})")
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")

    os.makedirs(workdir, exist_ok=True)
    if tracer is not None:
        tracer.write_csv(os.path.join(workdir, "spans.csv"))
    record = {"workload": args.workload, "workload_seed": workload_seed, "seed": args.seed,
              "trace": args.trace, "fingerprint": env, "setup_s": setups,
              "passes": [{"wall_s": wall, "cpu_s": cpu,
                          "operations": {o.op.name: [o.wall_s, o.cpu_s] for o in outcomes}}
                         for outcomes, wall, cpu in passes],
              "operations": [o.describe() for o in outcomes],
              "failed_share": failed / attempted, "metrics": metrics}
    with open(os.path.join(workdir, f"record_seed{args.seed}_trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
