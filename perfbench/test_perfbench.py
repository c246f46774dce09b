"""Tests of the benchmark itself: `python3 -m pytest perfbench -q`."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")


def _bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_short_mode_prints_every_metric_with_its_unit(trace, section):
    with open(BENCHMARK, encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[section]}
    proc = _bench("--workload", "nguyen", "--seed", "3", "--seconds", "1",
                  "--trace", trace, "--short")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] == 2 * (1 + int(trace))
    assert result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float))
        assert f"{name} = {m['value']!r} {m['unit']}" in lines
    assert "failed_share = 0.0 ratio (0/%d)" % result["attempted"] in lines


def _corrupt_reversed(path):
    """Reverse the flows within each (od, class) group: cheap paths lose their flow."""
    with open(path, encoding="utf-8") as fh:
        header, *rows = fh.read().split()
    groups = {}
    for row in rows:
        od, cls, key, flow = row.split(",")
        groups.setdefault((od, cls), []).append((key, flow))
    out = [header]
    for (od, cls), entries in groups.items():
        flows = [flow for _, flow in entries][::-1]
        out += [f"{od},{cls},{key},{flow}" for (key, _), flow in zip(entries, flows)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")


def _corrupt_garbled(path):
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("0,rv,not-a-path,1.0\n")


@pytest.mark.parametrize("corrupt", [_corrupt_reversed, _corrupt_garbled])
def test_corrupted_path_flows_is_a_failed_incorrect_operation(tmp_path, corrupt):
    ops, fixtures = run.workload_ops("nguyen", 0, short=True)
    cli = run.set_up(str(tmp_path), fixtures)
    with open(os.path.join(run.HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    op = ops[0]
    clean = run.run_operation(cli, op, str(tmp_path), reference)
    assert not clean.failed and clean.correct

    write = cli.write_path_flows_csv

    def write_then_corrupt(path, groups):
        write(path, groups)
        corrupt(path)

    cli.write_path_flows_csv = write_then_corrupt
    try:
        outcome = run.run_operation(cli, op, str(tmp_path), reference)
    finally:
        cli.write_path_flows_csv = write
    assert outcome.code == 0
    assert outcome.check_code != 0
    assert outcome.failed
    assert not outcome.correct


@pytest.mark.parametrize("code, residual, correct", [
    (0, 1.00053e-4, True),    # converged, rounded flows certify just above the gap
    (0, 1.5e-4, False),       # converged, but the written flows are off
    (2, 2.4e-1, True),        # stalled: failed, yet its output was certified
])
def test_a_residual_above_the_gap_fails_and_is_correct_only_near_it(code, residual, correct):
    op = run.Operation("nguyen/s3/baseline", "solve", "trips_s3.tntp", (), 1e-4)
    outcome = run.Outcome(op, code, 3, relative_residual=residual)
    assert outcome.failed
    assert outcome.correct is correct


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCHMARK, tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "sf_oneshot", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
