"""Compare the deterministic counters of the traced Sioux Falls smoke runs
with their committed values in .github/bench_counters.json.

Run after `python3 perfbench/run.py --workload <name> --seed 1 --seconds 1
--trace 1 --short` for every workload in that file. Exits 1, listing each
counter that differs, so that a change to a call or iteration count must
come with a change to the committed file. Nguyen is left out: its
iteration counts follow numpy's SIMD dispatch level.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    with open(os.path.join(HERE, "bench_counters.json"), encoding="utf-8") as fh:
        committed = json.load(fh)
    differ = []
    for workload, counters in committed.items():
        record = os.path.join(HERE, os.pardir, "perfbench", "out", workload,
                              "record_seed1_trace1.json")
        with open(record, encoding="utf-8") as fh:
            metrics = json.load(fh)["metrics"]
        differ += [f"{workload} {name}: {metrics[name]['value']} (committed {value})"
                   for name, value in counters.items() if metrics[name]["value"] != value]
    print("\n".join(differ) or "benchmark counters match the committed values")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
