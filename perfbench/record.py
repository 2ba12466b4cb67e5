"""Record the reference test error of every fit the benchmark can run.

    python3 perfbench/record.py --workload bfgs-sweep

Run from the root of a qnmlp checkout at the commit whose results are the
reference. It runs one round of each of the workload's input blocks and
writes ``perfbench/reference/<workload>.json``; it refuses to write if any
fit fails the gate's checks that need no reference.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import run
import workloads as wl


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/record.py")
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    args = parser.parse_args(argv)
    root = Path.cwd()
    run.import_program(root / "src")
    workload = wl.WORKLOADS[args.workload]
    out = root / run.RUNS_DIR / f"record-{workload.name}"
    blocks = {}
    try:
        for block in range(wl.BLOCKS):
            round_ = wl.run_round(workload.jobs(block), out)
            wl.clear(out)
            for fit in round_.fits:
                if fit.problems:
                    print(f"error: block {block} {fit.key}: {'; '.join(fit.problems)}", file=sys.stderr)
                    return 1
            blocks[str(block)] = {fit.key: fit.test_error_pct for fit in round_.fits}
            print(f"block {block}: {len(round_.fits)} fits in {round_.seconds:.2f} s", flush=True)
    finally:
        wl.clear(out)
    wl.REFERENCE_DIR.mkdir(exist_ok=True)
    path = wl.REFERENCE_DIR / f"{workload.name}.json"
    path.write_text(json.dumps({"workload": workload.name, "unit": "test error, pct",
                                "blocks": blocks}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
