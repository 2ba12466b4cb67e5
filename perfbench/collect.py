"""Repeat the benchmark over many seeds, summarise it, and check that it is steady.

    python3 perfbench/collect.py --workload bfgs-sweep --seeds 1-10 --sets 2 --out perfbench/baseline.json

Run from the root of a qnmlp checkout. Each set runs ``run.py`` once per
seed with ``--trace 0`` (set k uses the seeds shifted by k times their
count), one after the other, then one ``--trace 1`` run on the first seed.
For every end-to-end metric it reports the median and quartiles of each set,
the spread (interquartile distance over the median), and how far the last
set's median moved from the first's, against the metric's bound in
``BENCHMARK.json``. Results are merged into ``--out`` under the workload's name.

The exit code is 0 when the workload is steady: every fit passed the gate,
every spread but that of ``setup_s`` is within its bound, and no median moved
for the worse by more than its bound. Each spread is also held against the
tuning target, a third of its bound, ``setup_s`` included; a miss is printed
as WIDE and listed under ``wide`` in the report.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def invoke(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    done = subprocess.run([sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited {done.returncode}:\n{done.stderr}")
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    return json.loads(lines[-1]), env


def summarise(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def worse_by(metric: dict, first: float, last: float) -> float:
    change = (last - first) / first if first else 0.0
    return change if metric["better"] == "lower" else -change


def shape(workload: str, layers: dict) -> dict:
    """The ROADMAP baseline shape each workload is chosen to show, as shares of the traced round."""
    def v(name):
        return layers[name]["value"]

    wall = v("trace.wall_s")
    if workload == "compare-short":
        return {"gd_train_share_of_wall": v("optim.gd_train.busy_s") / wall}
    if workload == "bfgs-wide":
        return {"inv_hessian_update_share_of_wall": v("optim.bfgs_update_inv_hessian.busy_s") / wall}
    shares = {name: v(name) / wall for name in (
        "mlp.loss_and_grad.busy_s", "mlp.loss_mse.busy_s", "optim.wolfe_line_search.self_s",
        "optim.bfgs_update_inv_hessian.busy_s", "optim.bfgs.self_s", "optim.objective_eval.self_s",
        "mlp.with_params.busy_s", "cli.self_s", "linalg.busy_s", "bench.sample_dataset.busy_s")}
    return {"shares_of_wall": shares, "largest": max(shares, key=shares.get),
            "ls_evals_per_iter": v("optim.ls.evals_per_iter")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/collect.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    first, last = (int(x) for x in args.seeds.split("-"))
    count = last - first + 1

    steady = True
    sets, env, attempted, failed = [], None, 0, 0
    for k in range(args.sets):
        per_metric = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(first + k * count, last + 1 + k * count):
            result, env = invoke(args.workload, seed, spec["run_seconds"], 0)
            attempted += result["attempted"]
            failed += result["failed"]
            steady &= result["correct"]
            for name in per_metric:
                per_metric[name].append(result["metrics"][name]["value"])
            print(f"set {k} seed {seed}: " + " ".join(f"{n}={v[-1]:.5g}" for n, v in per_metric.items()),
                  flush=True)
        sets.append({name: summarise(values) for name, values in per_metric.items()})

    report = {"seconds": spec["run_seconds"], "seeds": args.seeds, "sets": sets,
              "attempted": attempted, "failed": failed}
    wide = []
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        for k, summary in enumerate(sets):
            spread = summary[name]["spread"]
            steady &= name == "setup_s" or spread <= bound
            if spread >= bound / 3:
                wide.append(f"{name} set {k}")
            print(f"{name:>18} set {k}: median {summary[name]['median']:.5g} "
                  f"q1 {summary[name]['q1']:.5g} q3 {summary[name]['q3']:.5g} spread {spread:.4f} "
                  f"(bound {bound}, target {bound / 3:.4f}) {'ok' if spread < bound / 3 else 'WIDE'}")
        moved = worse_by(metric, sets[0][name]["median"], sets[-1][name]["median"])
        steady &= moved <= bound
        print(f"{name:>18} last set worse than first by {moved:+.4f} (bound {bound})")

    layers, env = invoke(args.workload, first, spec["run_seconds"], 1)
    attempted += layers["attempted"]
    failed += layers["failed"]
    steady &= layers["correct"]
    report["per_layer"] = layers["metrics"]
    report["shape"] = shape(args.workload, layers["metrics"])
    for name, metric in layers["metrics"].items():
        print(f"{name:>40} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(report["shape"], indent=1))
    report.update(attempted=attempted, failed=failed, wide=wide)

    if args.out:
        merged = json.loads(args.out.read_text()) if args.out.exists() else {}
        merged["env"] = env
        merged.setdefault("workloads", {})[args.workload] = report
        args.out.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n")
    print(f"{args.workload}: {'steady' if steady else 'NOT steady'}; fits {attempted}, failed {failed}; "
          f"spreads over target: {', '.join(wide) or 'none'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
