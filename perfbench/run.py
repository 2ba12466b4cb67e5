"""qnmlp benchmark: times whole training workloads and, in a traced run, each layer.

Run from the root of a qnmlp checkout:

    python3 perfbench/run.py --workload bfgs-sweep --seed 3 --seconds 35 --trace 0

The program is imported from ``src/`` of the current directory and driven in
this one process through ``qnmlp.cli.main``; the harness starts no threads,
only the short-lived interpreters that time set-up. It repeats rounds of the
workload's jobs while the next round should end within ``--seconds``, and
checks every fit with the gate in ``workloads.py``. ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` adds one traced round over the same jobs and
prints the per-layer metrics. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

Exit codes: 0 done (``correct`` says whether every fit passed the gate),
2 no program to run or bad arguments, 3 the tracer lost a seam.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads as wl

SETUP_BURSTS = 5
SETUP_BURST = 4
RUNS_DIR = ".perfbench_runs"

_IMPORT_PROBE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import numpy, qnmlp, qnmlp.cli
print(repr(time.perf_counter() - start))
"""


class SetupError(Exception):
    """The program cannot be found or imported; no result is printed."""


class SetupClock:
    """Times set-up: importing numpy, qnmlp and qnmlp.cli in a fresh interpreter.

    Set-up is timed in bursts of a few imports at moments spread over the run.
    A burst counts its fastest import, since the host's noise only adds time,
    and the result is the median over bursts, so that neither one slow stretch
    of a shared host nor one lucky import sets it.
    """

    def __init__(self, src: Path, bursts: int = SETUP_BURSTS, burst: int = SETUP_BURST):
        self.src, self.bursts, self.burst = src, bursts, burst
        self.fastest: list = []  # fastest import of each burst so far

    def _import_seconds(self) -> float:
        done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(self.src)],
                              capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise SetupError(f"importing qnmlp from {self.src} failed:\n{done.stderr.strip()}")
        return float(done.stdout.strip().splitlines()[-1])

    def keep_pace(self, fraction: float) -> None:
        """Take the bursts due once ``fraction`` of the run has passed."""
        while len(self.fastest) < self.bursts * min(fraction, 1.0):
            self.fastest.append(min(self._import_seconds() for _ in range(self.burst)))

    def median(self) -> float:
        self.keep_pace(1.0)
        return statistics.median(self.fastest)


def import_program(src: Path):
    package = src / "qnmlp"
    if not (package / "cli.py").is_file():
        raise SetupError(f"{package} not found; run from the root of a qnmlp checkout")
    sys.path.insert(0, str(src))
    import qnmlp.cli

    where = Path(qnmlp.__file__).resolve()
    if package.resolve() not in where.parents:
        raise SetupError(f"qnmlp was imported from {where}, not from {package}")
    return qnmlp


def _blas_threads():
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    paths = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()})
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
    }


def test_error_ratio(fits: list, reference: dict):
    """The larger, over the optimizers in the fits, of the geometric mean of test error over reference.

    Taken per optimizer, so that a change to one optimizer is not diluted by the other's fits.
    """
    logs: dict = {}
    for f in fits:
        if reference.get(f.key, 0) > 0 and f.test_error_pct > 0:
            logs.setdefault(wl.optimizer_of(f.key), []).append(math.log(f.test_error_pct / reference[f.key]))
    return max((math.exp(statistics.fmean(v)) for v in logs.values()), default=None)


def _per(numerator, denominator) -> float:
    """A per-unit figure, 0 when the layer did no work of that unit in the workload."""
    return numerator / denominator if denominator else 0.0


def layer_metrics(t: tracer.Tracer, traced: wl.Round, untraced_seconds: float):
    """Per-layer metrics of one traced round, and the reason for each one that is missing."""
    s = t.stats

    def ctr(seam, key):
        return s[seam].counters.get(key, 0)

    gd, ls, upd, lag = "optim.gd_train", "optim.wolfe_line_search", "optim.bfgs_update_inv_hessian", \
        "mlp.loss_and_grad"
    table = [
        ("trace.wall_s", "s", (), lambda: traced.seconds),
        ("trace.overhead_frac", "ratio", (), lambda: traced.seconds / untraced_seconds - 1.0),
        ("cli.self_s", "s", ("cli.main",), lambda: s["cli.main"].self_s),
        ("cli.files_written", "count", (), lambda: traced.files_written),
        ("cli.bytes_written", "B", (), lambda: traced.bytes_written),
        ("bench.sample_dataset.calls", "count", ("bench.sample_dataset",),
         lambda: s["bench.sample_dataset"].calls),
        ("bench.sample_dataset.busy_s", "s", ("bench.sample_dataset",),
         lambda: s["bench.sample_dataset"].busy_s),
        ("optim.gd_train.busy_s", "s", (gd,), lambda: s[gd].busy_s),
        ("optim.gd.row_steps", "count", (gd,), lambda: ctr(gd, "row_steps")),
        ("optim.gd.row_step_us", "us", (gd,), lambda: _per(1e6 * s[gd].self_s, ctr(gd, "row_steps"))),
        ("optim.objective_eval.self_s", "s", ("optim.objective_eval",),
         lambda: s["optim.objective_eval"].self_s),
        ("optim.bfgs.iters", "count", ("optim.bfgs_minimize",), lambda: ctr("optim.bfgs_minimize", "iters")),
        ("optim.bfgs.self_s", "s", ("optim.bfgs_minimize",), lambda: s["optim.bfgs_minimize"].self_s),
        ("optim.bfgs.skipped_updates", "count", ("optim.bfgs_minimize",),
         lambda: ctr("optim.bfgs_minimize", "skipped_updates")),
        ("optim.bfgs_update_inv_hessian.calls", "count", (upd,), lambda: s[upd].calls),
        ("optim.bfgs_update_inv_hessian.busy_s", "s", (upd,), lambda: s[upd].busy_s),
        ("optim.bfgs_update_inv_hessian.us_per_call", "us", (upd,),
         lambda: _per(1e6 * s[upd].busy_s, s[upd].calls)),
        ("optim.wolfe_line_search.calls", "count", (ls,), lambda: s[ls].calls),
        ("optim.wolfe_line_search.busy_s", "s", (ls,), lambda: s[ls].busy_s),
        ("optim.wolfe_line_search.self_s", "s", (ls,), lambda: s[ls].self_s),
        ("optim.ls.evals_per_iter", "ratio", (ls, "optim.bfgs_minimize"),
         lambda: _per(ctr(ls, "evals"), ctr("optim.bfgs_minimize", "iters"))),
        ("optim.ls.unit_step_frac", "ratio", (ls,), lambda: _per(ctr(ls, "unit_steps"), ctr(ls, "accepted"))),
        ("optim.ls.failures", "count", (ls,), lambda: s[ls].raised),
        ("mlp.loss_and_grad.calls", "count", (lag,), lambda: s[lag].calls),
        ("mlp.loss_and_grad.busy_s", "s", (lag,), lambda: s[lag].busy_s),
        ("mlp.loss_and_grad.us_per_call", "us", (lag,), lambda: _per(1e6 * s[lag].busy_s, s[lag].calls)),
        ("mlp.loss_mse.calls", "count", ("mlp.loss_mse",), lambda: s["mlp.loss_mse"].calls),
        ("mlp.loss_mse.busy_s", "s", ("mlp.loss_mse",), lambda: s["mlp.loss_mse"].busy_s),
        ("mlp.with_params.calls", "count", ("mlp.with_params",), lambda: s["mlp.with_params"].calls),
        ("mlp.with_params.busy_s", "s", ("mlp.with_params",), lambda: s["mlp.with_params"].busy_s),
        ("linalg.calls", "count", ("linalg",), lambda: s["linalg"].calls),
        ("linalg.busy_s", "s", ("linalg",), lambda: s["linalg"].busy_s),
    ]
    metrics, missing = {}, {}
    for name, unit, needs, value in table:
        lost = [f"{seam}: {t.missing.get(seam, 'not traced')}" for seam in needs
                if seam in t.missing or seam not in s]
        if lost:
            missing[name] = "; ".join(lost)
        else:
            metrics[name] = {"value": value(), "unit": unit}
    return metrics, missing


def run(workload: wl.Workload, seed: int, seconds: float, trace: bool, root: Path,
        setup: SetupClock, tiny: bool = False, reference=None) -> dict:
    """Run one benchmark invocation; the program must already be imported.

    Set-up is timed only in an untraced run, between its jobs.
    """
    block = seed % wl.BLOCKS
    jobs = workload.jobs(block, tiny)
    if reference is None:
        reference = wl.load_reference(workload.name, block)
    out_root = root / RUNS_DIR / str(os.getpid())
    attempted = failed = 0
    problems = []

    def judge(round_: wl.Round, label: str) -> None:
        nonlocal attempted, failed
        for fit in round_.fits:
            attempted += 1
            found = wl.gate(fit, reference, first.get(fit.key))
            if found:
                failed += 1
                problems.append(f"{label} {fit.key}: {'; '.join(found)}")

    tracer.assert_clean()
    wl.clear(out_root)
    rounds = []
    first: dict = {}
    start = time.perf_counter()
    after_job = None if trace else lambda: setup.keep_pace((time.perf_counter() - start) / seconds)
    try:
        elapsed = 0.0
        # Start another round only if it should end within --seconds.
        while not rounds or elapsed + elapsed / len(rounds) <= seconds:
            gc.collect()
            round_ = wl.run_round(jobs, out_root / f"round{len(rounds)}", after_job)
            wl.clear(out_root / f"round{len(rounds)}")
            judge(round_, f"round {len(rounds)}")
            if not rounds:
                first = {fit.key: fit.history for fit in round_.fits}
                baseline_fits = round_.fits
            rounds.append(round_)
            elapsed += round_.seconds
        # Each job's fastest time over rounds, summed. On a shared machine the host slows the
        # CPU by up to 2x in stretches of seconds (CPU time tracks wall time, so this is not
        # waiting); that noise only ever adds time.
        wall_s = sum(min(times) for times in zip(*(r.job_seconds for r in rounds)))

        result = {"workload": workload.name, "block": block, "rounds": [r.seconds for r in rounds],
                  "setup_bursts": setup.fastest,
                  "test_error_pct": {f.key: f.test_error_pct for f in baseline_fits}}
        if trace:
            gc.collect()
            with tracer.Tracer() as t:
                traced = wl.run_round(jobs, out_root / "traced")
            wl.clear(out_root / "traced")
            judge(traced, "traced round")
            for seam in workload.seams:
                if t.stats[seam].calls == 0 and seam not in t.missing:
                    t.missing[seam] = "wrapped, but the workload never called it there"
            metrics, missing = layer_metrics(t, traced, wall_s)
        else:
            metrics = {
                "wall_s": {"value": wall_s, "unit": "s"},
                "fits_per_s": {"value": len(baseline_fits) / wall_s, "unit": "1/s"},
                "setup_s": {"value": setup.median(), "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                "unit": "MB"},
            }
            ratio = test_error_ratio(baseline_fits, reference)
            if ratio is not None:
                metrics["test_error_ratio"] = {"value": ratio, "unit": "ratio"}
            missing = {}
    finally:
        wl.clear(out_root)
        try:
            (root / RUNS_DIR).rmdir()
        except OSError:
            pass
    result.update(correct=failed == 0 and not missing, attempted=attempted, failed=failed,
                  metrics=metrics, missing=missing, problems=problems)
    return result


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")
    return args


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
    except SystemExit as exit_:
        return 2 if exit_.code else 0
    root = Path.cwd()
    src = root / "src"
    try:
        import_program(src)
        print("env " + json.dumps(fingerprint(), sort_keys=True))
        result = run(wl.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), root,
                     SetupClock(src))
    except SetupError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    for problem in result["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, reason in result["missing"].items():
        print(f"MISSING {name}: {reason}", file=sys.stderr)
    print(f"workload {result['workload']} block {result['block']} rounds "
          + " ".join(f"{s:.3f}" for s in result["rounds"]))
    if result["setup_bursts"]:
        print("setup fastest per burst " + " ".join(f"{s:.4f}" for s in result["setup_bursts"]))
    by_optimizer: dict = {}
    for key, value in result["test_error_pct"].items():
        print(f"test_error_pct {key} = {value!r}")
        by_optimizer.setdefault(wl.optimizer_of(key), []).append(value)
    for optimizer, values in by_optimizer.items():
        print(f"{optimizer}_test_error_pct mean = {statistics.fmean(values)!r} over {len(values)} fits")
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 3 if result["missing"] else 0


if __name__ == "__main__":
    sys.exit(main())
