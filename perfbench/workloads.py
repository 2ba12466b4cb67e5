"""Workloads, the round runner and the correctness gate of the qnmlp benchmark.

A workload turns a benchmark seed into a list of jobs. A job is one argv for
``qnmlp.cli.main``; a fit is one optimizer on one function for one program
seed, and a job yields one or two of them. One round runs every job of the
workload once, in process, into a fresh output directory.

Program seeds come from ``seed % BLOCKS``, so that every input set the
benchmark can draw has a recorded reference result under ``reference/``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BLOCKS = 16
FUNCTIONS = ("beale", "booth")
# Timing keeps each job's fastest run, and the host this was tuned on slows by up to 2x in
# stretches of 5 to 20 s. So every workload is a few short jobs, each repeated many times in a run:
# at their defaults one `compare` job takes 7 to 10 s and one `--hidden 100` fit 3 to 5 s, and
# ten runs of `compare` at 50 epochs (1 s jobs) still spread by 0.24, at 15 epochs five by 0.02.
# Cutting epochs and iterations leaves the work per GD row step and per BFGS iteration as it is,
# and keeps GD over 90% of `compare` and the update over 80% of the wide fits.
# Fits at n = 41 converge after 258 to 500 iterations, so over blocks of 5 seeds at the default
# 500 the total work spreads by 0.07 (interquartile distance over median). At 200 every fit stops
# at max_iters and the work per block is the same.
SWEEP_SEEDS = 5
SWEEP_FLAGS = ("--max-iters", "200")
COMPARE_FLAGS = ("--epochs", "15", "--max-iters", "15")
WIDE_FLAGS = ("--hidden", "100", "--max-iters", "50")
OK_STATUSES = ("converged_grad", "converged_ftol", "max_iters")

# A BFGS fit's test error must lie in [ref / BFGS_ERROR_FACTOR, ref * BFGS_ERROR_FACTOR]. BFGS
# trajectories are chaotic over 500 iterations: an exact-arithmetic rewrite of the inverse-Hessian
# update moves single fits by factors 0.5 to 3.8, while dropping the update (steepest descent) moves
# them by factors 16 to 230.
BFGS_ERROR_FACTOR = 8.0
# Online GD is not chaotic: moving eta or every initial weight by one ulp moves its test error by
# under 1e-15 relative. A GD fit must match its reference within this relative tolerance.
GD_ERROR_REL_TOL = 1e-6

# Reduced-size flags for the harness self-test; the last occurrence of a flag wins in argparse.
TINY_FLAGS = ("--samples", "40", "--hidden", "3", "--epochs", "2", "--max-iters", "5")

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass(frozen=True)
class Fit:
    key: str  # function/optimizer/program seed
    history: str  # path relative to the job's output directory
    report: str
    prefix: str  # prefix of this fit's keys in report.txt


@dataclass(frozen=True)
class Job:
    argv: tuple  # qnmlp arguments without --out
    fits: tuple


def _compare_jobs(seed: int, extra: tuple) -> list:
    return [Job(("compare", "--function", fn, "--seed", str(seed), *extra),
                (Fit(f"{fn}/gd/{seed}", "history_gd.csv", "report.txt", "gd_"),
                 Fit(f"{fn}/bfgs/{seed}", "history_bfgs.csv", "report.txt", "bfgs_")))
            for fn in FUNCTIONS]


def _train_jobs(seed: int, extra: tuple) -> list:
    return [Job(("train", "--function", fn, "--optimizer", "bfgs", "--seed", str(seed), *extra),
                (Fit(f"{fn}/bfgs/{seed}", "history.csv", "report.txt", ""),))
            for fn in FUNCTIONS]


def _bench_jobs(seeds, extra: tuple) -> list:
    return [Job(("bench", "--optimizer", "bfgs", "--seed", str(seed), *extra),
                tuple(Fit(f"{fn}/bfgs/{seed}", f"{fn}/history.csv", f"{fn}/report.txt", "")
                      for fn in FUNCTIONS))
            for seed in seeds]


@dataclass(frozen=True)
class Workload:
    name: str
    # Seams every round of this workload must call; one that is wrapped but never
    # called means the program stopped looking the function up there.
    seams: tuple

    def jobs(self, block: int, tiny: bool = False) -> list:
        extra = TINY_FLAGS if tiny else ()
        if self.name == "compare-short":
            return _compare_jobs(block, COMPARE_FLAGS + extra)
        if self.name == "bfgs-sweep":
            count = 2 if tiny else SWEEP_SEEDS
            return _bench_jobs(range(block * SWEEP_SEEDS, block * SWEEP_SEEDS + count), SWEEP_FLAGS + extra)
        return _train_jobs(block, WIDE_FLAGS + extra)


_BFGS_SEAMS = ("cli.main", "bench.sample_dataset", "optim.bfgs_minimize", "optim.objective_eval",
               "optim.wolfe_line_search", "optim.bfgs_update_inv_hessian", "mlp.with_params",
               "mlp.loss_and_grad", "mlp.loss_mse", "linalg")

# Why each workload was chosen, and what it stresses and bypasses, is in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w for w in (
        Workload("compare-short", _BFGS_SEAMS + ("bench.run_comparison", "optim.gd_train")),
        Workload("bfgs-sweep", _BFGS_SEAMS + ("bench.run_benchmark",)),
        Workload("bfgs-wide", _BFGS_SEAMS + ("bench.run_benchmark",)),
    )
}


@dataclass
class FitOutcome:
    key: str
    exit_code: object  # int, or None when the job raised
    status: str
    test_error_pct: float
    history: bytes
    problems: list


@dataclass
class Round:
    job_seconds: list  # time of each job's qnmlp.cli.main call, in job order
    fits: list  # FitOutcome, in job order
    files_written: int
    bytes_written: int

    @property
    def seconds(self) -> float:
        return sum(self.job_seconds)


def _read_keyvalues(path: Path) -> dict:
    pairs = {}
    for line in path.read_text().splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            pairs[key.strip()] = value.strip()
    return pairs


def _last_test_error(history: bytes) -> float:
    header, *rows = history.decode().strip().splitlines()
    column = header.split(",").index("test_error_pct")
    return float(rows[-1].split(",")[column])


def _collect(job: Job, out: Path, exit_code) -> list:
    outcomes = []
    for fit in job.fits:
        problems = []
        status, test_error, history = "", math.nan, b""
        if exit_code != 0:
            problems.append(f"exit code {exit_code}")
        try:
            report = _read_keyvalues(out / fit.report)
            history = (out / fit.history).read_bytes()
            status = report[f"{fit.prefix}status"]
            test_error = float(report[f"{fit.prefix}test_error_pct"])
            last = _last_test_error(history)
        except (OSError, KeyError, ValueError, IndexError) as err:
            problems.append(f"unreadable output: {err!r}")
        else:
            if status not in OK_STATUSES:
                problems.append(f"status {status!r}")
            if not math.isclose(last, test_error, rel_tol=1e-12, abs_tol=0.0):
                problems.append(f"history ends at test error {last!r}, report says {test_error!r}")
        outcomes.append(FitOutcome(fit.key, exit_code, status, test_error, history, problems))
    return outcomes


def run_round(jobs: list, out_dir: Path, after_job=None) -> Round:
    """Run every job once through ``qnmlp.cli.main`` and read back what it wrote.

    ``main`` is looked up on the module at each call, so an installed tracer
    wrapper is used. Only the ``main`` calls are timed; ``after_job()`` runs
    untimed after each one.
    """
    cli = sys.modules["qnmlp.cli"]
    job_seconds = []
    fits = []
    for index, job in enumerate(jobs):
        out = out_dir / f"job{index}"
        argv = [*job.argv, "--out", str(out)]
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                exit_code = cli.main(argv)
        except Exception:
            traceback.print_exc()
            exit_code = None
        job_seconds.append(time.perf_counter() - start)
        fits.extend(_collect(job, out, exit_code))
        if after_job is not None:
            after_job()
    files = [p for p in out_dir.rglob("*") if p.is_file()]
    return Round(job_seconds, fits, len(files), sum(p.stat().st_size for p in files))


def load_reference(workload: str, block: int) -> dict:
    path = REFERENCE_DIR / f"{workload}.json"
    return json.loads(path.read_text())["blocks"][str(block)]


def optimizer_of(key: str) -> str:
    return key.split("/")[1]


def within_reference(key: str, test_error_pct: float, reference_pct: float) -> bool:
    if optimizer_of(key) == "gd":
        return math.isclose(test_error_pct, reference_pct, rel_tol=GD_ERROR_REL_TOL, abs_tol=0.0)
    return reference_pct / BFGS_ERROR_FACTOR <= test_error_pct <= reference_pct * BFGS_ERROR_FACTOR


def gate(outcome: FitOutcome, reference: dict, first_history) -> list:
    """Every reason this fit fails the correctness gate; empty when it passes.

    ``first_history`` is the fit's history.csv from the first round, which
    every later round and the traced round must reproduce byte for byte.
    """
    problems = list(outcome.problems)
    if outcome.exit_code == 0 and not outcome.problems:
        ref = reference.get(outcome.key)
        if ref is None:
            problems.append("no reference test error recorded")
        elif not within_reference(outcome.key, outcome.test_error_pct, ref):
            problems.append(f"test error {outcome.test_error_pct!r} pct is outside the band around "
                            f"the reference {ref!r} pct")
    if first_history is not None and outcome.history != first_history:
        problems.append("history.csv differs from the first round's")
    return problems


def clear(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
