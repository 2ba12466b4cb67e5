"""Golden traces: the byte-exact outputs of four small training runs, and
the digests of eight workload-sized jobs.

Each case runs ``qnmlp train`` for one of {beale, booth} x {gd, bfgs} at
``--samples 60 --hidden 6`` with short epoch and iteration budgets, and
compares its ``history.csv`` and its ``report.txt`` (without the
``wall_clock_s`` line) byte for byte with the files under
``tests/golden/<function>_<optimizer>/``. A missing golden file fails the
test; the test never writes one.

The goldens cover only hidden 6, 25 epochs and 40 iterations. ``JOBS`` are
the benchmark's workloads and the defaults at full size: ``compare`` cut
short and at defaults, BFGS at hidden 100, a ``bench`` sweep and an
overflowed GD run. Their 13 ``history*.csv`` files are checked by SHA-256
against ``tests/golden/history_sha256.txt``, in ``sha256sum`` format with
paths under one output directory per job.

A change that is meant to move these bytes re-blesses them with

    PYTHONPATH=src python3 tests/test_golden.py

and says in CHANGES.md which bytes moved and why.
"""

import hashlib
import tempfile
from pathlib import Path

import pytest

from qnmlp.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = [(function, optimizer) for function in ("beale", "booth") for optimizer in ("gd", "bfgs")]
FLAGS = ["--samples", "60", "--hidden", "6", "--seed", "42", "--epochs", "25", "--max-iters", "40"]
TIMED_KEY = b"wall_clock_s ="

JOBS = {
    **{f"compare-{function}-short": ["compare", "--function", function, "--seed", "3",
                                     "--epochs", "15", "--max-iters", "15"] for function in ("beale", "booth")},
    **{f"compare-{function}": ["compare", "--function", function, "--seed", "42"] for function in ("beale", "booth")},
    **{f"train-{function}-bfgs-wide": ["train", "--optimizer", "bfgs", "--function", function, "--seed", "3",
                                       "--hidden", "100", "--max-iters", "50"] for function in ("beale", "booth")},
    "bench-bfgs": ["bench", "--optimizer", "bfgs", "--max-iters", "200", "--seed", "7"],
    "train-beale-gd-overflow": ["train", "--function", "beale", "--optimizer", "gd", "--eta", "1e308",
                                "--epochs", "3"],
}
DIGESTS = GOLDEN / "history_sha256.txt"


def run_case(function, optimizer, out: Path) -> dict:
    """The traced outputs of one case, by golden file name."""
    code = main(["train", "--function", function, "--optimizer", optimizer, "--out", str(out)] + FLAGS)
    assert code == 0, f"{function}/{optimizer} exited with {code}"
    report = (out / "report.txt").read_bytes().splitlines(keepends=True)
    return {
        "history.csv": (out / "history.csv").read_bytes(),
        "report.txt": b"".join(line for line in report if not line.startswith(TIMED_KEY)),
    }


@pytest.mark.parametrize("function, optimizer", CASES, ids=[f"{f}-{o}" for f, o in CASES])
def test_matches_golden(tmp_path, function, optimizer):
    for name, data in run_case(function, optimizer, tmp_path).items():
        path = GOLDEN / f"{function}_{optimizer}" / name
        assert path.is_file(), f"golden file {path} is missing; the module docstring says how to bless it"
        assert data == path.read_bytes(), f"{path} differs from this run's output"


def job_digests(out: Path) -> dict:
    """Run every job into its own directory under out; the SHA-256 of each
    history*.csv written, by its path relative to out."""
    for job, argv in JOBS.items():
        main(argv + ["--out", str(out / job)])  # an exit code of 1 is a status; a missing file shows below
    return {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.rglob("history*.csv"))}


def test_job_histories_match_digests(tmp_path):
    assert DIGESTS.is_file(), f"digest list {DIGESTS} is missing; the module docstring says how to bless it"
    expected = dict(line.split("  ")[::-1] for line in DIGESTS.read_text().splitlines())
    produced = job_digests(tmp_path)
    for name in sorted(expected.keys() | produced.keys()):
        job, _, file = name.partition("/")
        assert produced.get(name) == expected.get(name), (
            f"job {job} ({' '.join(JOBS[job])}): {file} differs from {DIGESTS.name}; this run's files are in {tmp_path}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = job_digests(Path(tmp))
    DIGESTS.write_text("".join(f"{digest}  {name}\n" for name, digest in digests.items()))
    print(f"blessed {DIGESTS}")
    for function, optimizer in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            outputs = run_case(function, optimizer, Path(tmp))
        target = GOLDEN / f"{function}_{optimizer}"
        target.mkdir(parents=True, exist_ok=True)
        for name, data in outputs.items():
            (target / name).write_bytes(data)
        print(f"blessed {target}")
