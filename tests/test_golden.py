"""Golden traces: the byte-exact outputs of four small training runs.

Each case runs ``qnmlp train`` for one of {beale, booth} x {gd, bfgs} at
``--samples 60 --hidden 6`` with short epoch and iteration budgets, and
compares its ``history.csv`` and its ``report.txt`` (without the
``wall_clock_s`` line) byte for byte with the files under
``tests/golden/<function>_<optimizer>/``. A missing golden file fails the
test; the test never writes one.

A change that is meant to move these bytes re-blesses them with

    PYTHONPATH=src python3 tests/test_golden.py

and says in CHANGES.md which bytes moved and why.
"""

import tempfile
from pathlib import Path

import pytest

from qnmlp.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = [(function, optimizer) for function in ("beale", "booth") for optimizer in ("gd", "bfgs")]
FLAGS = ["--samples", "60", "--hidden", "6", "--seed", "42", "--epochs", "25", "--max-iters", "40"]
TIMED_KEY = b"wall_clock_s ="


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


if __name__ == "__main__":
    for function, optimizer in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            outputs = run_case(function, optimizer, Path(tmp))
        target = GOLDEN / f"{function}_{optimizer}"
        target.mkdir(parents=True, exist_ok=True)
        for name, data in outputs.items():
            (target / name).write_bytes(data)
        print(f"blessed {target}")
