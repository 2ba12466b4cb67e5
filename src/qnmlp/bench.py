"""Beale/Booth function-approximation benchmark.

Samples a 2-D test surface uniformly over its domain, trains the
perceptron with either optimizer on the normalized targets, and reports
errors as percentages (100 x normalized-target MSE). ``run_comparison``
trains both optimizers from the same dataset and the same initial
weights so the two reports differ only in the optimizer.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .mlp import Dataset, Network, Topology, _Pass, _store_count, _Unchecked, init_params, loss_mse
from .optim import (
    GdConfig,
    Objective,
    StopCriteria,
    WolfeConfig,
    bfgs_train,
    gd_train,
)

__all__ = [
    "beale",
    "beale_grad",
    "beale_objective",
    "booth",
    "booth_grad",
    "booth_objective",
    "BenchFunction",
    "BEALE",
    "BOOTH",
    "FUNCTIONS",
    "get_function",
    "BenchConfig",
    "TrainReport",
    "sample_dataset",
    "error_percent",
    "run_benchmark",
    "run_comparison",
]


def beale(x0, x1):
    """Beale surface; global minimum 0 at (3, 0.5)."""
    r1 = 1.5 - x0 + x0 * x1
    r2 = 2.25 - x0 + x0 * x1**2
    r3 = 2.625 - x0 + x0 * x1**3
    return r1 * r1 + r2 * r2 + r3 * r3


def beale_grad(x0, x1) -> np.ndarray:
    r1 = 1.5 - x0 + x0 * x1
    r2 = 2.25 - x0 + x0 * x1**2
    r3 = 2.625 - x0 + x0 * x1**3
    g0 = 2.0 * (r1 * (x1 - 1.0) + r2 * (x1**2 - 1.0) + r3 * (x1**3 - 1.0))
    g1 = 2.0 * x0 * (r1 + 2.0 * r2 * x1 + 3.0 * r3 * x1**2)
    return np.array([g0, g1])


def booth(x0, x1):
    """Booth surface; global minimum 0 at (1, 3)."""
    r1 = x0 + 2.0 * x1 - 7.0
    r2 = 2.0 * x0 + x1 - 5.0
    return r1 * r1 + r2 * r2


def booth_grad(x0, x1) -> np.ndarray:
    r1 = x0 + 2.0 * x1 - 7.0
    r2 = 2.0 * x0 + x1 - 5.0
    return np.array([2.0 * r1 + 4.0 * r2, 4.0 * r1 + 2.0 * r2])


def beale_objective() -> Objective:
    """Beale as a directly minimizable (value, gradient) objective."""
    return Objective(lambda x: (float(beale(x[0], x[1])), beale_grad(x[0], x[1])), 2)


def booth_objective() -> Objective:
    """Booth as a directly minimizable (value, gradient) objective."""
    return Objective(lambda x: (float(booth(x[0], x[1])), booth_grad(x[0], x[1])), 2)


@dataclass(frozen=True)
class BenchFunction:
    """A named 2-D test surface with its square sampling domain."""

    name: str
    domain_lo: float
    domain_hi: float
    eval: Callable

    def __post_init__(self):
        if not self.domain_lo < self.domain_hi:
            raise ValueError(f"domain_lo must be < domain_hi, got [{self.domain_lo}, {self.domain_hi}]")


BEALE = BenchFunction("beale", -4.5, 4.5, beale)
BOOTH = BenchFunction("booth", -10.0, 10.0, booth)
FUNCTIONS = {"beale": BEALE, "booth": BOOTH}


def get_function(name: str) -> BenchFunction:
    try:
        return FUNCTIONS[name]
    except KeyError:
        raise ValueError(f"unknown function {name!r}; choose from {sorted(FUNCTIONS)}") from None


@dataclass(frozen=True)
class BenchConfig:
    function: BenchFunction
    n_samples: int = 500
    train_fraction: float = 0.8
    seed: int = 42
    hidden: int = 10
    optimizer: str = "bfgs"
    gd: GdConfig = field(default_factory=GdConfig)
    stop: StopCriteria = field(default_factory=StopCriteria)
    wolfe: WolfeConfig = field(default_factory=WolfeConfig)

    def __post_init__(self):
        for name in ("n_samples", "seed", "hidden"):
            _store_count(self, name)
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(f"train_fraction must be in (0, 1), got {self.train_fraction}")
        split_index = _split_index(self.n_samples, self.train_fraction)
        if self.hidden < 1:
            raise ValueError(f"hidden must be >= 1, got {self.hidden}")
        if self.optimizer not in ("gd", "bfgs"):
            raise ValueError(f"optimizer must be 'gd' or 'bfgs', got {self.optimizer!r}")
        # The run's largest arrays, counted in Python integers before any is allocated: the
        # dataset (two inputs and a target per row), each partition's loss workspace and
        # BFGS's inverse Hessian.
        topology = Topology(2, self.hidden)
        needed = (24 * self.n_samples + _Pass.nbytes(topology, split_index)
                  + _Pass.nbytes(topology, self.n_samples - split_index)
                  + (8 * topology.n_params**2 if self.optimizer == "bfgs" else 0))
        available = _physical_memory()
        if needed > available:
            raise ValueError(f"this run needs {needed} bytes for its largest arrays, "
                             f"more than the {available} bytes of physical memory")


def _physical_memory() -> int:
    """Bytes of physical memory on this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


@dataclass
class TrainReport:
    train_error_pct: float
    test_error_pct: float
    iterations: int
    wall_clock_s: float
    history: list  # (iter, train_error_pct, test_error_pct, grad_norm)
    status: str
    init_params_hash: str

    def __post_init__(self):
        if not self.history:
            raise ValueError("history must not be empty")
        if not (np.isfinite(self.train_error_pct) and np.isfinite(self.test_error_pct)):
            raise ValueError("error percentages must be finite")


def _split_index(n: int, train_fraction: float) -> int:
    """Number of training rows among n samples; both partitions must be non-empty."""
    if n < 10:
        raise ValueError(f"need at least 10 samples, got {n}")
    split_index = int(round(train_fraction * n))
    if not 1 <= split_index < n:
        raise ValueError(f"train_fraction {train_fraction} gives a degenerate split for {n} rows")
    return split_index


def sample_dataset(fn: BenchFunction, n: int, train_fraction: float, seed: int) -> Dataset:
    """n uniform domain points, normalized targets, seeded shuffle and split."""
    split_index = _split_index(n, train_fraction)
    rng = np.random.default_rng(seed)
    inputs = rng.uniform(fn.domain_lo, fn.domain_hi, size=(n, 2))
    raw = fn.eval(inputs[:, 0], inputs[:, 1])
    order = rng.permutation(n)
    return Dataset.from_samples(inputs[order], raw[order], split_index)


def error_percent(net: Network, data: Dataset, rows: str) -> float:
    """100 x mean squared error on normalized targets."""
    return 100.0 * loss_mse(net, data, rows)


def _params_hash(params: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(params, dtype=np.float64).tobytes()).hexdigest()


def _train_and_report(net0: Network, data: Dataset, cfg: BenchConfig) -> TrainReport:
    history = []

    def record(iteration, params, train_mse, grad_norm):
        test_pct = error_percent(_Unchecked(net0.topology, params), data, "test")
        history.append((iteration, 100.0 * train_mse, test_pct, grad_norm))

    start = time.perf_counter()
    if cfg.optimizer == "gd":
        _, result = gd_train(net0, data, cfg.gd, callback=record)
    else:
        _, result = bfgs_train(net0, data, cfg.stop, cfg.wolfe, callback=record)
    wall_clock = time.perf_counter() - start
    return TrainReport(
        train_error_pct=100.0 * result.f_final,
        test_error_pct=history[-1][2],
        iterations=result.iters,
        wall_clock_s=wall_clock,
        history=history,
        status=result.status,
        init_params_hash=_params_hash(net0.params),
    )


def _setup(cfg: BenchConfig):
    """The dataset and the initial network that a run of cfg starts from."""
    data = sample_dataset(cfg.function, cfg.n_samples, cfg.train_fraction, cfg.seed)
    topology = Topology(2, cfg.hidden, 1)
    return data, Network(topology, init_params(topology, cfg.seed))


def run_benchmark(cfg: BenchConfig) -> TrainReport:
    """Sample, train with the configured optimizer, time it, report."""
    data, net0 = _setup(cfg)
    return _train_and_report(net0, data, cfg)


def run_comparison(function: BenchFunction, seed: int, **settings):
    """Train GD and BFGS from identical data and identical initial weights.

    ``settings`` are ``BenchConfig``'s other fields, by the same names
    and with the same defaults. An ``optimizer`` among them is validated
    and then replaced: by ``gd`` for the first fit, by ``bfgs`` for the
    second. Returns (gd_report, bfgs_report).
    """
    cfg = BenchConfig(function, seed=seed, **settings)
    fits = [replace(cfg, optimizer=optimizer) for optimizer in ("gd", "bfgs")]  # memory-checked before sampling
    data, net0 = _setup(cfg)
    return tuple(_train_and_report(net0, data, fit) for fit in fits)
