"""Outside-in tracer for qnmlp: wraps public functions where the program looks them up.

A seam is one layer function plus the module attributes through which the
program calls it (``qnmlp.optim.loss_and_grad`` is where both trainers find
the MLP's objective). Inside ``with Tracer() as t:`` every such attribute
holds a wrapper that counts calls, busy time (wall time inside the call) and
self time (busy time minus the busy time of wrapped calls made inside it).
Observers read a call's arguments and result to derive counters such as GD
row steps or line-search evaluations, without touching the program's code.

A seam whose attribute no longer exists, or whose observer cannot read the
call any more, is reported in ``Tracer.missing`` with the reason: the metrics
built on it are then absent, never silently 0. Leaving the ``with`` block puts
every original function back and checks that no wrapper is left.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

MARKER = "_perfbench_seam"


@dataclass
class Stat:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    raised: int = 0
    counters: dict = field(default_factory=dict)

    def add(self, key: str, amount) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount


# --- observers: (stat, bound arguments, result) -> None -------------------------------------


def _observe_gd_train(stat: Stat, args, result) -> None:
    cfg = args.arguments["cfg"]
    _, minimize_result = result
    if cfg.mode == "online":
        n_train = args.arguments["data"].rows("train")[0].shape[0]
        stat.add("row_steps", minimize_result.iters * n_train)


def _observe_bfgs_minimize(stat: Stat, args, result) -> None:
    stat.add("iters", result.iters)
    stat.add("skipped_updates", result.n_skipped_updates)


def _observe_line_search(stat: Stat, args, result) -> None:
    alpha, _f, _g, evals = result
    stat.add("accepted", 1)
    stat.add("evals", evals)
    stat.add("unit_steps", 1 if alpha == 1.0 else 0)


def _observe_line_search_error(stat: Stat, args, exc: BaseException) -> None:
    stat.add("evals", getattr(exc, "evals", 0))


@dataclass(frozen=True)
class Seam:
    """One traced layer function and the attributes through which it is called."""

    name: str
    sites: tuple  # ("module", "attribute") pairs; "Class.method" wraps a method on its class
    observe: Optional[Callable] = None
    observe_error: Optional[Callable] = None


def _linalg_sites() -> tuple:
    module = sys.modules.get("qnmlp.linalg")
    return tuple(("qnmlp.linalg", name) for name in getattr(module, "__all__", ())
                 if callable(getattr(module, name, None)))


def default_seams() -> tuple:
    """The seams of the five layers, at the names where the workloads' calls look them up."""
    return (
        Seam("cli.main", (("qnmlp.cli", "main"),)),
        Seam("bench.run_benchmark", (("qnmlp.cli", "run_benchmark"),)),
        Seam("bench.run_comparison", (("qnmlp.cli", "run_comparison"),)),
        Seam("bench.sample_dataset", (("qnmlp.bench", "sample_dataset"),)),
        Seam("optim.gd_train", (("qnmlp.bench", "gd_train"),), _observe_gd_train),
        Seam("optim.bfgs_minimize", (("qnmlp.optim", "bfgs_minimize"),), _observe_bfgs_minimize),
        Seam("optim.wolfe_line_search", (("qnmlp.optim", "wolfe_line_search"),),
             _observe_line_search, _observe_line_search_error),
        Seam("optim.bfgs_update_inv_hessian", (("qnmlp.optim", "bfgs_update_inv_hessian"),)),
        # The objective closure's overhead, so that it leaves line-search and bookkeeping self time.
        Seam("optim.objective_eval", (("qnmlp.optim", "Objective.eval"),)),
        Seam("mlp.with_params", (("qnmlp.mlp", "Network.with_params"),)),
        Seam("mlp.loss_and_grad", (("qnmlp.optim", "loss_and_grad"),)),
        Seam("mlp.loss_mse", (("qnmlp.optim", "loss_mse"), ("qnmlp.bench", "loss_mse"))),
        Seam("linalg", _linalg_sites()),
    )


def installed_wrappers() -> list:
    """Every ``module.attribute`` or ``module.Class.method`` under qnmlp holding a tracer wrapper."""
    found = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "qnmlp" and not mod_name.startswith("qnmlp."):
            continue
        for attr, value in vars(module).items():
            if hasattr(value, MARKER):
                found.append(f"{mod_name}.{attr}")
            elif isinstance(value, type) and value.__module__ == mod_name:
                found.extend(f"{mod_name}.{attr}.{name}" for name, member in vars(value).items()
                             if hasattr(member, MARKER))
    return sorted(found)


def assert_clean() -> None:
    left = installed_wrappers()
    if left:
        raise RuntimeError(f"tracer wrappers are still installed: {', '.join(left)}")


class Tracer:
    """Context manager that installs the seam wrappers and restores the originals on exit."""

    def __init__(self, seams=None):
        self.seams = default_seams() if seams is None else tuple(seams)
        self.stats = {seam.name: Stat() for seam in self.seams}
        self.missing: dict = {}
        self._installed: list = []  # (module, attribute, original)
        self._stack: list = []  # child busy time of each active wrapped call

    def __enter__(self) -> "Tracer":
        assert_clean()
        try:
            for seam in self.seams:
                self._install(seam)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self._restore()
        assert_clean()

    def _install(self, seam: Seam) -> None:
        resolved = []
        for mod_name, path in seam.sites:
            try:
                owner = importlib.import_module(mod_name)
            except ImportError as err:
                self.missing[seam.name] = f"cannot import {mod_name}: {err}"
                return
            *outer, attr = path.split(".")
            for name in outer:
                owner = getattr(owner, name, None)
            # getattr_static: a method must be put back as it was stored on its class.
            original = inspect.getattr_static(owner, attr, None) if owner is not None else None
            if not (inspect.isfunction(original) if isinstance(owner, type) else callable(original)):
                self.missing[seam.name] = f"{mod_name}.{path} no longer exists or is not a function"
                return
            resolved.append((owner, attr, original))
        if not resolved:
            self.missing[seam.name] = "no call sites found"
            return
        for owner, attr, original in resolved:
            setattr(owner, attr, self._wrap(seam, original))
            self._installed.append((owner, attr, original))

    def _restore(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _wrap(self, seam: Seam, fn):
        stat = self.stats[seam.name]
        stack = self._stack
        clock = time.perf_counter
        signature = inspect.signature(fn) if seam.observe is not None else None
        missing = self.missing

        def observe(observer, *payload):
            try:
                observer(stat, *payload)
            except Exception as err:  # the program changed shape under the observer
                missing.setdefault(seam.name, f"observer cannot read {fn.__module__}.{fn.__name__}: {err!r}")

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                stat.raised += 1
                if seam.observe_error is not None:
                    observe(seam.observe_error, None, exc)
                raise
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stat.calls += 1
                stat.busy_s += elapsed
                stat.self_s += elapsed - child
                if stack:
                    stack[-1] += elapsed
            if seam.observe is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                except TypeError as err:
                    missing.setdefault(seam.name, f"cannot bind arguments of {fn.__name__}: {err}")
                else:
                    observe(seam.observe, bound, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", seam.name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        setattr(wrapper, MARKER, seam.name)
        return wrapper
