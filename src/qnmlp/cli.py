"""Command-line front end.

Subcommands: ``train`` (one function, one optimizer), ``bench`` (train
over both functions), ``compare`` (GD vs BFGS from shared initial
state), ``gradcheck`` (analytic-vs-finite-difference gradient suite).

Every computing run writes a ``manifest.txt`` whose plain ``key =
value`` lines are themselves a valid ``--config`` file, so re-running
from a manifest reproduces the numbers exactly. ``history.csv`` holds no
wall-clock fields and is byte-reproducible.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from functools import cache
from pathlib import Path

import numpy as np

from . import __version__
from .bench import FUNCTIONS, BenchConfig, TrainReport, get_function, run_benchmark, run_comparison
from .mlp import Dataset, Network, Topology, finite_diff_grad, grad_backprop, init_params, relative_error
from .optim import (
    GdConfig,
    KernelBuildError,
    StopCriteria,
    WolfeConfig,
    STATUS_DIVERGED,
    STATUS_LINE_SEARCH_FAILED,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2

HISTORY_HEADER = "iter,train_error_pct,test_error_pct,grad_norm"
COMPARISON_HEADER = "optimizer,train_error_pct,test_error_pct,iterations,wall_clock_s"

GRADCHECK_TOL = 1e-6

# The options of train, bench and compare, each a --flag and a config-file key: key -> (type, default).
OPTIONS = {
    "function": (str, None),  # required where it applies
    "optimizer": (str, None),  # required where it applies
    "hidden": (int, 10),
    "samples": (int, 500),
    "train_fraction": (float, 0.8),
    "seed": (int, 42),
    "eta": (float, 0.1),
    "epochs": (int, 500),
    "max_iters": (int, 500),
    "grad_tol": (float, 1e-5),
    "c1": (float, 1e-4),
    "c2": (float, 0.9),
    "out": (str, "./out"),
}
_CHOICES = {"function": tuple(FUNCTIONS), "optimizer": ("gd", "bfgs")}
DEFAULTS = {key: default for key, (_, default) in OPTIONS.items()}

# A '#' starts a config comment only at the start of a line or after whitespace,
# so a path such as out/run#1 reads back whole.
_COMMENT = re.compile(r"(?:^|\s)#")


class UsageError(Exception):
    """Bad flags or bad configuration; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _convert(key: str, value: str, where: str):
    kind = OPTIONS[key][0]
    try:
        return kind(value)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise UsageError(f"{where}: value {value!r} for {key!r} is not {noun}") from None


def _strip_comment(line: str) -> str:
    return _COMMENT.split(line, 1)[0].strip()


def parse_config(path, refused=()) -> dict:
    """Read ``key = value`` lines; unknown keys, keys in ``refused`` and a
    ``function`` or ``optimizer`` outside the CLI's choices fail.

    A ``#`` at the start of a line or after whitespace starts a comment.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as err:
        raise UsageError(f"cannot read config file {path}: {err}") from None
    options = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        body = _strip_comment(line)
        if not body:
            continue
        key, sep, value = body.partition("=")
        if not sep:
            raise UsageError(f"{path}, line {lineno}: expected 'key = value', got {line.strip()!r}")
        key, value = key.strip(), value.strip()
        where = f"{path}, line {lineno}"
        if key not in OPTIONS:
            raise UsageError(f"{where}: unknown key {key!r}")
        if key in refused:
            raise UsageError(f"{where}: key {key!r} does not apply to this subcommand")
        if key in _CHOICES and value not in _CHOICES[key]:
            raise UsageError(f"{where}: {key} {value!r} is not one of {', '.join(_CHOICES[key])}")
        options[key] = _convert(key, value, where)
    return options


def _resolve_options(args, required: tuple = (), refused: tuple = ()) -> dict:
    """Defaults, overridden by --config file entries, overridden by flags."""
    options = dict(DEFAULTS)
    config_path = getattr(args, "config", None)
    if config_path:
        options.update(parse_config(config_path, refused))
    for key in OPTIONS:
        value = getattr(args, key, None)
        if value is not None:
            options[key] = value
    for key in required:
        if options.get(key) is None:
            raise UsageError(f"missing required option --{key.replace('_', '-')}")
    return options


def _bench_config(options: dict, optimizer: str, function: str) -> BenchConfig:
    """The run's configuration; a value the config classes reject is a usage error."""
    try:
        return BenchConfig(
            function=get_function(function),
            n_samples=options["samples"],
            train_fraction=options["train_fraction"],
            seed=options["seed"],
            hidden=options["hidden"],
            optimizer=optimizer,
            gd=GdConfig(eta=options["eta"], epochs=options["epochs"]),
            stop=StopCriteria(grad_tol=options["grad_tol"], max_iters=options["max_iters"]),
            wolfe=WolfeConfig(c1=options["c1"], c2=options["c2"]),
        )
    except ValueError as err:
        raise UsageError(str(err)) from None


def _fmt(value) -> str:
    """Locale-free shortest round-trip decimal for a float."""
    return repr(float(value))


def _check_out(options: dict) -> None:
    """Refuse, before any fit, an --out directory that manifest.txt could not read back."""
    value = options["out"]
    line = f"out = {value}"  # as the manifest writes it
    if line.splitlines() != [line] or _strip_comment(line).partition("=")[2].strip() != value:
        raise UsageError(f"output directory {value!r} would not read back from manifest.txt unchanged: a '#' "
                         "at its start or after whitespace starts a comment, leading and trailing "
                         "whitespace is dropped, and a line break ends the line")


def _history_text(history) -> str:
    lines = [HISTORY_HEADER]
    for iteration, train_pct, test_pct, grad_norm in history:
        lines.append(f"{iteration},{_fmt(train_pct)},{_fmt(test_pct)},{_fmt(grad_norm)}")
    return "\n".join(lines) + "\n"


def _keyvalues_text(pairs) -> str:
    return "".join(f"{key} = {value}\n" for key, value in pairs)


def _manifest_text(subcommand: str, options: dict, artifacts) -> str:
    """Fully resolved configuration of one run, plus artifact metadata.

    Rendered as ``key = value`` lines with the metadata in ``#`` comments,
    so the file doubles as a ``--config`` input: re-running from it
    reproduces the numerical outputs exactly.
    """
    lines = [
        f"# qnmlp {__version__}",
        f"# subcommand = {subcommand}",
        f"# artifacts = {', '.join(artifacts)}",
    ]
    for key in sorted(OPTIONS):
        value = options.get(key)
        if value is None:
            continue
        lines.append(f"{key} = {_fmt(value) if isinstance(value, float) else value}")
    return "\n".join(lines) + "\n"


def _write_run(files: dict, subcommand: str, options: dict) -> None:
    """Write files (name -> text) and a manifest.txt that lists them into --out,
    creating it, once the run's fits are done: a failed run leaves no directory."""
    out = Path(options["out"])
    files = {**files, "manifest.txt": _manifest_text(subcommand, options, [*files, "manifest.txt"])}
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (out / name).write_text(text)
    except OSError as err:
        raise UsageError(f"output directory {out} is not writable: {err}") from None


def _fit_pairs(report: TrainReport, prefix: str = ""):
    """One fit's ``report.txt`` lines, each key led by ``prefix``."""
    return [
        (prefix + "status", report.status),
        (prefix + "iterations", report.iterations),
        (prefix + "train_error_pct", _fmt(report.train_error_pct)),
        (prefix + "test_error_pct", _fmt(report.test_error_pct)),
        (prefix + "wall_clock_s", _fmt(report.wall_clock_s)),
        (prefix + "init_params_hash", report.init_params_hash),
    ]


def _exit_for(report: TrainReport) -> int:
    return EXIT_NUMERICAL if report.status in (STATUS_LINE_SEARCH_FAILED, STATUS_DIVERGED) else EXIT_OK


def _write_train(options: dict, cfg: BenchConfig, report: TrainReport, subcommand: str) -> int:
    function, optimizer = cfg.function.name, cfg.optimizer
    pairs = [("function", function), ("optimizer", optimizer), ("seed", options["seed"])] + _fit_pairs(report)
    _write_run({"history.csv": _history_text(report.history), "report.txt": _keyvalues_text(pairs)},
               subcommand, dict(options, function=function, optimizer=optimizer))
    print(f"{function} [{optimizer}] status={report.status} iterations={report.iterations} "
          f"train_error_pct={report.train_error_pct:.6g} test_error_pct={report.test_error_pct:.6g}")
    return _exit_for(report)


def cmd_train(args) -> int:
    options = _resolve_options(args, required=("function", "optimizer"))
    cfg = _bench_config(options, options["optimizer"], options["function"])
    _check_out(options)
    return _write_train(options, cfg, run_benchmark(cfg), "train")


def cmd_bench(args) -> int:
    options = _resolve_options(args, required=("optimizer",))
    configs = [_bench_config(options, options["optimizer"], function) for function in FUNCTIONS]
    _check_out(options)
    reports = [run_benchmark(cfg) for cfg in configs]
    # joined, not normalized as Path would, so each directory reads back whenever --out does
    return max(_write_train(dict(options, out=os.path.join(options["out"], cfg.function.name)), cfg, report, "bench")
               for cfg, report in zip(configs, reports))


def cmd_compare(args) -> int:
    options = _resolve_options(args, required=("function",), refused=("optimizer",))
    cfg = _bench_config(options, "bfgs", options["function"])  # so the memory check counts BFGS's inverse Hessian
    _check_out(options)
    gd_report, bfgs_report = run_comparison(**vars(cfg))
    rows = [("gd", gd_report), ("bfgs", bfgs_report)]
    lines = [COMPARISON_HEADER]
    for name, report in rows:
        lines.append(f"{name},{_fmt(report.train_error_pct)},{_fmt(report.test_error_pct)},"
                     f"{report.iterations},{_fmt(report.wall_clock_s)}")
    pairs = [("function", options["function"]), ("seed", options["seed"])]
    for name, report in rows:
        pairs += _fit_pairs(report, f"{name}_")
    _write_run({"comparison.csv": "\n".join(lines) + "\n", "history_gd.csv": _history_text(gd_report.history),
                "history_bfgs.csv": _history_text(bfgs_report.history), "report.txt": _keyvalues_text(pairs)},
               "compare", options)

    print(f"{'optimizer':<10} {'train_error_pct':>16} {'test_error_pct':>15} {'iterations':>11} {'wall_clock_s':>13}")
    for name, report in rows:
        print(f"{name:<10} {report.train_error_pct:>16.6g} {report.test_error_pct:>15.6g} "
              f"{report.iterations:>11d} {report.wall_clock_s:>13.3f}")
    return max(_exit_for(gd_report), _exit_for(bfgs_report))


def _gradcheck_max_error(trials: int, seed: int, sabotage: bool = False) -> float:
    """Worst relative error between backprop and finite differences.

    Each trial draws a fresh 2-h-1 network (h cycling 1..5) and a fresh
    6-row dataset whose first 5 rows are the training selection. The
    sabotage hook flips the sign of the largest gradient coordinate so a
    broken comparison path is detectable; it is inert unless explicitly
    requested.
    """
    master = np.random.default_rng(seed)
    worst = 0.0
    for trial in range(trials):
        topology = Topology(2, (trial % 5) + 1, 1)
        net = Network(topology, init_params(topology, int(master.integers(2**31))))
        inputs = master.uniform(-1.0, 1.0, size=(6, 2))
        raw = master.uniform(0.0, 1.0, size=6)
        data = Dataset.from_samples(inputs, raw, split_index=5)
        grad = grad_backprop(net, data, "train")
        if sabotage:
            grad = grad.copy()
            flip = int(np.argmax(np.abs(grad)))
            grad[flip] = -grad[flip]
        oracle = finite_diff_grad(net, data, "train", step=1e-5)
        worst = max(worst, relative_error(grad, oracle))
    return worst


def cmd_gradcheck(args) -> int:
    if args.trials < 1:
        raise UsageError(f"--trials must be >= 1, got {args.trials}")
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    worst = _gradcheck_max_error(args.trials, args.seed, sabotage=args.sabotage)
    print(f"gradcheck: {args.trials} trials, max relative error {worst:.3e} (tolerance {GRADCHECK_TOL:g})")
    return EXIT_OK if worst <= GRADCHECK_TOL else EXIT_NUMERICAL


def _add_common_train_flags(p, omit=()) -> None:
    for key, (kind, _) in OPTIONS.items():
        if key not in omit:
            p.add_argument(f"--{key.replace('_', '-')}", type=kind, choices=_CHOICES.get(key))
    p.add_argument("--config", type=str)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qnmlp",
                     description="Train a one-hidden-layer perceptron on the Beale/Booth "
                                 "surfaces with gradient descent or BFGS and export the runs.")
    parser.add_argument("--version", action="version", version=f"qnmlp {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_train = sub.add_parser("train", help="train one optimizer on one function")
    _add_common_train_flags(p_train)
    p_train.set_defaults(handler=cmd_train)

    p_bench = sub.add_parser("bench", help="train on both functions")
    _add_common_train_flags(p_bench, omit=("function",))
    p_bench.set_defaults(handler=cmd_bench)

    p_compare = sub.add_parser("compare", help="train GD and BFGS from shared initial state")
    _add_common_train_flags(p_compare, omit=("optimizer",))
    p_compare.set_defaults(handler=cmd_compare)

    p_grad = sub.add_parser("gradcheck", help="check backprop against finite differences")
    p_grad.add_argument("--trials", type=int, default=20)
    p_grad.add_argument("--seed", type=int, default=DEFAULTS["seed"])
    p_grad.add_argument("--sabotage", action="store_true", help=argparse.SUPPRESS)
    p_grad.set_defaults(handler=cmd_gradcheck)

    return parser


# Building the parser costs about ten times what a parse does, so a process builds
# it once; a parse leaves no state in it, since _Parser.error raises.
_parser = cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowed network is a run's status, not a warning
            return args.handler(args)
    except (UsageError, KernelBuildError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
