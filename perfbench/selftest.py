"""Self-test of the benchmark harness at reduced size; runs in seconds.

    python3 perfbench/selftest.py

Run from the root of a qnmlp checkout. For every workload it runs a tiny
untraced and a tiny traced invocation and checks that each metric named in
``BENCHMARK.json`` is emitted with its unit. It then checks that the gate
rejects a tampered history and an out-of-band test error, that the tracer
reports a vanished seam as missing (not 0) and restores every original, and
that an untraced run refuses to start while a wrapper is installed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run
import tracer
import workloads as wl

failures = []


def check(condition: bool, message: str) -> None:
    if not condition:
        failures.append(message)
        print(f"FAIL {message}", file=sys.stderr)


def _emitted(result: dict, declared: list, label: str) -> None:
    units = {m["name"]: m["unit"] for m in declared}
    check(set(result["metrics"]) == set(units),
          f"{label}: metrics {sorted(result['metrics'])} != declared {sorted(units)}")
    for name, metric in result["metrics"].items():
        check(metric.get("unit") == units.get(name), f"{label}: {name} has unit {metric.get('unit')!r}")
        check(isinstance(metric.get("value"), (int, float)), f"{label}: {name} is not a number")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          f"{label}: correct={result['correct']} failed={result['failed']} problems={result['problems']}")


def check_workloads(root: Path, spec: dict) -> None:
    for name, workload in wl.WORKLOADS.items():
        ref_round = wl.run_round(workload.jobs(0, tiny=True), root / run.RUNS_DIR / "selftest")
        wl.clear(root / run.RUNS_DIR / "selftest")
        reference = {fit.key: fit.test_error_pct for fit in ref_round.fits}
        for trace, declared in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            setup = run.SetupClock(root / "src", bursts=1, burst=1)
            result = run.run(workload, 0, 0.01, trace, root, setup, tiny=True, reference=reference)
            _emitted(result, declared, f"{name} trace={int(trace)}")
            check(not tracer.installed_wrappers(), f"{name}: wrappers left after the run")


def check_gate(root: Path) -> None:
    job = wl.WORKLOADS["bfgs-sweep"].jobs(0, tiny=True)[0]
    out = root / run.RUNS_DIR / "selftest-gate"
    try:
        round_ = wl.run_round([job], out)
        fit = round_.fits[0]
        reference = {f.key: f.test_error_pct for f in round_.fits}
        check(wl.gate(fit, reference, fit.history) == [], f"gate rejects an untouched fit: {fit.problems}")

        history = out / "job0" / job.fits[0].history
        lines = history.read_text().splitlines()
        lines[-1] = lines[-1].replace(",", ",9", 2)  # corrupt the last row's test error
        history.write_text("\n".join(lines) + "\n")
        tampered = wl._collect(job, out / "job0", 0)[0]
        check(wl.gate(tampered, reference, fit.history) != [], "gate accepts a tampered history")

        far = {fit.key: fit.test_error_pct * 2 * wl.BFGS_ERROR_FACTOR}
        check(wl.gate(fit, far, None) != [], "gate accepts a BFGS test error far from its reference")
        check(not wl.within_reference("beale/gd/0", 1.0, 1.0 + 1e3 * wl.GD_ERROR_REL_TOL),
              "gate accepts a GD test error off its reference by more than the GD tolerance")
        check(wl.gate(fit, {}, None) != [], "gate accepts a fit without a reference")
    finally:
        wl.clear(out)


def check_tracer() -> None:
    optim = sys.modules["qnmlp.optim"]
    original = optim.loss_and_grad
    gone = tracer.Seam("mlp.loss_and_grad", (("qnmlp.optim", "loss_and_grad_renamed"),))
    kept = tracer.Seam("optim.wolfe_line_search", (("qnmlp.optim", "wolfe_line_search"),))
    with tracer.Tracer([gone, kept]) as t:
        check(hasattr(optim.wolfe_line_search, tracer.MARKER), "kept seam is not wrapped")
    check("mlp.loss_and_grad" in t.missing and "loss_and_grad_renamed" in t.missing["mlp.loss_and_grad"],
          f"vanished seam not reported: {t.missing}")
    check(optim.loss_and_grad is original and not tracer.installed_wrappers(), "originals not restored")
    empty = wl.Round([1.0], [], 0, 0)
    metrics, missing = run.layer_metrics(t, empty, 1.0)
    check("mlp.loss_and_grad.calls" not in metrics and "mlp.loss_and_grad.calls" in missing,
          "a metric on a vanished seam is emitted instead of reported missing")

    network = sys.modules["qnmlp.mlp"].Network
    method = vars(network)["with_params"]
    gone_method = tracer.Seam("mlp.with_params", (("qnmlp.mlp", "Network.with_params_renamed"),))
    kept_method = tracer.Seam("mlp.with_params", (("qnmlp.mlp", "Network.with_params"),))
    with tracer.Tracer([kept_method]):
        check(tracer.installed_wrappers() == ["qnmlp.mlp.Network.with_params"],
              f"a wrapped method is not detected: {tracer.installed_wrappers()}")
    check(vars(network)["with_params"] is method, "original method not restored")
    with tracer.Tracer([gone_method]) as t:
        pass
    check("with_params_renamed" in t.missing.get("mlp.with_params", ""), f"vanished method not reported: {t.missing}")

    optim.loss_and_grad = tracer.Tracer()._wrap(gone, original)
    try:
        tracer.assert_clean()
        check(False, "an installed wrapper is not detected")
    except RuntimeError:
        pass
    finally:
        optim.loss_and_grad = original


def main() -> int:
    root = Path.cwd()
    run.import_program(root / "src")
    spec = json.loads((root / "BENCHMARK.json").read_text())
    try:
        check_workloads(root, spec)
        check_gate(root)
        check_tracer()
    finally:
        wl.clear(root / run.RUNS_DIR / "selftest")
        try:
            (root / run.RUNS_DIR).rmdir()
        except OSError:
            pass
    print(f"selftest: {'ok' if not failures else f'{len(failures)} failure(s)'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
