"""The two trainers: per-example gradient descent and full-batch BFGS.

BFGS is exposed twice: ``bfgs_minimize`` works on any objective that
returns (value, gradient), and ``bfgs_train`` wraps the perceptron's
training loss as such an objective over the flat parameter vector. The
line search brackets then zooms until both strong Wolfe inequalities
hold, or, where f runs out of precision, the approximate ones; either
slope test keeps y.s > 0, which is what keeps every inverse-Hessian
update positive definite.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from functools import cache
from math import exp, isfinite, sqrt
from typing import Callable

import numpy as np

from . import linalg
# loss_mse is unused here; perfbench/tracer.py still lists qnmlp.optim.loss_mse as a seam site.
from .mlp import (Dataset, KernelBuildError, Network, _kernel_args, _kernels, _store_count, _Unchecked, loss_and_grad,
                  loss_mse)

__all__ = [
    "STATUS_CONVERGED_GRAD",
    "STATUS_MAX_ITERS",
    "STATUS_LINE_SEARCH_FAILED",
    "STATUS_DIVERGED",
    "CURVATURE_FLOOR",
    "ALPHA_MAX",
    "MAX_ZOOM_STEPS",
    "APPROX_WOLFE_EPS",
    "CurvatureError",
    "KernelBuildError",
    "LineSearchError",
    "NotDescentError",
    "Objective",
    "GdConfig",
    "WolfeConfig",
    "StopCriteria",
    "StepRecord",
    "MinimizeResult",
    "wolfe_line_search",
    "bfgs_update_inv_hessian",
    "bfgs_update_hessian",
    "bfgs_minimize",
    "bfgs_train",
    "gd_train",
]

STATUS_CONVERGED_GRAD = "converged_grad"
STATUS_MAX_ITERS = "max_iters"
STATUS_LINE_SEARCH_FAILED = "line_search_failed"
STATUS_DIVERGED = "diverged"  # gradient descent only: the loss or a parameter went non-finite

# The inverse-Hessian update refuses a pair with y.s <= floor * |y| * |s|,
# and bfgs_minimize then skips it: skipping (rather than damping) keeps
# plain BFGS semantics.
CURVATURE_FLOOR = 1e-10

# The line search doubles its step from 1.0 to this cap (the 11th trial) and zooms in at
# most this many trials; a zoom that runs out may take f <= f0 + APPROX_WOLFE_EPS * |f0|.
ALPHA_MAX = 1e3
MAX_ZOOM_STEPS = 30
APPROX_WOLFE_EPS = 1e-6


class CurvatureError(ValueError):
    """An (s, y) pair violates the curvature condition y.s > 0 (or, for
    the inverse update, y.s > CURVATURE_FLOOR * |y| * |s|)."""


class LineSearchError(RuntimeError):
    """No strong-Wolfe step below the step cap, or no Wolfe step within the zoom budget.

    Carries ``evals``, the objective calls the failed search made.
    """

    def __init__(self, message: str, evals: int):
        super().__init__(message)
        self.evals = evals


class NotDescentError(LineSearchError, ValueError):
    """The search direction is not a descent direction: g.p is not < 0.

    A ValueError for a caller of ``wolfe_line_search``; a failed search,
    with no trial made, for ``bfgs_minimize``.
    """


@dataclass(frozen=True)
class Objective:
    """Deterministic objective: fun(x) -> (value, gradient of length dim)."""

    fun: Callable[[np.ndarray], tuple]
    dim: int

    def eval(self, x: np.ndarray):
        f, g = self.fun(x)
        g = np.asarray(g, dtype=np.float64)
        if g.shape != (self.dim,):
            raise ValueError(f"objective returned gradient of shape {g.shape}, expected ({self.dim},)")
        return float(f), g


@dataclass(frozen=True)
class GdConfig:
    """Gradient-descent settings: step size and epoch count; every epoch
    updates after each training example."""

    eta: float = 0.1
    epochs: int = 500
    # Not a field: perfbench/tracer.py reads it; it goes with ROADMAP item 1, as the loss_mse import does.
    mode = "online"

    def __post_init__(self):
        if not (self.eta > 0 and np.isfinite(self.eta)):
            raise ValueError(f"eta must be positive and finite, got {self.eta}")
        if _store_count(self, "epochs") < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")


@dataclass(frozen=True)
class WolfeConfig:
    """Strong-Wolfe constants (textbook quasi-Newton defaults), the only
    settable part of the line search: c1 for sufficient decrease, c2 for
    curvature."""

    c1: float = 1e-4
    c2: float = 0.9

    def __post_init__(self):
        if not 0.0 < self.c1 < self.c2 < 1.0:
            raise ValueError(f"need 0 < c1 < c2 < 1, got c1={self.c1}, c2={self.c2}")


@dataclass(frozen=True)
class StopCriteria:
    """Termination tests: |g| <= grad_tol (0 disables it) or max_iters iterations."""

    grad_tol: float = 1e-5
    max_iters: int = 500

    def __post_init__(self):
        if not self.grad_tol >= 0:
            raise ValueError(f"gradient tolerance must be >= 0, got grad_tol={self.grad_tol}")
        if _store_count(self, "max_iters") < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass(frozen=True)
class StepRecord:
    """One accepted line-search step, emitted for post-hoc verification."""

    iteration: int
    x: np.ndarray  # point before the step
    p: np.ndarray  # search direction
    alpha: float
    f: float  # value at x
    g: np.ndarray  # gradient at x
    f_new: float
    g_new: np.ndarray
    s: np.ndarray  # x_new - x
    y: np.ndarray  # g_new - g
    h_inv_after: np.ndarray
    update_skipped: bool


@dataclass
class MinimizeResult:
    x_final: np.ndarray
    f_final: float
    grad_norm_final: float
    iters: int
    status: str
    n_skipped_updates: int = 0
    n_fevals: int = 0  # objective calls, the start and every line-search trial included
    n_restarts: int = 0  # steepest-descent retries after a failed quasi-Newton search


def _quadratic_trial(lo: float, f_lo: float, d_lo: float, hi: float, f_hi: float) -> float:
    """Minimizer of the quadratic through (lo, f_lo, d_lo) and (hi, f_hi).

    Falls back to bisection when the fit is degenerate or the minimizer
    sits within 10% of either end of the (unordered) interval.
    """
    width = hi - lo
    mid = lo + 0.5 * width
    denom = 2.0 * (f_hi - f_lo - d_lo * width)
    if denom == 0.0 or not isfinite(denom):
        return mid
    trial = lo - d_lo * width * width / denom
    t = (trial - lo) / width
    if not isfinite(t) or not 0.1 <= t <= 0.9:
        return mid
    return trial


def wolfe_line_search(obj: Objective, x: np.ndarray, p: np.ndarray, f0: float,
                      g0: np.ndarray, cfg: WolfeConfig = WolfeConfig()):
    """Bracket-then-zoom search for a strong-Wolfe step along p.

    Returns (alpha, f_new, g_new, evals) with alpha satisfying both the
    sufficient-decrease and the absolute curvature inequality. The bracket
    starts at alpha = 1 and doubles up to ``ALPHA_MAX``. A zoom that runs out
    of its ``MAX_ZOOM_STEPS`` trials, where f can no longer resolve the
    decrease asked for, returns the first trial with the lowest finite f that
    meets the approximate, not the strong, Wolfe conditions (Hager and Zhang,
    SIAM J. Optim. 16(1), 2005, section 4): f <= f0 + ``APPROX_WOLFE_EPS`` |f0|
    and (2 c1 - 1) g0.p >= g.p >= -c2 |g0.p|.
    Raises NotDescentError (a ValueError) if g0.p is not negative, NaN
    included, and LineSearchError when the bracket reaches the cap or the
    zoom runs out with no such trial. A trial point that is not finite
    is a failed trial: the objective never sees it, and evals does not count
    it (an overflowed weight would saturate the sigmoid to a finite loss).
    The search is quiet as a whole: numpy's overflow and invalid-value
    warnings are off from the first trial to the return, inside the
    objective too, and the caller's error state is put back on the way out.
    """
    d0 = linalg.dot(g0, p)
    if not d0 < 0:
        raise NotDescentError(f"p is not a descent direction (g.p = {d0:g})", 0)

    trials = []  # (alpha, f, g, g.p) of each trial the objective evaluated, in order

    def trial_eval(alpha: float):
        trial = x + alpha * p  # under the search's error state: a non-finite trial fails below, quietly
        if not np.isfinite(trial).all():
            return np.nan, None, np.nan  # fails sufficient(), which is tested before g or its slope
        f, g = obj.eval(trial)
        trials.append((alpha, f, g, float(np.dot(g, p))))  # a slope of inf - inf is NaN and fails curvature()
        return trials[-1][1:]

    def sufficient(alpha: float, f: float) -> bool:
        return isfinite(f) and f <= f0 + cfg.c1 * alpha * d0

    def curvature(d: float) -> bool:
        return abs(d) <= cfg.c2 * abs(d0)

    def zoom(lo, f_lo, d_lo, hi, f_hi):
        for _ in range(MAX_ZOOM_STEPS):
            a = _quadratic_trial(lo, f_lo, d_lo, hi, f_hi)
            f_a, g_a, d_a = trial_eval(a)
            if not sufficient(a, f_a) or f_a >= f_lo:
                hi, f_hi = a, f_a
            else:
                if curvature(d_a):
                    return a, f_a, g_a, len(trials)
                if d_a * (hi - lo) >= 0:
                    hi, f_hi = lo, f_lo
                lo, f_lo, d_lo = a, f_a, d_a
        approx = [t[:3] for t in trials if isfinite(t[1]) and t[1] <= f0 + APPROX_WOLFE_EPS * abs(f0)
                  and (2 * cfg.c1 - 1) * d0 >= t[3] >= -cfg.c2 * abs(d0)]
        if approx:
            return (*min(approx, key=lambda t: t[1]), len(trials))
        raise LineSearchError("zoom budget exhausted without a Wolfe step", len(trials))

    a_prev, f_prev, d_prev = 0.0, f0, d0
    a = 1.0
    with np.errstate(over="ignore", invalid="ignore"):  # set once for the bracket and the zoom
        while True:
            f_a, g_a, d_a = trial_eval(a)
            if not sufficient(a, f_a) or (a_prev > 0 and f_a >= f_prev):
                return zoom(a_prev, f_prev, d_prev, a, f_a)
            if curvature(d_a):
                return a, f_a, g_a, len(trials)
            if d_a >= 0:
                return zoom(a, f_a, d_a, a_prev, f_prev)
            if a >= ALPHA_MAX:
                raise LineSearchError("step cap reached without a Wolfe step", len(trials))
            a_prev, f_prev, d_prev = a, f_a, d_a
            a = min(2.0 * a, ALPHA_MAX)


def bfgs_update_inv_hessian(h_inv: np.ndarray, s: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Rank-two inverse-Hessian update (I - rho s y^T) H (I - rho y s^T) + rho s s^T, in place.

    Computed in the expanded form (Nocedal & Wright, Numerical
    Optimization, eq. 6.17) H - rho (s (Hy)^T + (Hy) s^T)
    + (rho^2 y^T H y + rho) s s^T = H + u s^T + s u^T, with
    u = (rho^2 y^T H y + rho) / 2 * s - rho H y: one matrix-vector product,
    O(n^2). Entries (i, j) and (j, i) add the same two products, so a
    symmetric H gives an exactly symmetric result without a symmetrizing
    pass. Raises CurvatureError unless y.s > CURVATURE_FLOOR * |y| * |s|
    (so y.s > 0); the new matrix then satisfies the secant relation
    H' y = s and stays positive definite.

    h_inv, a writable, C-contiguous float64 array such as the np.eye that
    bfgs_minimize updates from I, is overwritten with the result and returned.
    Hy is formed first, by BLAS; the rank-two pass is then one compiled
    unit-stride loop, on a private copy of u and s, so s may be a view
    into H. Every entry is the textbook h_ij + (u_i s_j + s_i u_j), each
    product rounded before the add, sign of zero included. A refused pair,
    and an h_inv that is not a float64 array (TypeError) or not writable,
    aligned, C-contiguous and n x n (ValueError), raise before anything is
    written. The compiled kernels are built at their first use in a
    process; KernelBuildError is raised if they cannot be.
    """
    ys = linalg.dot(y, s)
    if not ys > CURVATURE_FLOOR * sqrt(np.dot(y, y)) * sqrt(np.dot(s, s)):
        raise CurvatureError(f"curvature condition violated: y.s = {ys:g}")
    rho = 1.0 / ys
    hy = h_inv @ y
    u = (0.5 * (rho * rho * float(np.dot(y, hy)) + rho)) * s - rho * hy
    _add_rank_two(h_inv, u, s)
    return h_inv


def _add_rank_two(h: np.ndarray, u, s) -> None:
    """h[i, j] += u[i] * s[j] + s[i] * u[j] in place, through the compiled kernel."""
    if not isinstance(h, np.ndarray) or h.dtype != np.float64:
        raise TypeError(f"the inverse Hessian must be a float64 array, got {getattr(h, 'dtype', type(h).__name__)}")
    us = np.array((u, s), dtype=np.float64)  # a private contiguous copy: s may be a view into h
    n = us.shape[-1]
    if not (h.flags.writeable and h.flags.aligned and h.flags.c_contiguous and h.shape == (n, n)
            and us.shape == (2, n)):
        raise ValueError(f"the inverse Hessian must be a writable, aligned, C-contiguous {n} x {n} array")
    # c_char.from_buffer reads an address in a third of the time that ndarray.ctypes.data takes.
    h_at, us_at = (ctypes.addressof(ctypes.c_char.from_buffer(a)) for a in (h, us))
    _kernels().rank_two_update(*_kernel_args("rank_two_update", h_at, n, us_at))


def bfgs_update_hessian(b: np.ndarray, s: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Direct-Hessian rank-two update B + y y^T / y.s - (B s)(B s)^T / s.B.s.

    Provided for cross-validation: applied to matched update sequences,
    this stays the exact inverse of ``bfgs_update_inv_hessian``'s result.
    """
    ys = linalg.dot(y, s)
    if not ys > 0:
        raise CurvatureError(f"curvature condition violated: y.s = {ys:g}")
    b = np.asarray(b, dtype=np.float64)
    bs = b @ s
    sbs = linalg.dot(s, bs)
    if not sbs > 0:
        raise CurvatureError(f"s.B.s = {sbs:g} is not positive")
    updated = b + np.outer(y, y) / ys - np.outer(bs, bs) / sbs
    return 0.5 * (updated + updated.T)


def bfgs_minimize(obj: Objective, x0, stop: StopCriteria = StopCriteria(),
                  wolfe: WolfeConfig = WolfeConfig(), callback=None,
                  step_observer=None) -> MinimizeResult:
    """Full-matrix BFGS with Wolfe steps (see wolfe_line_search), starting from H = I.

    A start whose value or gradient is not finite raises ValueError. H = I
    is held as no matrix; an update from it builds an ``np.eye`` that later
    updates overwrite in place, and each ``StepRecord.h_inv_after`` is a copy.

    ``callback(iter, x, f, grad_norm)`` fires once per iterate, iteration 0
    included, and is the only per-iterate record; the result holds the
    last. ``step_observer(StepRecord)`` fires for every accepted Wolfe
    step, after its update and before ``callback`` for the iterate it
    reaches. On a line-search failure the search restarts once from
    steepest descent with H reset to I, unless H is still I (the start, or
    no update since the last reset), where that retry would repeat the
    failed search. A direction that is not descent (g.p >= 0 or NaN) fails
    its search without a trial. A failure with no retry left ends the run
    with status ``line_search_failed`` at its last accepted iterate, as
    scipy's BFGS does. Otherwise the run ends with ``converged_grad``
    (|g| <= grad_tol) or ``max_iters``. An (s, y) pair that
    ``bfgs_update_inv_hessian`` refuses is a skipped update.
    """
    x = np.array(x0, dtype=np.float64)
    if x.shape != (obj.dim,) or not np.all(np.isfinite(x)):
        raise ValueError(f"x0 must be a finite 1-D vector of length {obj.dim}, got shape {x.shape}")
    f, g = obj.eval(x)
    if not (np.isfinite(f) and np.all(np.isfinite(g))):
        raise ValueError("objective is not finite at the starting point")
    h_inv = None  # H = I
    iteration = n_skipped_updates = n_restarts = 0
    n_fevals = 1

    while True:
        # Record the iterate: the start or an accepted Wolfe step.
        grad_norm = sqrt(np.dot(g, g))  # np.linalg.norm's arithmetic for a real vector
        if callback is not None:
            callback(iteration, x, f, grad_norm)
        if stop.grad_tol > 0 and grad_norm <= stop.grad_tol:
            status = STATUS_CONVERGED_GRAD
            break
        if iteration >= stop.max_iters:
            status = STATUS_MAX_ITERS
            break

        # The quasi-Newton direction, then once more from steepest descent with
        # H = I, unless H is I already and -g is the direction that just failed.
        for retry in range(1 if h_inv is None else 2):
            p = -g if h_inv is None else -(h_inv @ g)  # a failed search below resets h_inv
            n_restarts += retry
            try:
                # NotDescentError when H lost positive definiteness numerically, g
                # is exactly zero (only reachable with grad_tol disabled) or g.p is NaN.
                alpha, f_new, g_new, evals = wolfe_line_search(obj, x, p, f, g, wolfe)
                n_fevals += evals
                break
            except LineSearchError as err:
                n_fevals += err.evals
                h_inv = None
        else:
            status = STATUS_LINE_SEARCH_FAILED
            break

        x_new = x + alpha * p
        s = x_new - x
        y = g_new - g
        h_new = np.eye(x.size) if h_inv is None else h_inv
        try:  # a refused pair raises before anything is written
            h_inv = bfgs_update_inv_hessian(h_new, s, y)
            skipped = False
        except CurvatureError:
            n_skipped_updates += 1
            skipped = True
        if step_observer is not None:
            step_observer(StepRecord(iteration + 1, x, p, alpha, f, g, f_new, g_new, s, y,
                                     h_new.copy(), skipped))
        x, f, g = x_new, f_new, g_new
        iteration += 1

    return MinimizeResult(
        x_final=x,
        f_final=f,
        grad_norm_final=grad_norm,
        iters=iteration,
        status=status,
        n_skipped_updates=n_skipped_updates,
        n_fevals=n_fevals,
        n_restarts=n_restarts,
    )


def bfgs_train(net: Network, data: Dataset, stop: StopCriteria = StopCriteria(),
               wolfe: WolfeConfig = WolfeConfig(), step_observer=None, callback=None):
    """Train the network's flat parameters by BFGS on the training MSE.

    Returns (trained network, result); ``callback`` and ``step_observer``
    are passed to ``bfgs_minimize``.
    """

    topology = net.topology

    def fun(params):  # params is a finite trial point that the search has just made
        return loss_and_grad(_Unchecked(topology, params), data, "train")

    result = bfgs_minimize(Objective(fun, net.topology.n_params), net.params, stop, wolfe,
                           callback=callback, step_observer=step_observer)
    return net.with_params(result.x_final), result


def _epoch_source(n_in: int, n_hidden: int) -> str:
    """Source of the online delta-rule epoch for a (n_in, n_hidden, 1) network.

    The function it defines, ``epoch(params, rows, targets, eta)``, takes
    the flat parameters as floats in ``unpack_params`` order and returns
    them after one sweep over the training rows. Every weight and bias is a
    local float and every unit and input is written out, so a row step has
    no loop and no numpy call. Each weighted sum is one expression
    evaluated left to right, through the inputs to the bias, and the
    sigmoid is ``mlp.sigmoid``'s overflow-safe form with ``math.exp``.
    """
    xs = [f"x{i}" for i in range(n_in)]
    hs = [f"h{j}" for j in range(n_hidden)]
    ws = [[f"w{j}_{i}" for i in range(n_in)] for j in range(n_hidden)]
    bs = [f"b{j}" for j in range(n_hidden)]
    vs = [f"v{j}" for j in range(n_hidden)]
    names = ", ".join([w for row in ws for w in row] + bs + vs + ["c"])

    def neuron(out, weights, inputs, bias):
        # One left-to-right expression: built-in sum() rounds differently since
        # Python 3.12, and math.sumprod does not exist in 3.11.
        terms = " + ".join(f"{w} * {x}" for w, x in zip(weights, inputs))
        return [f"        z = {terms} + {bias}",
                "        e = exp(-abs(z))",
                f"        {out} = (1.0 if z >= 0 else e) / (1.0 + e)"]

    lines = ["def epoch(params, rows, targets, eta):",
             f"    {names} = params",
             f"    for ({', '.join(xs)},), t in zip(rows, targets):"]
    for j in range(n_hidden):
        lines += neuron(hs[j], ws[j], xs, bs[j])
    lines += neuron("o", vs, hs, "c")
    lines.append("        d = o * (1.0 - o) * (t - o)")
    # The hidden deltas use the output weights from before this row's update.
    for j in range(n_hidden):
        lines.append(f"        dh = {hs[j]} * (1.0 - {hs[j]}) * ({vs[j]} * d)")
        lines += [f"        {w} += eta * (dh * {x})" for w, x in zip(ws[j], xs)]
        lines.append(f"        {bs[j]} += eta * dh")
    lines += [f"        {v} += eta * (d * {h})" for v, h in zip(vs, hs)]
    lines += ["        c += eta * d", f"    return {names}"]
    return "\n".join(lines) + "\n"


@cache
def _epoch_function(n_in: int, n_hidden: int):
    """The compiled ``_epoch_source`` function, built at its topology's first fit."""
    namespace = {"exp": exp}
    exec(compile(_epoch_source(n_in, n_hidden), f"<online epoch {n_in}-{n_hidden}-1>", "exec"), namespace)
    return namespace["epoch"]


def gd_train(net: Network, data: Dataset, cfg: GdConfig = GdConfig(), callback=None):
    """Gradient-descent baseline trainer.

    Each epoch sweeps the training rows in stored order, updating after
    each one with the delta rule (weights by eta*delta*activation, biases
    by eta*delta). The sweep is a straight-line function of Python floats,
    generated once per (n_in, n_hidden) and cached (``_epoch_source`` is
    its text); it carries the single output unit as a scalar. It keeps
    the operation order of the textbook form built from ``mlp.sigmoid``
    and ``np.outer``, but not its bits: ``math.exp`` rounds differently
    from numpy's ``exp`` on some arguments, and its left-to-right sums
    from BLAS's, so the two agree to within a bound (the tests hold them
    to 1e-12 relative; the measured drift is about 1e-15), not exactly.
    ``callback(epoch, params, f, grad_norm)`` fires once per iterate, as in
    ``bfgs_minimize``: at the start and after each epoch, with its frozen
    vector and full-train MSE. A non-finite loss or parameter ends the run
    early with status ``diverged`` and the last finite epoch.
    """
    topology = net.topology
    rows, targets = (a.tolist() for a in data.rows("train"))
    f, grad = loss_and_grad(net, data, "train")  # checks the data's width against the network first
    sweep = _epoch_function(topology.n_in, topology.n_hidden)
    params, n_fevals, status = net.params, 1, STATUS_MAX_ITERS
    for epoch in range(cfg.epochs + 1):
        # Record the iterate: the start or a finite epoch.
        grad_norm = sqrt(np.dot(grad, grad))
        if callback is not None:
            callback(epoch, params, f, grad_norm)
        if epoch == cfg.epochs:
            break
        swept = np.array(sweep(params.tolist(), rows, targets, cfg.eta))
        swept.setflags(write=False)
        if np.all(np.isfinite(swept)):  # checked once, here: the loss pass trusts it
            f_swept, g_swept = loss_and_grad(_Unchecked(topology, swept), data, "train")
            n_fevals += 1
            if np.isfinite(f_swept):
                params, f, grad = swept, f_swept, g_swept
                continue
        status = STATUS_DIVERGED
        break

    return net.with_params(params), MinimizeResult(x_final=params, f_final=f, grad_norm_final=grad_norm,
                                                   iters=epoch, status=status, n_fevals=n_fevals)
