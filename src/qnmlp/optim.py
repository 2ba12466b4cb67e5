"""The two trainers: per-example gradient descent and full-batch BFGS.

BFGS is exposed twice: ``bfgs_minimize`` works on any objective that
returns (value, gradient), and ``bfgs_train`` wraps the perceptron's
training loss as such an objective over the flat parameter vector. The
line search brackets then zooms until both strong Wolfe inequalities
hold, which is what keeps every inverse-Hessian update positive
definite.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp
from typing import Callable

import numpy as np

from . import linalg
# loss_mse is unused here; perfbench/tracer.py still lists qnmlp.optim.loss_mse as a seam site.
from .mlp import Dataset, Network, loss_and_grad, loss_mse, unpack_params

__all__ = [
    "STATUS_CONVERGED_GRAD",
    "STATUS_MAX_ITERS",
    "STATUS_LINE_SEARCH_FAILED",
    "STATUS_DIVERGED",
    "CURVATURE_FLOOR",
    "ALPHA_MAX",
    "MAX_ZOOM_STEPS",
    "UPDATE_BLOCK_ROWS",
    "CurvatureError",
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

# The line search doubles its step from 1.0 to this cap (the 11th trial)
# and zooms in at most this many trials.
ALPHA_MAX = 1e3
MAX_ZOOM_STEPS = 30

# The inverse-Hessian update writes its result this many rows at a time, so
# its only matrix temporary is one block, never a fresh n x n array.
UPDATE_BLOCK_ROWS = 64


class CurvatureError(ValueError):
    """An (s, y) pair violates the curvature condition y.s > 0 (or, for
    the inverse update, y.s > CURVATURE_FLOOR * |y| * |s|)."""


class LineSearchError(RuntimeError):
    """No strong-Wolfe step below the step cap or within the zoom budget.

    Carries the best (lowest-f) trial seen so the caller can decide what
    to salvage.
    """

    def __init__(self, message: str, alpha: float, f: float, g: np.ndarray, evals: int):
        super().__init__(message)
        self.alpha = alpha
        self.f = f
        self.g = g
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
    """Gradient-descent settings. ``online`` updates after every training
    example; ``batch`` takes one averaged-gradient step per epoch."""

    eta: float = 0.1
    epochs: int = 500
    mode: str = "online"

    def __post_init__(self):
        if not (self.eta > 0 and np.isfinite(self.eta)):
            raise ValueError(f"eta must be positive and finite, got {self.eta}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.mode not in ("online", "batch"):
            raise ValueError(f"mode must be 'online' or 'batch', got {self.mode!r}")


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
        if self.max_iters < 1:
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
    history: list  # (iter, f, grad_norm) per recorded iteration, including iteration 0
    n_skipped_updates: int = 0
    n_fevals: int = 0  # objective calls, the start and every line-search trial included
    n_restarts: int = 0  # steepest-descent retries after a failed quasi-Newton search
    n_salvaged: int = 0  # 1 when the run ended on the best trial of a failed search


def _quadratic_trial(lo: float, f_lo: float, d_lo: float, hi: float, f_hi: float) -> float:
    """Minimizer of the quadratic through (lo, f_lo, d_lo) and (hi, f_hi).

    Falls back to bisection when the fit is degenerate or the minimizer
    sits within 10% of either end of the (unordered) interval.
    """
    width = hi - lo
    mid = lo + 0.5 * width
    denom = 2.0 * (f_hi - f_lo - d_lo * width)
    if denom == 0.0 or not np.isfinite(denom):
        return mid
    trial = lo - d_lo * width * width / denom
    t = (trial - lo) / width
    if not np.isfinite(t) or not 0.1 <= t <= 0.9:
        return mid
    return trial


def wolfe_line_search(obj: Objective, x: np.ndarray, p: np.ndarray, f0: float,
                      g0: np.ndarray, cfg: WolfeConfig = WolfeConfig()):
    """Bracket-then-zoom search for a strong-Wolfe step along p.

    Returns (alpha, f_new, g_new, evals) with alpha satisfying both the
    sufficient-decrease and the absolute curvature inequality. The bracket
    starts at alpha = 1 and doubles up to ``ALPHA_MAX``. Raises
    NotDescentError (a ValueError) if g0.p is not negative, NaN included,
    and LineSearchError when the bracket reaches the cap or the zoom runs
    out of its ``MAX_ZOOM_STEPS`` trials.
    """
    d0 = linalg.dot(g0, p)
    if not d0 < 0:
        raise NotDescentError(f"p is not a descent direction (g.p = {d0:g})", 0.0, f0, g0, 0)

    evals = 0
    best = [0.0, f0, g0]

    def trial_eval(alpha: float):
        nonlocal evals
        f, g = obj.eval(x + alpha * p)
        evals += 1
        if np.isfinite(f) and f < best[1]:
            best[:] = [alpha, f, g]
        return f, g, linalg.dot(g, p)

    def sufficient(alpha: float, f: float) -> bool:
        return np.isfinite(f) and f <= f0 + cfg.c1 * alpha * d0

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
                    return a, f_a, g_a
                if d_a * (hi - lo) >= 0:
                    hi, f_hi = lo, f_lo
                lo, f_lo, d_lo = a, f_a, d_a
        raise LineSearchError("zoom budget exhausted without a Wolfe step", best[0], best[1], best[2], evals)

    a_prev, f_prev, d_prev = 0.0, f0, d0
    a = 1.0
    while True:
        f_a, g_a, d_a = trial_eval(a)
        if not sufficient(a, f_a) or (a_prev > 0 and f_a >= f_prev):
            alpha, f_new, g_new = zoom(a_prev, f_prev, d_prev, a, f_a)
            return alpha, f_new, g_new, evals
        if curvature(d_a):
            return a, f_a, g_a, evals
        if d_a >= 0:
            alpha, f_new, g_new = zoom(a, f_a, d_a, a_prev, f_prev)
            return alpha, f_new, g_new, evals
        if a >= ALPHA_MAX:
            raise LineSearchError("step cap reached without a Wolfe step", best[0], best[1], best[2], evals)
        a_prev, f_prev, d_prev = a, f_a, d_a
        a = min(2.0 * a, ALPHA_MAX)


def bfgs_update_inv_hessian(h_inv: np.ndarray, s: np.ndarray, y: np.ndarray, *,
                            out: np.ndarray | None = None) -> np.ndarray:
    """Rank-two inverse-Hessian update (I - rho s y^T) H (I - rho y s^T) + rho s s^T.

    Computed in the expanded form (Nocedal & Wright, Numerical
    Optimization, eq. 6.17) H - rho (s (Hy)^T + (Hy) s^T)
    + (rho^2 y^T H y + rho) s s^T = H + u s^T + s u^T, with
    u = (rho^2 y^T H y + rho) / 2 * s - rho H y: one matrix-vector product,
    O(n^2). Entries (i, j) and (j, i) add the same two products, so a
    symmetric H gives an exactly symmetric result without a symmetrizing
    pass. Raises CurvatureError unless y.s > CURVATURE_FLOOR * |y| * |s|
    (so y.s > 0); the new matrix then satisfies the secant relation
    H' y = s and stays positive definite.

    The result is written into ``out``, or into a new array when ``out`` is
    None, and returned. It is written ``UPDATE_BLOCK_ROWS`` rows at a time,
    each block reading only its own rows of h_inv after Hy is formed, so
    ``out`` may be h_inv itself: the update in place allocates no n x n
    temporary. Every entry is h_ij + (u_i s_j + s_i u_j) either way, the
    same bits. A refused pair raises before anything is written.
    """
    ys = linalg.dot(y, s)
    if not ys > CURVATURE_FLOOR * np.linalg.norm(y) * np.linalg.norm(s):
        raise CurvatureError(f"curvature condition violated: y.s = {ys:g}")
    rho = 1.0 / ys
    h_inv = np.asarray(h_inv, dtype=np.float64)
    hy = h_inv @ y
    u = (0.5 * (rho * rho * linalg.dot(y, hy) + rho)) * s - rho * hy
    if out is None:
        out = np.empty_like(h_inv)
    for start in range(0, len(h_inv), UPDATE_BLOCK_ROWS):
        blk = slice(start, start + UPDATE_BLOCK_ROWS)
        t = np.multiply.outer(u[blk], s)
        t += np.multiply.outer(s[blk], u)
        np.add(h_inv[blk], t, out=out[blk])
    return out


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
    """Full-matrix BFGS with strong-Wolfe steps, starting from H = I.

    The run owns its inverse Hessian H and updates it in place, so no
    update allocates an n x n matrix; each ``StepRecord.h_inv_after`` is a
    copy, taken only when a ``step_observer`` is given.

    ``callback(iter, x, f, grad_norm)`` fires for every recorded history
    entry (including iteration 0); ``step_observer(StepRecord)`` fires
    for every accepted Wolfe step. On a line-search failure the search
    restarts once from steepest descent with H reset to I, unless H is
    still I (the start, or no update since the last reset), where that
    retry would repeat the failed search. A direction that is not descent
    (g.p >= 0 or NaN) fails its search without a trial. A failure with no
    retry left ends the run with status ``line_search_failed``, after
    recording the best trial of that search if it lowered f. Otherwise the
    run ends with ``converged_grad`` (|g| <= grad_tol) or ``max_iters``.
    An (s, y) pair that ``bfgs_update_inv_hessian`` refuses is a skipped
    update.
    """
    x = np.array(x0, dtype=np.float64)
    if x.shape != (obj.dim,) or not np.all(np.isfinite(x)):
        raise ValueError(f"x0 must be a finite 1-D vector of length {obj.dim}, got shape {x.shape}")
    f, g = obj.eval(x)
    if not np.isfinite(f):
        raise ValueError("objective is not finite at the starting point")
    h_inv = np.eye(x.size)
    h_is_identity = True
    iteration = n_skipped_updates = n_restarts = n_salvaged = 0
    n_fevals = 1
    record = status = None
    history = []

    while True:
        # Record the iterate: the start, an accepted Wolfe step or a salvaged trial.
        grad_norm = np.linalg.norm(g)
        history.append((iteration, f, grad_norm))
        if callback is not None:
            callback(iteration, x, f, grad_norm)
        if record is not None:
            step_observer(record)
        if status is None:
            if stop.grad_tol > 0 and grad_norm <= stop.grad_tol:
                status = STATUS_CONVERGED_GRAD
            elif iteration >= stop.max_iters:
                status = STATUS_MAX_ITERS
        if status is not None:
            break

        # The quasi-Newton direction, then once more from steepest descent with
        # H = I, unless H is I already and -g is the direction that just failed.
        directions = [-(h_inv @ g)]
        if not h_is_identity:
            directions.append(-g)
        for retry, p in enumerate(directions):
            n_restarts += retry
            try:
                # NotDescentError when H lost positive definiteness numerically, g
                # is exactly zero (only reachable with grad_tol disabled) or NaN.
                alpha, f_new, g_new, evals = wolfe_line_search(obj, x, p, f, g, wolfe)
                n_fevals += evals
                break
            except LineSearchError as err:
                n_fevals += err.evals
                failure = err
                h_inv = np.eye(x.size)
                h_is_identity = True
        else:
            status = STATUS_LINE_SEARCH_FAILED
            if not (np.isfinite(failure.f) and failure.f < f and failure.alpha > 0):
                break
            # Salvage the best trial the failed search saw.
            alpha, f_new, g_new = failure.alpha, failure.f, failure.g
            n_salvaged = 1

        x_new = x + alpha * p
        record = None
        if status is None:
            s = x_new - x
            y = g_new - g
            try:
                bfgs_update_inv_hessian(h_inv, s, y, out=h_inv)
                h_is_identity = skipped = False
            except CurvatureError:
                n_skipped_updates += 1
                skipped = True
            if step_observer is not None:
                record = StepRecord(iteration + 1, x, p, alpha, f, g, f_new, g_new, s, y,
                                    h_inv.copy(), skipped)
        x, f, g = x_new, f_new, g_new
        iteration += 1

    return MinimizeResult(
        x_final=x,
        f_final=f,
        grad_norm_final=grad_norm,
        iters=iteration,
        status=status,
        history=history,
        n_skipped_updates=n_skipped_updates,
        n_fevals=n_fevals,
        n_restarts=n_restarts,
        n_salvaged=n_salvaged,
    )


def bfgs_train(net: Network, data: Dataset, stop: StopCriteria = StopCriteria(),
               wolfe: WolfeConfig = WolfeConfig(), step_observer=None, callback=None):
    """Train the network's flat parameters by BFGS on the training MSE.

    Returns (trained network, result); ``callback`` and ``step_observer``
    are passed to ``bfgs_minimize``.
    """

    def fun(params):
        return loss_and_grad(net.with_params(params), data, "train")

    result = bfgs_minimize(Objective(fun, net.topology.n_params), net.params, stop, wolfe,
                           callback=callback, step_observer=step_observer)
    return net.with_params(result.x_final), result


def _online_epoch(w1, b1, w2, b2, rows, targets, eta):
    """One online delta-rule sweep over the training rows, in Python floats.

    Reads the weight and bias views of ``unpack_params``, runs every row
    step on lists of floats with ``math.exp`` (no numpy call per row) and
    writes the result back into the views. Each hidden unit keeps its
    input weights followed by its bias, the output unit its weights
    followed by its bias, and every entry of ``rows`` ends with the bias
    input 1.0: each weighted sum adds its bias last, and the bias update
    eta * (delta * 1.0) equals eta * delta.
    """
    units = [w + [b] for w, b in zip(w1.tolist(), b1.tolist())]
    v = w2[0].tolist() + b2.tolist()
    for x, target in zip(rows, targets):
        # Plain left-to-right sums: built-in sum() rounds differently since
        # Python 3.12, and math.sumprod does not exist in 3.11.
        h = []
        for w in units:
            z = 0.0
            for wj, xj in zip(w, x):
                z += wj * xj
            e = exp(-abs(z))  # mlp.sigmoid's overflow-safe form
            h.append((1.0 if z >= 0 else e) / (1.0 + e))
        h.append(1.0)
        z = 0.0
        for vj, hj in zip(v, h):
            z += vj * hj
        e = exp(-abs(z))
        out = (1.0 if z >= 0 else e) / (1.0 + e)
        d_out = out * (1.0 - out) * (target - out)
        # The hidden deltas use the output weights from before this row's update.
        for w, vj, hj in zip(units, v, h):
            dh = hj * (1.0 - hj) * (vj * d_out)
            for j, xj in enumerate(x):
                w[j] += eta * (dh * xj)
        for j, hj in enumerate(h):
            v[j] += eta * (d_out * hj)
    w1[:] = [w[:-1] for w in units]
    b1[:] = [w[-1] for w in units]
    w2[0] = v[:-1]
    b2[0] = v[-1]


def gd_train(net: Network, data: Dataset, cfg: GdConfig = GdConfig(), callback=None):
    """Gradient-descent baseline trainer.

    ``online`` mode sweeps the training rows in stored order, updating
    after each one with the delta rule (weights by eta*delta*activation,
    biases by eta*delta); ``batch`` mode takes one step along the exact
    averaged gradient per epoch. The online sweep runs in Python floats
    (``_online_epoch``) and treats the single output unit as a scalar
    (``loss_and_grad`` rejects other widths up front). It keeps the
    operation order of the textbook form built from ``mlp.sigmoid`` and
    ``np.outer``, but not its bits: ``math.exp`` rounds differently from
    numpy's ``exp`` on some arguments, and its left-to-right sums from
    BLAS's, so the two agree to within a bound (the tests hold them to
    1e-12 relative; the measured drift is about 1e-15), not exactly. History
    records the full-train MSE at the start and after each epoch, and
    ``callback(epoch, params, f, grad_norm)`` fires for every history entry,
    as in ``bfgs_minimize``. A non-finite loss or parameter ends the run
    early with status ``diverged`` and the parameters of the last finite
    epoch.
    """
    params = np.array(net.params)
    w1, b1, w2, b2 = unpack_params(net.topology, params)
    x_train, targets = data.rows("train")
    rows = [x + [1.0] for x in x_train.tolist()]
    targets = targets.tolist()
    # Validates topology-vs-data consistency up front, including n_out == 1,
    # which lets the online sweep carry the output unit as a scalar.
    f, grad = loss_and_grad(net, data, "train")
    n_fevals = 1
    trained = net  # the network of the last history row
    history = []
    status = STATUS_MAX_ITERS
    for epoch in range(cfg.epochs + 1):
        if epoch > 0:
            if cfg.mode == "online":
                _online_epoch(w1, b1, w2, b2, rows, targets, cfg.eta)
            else:
                params -= cfg.eta * grad  # the gradient of the last history row
            diverged = not np.all(np.isfinite(params))
            if not diverged:
                current = net.with_params(params)
                f, grad = loss_and_grad(current, data, "train")
                n_fevals += 1
                diverged = not np.isfinite(f)
            if diverged:
                status = STATUS_DIVERGED
                break
            trained = current
        grad_norm = np.linalg.norm(grad)
        history.append((epoch, f, grad_norm))
        if callback is not None:
            callback(epoch, trained.params, f, grad_norm)

    iters, f, grad_norm = history[-1]
    return trained, MinimizeResult(x_final=trained.params, f_final=f, grad_norm_final=grad_norm,
                                   iters=iters, status=status, history=history, n_fevals=n_fevals)
