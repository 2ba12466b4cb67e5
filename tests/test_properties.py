"""Property tests: the inverse-Hessian update and the strong-Wolfe line search.

Hypothesis draws the cases with ``derandomize=True`` and no example
database, so every run tries the same examples and the suite stays
deterministic. scipy's ``scalar_search_wolfe2`` serves as a second
witness that a strong-Wolfe step exists on each drawn function. Skipped
when hypothesis or scipy is not installed.
"""

import numpy as np
import pytest

from qnmlp import LineSearchError, Objective, WolfeConfig, bfgs_update_inv_hessian, wolfe_line_search

hypothesis = pytest.importorskip("hypothesis")
linesearch = pytest.importorskip("scipy.optimize._linesearch")
st = hypothesis.strategies

PROPERTY = hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=40)
WOLFE = WolfeConfig()


@PROPERTY
@hypothesis.given(n=st.integers(1, 140), seed=st.integers(0, 2**32 - 1),
                  log_scale=st.floats(-3.0, 3.0))
def test_in_place_update_equals_pure_update(n, seed, log_scale):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    a = m @ m.T / n + np.eye(n)
    h = 0.5 * (a + a.T) * 10.0 ** log_scale  # SPD and exactly symmetric
    s = rng.standard_normal(n)
    m = rng.standard_normal((n, n))
    y = (m @ m.T / n + np.eye(n)) @ s  # an SPD map keeps y.s > 0
    pure = bfgs_update_inv_hessian(h, s, y)
    bfgs_update_inv_hessian(h, s, y, out=h)
    assert np.array_equal(h, pure)
    assert np.array_equal(h, h.T)


def smooth_1d(a, b, c, d):
    """f(x) = a x^2 / 2 + b sin(c x) + d x: smooth, bounded below for a > 0."""
    return Objective(lambda x: (0.5 * a * x[0] ** 2 + b * np.sin(c * x[0]) + d * x[0],
                                np.array([a * x[0] + b * c * np.cos(c * x[0]) + d])), 1)


def descent_case(a, b, c, d, x0):
    obj = smooth_1d(a, b, c, d)
    x = np.array([x0])
    f0, g0 = obj.eval(x)
    hypothesis.assume(abs(g0[0]) > 1e-6)
    return obj, x, -g0, f0, g0


def is_strong_wolfe(alpha, f_new, slope_new, f0, slope0):
    # the two inequalities as scipy.optimize._linesearch.scalar_search_wolfe2 tests them
    return f_new <= f0 + WOLFE.c1 * alpha * slope0 and abs(slope_new) <= -WOLFE.c2 * slope0


SMOOTH_1D = dict(a=st.floats(0.1, 10.0), b=st.floats(-2.0, 2.0), c=st.floats(0.1, 5.0),
                 d=st.floats(-5.0, 5.0), x0=st.floats(-3.0, 3.0))


@PROPERTY
@hypothesis.given(**SMOOTH_1D)
def test_line_search_returns_strong_wolfe_step_or_raises(a, b, c, d, x0):
    obj, x, p, f0, g0 = descent_case(a, b, c, d, x0)
    try:
        alpha, f_new, g_new, _ = wolfe_line_search(obj, x, p, f0, g0, WOLFE)
    except LineSearchError:
        return
    f_check, g_check = obj.eval(x + alpha * p)
    assert (f_new, g_new.tolist()) == (f_check, g_check.tolist())
    assert is_strong_wolfe(alpha, f_new, float(g_new @ p), f0, float(g0 @ p))


@PROPERTY
@hypothesis.given(**SMOOTH_1D)
def test_scipy_finds_strong_wolfe_step_too(a, b, c, d, x0):
    obj, x, p, f0, g0 = descent_case(a, b, c, d, x0)
    slope0 = float(g0 @ p)
    alpha, f_new, _, slope_new = linesearch.scalar_search_wolfe2(
        lambda t: obj.eval(x + t * p)[0], lambda t: float(obj.eval(x + t * p)[1] @ p),
        phi0=f0, derphi0=slope0, c1=WOLFE.c1, c2=WOLFE.c2)
    assert alpha is not None
    assert is_strong_wolfe(alpha, f_new, slope_new, f0, slope0)
