"""Property tests: the inverse-Hessian update, the strong-Wolfe line search,
the generated online-GD epoch under overflow, both trainers on an
objective that turns non-finite or raises, and the same bits of the
optimizers' inner products and norms against ``linalg.dot`` and ``np.linalg.norm``.

Hypothesis draws the cases with ``derandomize=True`` and no example
database, so every run tries the same examples and the suite stays
deterministic. scipy's ``scalar_search_wolfe2`` serves as a second
witness that a strong-Wolfe step exists on each drawn function. Skipped
when hypothesis or scipy is not installed.
"""

import math
from unittest import mock

import numpy as np
import pytest

from qnmlp import (
    Dataset,
    GdConfig,
    LineSearchError,
    Network,
    Objective,
    StopCriteria,
    Topology,
    WolfeConfig,
    bfgs_minimize,
    bfgs_update_inv_hessian,
    gd_train,
    init_params,
    linalg,
    optim,
    unpack_params,
    wolfe_line_search,
)
from qnmlp.optim import STATUS_CONVERGED_GRAD, STATUS_DIVERGED, STATUS_LINE_SEARCH_FAILED, STATUS_MAX_ITERS
from test_optim import (
    poison_loss_after,
    random_spd_quadratic,
    recorder,
    reference_expanded_update,
    reference_sweep,
    tiny_training_setup,
)

hypothesis = pytest.importorskip("hypothesis")
linesearch = pytest.importorskip("scipy.optimize._linesearch")
optimize = pytest.importorskip("scipy.optimize")
st = hypothesis.strategies

PROPERTY = hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=40)
WOLFE = WolfeConfig()


@PROPERTY
@hypothesis.given(n=st.integers(1, 140), seed=st.integers(0, 2**32 - 1),
                  log_scale=st.floats(-3.0, 3.0))
def test_update_equals_textbook_form(n, seed, log_scale):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    a = m @ m.T / n + np.eye(n)
    h0 = 0.5 * (a + a.T) * 10.0 ** log_scale  # SPD and exactly symmetric
    s = rng.standard_normal(n)
    m = rng.standard_normal((n, n))
    y = (m @ m.T / n + np.eye(n)) @ s  # an SPD map keeps y.s > 0
    h = h0.copy()
    expected = reference_expanded_update(h0, s, y)
    assert bfgs_update_inv_hessian(h, s, y) is h
    assert np.array_equal(h, h.T)
    # The drawn H holds no -0, so the textbook form's signs must match too.
    assert np.array_equal(h, expected)
    assert np.array_equal(np.signbit(h), np.signbit(expected))


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


@hypothesis.settings(PROPERTY, max_examples=100)
# NaN sums in the first epoch: gd_train ends diverged, on the starting parameters
@hypothesis.example(n_in=3, hidden=3, seed=1, log_hidden_scale=180, log_output_scale=180, log_input_scale=180)
# hidden units at +-inf in every row, under an output unit that still learns
@hypothesis.example(n_in=1, hidden=4, seed=1, log_hidden_scale=200, log_output_scale=0, log_input_scale=150)
@hypothesis.given(n_in=st.integers(1, 3), hidden=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
                  log_hidden_scale=st.integers(0, 200), log_output_scale=st.integers(0, 200),
                  log_input_scale=st.integers(0, 200))
def test_generated_epoch_equals_scalar_reference_through_overflow(n_in, hidden, seed, log_hidden_scale,
                                                                  log_output_scale, log_input_scale):
    # Weight and input scales up to 1e200 overflow products to inf, and inf - inf
    # to NaN. Scaling the two layers apart leaves some hidden units at +-inf with
    # an output unit that still learns.
    rng = np.random.default_rng(seed)
    inputs = 10.0 ** log_input_scale * rng.uniform(-2.0, 2.0, size=(16, n_in))
    data = Dataset.from_samples(inputs, rng.uniform(0.0, 1.0, size=16), 12)
    topology = Topology(n_in, hidden, 1)
    params = init_params(topology, seed)
    w1, b1, w2, b2 = unpack_params(topology, params)
    w1 *= 10.0 ** log_hidden_scale
    b1 *= 10.0 ** log_hidden_scale
    w2 *= 10.0 ** log_output_scale
    b2 *= 10.0 ** log_output_scale
    net = Network(topology, params)
    x_train, targets = data.rows("train")
    rows, targets = x_train.tolist(), targets.tolist()
    generated, reference = np.array(net.params), np.array(net.params)
    for _ in range(4):
        generated[:] = optim._epoch_function(n_in, hidden)(generated.tolist(), rows, targets, 0.1)
        reference[:] = reference_sweep(n_in, hidden)(reference.tolist(), rows, targets, 0.1)
        assert np.array_equal(generated, reference, equal_nan=True)

    cfg = GdConfig(eta=0.1, epochs=6)
    (seen, record), (expected_seen, expected_record) = recorder(), recorder()
    with np.errstate(all="ignore"):  # the epoch-end loss overflows too
        trained, res = gd_train(net, data, cfg, callback=record)
        with mock.patch.object(optim, "_epoch_function", reference_sweep):
            expected, expected_res = gd_train(net, data, cfg, callback=expected_record)
    assert (res.status, res.iters, res.n_fevals) == (expected_res.status, expected_res.iters, expected_res.n_fevals)
    assert np.array_equal(trained.params, expected.params)
    assert np.array_equal(seen, expected_seen, equal_nan=True)
    hypothesis.event(f"status {res.status}, epoch 4 {'finite' if np.all(np.isfinite(generated)) else 'non-finite'}")


class Poisoned(Exception):
    """What a poisoned objective raises."""


NON_FINITE = [float("nan"), float("inf"), float("-inf")]
POISON_CASES = {
    "spd-quadratic": lambda: random_spd_quadratic(5, 0),
    "rosenbrock-5": lambda: (Objective(lambda x: (optimize.rosen(x), optimize.rosen_der(x)), 5),
                             np.array([-1.2, 1.0, 1.0, 1.0, 1.0])),
}


@hypothesis.settings(PROPERTY, max_examples=150)
# +-inf gradients: the start's direction, and a trial's slope inf - inf
@hypothesis.example(case="spd-quadratic", part="g", value=float("inf"), k=1)
@hypothesis.example(case="rosenbrock-5", part="g", value=float("-inf"), k=1)
@hypothesis.example(case="spd-quadratic", part="g", value=float("inf"), k=2)
@hypothesis.example(case="rosenbrock-5", part="g", value=float("-inf"), k=5)
@hypothesis.given(case=st.sampled_from(sorted(POISON_CASES)), part=st.sampled_from(["f", "g", "g[0]", "raise"]),
                  value=st.sampled_from(NON_FINITE), k=st.integers(1, 60))
def test_bfgs_ends_defined_when_objective_turns_non_finite(case, part, value, k):
    # From its k-th call on, the objective returns value as f, as all of g or
    # as g[0], or raises. Tier-1 turns any numpy RuntimeWarning into an error.
    obj, x0 = POISON_CASES[case]()
    calls = 0

    def poisoned(x):
        nonlocal calls
        calls += 1
        f, g = obj.eval(x)
        if calls < k:
            return f, g
        if part == "raise":
            raise Poisoned(f"call {calls}")
        if part == "f":
            return value, g
        g[0 if part == "g[0]" else slice(None)] = value
        return f, g

    try:
        res = bfgs_minimize(Objective(poisoned, obj.dim), x0, StopCriteria(grad_tol=1e-8, max_iters=60))
    except Poisoned:
        assert part == "raise" and calls == k
        return
    except ValueError:
        assert part in ("f", "g", "g[0]") and k == 1  # a non-finite start is refused
        return
    assert part != "raise" or calls < k
    assert k > 1
    assert res.status in (STATUS_CONVERGED_GRAD, STATUS_MAX_ITERS, STATUS_LINE_SEARCH_FAILED)
    assert np.all(np.isfinite(res.x_final)) and np.isfinite(res.f_final) and np.isfinite(res.grad_norm_final)
    hypothesis.event(f"status {res.status}, poisoned {'yes' if calls >= k else 'no'}")


@PROPERTY
@hypothesis.given(poison=st.sampled_from([*NON_FINITE, Poisoned("loss")]), k=st.integers(1, 8))
def test_gd_ends_diverged_when_loss_turns_non_finite(poison, k):
    # loss_and_grad's k-th call, the start's or the end of epoch k - 1, returns
    # the poison loss or raises it; a run of 6 epochs makes 7 calls.
    net, data = tiny_training_setup()
    with pytest.MonkeyPatch.context() as patch:
        calls = poison_loss_after(patch, k - 1, poison)
        try:
            trained, res = gd_train(net, data, GdConfig(eta=0.1, epochs=6))
        except Poisoned:
            assert isinstance(poison, Poisoned) and calls["n"] == k
            return
    if k > 7:
        assert res.status == STATUS_MAX_ITERS
    else:
        assert not isinstance(poison, Poisoned)
        assert res.status == STATUS_DIVERGED and res.iters == max(k - 2, 0)
    assert np.all(np.isfinite(trained.params))


@st.composite
def float64_vectors(draw, n):
    """A float64 vector of length n whose entries have either sign and magnitudes
    10**e, e uniform on a drawn span of [-150, 150], so that squares and products stay
    normal and finite; then up to three entries are set to inf, -inf or NaN."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo, hi = sorted((draw(st.floats(-150.0, 150.0)), draw(st.floats(-150.0, 150.0))))
    v = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(lo, hi, n)
    for i in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        v[i] = draw(st.sampled_from(NON_FINITE))
    return v


def same_bits(a: float, b: float) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


@hypothesis.settings(PROPERTY, max_examples=150)
@hypothesis.given(data=st.data(), n=st.integers(1, 600))
def test_folded_dot_and_norm_keep_the_bits(data, n):
    # optim forms |v| as sqrt(v.v) and the inner products of the vectors it has just made
    # with np.dot, in place of np.linalg.norm and linalg.dot: the same bits, NaN included.
    a, b = data.draw(float64_vectors(n)), data.draw(float64_vectors(n))
    assert same_bits(math.sqrt(np.dot(a, a)), np.linalg.norm(a))
    with np.errstate(invalid="ignore"):  # inf * 0 and inf - inf warn in both forms alike
        ab = linalg.dot(a, b)
        assert same_bits(float(np.dot(a, b)), ab)
    hypothesis.event(f"a.b {'finite' if math.isfinite(ab) else 'NaN' if math.isnan(ab) else 'infinite'}")
