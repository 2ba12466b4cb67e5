import numpy as np
import pytest

from qnmlp import (
    CurvatureError,
    Dataset,
    GdConfig,
    LineSearchError,
    Network,
    NotDescentError,
    Objective,
    StopCriteria,
    Topology,
    WolfeConfig,
    bfgs_minimize,
    bfgs_train,
    bfgs_update_hessian,
    bfgs_update_inv_hessian,
    finite_diff_grad,
    gd_train,
    grad_backprop,
    init_params,
    loss_and_grad,
    loss_mse,
    sample_dataset,
    sigmoid,
    unpack_params,
    wolfe_line_search,
)
from qnmlp import BEALE, BOOTH, linalg
from qnmlp.optim import (
    STATUS_CONVERGED_GRAD,
    STATUS_DIVERGED,
    STATUS_LINE_SEARCH_FAILED,
    STATUS_MAX_ITERS,
)


def quadratic_objective(a, b):
    """f(x) = 0.5 x.A.x - b.x with gradient A x - b."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return Objective(lambda x: (0.5 * x @ a @ x - b @ x, a @ x - b), b.size)


def random_spd_quadratic(n, seed, eig_lo=1.0, eig_hi=4.0):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = (q * rng.uniform(eig_lo, eig_hi, n)) @ q.T
    b = rng.standard_normal(n)
    x0 = rng.standard_normal(n)
    return quadratic_objective(a, b), x0


def assert_strong_wolfe(obj, x, p, f0, g0, alpha, cfg):
    """Re-verify both inequalities by direct evaluation at the returned step."""
    d0 = float(np.dot(g0, p))
    f_new, g_new = obj.eval(x + alpha * p)
    assert f_new <= f0 + cfg.c1 * alpha * d0, "sufficient decrease violated"
    assert abs(float(np.dot(g_new, p))) <= cfg.c2 * abs(d0), "curvature condition violated"


class TestConfigValidation:
    def test_gd_eta_positive(self):
        with pytest.raises(ValueError):
            GdConfig(eta=0.0)

    def test_gd_eta_finite(self):
        with pytest.raises(ValueError):
            GdConfig(eta=float("inf"))

    def test_gd_mode(self):
        with pytest.raises(ValueError):
            GdConfig(mode="minibatch")

    def test_wolfe_constant_ordering(self):
        with pytest.raises(ValueError):
            WolfeConfig(c1=0.5, c2=0.4)
        with pytest.raises(ValueError):
            WolfeConfig(c1=0.0)
        with pytest.raises(ValueError):
            WolfeConfig(c2=1.0)

    def test_stop_criteria_bounds(self):
        with pytest.raises(ValueError):
            StopCriteria(max_iters=0)
        with pytest.raises(ValueError):
            StopCriteria(grad_tol=-1.0)
        # NaN fails every comparison, so it would silently disable the stopping test.
        with pytest.raises(ValueError):
            StopCriteria(grad_tol=float("nan"))


class TestWolfeLineSearch:
    def test_parabola_returns_wolfe_step(self):
        obj = Objective(lambda x: (x[0] ** 2, np.array([2.0 * x[0]])), 1)
        cfg = WolfeConfig()
        x = np.array([1.0])
        p = np.array([-1.0])
        f0, g0 = obj.eval(x)
        alpha, f_new, g_new, evals = wolfe_line_search(obj, x, p, f0, g0, cfg)
        assert alpha > 0 and evals >= 1
        assert_strong_wolfe(obj, x, p, f0, g0, alpha, cfg)
        # returned values must be the direct evaluation at the returned step
        f_check, g_check = obj.eval(x + alpha * p)
        assert f_new == f_check and np.array_equal(g_new, g_check)

    def test_ascent_direction_rejected(self):
        obj = Objective(lambda x: (x[0] ** 2, np.array([2.0 * x[0]])), 1)
        x = np.array([1.0])
        f0, g0 = obj.eval(x)
        with pytest.raises(ValueError):
            wolfe_line_search(obj, x, np.array([1.0]), f0, g0, WolfeConfig())

    def test_nan_slope_rejected(self):
        obj = Objective(lambda x: (x[0] ** 2, np.array([np.nan])), 1)
        x = np.array([1.0])
        f0, g0 = obj.eval(x)
        with pytest.raises(NotDescentError) as failure:
            wolfe_line_search(obj, x, -g0, f0, g0, WolfeConfig())
        assert isinstance(failure.value, ValueError)
        assert failure.value.evals == 0

    @pytest.mark.parametrize("seed", range(8))
    def test_random_convex_quadratics(self, seed):
        obj, x0 = random_spd_quadratic(5, seed)
        cfg = WolfeConfig()
        f0, g0 = obj.eval(x0)
        p = -g0
        alpha, _, _, _ = wolfe_line_search(obj, x0, p, f0, g0, cfg)
        assert_strong_wolfe(obj, x0, p, f0, g0, alpha, cfg)

    def test_unbounded_linear_descent_fails(self):
        # f(x) = -x has constant slope: the curvature condition can never hold
        obj = Objective(lambda x: (-x[0], np.array([-1.0])), 1)
        x = np.array([0.0])
        f0, g0 = obj.eval(x)
        with pytest.raises(LineSearchError) as failure:
            wolfe_line_search(obj, x, np.array([1.0]), f0, g0, WolfeConfig())
        assert failure.value.f < f0  # best trial is still a descent point
        # The step cap ends the bracket: trials 1, 2, 4, ..., 512, then 1e3.
        assert failure.value.evals == 11
        assert failure.value.alpha == 1e3


def reference_inv_update(h, s, y):
    """Inverse-Hessian update in its textbook product form, unsymmetrized:
    (I - rho s y^T) H (I - rho y s^T) + rho s s^T with rho = 1 / y.s."""
    rho = 1.0 / float(np.dot(y, s))
    eye = np.eye(s.size)
    return (eye - rho * np.outer(s, y)) @ h @ (eye - rho * np.outer(y, s)) + rho * np.outer(s, s)


def reference_expanded_update(h, s, y):
    """The expanded update H + (u s^T + s u^T) as one expression, with fresh
    n x n temporaries: the arithmetic the in-place row blocks must match bit
    for bit."""
    rho = 1.0 / linalg.dot(y, s)
    hy = h @ y
    u = (0.5 * (rho * rho * linalg.dot(y, hy) + rho)) * s - rho * hy
    return h + (np.outer(u, s) + np.outer(s, u))


class TestBfgsUpdates:
    def test_inverse_update_fixed_point(self):
        out = bfgs_update_inv_hessian(np.eye(2), np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        assert np.allclose(out, np.eye(2), atol=1e-15)

    def test_inverse_update_hand_value(self):
        out = bfgs_update_inv_hessian(np.eye(2), np.array([1.0, 0.0]), np.array([2.0, 0.0]))
        assert np.allclose(out, [[0.5, 0.0], [0.0, 1.0]], atol=1e-15)

    def test_direct_update_fixed_point(self):
        out = bfgs_update_hessian(np.eye(2), np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        assert np.allclose(out, np.eye(2), atol=1e-15)

    def test_direct_update_hand_value(self):
        out = bfgs_update_hessian(np.eye(2), np.array([1.0, 0.0]), np.array([2.0, 0.0]))
        assert np.allclose(out, [[2.0, 0.0], [0.0, 1.0]], atol=1e-15)

    @pytest.mark.parametrize("seed", range(10))
    def test_secant_conditions(self, seed):
        rng = np.random.default_rng(seed)
        n = 6
        h = np.eye(n)
        b = np.eye(n)
        s = rng.standard_normal(n)
        m = rng.standard_normal((n, n))
        y = (m @ m.T + np.eye(n)) @ s  # SPD map guarantees y.s > 0
        h_new = bfgs_update_inv_hessian(h, s, y)
        b_new = bfgs_update_hessian(b, s, y)
        assert np.all(np.abs(h_new @ y - s) <= 1e-10 * np.maximum(1.0, np.abs(s)))
        assert np.all(np.abs(b_new @ s - y) <= 1e-10 * np.maximum(1.0, np.abs(y)))

    def test_curvature_violation_raises(self):
        s = np.array([1.0, 0.0])
        with pytest.raises(CurvatureError):
            bfgs_update_inv_hessian(np.eye(2), s, -s)
        with pytest.raises(CurvatureError):
            bfgs_update_hessian(np.eye(2), s, np.array([0.0, 1.0]))  # y.s == 0

    def test_inverse_update_refuses_curvature_below_floor(self):
        s = np.array([1.0, 0.0])
        # y.s = 1e-11 > 0, but below CURVATURE_FLOOR * |y| * |s| (about 1e-10)
        with pytest.raises(CurvatureError):
            bfgs_update_inv_hessian(np.eye(2), s, np.array([1e-11, 1.0]))
        out = bfgs_update_inv_hessian(np.eye(2), s, np.array([1e-9, 1.0]))
        assert np.all(np.isfinite(out))

    def test_refused_pair_leaves_out_unwritten(self):
        rng = np.random.default_rng(3)
        h = rng.standard_normal((70, 70))  # more than one row block
        before = h.copy()
        s = rng.standard_normal(70)
        with pytest.raises(CurvatureError):
            bfgs_update_inv_hessian(h, s, -s, out=h)
        assert np.array_equal(h, before)

    @pytest.mark.parametrize("seed", range(10))
    def test_inverse_consistency_over_sequences(self, seed):
        rng = np.random.default_rng(seed)
        n = 5
        h = np.eye(n)
        b = np.eye(n)
        for _ in range(8):
            s = rng.standard_normal(n)
            m = rng.standard_normal((n, n))
            y = (m @ m.T + np.eye(n)) @ s
            h = bfgs_update_inv_hessian(h, s, y)
            b = bfgs_update_hessian(b, s, y)
        v = rng.standard_normal(n)
        back = b @ (h @ v)
        assert np.all(np.abs(back - v) <= 1e-8 * np.maximum(1.0, np.abs(v)))

    @pytest.mark.parametrize("n", [5, 50, 401])
    def test_inverse_update_matches_product_form(self, n):
        rng = np.random.default_rng(n)
        m = rng.standard_normal((n, n))
        a = m @ m.T / n + np.eye(n)  # SPD map: y = A s keeps y.s > 0
        h = ref = np.eye(n)
        for _ in range(30):
            s = rng.standard_normal(n)
            y = a @ s
            before = h.copy()
            out = bfgs_update_inv_hessian(h, s, y)
            ref = reference_inv_update(ref, s, y)
            assert np.array_equal(h, before), "input h_inv was modified"
            assert out is not h and not np.shares_memory(out, h)
            assert np.array_equal(out, out.T)
            assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))
            expected = reference_expanded_update(h, s, y)
            assert np.array_equal(out, expected)
            in_place = h.copy()
            assert bfgs_update_inv_hessian(in_place, s, y, out=in_place) is in_place
            assert np.array_equal(in_place, expected)
            h = out

    def test_in_place_update_allocates_no_full_matrix(self):
        import tracemalloc

        n = 401
        rng = np.random.default_rng(0)
        h = np.eye(n)
        s = rng.standard_normal(n)
        y = s + 0.1 * rng.standard_normal(n)
        tracemalloc.start()
        try:
            bfgs_update_inv_hessian(h, s, y, out=h)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one row block and a few vectors (measured 0.43); a fresh n x n result alone is 1.0
        assert peak <= 0.5 * n * n * 8


class TestBfgsMinimize:
    def test_isotropic_quadratic_converges_immediately(self):
        obj = quadratic_objective(np.eye(2), np.zeros(2))
        res = bfgs_minimize(obj, np.array([1.0, 1.0]), StopCriteria(grad_tol=1e-10, max_iters=10))
        assert res.status == STATUS_CONVERGED_GRAD
        assert res.iters <= 2
        assert res.grad_norm_final <= 1e-10

    def test_already_converged_returns_iteration_zero(self):
        obj = quadratic_objective(np.eye(3), np.zeros(3))
        res = bfgs_minimize(obj, np.zeros(3), StopCriteria(grad_tol=1e-8))
        assert res.iters == 0
        assert res.status == STATUS_CONVERGED_GRAD
        assert len(res.history) == 1

    @pytest.mark.parametrize("seed", range(5))
    def test_quadratic_iteration_bound(self, seed):
        n = 4
        obj, x0 = random_spd_quadratic(n, seed)
        res = bfgs_minimize(obj, x0, StopCriteria(grad_tol=1e-8, max_iters=50),
                            WolfeConfig(c2=0.1))
        assert res.status == STATUS_CONVERGED_GRAD
        assert res.iters <= 2 * (n + 1)

    def test_history_length_matches_iterations(self):
        obj, x0 = random_spd_quadratic(3, 5)
        res = bfgs_minimize(obj, x0, StopCriteria(grad_tol=1e-9, max_iters=40))
        assert len(res.history) == res.iters + 1
        assert res.history[0][0] == 0

    def test_step_invariants_on_quadratic(self):
        records = []
        obj, x0 = random_spd_quadratic(6, 12)
        wolfe = WolfeConfig()
        res = bfgs_minimize(obj, x0, StopCriteria(grad_tol=1e-8, max_iters=60), wolfe,
                            step_observer=records.append)
        assert res.status == STATUS_CONVERGED_GRAD
        assert records, "expected at least one accepted step"
        for rec in records:
            assert linalg.dot(rec.g, rec.p) < 0  # descent
            assert_strong_wolfe(obj, rec.x, rec.p, rec.f, rec.g, rec.alpha, wolfe)
            assert rec.f_new < rec.f  # monotone decrease
            assert linalg.is_symmetric(rec.h_inv_after, 1e-10)
            assert linalg.is_spd(rec.h_inv_after, 1e-14)
            if not rec.update_skipped:
                secant = rec.h_inv_after @ rec.y
                assert np.all(np.abs(secant - rec.s) <= 1e-9 * np.maximum(1.0, np.abs(rec.s)))

    def test_step_records_are_snapshots(self):
        # bfgs_minimize updates its H in place; each record must keep its own copy
        records = []
        obj, x0 = random_spd_quadratic(6, 12)
        res = bfgs_minimize(obj, x0, StopCriteria(grad_tol=1e-8, max_iters=60),
                            step_observer=records.append)
        assert res.status == STATUS_CONVERGED_GRAD
        assert res.n_restarts == 0 and len(records) >= 3
        for i, rec in enumerate(records):
            for other in records[i + 1:]:
                assert not np.shares_memory(rec.h_inv_after, other.h_inv_after)
        h = np.eye(6)
        for rec in records:
            if not rec.update_skipped:
                h = bfgs_update_inv_hessian(h, rec.s, rec.y)
            assert np.array_equal(rec.h_inv_after, h)

    def test_restart_steps_along_minus_gradient(self, monkeypatch):
        import qnmlp.optim as optim_module

        real = optim_module.wolfe_line_search
        calls = {"n": 0}

        def fail_third(obj, x, p, f0, g0, cfg=WolfeConfig()):
            calls["n"] += 1
            if calls["n"] == 3:
                raise LineSearchError("injected", 0.0, f0, g0, 0)
            return real(obj, x, p, f0, g0, cfg)

        monkeypatch.setattr(optim_module, "wolfe_line_search", fail_third)
        records = []
        obj, x0 = random_spd_quadratic(6, 12)
        res = bfgs_minimize(obj, x0, StopCriteria(grad_tol=1e-8, max_iters=60),
                            step_observer=records.append)
        assert res.status == STATUS_CONVERGED_GRAD
        assert calls["n"] > 3
        assert res.n_restarts == 1
        assert res.n_salvaged == 0
        restart = records[2]
        assert restart.iteration == 3
        assert np.array_equal(restart.p, -restart.g)
        assert not restart.update_skipped
        assert np.array_equal(restart.h_inv_after,
                              bfgs_update_inv_hessian(np.eye(6), restart.s, restart.y))

    @pytest.mark.parametrize("case", ["converged", "max_iters", "salvaged"])
    def test_callback_matches_history(self, case):
        if case == "salvaged":
            # unbounded below: both searches exhaust the bracket, the best trial is kept
            obj, x0 = Objective(lambda x: (-x[0], np.array([-1.0])), 1), np.array([0.0])
            stop, status = StopCriteria(grad_tol=1e-8, max_iters=10), STATUS_LINE_SEARCH_FAILED
        elif case == "max_iters":
            obj, x0 = random_spd_quadratic(6, 3)
            stop, status = StopCriteria(grad_tol=1e-15, max_iters=2), STATUS_MAX_ITERS
        else:
            obj, x0 = random_spd_quadratic(6, 12)
            stop, status = StopCriteria(grad_tol=1e-8, max_iters=60), STATUS_CONVERGED_GRAD
        seen = []
        res = bfgs_minimize(obj, x0, stop,
                            callback=lambda it, x, f, grad_norm: seen.append((it, f, grad_norm)))
        assert res.status == status
        assert len(res.history) == res.iters + 1 >= 2
        assert seen == res.history
        assert res.grad_norm_final == res.history[-1][2]
        assert res.n_salvaged == (case == "salvaged")

    @pytest.mark.parametrize("case", ["quadratic", "beale", "salvaged"])
    def test_fevals_count_every_objective_call(self, case):
        from qnmlp import beale_objective

        if case == "salvaged":
            inner, x0 = Objective(lambda x: (-x[0], np.array([-1.0])), 1), np.array([0.0])
        elif case == "beale":
            inner, x0 = beale_objective(), np.array([1.0, 1.0])
        else:
            inner, x0 = random_spd_quadratic(6, 12)
        calls = {"n": 0}

        def counted(x):
            calls["n"] += 1
            return inner.fun(x)

        res = bfgs_minimize(Objective(counted, inner.dim), x0, StopCriteria(grad_tol=1e-8, max_iters=100))
        assert res.n_fevals == calls["n"] > res.iters
        assert res.n_restarts == 0  # the salvaged case fails with H = I, so it has no retry

    def test_no_retry_while_h_is_identity(self):
        # unbounded below: the search along -g from H = I exhausts the bracket, and
        # a steepest-descent retry would repeat it call for call
        obj = Objective(lambda x: (-x[0], np.array([-1.0])), 1)
        res = bfgs_minimize(obj, np.array([0.0]), StopCriteria(grad_tol=1e-8, max_iters=10))
        assert res.status == STATUS_LINE_SEARCH_FAILED
        assert res.n_fevals == 12  # the start and the 11 trials of one failed search
        assert res.n_restarts == 0
        assert res.n_salvaged == 1

    def test_nan_slope_ends_line_search_failed(self):
        # g.p is NaN at the start: no trial, no retry while H is I
        obj = Objective(lambda x: (float(x[0] ** 2), np.array([np.nan])), 1)
        res = bfgs_minimize(obj, [1.0])
        assert res.status == STATUS_LINE_SEARCH_FAILED
        assert res.iters == 0
        assert res.n_fevals == 1
        assert res.n_restarts == 0
        assert res.n_salvaged == 0

    def test_refused_update_is_skipped(self, monkeypatch):
        import qnmlp.optim as optim_module

        real = optim_module.bfgs_update_inv_hessian
        calls = {"n": 0}

        def refuse_second(h_inv, s, y, *, out=None):
            calls["n"] += 1
            if calls["n"] == 2:
                raise CurvatureError("injected")
            return real(h_inv, s, y, out=out)

        monkeypatch.setattr(optim_module, "bfgs_update_inv_hessian", refuse_second)
        records = []
        obj, x0 = random_spd_quadratic(6, 12)
        res = bfgs_minimize(obj, x0, StopCriteria(grad_tol=1e-8, max_iters=60),
                            step_observer=records.append)
        assert res.status == STATUS_CONVERGED_GRAD
        assert res.n_skipped_updates == 1
        assert [rec.update_skipped for rec in records[:3]] == [False, True, False]
        assert np.array_equal(records[1].h_inv_after, records[0].h_inv_after)

    def test_deterministic_histories(self):
        obj, x0 = random_spd_quadratic(5, 21)
        res1 = bfgs_minimize(obj, x0, StopCriteria(grad_tol=1e-9, max_iters=50))
        res2 = bfgs_minimize(obj, x0, StopCriteria(grad_tol=1e-9, max_iters=50))
        assert res1.history == res2.history
        assert np.array_equal(res1.x_final, res2.x_final)

    def test_max_iters_status(self):
        obj, x0 = random_spd_quadratic(6, 3)
        res = bfgs_minimize(obj, x0, StopCriteria(grad_tol=1e-15, max_iters=2))
        assert res.status in (STATUS_MAX_ITERS, STATUS_CONVERGED_GRAD)
        if res.status == STATUS_MAX_ITERS:
            assert res.iters == 2

    def test_line_search_failure_reported(self):
        obj = Objective(lambda x: (-x[0], np.array([-1.0])), 1)
        res = bfgs_minimize(obj, np.array([0.0]), StopCriteria(grad_tol=1e-8, max_iters=10))
        assert res.status == STATUS_LINE_SEARCH_FAILED
        assert len(res.history) == res.iters + 1
        # the salvage step keeps the best point the failed search saw
        assert res.f_final <= 0.0

    def test_dimension_mismatch(self):
        obj = quadratic_objective(np.eye(2), np.zeros(2))
        with pytest.raises(ValueError):
            bfgs_minimize(obj, np.zeros(3))

    @pytest.mark.parametrize("x0", [np.zeros(0), np.array([1.0, np.nan]),
                                    np.array([np.inf, 0.0]), np.zeros((1, 2))],
                             ids=["empty", "nan", "inf", "2d"])
    def test_x0_rejected(self, x0):
        obj = quadratic_objective(np.eye(2), np.zeros(2))
        with pytest.raises(ValueError):
            bfgs_minimize(obj, x0)

    def test_zero_gradient_with_grad_tol_disabled(self):
        # constant objective: no descent direction exists anywhere
        obj = Objective(lambda x: (1.0, np.zeros(2)), 2)
        res = bfgs_minimize(obj, np.zeros(2),
                            StopCriteria(grad_tol=0.0, max_iters=5))
        assert res.status == STATUS_LINE_SEARCH_FAILED
        assert res.iters == 0

    def test_booth_direct(self):
        from qnmlp import booth_objective
        res = bfgs_minimize(booth_objective(), np.array([0.0, 0.0]),
                            StopCriteria(grad_tol=1e-6, max_iters=50))
        assert res.status == STATUS_CONVERGED_GRAD
        assert np.allclose(res.x_final, [1.0, 3.0], atol=1e-5)


def tiny_training_setup(seed=0, rows=6, hidden=3):
    rng = np.random.default_rng(seed)
    inputs = rng.uniform(-1.0, 1.0, size=(rows, 2))
    raw = rng.uniform(0.0, 1.0, size=rows)
    data = Dataset.from_samples(inputs, raw, rows - 1)
    topology = Topology(2, hidden, 1)
    net = Network(topology, init_params(topology, seed + 1))
    return net, data


def poison_loss_after(monkeypatch, good_calls):
    """Make the trainers' loss_and_grad return a NaN loss after good_calls calls.

    Returns the dict whose "n" counts every call.
    """
    import qnmlp.optim as optim_module

    real = optim_module.loss_and_grad
    calls = {"n": 0}

    def poisoned(n, d, rows="train"):
        calls["n"] += 1
        if calls["n"] > good_calls:
            return float("nan"), np.zeros(n.topology.n_params)
        return real(n, d, rows)

    monkeypatch.setattr(optim_module, "loss_and_grad", poisoned)
    return calls


def reference_online_gd(net, data, eta, epochs):
    """Online delta rule in its textbook form: mlp.sigmoid on both layers, np.outer updates.

    Returns the final parameters and the (epoch, train MSE, gradient norm)
    history, computed the way gd_train computes it.
    """
    params = np.array(net.params)
    w1, b1, w2, b2 = unpack_params(net.topology, params)
    x_train, targets = data.rows("train")
    history = [(0, loss_mse(net, data, "train"), np.linalg.norm(loss_and_grad(net, data, "train")[1]))]
    for epoch in range(1, epochs + 1):
        for i in range(x_train.shape[0]):
            xi = x_train[i]
            hidden = sigmoid(w1 @ xi + b1)
            out = sigmoid(w2 @ hidden + b2)
            delta_out = out * (1.0 - out) * (targets[i] - out)
            delta_hid = hidden * (1.0 - hidden) * (w2.T @ delta_out)
            w2 += eta * np.outer(delta_out, hidden)
            b2 += eta * delta_out
            w1 += eta * np.outer(delta_hid, xi)
            b1 += eta * delta_hid
        f, grad = loss_and_grad(net.with_params(params), data, "train")
        history.append((epoch, f, np.linalg.norm(grad)))
    return params, history


def assert_within_1e12(actual, expected):
    """|a - b| / max(1, |a|, |b|) <= 1e-12 for every entry."""
    a = np.asarray(actual, dtype=np.float64)
    b = np.asarray(expected, dtype=np.float64)
    assert a.shape == b.shape
    worst = np.max(np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b))))
    assert worst <= 1e-12, f"largest relative difference {worst:.3g}"


# (function or input width, hidden units, weight scale): the two surfaces at
# n_in = 2, plus random inputs at n_in = 1 and 3.
GD_REFERENCE_CASES = [(function, hidden, scale) for scale in (1.0, 50.0)
                      for hidden in (1, 10) for function in ("beale", "booth")]
GD_REFERENCE_CASES += [(1, 3, 1.0), (3, 40, 1.0)]


def gd_reference_id(case):
    function, hidden, scale = case
    name = function if isinstance(function, str) else f"in{function}"
    return f"{'saturating' if scale > 1.0 else 'plain'}-{hidden}-{name}"


class TestGdTrain:
    @pytest.mark.parametrize("case", GD_REFERENCE_CASES, ids=map(gd_reference_id, GD_REFERENCE_CASES))
    def test_online_within_1e12_of_reference(self, case):
        function, hidden, scale = case
        if isinstance(function, str):
            data = sample_dataset({"beale": BEALE, "booth": BOOTH}[function], 60, 0.8, 7)
        else:
            rng = np.random.default_rng(7)
            data = Dataset.from_samples(rng.uniform(-2.0, 2.0, size=(60, function)),
                                        rng.uniform(0.0, 1.0, size=60), 48)
        topology = Topology(data.inputs.shape[1], hidden, 1)
        net = Network(topology, scale * init_params(topology, 7))
        if scale > 1.0:
            # both branches of the overflow-safe sigmoid, deep in saturation
            w1, b1, _, _ = unpack_params(topology, net.params)
            z = data.rows("train")[0] @ w1.T + b1
            assert z.max() > 40.0 and z.min() < -40.0
        trained, res = gd_train(net, data, GdConfig(eta=0.1, epochs=12))
        params, history = reference_online_gd(net, data, 0.1, 12)
        assert res.status == STATUS_MAX_ITERS
        assert_within_1e12(trained.params, params)
        assert_within_1e12(res.history, history)

    def test_vanishing_eta_changes_nothing(self):
        net, data = tiny_training_setup()
        initial = loss_mse(net, data, "train")
        trained, res = gd_train(net, data, GdConfig(eta=1e-9, epochs=3))
        assert abs(res.f_final - initial) <= 1e-6
        assert res.status == STATUS_MAX_ITERS

    def test_one_epoch_eta_1e12_moves_below_1e10(self):
        net, data = tiny_training_setup()
        trained, _ = gd_train(net, data, GdConfig(eta=1e-12, epochs=1))
        assert np.all(np.abs(trained.params - net.params) <= 1e-10)

    def test_batch_step_is_minus_eta_grad(self):
        net, data = tiny_training_setup(seed=5, rows=2, hidden=1)
        eta = 0.05
        grad = grad_backprop(net, data, "train")
        trained, _ = gd_train(net, data, GdConfig(eta=eta, epochs=1, mode="batch"))
        assert np.array_equal(trained.params, net.params - eta * grad)
        # the output-bias coordinate of the gradient agrees with the oracle
        oracle = finite_diff_grad(net, data, "train", 1e-5)
        assert abs(grad[-1] - oracle[-1]) <= 1e-9

    def test_online_matches_batch_on_single_row_after_factor(self):
        # one training example: the per-example rule with eta equals the
        # batch rule with eta/2 (the averaged loss carries the factor 2/N)
        net, data = tiny_training_setup(seed=9, rows=2, hidden=2)
        online, _ = gd_train(net, data, GdConfig(eta=0.2, epochs=1, mode="online"))
        batch, _ = gd_train(net, data, GdConfig(eta=0.1, epochs=1, mode="batch"))
        assert np.all(np.abs(online.params - batch.params) <= 1e-12)

    def test_history_once_per_epoch(self):
        net, data = tiny_training_setup()
        seen = []
        _, res = gd_train(net, data, GdConfig(eta=0.1, epochs=4),
                          callback=lambda it, x, f, grad_norm: seen.append((it, f, grad_norm)))
        assert len(res.history) == 5
        assert res.n_fevals == 5  # one loss_and_grad call at the start and one per epoch
        assert [entry[0] for entry in res.history] == [0, 1, 2, 3, 4]
        assert seen == res.history

    def test_deterministic(self):
        net, data = tiny_training_setup(seed=2)
        first, res1 = gd_train(net, data, GdConfig(eta=0.1, epochs=5))
        second, res2 = gd_train(net, data, GdConfig(eta=0.1, epochs=5))
        assert np.array_equal(first.params, second.params)
        assert res1.history == res2.history

    def test_divergence_halts_with_partial_history(self, monkeypatch):
        net, data = tiny_training_setup()
        calls = poison_loss_after(monkeypatch, 2)
        trained, res = gd_train(net, data, GdConfig(eta=0.1, epochs=10))
        assert res.status == STATUS_DIVERGED
        assert res.iters < 10
        assert res.n_fevals == calls["n"]
        assert len(res.history) == res.iters + 1
        assert np.all(np.isfinite(trained.params))

    @pytest.mark.parametrize("case", ["max_iters", "batch", "diverged"])
    def test_callback_matches_history(self, case, monkeypatch):
        net, data = tiny_training_setup()
        cfg, status = GdConfig(eta=0.1, epochs=6), STATUS_MAX_ITERS
        if case == "batch":
            cfg = GdConfig(eta=0.1, epochs=6, mode="batch")
        elif case == "diverged":
            poison_loss_after(monkeypatch, 2)  # the loss after epoch 2 is NaN
            status = STATUS_DIVERGED
        seen, points = [], []

        def callback(it, x, f, grad_norm):
            seen.append((it, f, grad_norm))
            points.append(x)

        trained, res = gd_train(net, data, cfg, callback=callback)
        assert res.status == status
        assert seen == res.history
        assert res.iters == res.history[-1][0] == (1 if case == "diverged" else 6)
        assert np.array_equal(points[0], net.params)
        assert np.array_equal(points[-1], res.x_final)
        assert np.array_equal(res.x_final, trained.params)
        # each call gets its own frozen epoch parameters
        assert all(not x.flags.writeable for x in points)
        assert len({x.tobytes() for x in points}) == len(points)


class TestBfgsTrain:
    def test_fixed_point_converges_at_zero(self):
        net, _ = tiny_training_setup(seed=3)
        rng = np.random.default_rng(3)
        inputs = rng.uniform(-1.0, 1.0, size=(5, 2))
        from qnmlp.mlp import _forward_batch

        _, outs = _forward_batch(unpack_params(net.topology, net.params), inputs)
        data = Dataset(inputs, outs[:, 0], 4)
        trained, res = bfgs_train(net, data)
        assert res.iters == 0
        assert res.status == STATUS_CONVERGED_GRAD
        assert res.grad_norm_final == 0.0
        assert np.array_equal(trained.params, net.params)

    def test_monotone_loss_history(self):
        net, data = tiny_training_setup(seed=4, rows=12)
        seen = []
        _, res = bfgs_train(net, data, StopCriteria(grad_tol=1e-7, max_iters=40),
                            callback=lambda it, x, f, grad_norm: seen.append((it, f, grad_norm)))
        losses = [f for _, f, _ in res.history]
        assert all(b < a for a, b in zip(losses, losses[1:]))
        assert seen == res.history

    def test_beats_gd_on_booth(self):
        data = sample_dataset(BOOTH, 200, 0.8, 42)
        topology = Topology(2, 10, 1)
        net = Network(topology, init_params(topology, 42))
        _, bfgs_res = bfgs_train(net, data, StopCriteria(grad_tol=1e-6, max_iters=500))
        _, gd_res = gd_train(net, data, GdConfig(eta=0.1, epochs=500))
        assert bfgs_res.f_final < gd_res.f_final

    def test_longer_budget_never_increases_final_loss(self):
        net, data = tiny_training_setup(seed=6, rows=10)
        _, short = bfgs_train(net, data, StopCriteria(grad_tol=1e-12, max_iters=5))
        _, long = bfgs_train(net, data, StopCriteria(grad_tol=1e-12, max_iters=10))
        assert long.f_final <= short.f_final
