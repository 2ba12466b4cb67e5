import ast
import warnings
from math import exp

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
from qnmlp import optim
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


def recorder():
    """A callback that keeps (iter, f, grad_norm) of every call, and the list it fills."""
    seen = []
    return seen, lambda it, x, f, grad_norm: seen.append((it, f, grad_norm))


class TestConfigValidation:
    def test_gd_eta_positive(self):
        with pytest.raises(ValueError):
            GdConfig(eta=0.0)

    def test_gd_eta_finite(self):
        with pytest.raises(ValueError):
            GdConfig(eta=float("inf"))

    def test_wolfe_constant_ordering(self):
        with pytest.raises(ValueError):
            WolfeConfig(c1=0.5, c2=0.4)
        with pytest.raises(ValueError):
            WolfeConfig(c1=0.0)
        with pytest.raises(ValueError):
            WolfeConfig(c2=1.0)

    @pytest.mark.parametrize("config, field", [(GdConfig, "epochs"), (StopCriteria, "max_iters")])
    def test_counts_are_integers(self, config, field):
        # A float count used to construct: epochs=2.5 failed later in range(),
        # and max_iters=2.5 ran 3 iterations.
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            config(**{field: 2.5})
        stored = getattr(config(**{field: np.int64(3)}), field)
        assert type(stored) is int and stored == 3

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

    def test_non_finite_trial_is_not_evaluated(self):
        # x + 1 * p overflows to inf. A Network used to refuse such a point with a
        # ValueError; an overflowed weight would instead saturate the sigmoid to a
        # finite loss. The search must fail that trial without calling the objective.
        seen = []

        def fun(x):
            seen.append(x.copy())
            if not np.isfinite(x).all():
                raise ValueError("parameters must all be finite")
            return 0.0, np.array([-1.0])

        x, p = np.array([1e308]), np.array([1e308])
        with pytest.raises(LineSearchError) as failure:
            wolfe_line_search(Objective(fun, 1), x, p, 0.0, np.array([-1.0]), WolfeConfig())
        assert all(np.isfinite(point).all() for point in seen)
        # Every zoom trial between 0 and the failed unit step is evaluated and counted.
        assert failure.value.evals == len(seen) == optim.MAX_ZOOM_STEPS

    def test_zoom_out_at_the_floor_returns_lowest_approximate_wolfe_trial(self):
        # f is 1.0 up to a few ulps of rounding noise, so it cannot resolve the decrease
        # of about 3e-22 that sufficient decrease asks for, while g is that of a
        # quadratic with its minimum at alpha = 2/3. Every trial is a bisection point
        # 2**-j, none meets the strong Wolfe conditions, and the zoom runs out.
        noise_ulps = {0: 2, 1: 1, 2: 3, 3: 1}  # by j; none from alpha = 1/16 down
        p, g0, cfg = np.array([1.5e-9]), np.array([-2e-9]), WolfeConfig()
        seen = []

        def fun(x):
            j = round(-np.log2(x[0] / p[0]))
            seen.append((1.0 + noise_ulps.get(j, 0) * np.spacing(1.0), np.array([2.0 * (x[0] - 1e-9)])))
            return seen[-1]

        alpha, f, g, evals = wolfe_line_search(Objective(fun, 1), np.zeros(1), p, 1.0, g0, cfg)
        assert evals == len(seen) == 1 + optim.MAX_ZOOM_STEPS  # the unit step, then the zoom
        d0 = float(g0 @ p)
        approx = [(f_t, g_t) for f_t, g_t in seen if f_t <= 1.0 + optim.APPROX_WOLFE_EPS
                  and (2 * cfg.c1 - 1) * d0 >= float(g_t @ p) >= -cfg.c2 * abs(d0)]
        assert len(approx) == 4  # alpha = 1, 1/2, 1/4 and 1/8
        # The first trial with the lowest f among them: alpha = 1/2, not 1/8, at 1 ulp.
        # The trials at 0 ulps lie too near 0, where the slope is still steep.
        assert (alpha, f) == (0.5, 1.0 + np.spacing(1.0))
        assert f == min(f_t for f_t, _ in approx) and g is approx[1][1]
        assert min(f_t for f_t, _ in seen) == 1.0
        assert not f <= 1.0 + cfg.c1 * alpha * d0  # not a strong-Wolfe step

    @pytest.mark.parametrize("outcome", ["returns", "LineSearchError", "NotDescentError"])
    def test_search_puts_back_the_callers_error_state(self, outcome):
        # The search turns numpy's overflow and invalid-value warnings off once, around
        # its bracket and zoom, and the caller's state is back however it ends.
        parabola = lambda x: (x[0] ** 2, 2.0 * x)
        fun, direction = {"returns": (parabola, -1.0),
                          "LineSearchError": (lambda x: (-x[0], np.array([-1.0])), 1.0),  # the step cap
                          "NotDescentError": (parabola, 1.0)}[outcome]
        obj, x = Objective(fun, 1), np.array([1.0])
        f0, g0 = obj.eval(x)
        with np.errstate(all="raise"):
            before = np.geterr()
            try:
                wolfe_line_search(obj, x, np.array([direction]), f0, g0)
            except LineSearchError as failure:
                assert type(failure).__name__ == outcome
            else:
                assert outcome == "returns"
            assert np.geterr() == before

    def test_objective_that_overflows_is_quiet(self):
        # f = exp(x) - 2x from x = -1 along p = 1000: the unit step's exp(999) overflows
        # to inf, which fails sufficient decrease, and the zoom finds a step below it.
        seen = []

        def fun(x):
            seen.append(x[0])
            e = np.exp(x)
            return e[0] - 2.0 * x[0], e - 2.0

        obj, x, p = Objective(fun, 1), np.array([-1.0]), np.array([1e3])
        with pytest.warns(RuntimeWarning, match="overflow"):
            obj.eval(x + p)  # outside a search the objective warns
        f0, g0 = obj.eval(x)
        seen.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alpha, f, _, _ = wolfe_line_search(obj, x, p, f0, g0)
        assert seen[0] == 999.0 and np.isfinite(f) and 0 < alpha < 1

    def test_unbounded_linear_descent_fails(self):
        # f(x) = -x has constant slope: the curvature condition can never hold
        obj = Objective(lambda x: (-x[0], np.array([-1.0])), 1)
        x = np.array([0.0])
        f0, g0 = obj.eval(x)
        with pytest.raises(LineSearchError) as failure:
            wolfe_line_search(obj, x, np.array([1.0]), f0, g0, WolfeConfig())
        # The step cap ends the bracket: trials 1, 2, 4, ..., 512, then 1e3.
        assert failure.value.evals == 11


def reference_inv_update(h, s, y):
    """Inverse-Hessian update in its textbook product form, unsymmetrized:
    (I - rho s y^T) H (I - rho y s^T) + rho s s^T with rho = 1 / y.s."""
    rho = 1.0 / float(np.dot(y, s))
    eye = np.eye(s.size)
    return (eye - rho * np.outer(s, y)) @ h @ (eye - rho * np.outer(y, s)) + rho * np.outer(s, s)


def reference_expanded_update(h, s, y):
    """The expanded update H + (u s^T + s u^T) as one expression, with fresh
    n x n temporaries: the arithmetic the in-place kernel must match bit for
    bit."""
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
        with pytest.raises(CurvatureError, match="s.B.s"):
            bfgs_update_hessian(np.diag([0.0, 1.0]), s, s)  # y.s > 0, but s.B.s == 0

    def test_inverse_update_refuses_curvature_below_floor(self):
        s = np.array([1.0, 0.0])
        # y.s = 1e-11 > 0, but below CURVATURE_FLOOR * |y| * |s| (about 1e-10)
        with pytest.raises(CurvatureError):
            bfgs_update_inv_hessian(np.eye(2), s, np.array([1e-11, 1.0]))
        out = bfgs_update_inv_hessian(np.eye(2), s, np.array([1e-9, 1.0]))
        assert np.all(np.isfinite(out))

    def test_refused_pair_leaves_h_unwritten(self):
        rng = np.random.default_rng(3)
        h = rng.standard_normal((70, 70))
        before = h.copy()
        s = rng.standard_normal(70)
        with pytest.raises(CurvatureError):
            bfgs_update_inv_hessian(h, s, -s)
        assert np.array_equal(h, before)

    def test_h_that_is_not_writable_float64_raises_unwritten(self):
        # the update checks H before the kernel runs, so these raise before any entry is written
        s, y = np.array([1.0, 0.5]), np.array([2.0, 0.3])
        read_only = np.eye(2)
        read_only.flags.writeable = False
        partial_stride = np.ndarray((2, 2), dtype=np.float64, buffer=bytearray(64), strides=(17, 8))
        for h, error in [([[1.0, 0.0], [0.0, 1.0]], TypeError),
                         (np.eye(2, dtype=np.int64), TypeError),
                         (np.eye(2, dtype=np.float32), TypeError),
                         (read_only, ValueError),
                         (np.eye(3)[:, :2], ValueError),
                         (np.eye(2)[None], ValueError),
                         (partial_stride, ValueError),
                         # the kernel walks a C-contiguous H only
                         (np.eye(2).T, ValueError),
                         (np.eye(4)[::2, ::2], ValueError),
                         (np.eye(2)[::-1], ValueError)]:
            before = np.array(h, copy=True)
            with pytest.raises(error):
                bfgs_update_inv_hessian(h, s, y)
            assert np.array_equal(np.asarray(h), before)

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
        h, ref = np.eye(n), np.eye(n)
        for _ in range(30):
            s = rng.standard_normal(n)
            y = a @ s
            expected = reference_expanded_update(h, s, y)
            ref = reference_inv_update(ref, s, y)
            assert bfgs_update_inv_hessian(h, s, y) is h
            assert np.array_equal(h, h.T)
            assert np.max(np.abs(h - ref)) <= 1e-12 * np.max(np.abs(ref))
            assert np.array_equal(h, expected)

    def test_in_place_update_allocates_no_full_matrix(self):
        import tracemalloc

        n = 401
        rng = np.random.default_rng(0)
        h = np.eye(n)
        s = rng.standard_normal(n)
        y = s + 0.1 * rng.standard_normal(n)
        tracemalloc.start()
        try:
            bfgs_update_inv_hessian(h, s, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a few vectors (measured 0.011); a fresh n x n result alone is 1.0
        assert peak <= 0.5 * n * n * 8

    def test_kernel_rounds_each_product_before_adding(self):
        # The update's entries are fl(fl(u_i s_j) + fl(s_i u_j)) only if the compiled kernel
        # rounds each product before the add. With u = (x, x) and s = (-x, x), entry (0, 1) is
        # x*x - x*x, exactly 0 that way; a fused multiply-add leaves the rounding error of x*x,
        # +-2**-60.
        x = 1.0 + 2.0 ** -30
        h = np.zeros((2, 2))
        optim._add_rank_two(h, np.array([x, x]), np.array([-x, x]))
        assert h[0, 1] == 0.0, (
            f"the update kernel gave {h[0, 1]!r}, not 0.0: the C compiler fused multiply and add, "
            "so the inverse-Hessian update's bits, which depend on each product being rounded, differ")

    def test_kernel_gets_the_types_the_table_names(self, monkeypatch):
        # The kernel has no argtypes: each call's arguments are the ctypes objects that
        # mlp._KERNEL_SIGNATURES names, built per call, as h and u, s change.
        from types import SimpleNamespace

        from qnmlp.mlp import _KERNEL_SIGNATURES

        kernel, calls = optim._kernels().rank_two_update, []

        def checked(*args):  # checks before the call: a wrong type could crash it
            calls.append(tuple(type(a) for a in args))
            assert calls[-1] == _KERNEL_SIGNATURES["rank_two_update"]
            kernel(*args)

        monkeypatch.setattr(optim, "_kernels", lambda: SimpleNamespace(rank_two_update=checked))
        rng = np.random.default_rng(4)
        h = np.eye(6)
        for _ in range(2):
            s = rng.standard_normal(6)
            y = 2.0 * s + 0.1 * rng.standard_normal(6)
            expected = reference_expanded_update(h, s, y)
            assert bfgs_update_inv_hessian(h, s, y) is h and np.array_equal(h, expected)
        assert len(calls) == 2

    @pytest.mark.parametrize("view", ["row", "column"])
    def test_s_that_is_a_view_into_h(self, view):
        rng = np.random.default_rng(11)
        n = 7
        m = rng.standard_normal((n, n))
        h = m @ m.T + n * np.eye(n)
        s = h[3] if view == "row" else h[:, 3]
        y = 2.0 * s + 0.1 * rng.standard_normal(n)
        expected = reference_expanded_update(h, s, y)  # a fresh array, from H and s before the update
        bfgs_update_inv_hessian(h, s, y)
        assert np.array_equal(h, expected)

    def test_kernel_build_flags(self, monkeypatch):
        import subprocess

        commands = []
        run = subprocess.run
        monkeypatch.setattr(subprocess, "run", lambda command, **kw: commands.append(command) or run(command, **kw))
        optim._kernels.__wrapped__()  # a fresh build; the process's cached library is untouched
        [command] = commands
        assert command[0] == "cc"
        assert "-ffp-contract=off" in command and "-fno-fast-math" in command
        assert not [flag for flag in command if flag.startswith("-march") or flag in ("-ffast-math", "-Ofast")]

    def test_kernel_build_leaves_no_file(self, tmp_path, monkeypatch):
        import tempfile
        from pathlib import Path

        scratch, cwd = tmp_path / "tmp", tmp_path / "cwd"
        scratch.mkdir()
        cwd.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        monkeypatch.chdir(cwd)
        package = Path(optim.__file__).parent
        before = sorted(package.iterdir())
        optim._kernels.__wrapped__()
        assert list(scratch.iterdir()) == [] and list(cwd.iterdir()) == []
        assert sorted(package.iterdir()) == before

    def test_kernel_built_once_per_process(self):
        from qnmlp.cli import _gradcheck_max_error

        net, data = tiny_training_setup(seed=5)
        gd_train(net, data, GdConfig(epochs=2))
        bfgs_train(net, data, StopCriteria(max_iters=3))
        _gradcheck_max_error(2, seed=0)
        rng = np.random.default_rng(2)
        for n in (3, 40):
            h = np.eye(n)
            for _ in range(3):
                s = rng.standard_normal(n)
                bfgs_update_inv_hessian(h, s, 2.0 * s)
        assert optim._kernels.cache_info().misses == 1


class TestBfgsMinimize:
    def test_isotropic_quadratic_converges_immediately(self):
        obj = quadratic_objective(np.eye(2), np.zeros(2))
        res = bfgs_minimize(obj, np.array([1.0, 1.0]), StopCriteria(grad_tol=1e-10, max_iters=10))
        assert res.status == STATUS_CONVERGED_GRAD
        assert res.iters <= 2
        assert res.grad_norm_final <= 1e-10

    def test_already_converged_returns_iteration_zero(self):
        obj = quadratic_objective(np.eye(3), np.zeros(3))
        seen, callback = recorder()
        res = bfgs_minimize(obj, np.zeros(3), StopCriteria(grad_tol=1e-8), callback=callback)
        assert res.iters == 0
        assert res.status == STATUS_CONVERGED_GRAD
        assert len(seen) == 1

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
        seen, callback = recorder()
        res = bfgs_minimize(obj, x0, StopCriteria(grad_tol=1e-9, max_iters=40), callback=callback)
        assert [entry[0] for entry in seen] == list(range(res.iters + 1))

    def test_step_record_comes_before_the_iterate_it_reaches(self):
        events = []
        obj, x0 = random_spd_quadratic(3, 5)
        res = bfgs_minimize(obj, x0, StopCriteria(grad_tol=1e-9, max_iters=40),
                            callback=lambda k, x, f, gn: events.append(("iterate", k)),
                            step_observer=lambda rec: events.append(("step", rec.iteration)))
        assert res.n_skipped_updates == 0
        expected = [("iterate", 0)]
        for k in range(1, res.iters + 1):
            expected += [("step", k), ("iterate", k)]
        assert events == expected

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
                raise LineSearchError("injected", 0)
            return real(obj, x, p, f0, g0, cfg)

        monkeypatch.setattr(optim_module, "wolfe_line_search", fail_third)
        records = []
        obj, x0 = random_spd_quadratic(6, 12)
        res = bfgs_minimize(obj, x0, StopCriteria(grad_tol=1e-8, max_iters=60),
                            step_observer=records.append)
        assert res.status == STATUS_CONVERGED_GRAD
        assert calls["n"] > 3
        assert res.n_restarts == 1
        restart = records[2]
        assert restart.iteration == 3
        assert np.array_equal(restart.p, -restart.g)
        assert not restart.update_skipped
        assert np.array_equal(restart.h_inv_after,
                              bfgs_update_inv_hessian(np.eye(6), restart.s, restart.y))

    @pytest.mark.parametrize("case", ["converged", "max_iters", "failed"])
    def test_callback_matches_history(self, case):
        if case == "failed":
            # unbounded below: the only search, along -g from H = I, reaches the step
            # cap, and the run ends at the start, its last accepted iterate
            obj, x0 = Objective(lambda x: (-x[0], np.array([-1.0])), 1), np.array([0.0])
            stop, status = StopCriteria(grad_tol=1e-8, max_iters=10), STATUS_LINE_SEARCH_FAILED
        elif case == "max_iters":
            obj, x0 = random_spd_quadratic(6, 3)
            stop, status = StopCriteria(grad_tol=1e-15, max_iters=2), STATUS_MAX_ITERS
        else:
            obj, x0 = random_spd_quadratic(6, 12)
            stop, status = StopCriteria(grad_tol=1e-8, max_iters=60), STATUS_CONVERGED_GRAD
        # The result is the callback's last call: there is no second per-iterate record.
        seen, points = [], []

        def callback(it, x, f, grad_norm):
            seen.append((it, f, grad_norm))
            points.append(x)

        res = bfgs_minimize(obj, x0, stop, callback=callback)
        assert res.status == status
        assert [entry[0] for entry in seen] == list(range(res.iters + 1))
        assert res.iters == 0 if case == "failed" else res.iters >= 1
        assert seen[-1] == (res.iters, res.f_final, res.grad_norm_final)
        assert np.array_equal(points[0], x0)
        assert np.array_equal(points[-1], res.x_final)

    @pytest.mark.parametrize("case", ["quadratic", "beale", "failed"])
    def test_fevals_count_every_objective_call(self, case):
        from qnmlp import beale_objective

        if case == "failed":
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
        assert res.n_restarts == 0  # the failed case fails with H = I, so it has no retry

    def test_no_retry_while_h_is_identity(self):
        # unbounded below: the search along -g from H = I exhausts the bracket, and
        # a steepest-descent retry would repeat it call for call
        obj = Objective(lambda x: (-x[0], np.array([-1.0])), 1)
        res = bfgs_minimize(obj, np.array([0.0]), StopCriteria(grad_tol=1e-8, max_iters=10))
        assert res.status == STATUS_LINE_SEARCH_FAILED
        assert res.n_fevals == 12  # the start and the 11 trials of one failed search
        assert res.n_restarts == 0

    @pytest.mark.parametrize("part", ["g", "g[0]"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_start_gradient_is_refused(self, part, value):
        calls = []

        def fun(x):
            calls.append(x)
            g = 2.0 * x
            g[0 if part == "g[0]" else slice(None)] = value
            return float(x @ x), g

        with pytest.raises(ValueError, match="not finite at the starting point"):
            bfgs_minimize(Objective(fun, 2), [1.0, 2.0])
        assert len(calls) == 1  # the start's call: no line-search trial

    def test_no_identity_while_h_is_i(self, monkeypatch):
        def no_eye(*args, **kwargs):
            raise AssertionError("np.eye called while H is I")

        monkeypatch.setattr(np, "eye", no_eye)
        res = bfgs_minimize(Objective(lambda x: (float(x @ x), 2.0 * x), 2), np.zeros(2))
        assert (res.status, res.iters) == (STATUS_CONVERGED_GRAD, 0)
        # unbounded below: the only search, along -g from H = I, reaches the step cap
        res = bfgs_minimize(Objective(lambda x: (-x[0], np.array([-1.0])), 1), np.array([0.0]),
                            StopCriteria(grad_tol=1e-8, max_iters=10))
        assert res.status == STATUS_LINE_SEARCH_FAILED
        assert (res.n_fevals, res.n_restarts) == (12, 0)

    def test_refused_update_is_skipped(self, monkeypatch):
        import qnmlp.optim as optim_module

        real = optim_module.bfgs_update_inv_hessian
        calls = {"n": 0}

        def refuse_second(h_inv, s, y):
            calls["n"] += 1
            if calls["n"] == 2:
                raise CurvatureError("injected")
            return real(h_inv, s, y)

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
        (seen1, callback1), (seen2, callback2) = recorder(), recorder()
        res1 = bfgs_minimize(obj, x0, StopCriteria(grad_tol=1e-9, max_iters=50), callback=callback1)
        res2 = bfgs_minimize(obj, x0, StopCriteria(grad_tol=1e-9, max_iters=50), callback=callback2)
        assert seen1 == seen2
        assert np.array_equal(res1.x_final, res2.x_final)

    def test_max_iters_status(self):
        obj, x0 = random_spd_quadratic(6, 3)
        res = bfgs_minimize(obj, x0, StopCriteria(grad_tol=1e-15, max_iters=2))
        assert res.status in (STATUS_MAX_ITERS, STATUS_CONVERGED_GRAD)
        if res.status == STATUS_MAX_ITERS:
            assert res.iters == 2

    def test_line_search_failure_reported(self):
        obj = Objective(lambda x: (-x[0], np.array([-1.0])), 1)
        seen, callback = recorder()
        res = bfgs_minimize(obj, np.array([0.0]), StopCriteria(grad_tol=1e-8, max_iters=10), callback=callback)
        assert res.status == STATUS_LINE_SEARCH_FAILED
        # the failed search's trials lowered f, but the run ends at x0, its last accepted iterate
        assert (res.iters, len(seen)) == (0, 1)
        assert np.array_equal(res.x_final, [0.0]) and res.f_final == 0.0

    def test_dimension_mismatch(self):
        obj = quadratic_objective(np.eye(2), np.zeros(2))
        with pytest.raises(ValueError):
            bfgs_minimize(obj, np.zeros(3))

    @pytest.mark.parametrize("g", [np.zeros(3), np.zeros((2, 1)), 0.0], ids=["long", "column", "scalar"])
    def test_gradient_of_wrong_shape_rejected(self, g):
        with pytest.raises(ValueError, match="gradient of shape"):
            bfgs_minimize(Objective(lambda x: (0.0, g), 2), np.zeros(2))

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


def poison_loss_after(monkeypatch, good_calls, poison=float("nan")):
    """Make the trainers' loss_and_grad return the loss poison after good_calls
    calls, or raise poison there when it is an exception.

    Returns the dict whose "n" counts every call.
    """
    import qnmlp.optim as optim_module

    real = optim_module.loss_and_grad
    calls = {"n": 0}

    def poisoned(n, d, rows="train"):
        calls["n"] += 1
        if calls["n"] > good_calls:
            if isinstance(poison, Exception):
                raise poison
            return poison, np.zeros(n.topology.n_params)
        return real(n, d, rows)

    monkeypatch.setattr(optim_module, "loss_and_grad", poisoned)
    return calls


def reference_online_gd(net, data, eta, epochs):
    """Online delta rule in its textbook form: mlp.sigmoid on both layers, np.outer updates.

    Returns the final parameters and the (epoch, train MSE, gradient norm)
    of every epoch, computed the way gd_train computes what it passes its
    callback.
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


def reference_scalar_epoch(w1, b1, w2, b2, rows, targets, eta):
    """One online delta-rule sweep written with loops over lists of floats.

    The loop form of the generated epoch, with the same operations in the
    same order; it updates the ``unpack_params`` views in place. Each
    hidden unit keeps its input weights followed by its bias, the output
    unit its weights followed by its bias, and every entry of ``rows`` ends
    with the bias input 1.0: each weighted sum adds its bias last, and the
    bias update is eta * (delta * 1.0).
    """
    units = [w + [b] for w, b in zip(w1.tolist(), b1.tolist())]
    v = w2[0].tolist() + b2.tolist()
    for x, target in zip(rows, targets):
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


def reference_sweep(n_in, n_hidden):
    """``reference_scalar_epoch`` behind the generated epoch's signature."""
    topology = Topology(n_in, n_hidden, 1)

    def sweep(params, rows, targets, eta):
        p = np.array(params)
        reference_scalar_epoch(*unpack_params(topology, p), [x + [1.0] for x in rows], targets, eta)
        return p

    return sweep


def random_gd_setup(n_in, hidden, scale, seed=7):
    """60 random rows (48 for training) at n_in inputs and a scaled random network."""
    rng = np.random.default_rng(seed)
    data = Dataset.from_samples(rng.uniform(-2.0, 2.0, size=(60, n_in)), rng.uniform(0.0, 1.0, size=60), 48)
    topology = Topology(n_in, hidden, 1)
    return Network(topology, scale * init_params(topology, seed)), data


# The generated epoch for n_in = 2, hidden = 2, as a reader checks it against
# reference_scalar_epoch.
EPOCH_SOURCE_2_2 = """\
def epoch(params, rows, targets, eta):
    w0_0, w0_1, w1_0, w1_1, b0, b1, v0, v1, c = params
    for (x0, x1,), t in zip(rows, targets):
        z = w0_0 * x0 + w0_1 * x1 + b0
        e = exp(-abs(z))
        h0 = (1.0 if z >= 0 else e) / (1.0 + e)
        z = w1_0 * x0 + w1_1 * x1 + b1
        e = exp(-abs(z))
        h1 = (1.0 if z >= 0 else e) / (1.0 + e)
        z = v0 * h0 + v1 * h1 + c
        e = exp(-abs(z))
        o = (1.0 if z >= 0 else e) / (1.0 + e)
        d = o * (1.0 - o) * (t - o)
        dh = h0 * (1.0 - h0) * (v0 * d)
        w0_0 += eta * (dh * x0)
        w0_1 += eta * (dh * x1)
        b0 += eta * dh
        dh = h1 * (1.0 - h1) * (v1 * d)
        w1_0 += eta * (dh * x0)
        w1_1 += eta * (dh * x1)
        b1 += eta * dh
        v0 += eta * (d * h0)
        v1 += eta * (d * h1)
        c += eta * d
    return w0_0, w0_1, w1_0, w1_1, b0, b1, v0, v1, c
"""


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
        seen, callback = recorder()
        trained, res = gd_train(net, data, GdConfig(eta=0.1, epochs=12), callback=callback)
        params, history = reference_online_gd(net, data, 0.1, 12)
        assert res.status == STATUS_MAX_ITERS
        assert_within_1e12(trained.params, params)
        assert_within_1e12(seen, history)

    @pytest.mark.parametrize("scale", [1.0, 50.0], ids=["plain", "saturating"])
    @pytest.mark.parametrize("hidden", [1, 10, 40])
    @pytest.mark.parametrize("n_in", [1, 2, 3])
    def test_online_same_bits_as_scalar_reference(self, n_in, hidden, scale):
        net, data = random_gd_setup(n_in, hidden, scale)
        trained, res = gd_train(net, data, GdConfig(eta=0.1, epochs=20))
        x_train, targets = data.rows("train")
        expected, sweep = np.array(net.params), reference_sweep(n_in, hidden)
        for _ in range(20):
            expected[:] = sweep(expected.tolist(), x_train.tolist(), targets.tolist(), 0.1)
        assert res.status == STATUS_MAX_ITERS
        assert np.array_equal(trained.params, expected)

    def test_epoch_source_pinned(self):
        assert optim._epoch_source(2, 2) == EPOCH_SOURCE_2_2

    @pytest.mark.parametrize("n_in, hidden", [(1, 1), (2, 2), (3, 12)])
    def test_epoch_source_is_straight_line(self, n_in, hidden):
        tree = ast.parse(optim._epoch_source(n_in, hidden))
        (func,) = tree.body
        arguments = {arg.arg for arg in func.args.args}
        stored = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
                  and isinstance(node.ctx, ast.Store)}
        assert not arguments & stored  # no generated local hides an argument
        # one loop, over the rows; nothing inside a row loops
        assert sum(isinstance(node, (ast.For, ast.While, ast.comprehension)) for node in ast.walk(tree)) == 1

    def test_epoch_function_cached_per_topology(self):
        setups = {hidden: tiny_training_setup(seed=hidden, hidden=hidden) for hidden in (3, 5)}
        fresh = {}
        for hidden, (net, data) in setups.items():
            optim._epoch_function.cache_clear()
            fresh[hidden] = gd_train(net, data, GdConfig(eta=0.1, epochs=4))[0].params
        optim._epoch_function.cache_clear()
        for hidden in (3, 5, 3, 5):
            net, data = setups[hidden]
            trained, _ = gd_train(net, data, GdConfig(eta=0.1, epochs=4))
            assert np.array_equal(trained.params, fresh[hidden])
        # built once per topology: the repeat fits reused the cached functions
        assert optim._epoch_function.cache_info().misses == 2

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

    def test_single_row_epoch_is_half_eta_gradient_step(self):
        # one training example: the per-example rule with eta is a gradient step
        # with eta/2 on the averaged loss, which carries the factor 2/N
        net, data = tiny_training_setup(seed=9, rows=2, hidden=2)
        eta = 0.2
        online, _ = gd_train(net, data, GdConfig(eta=eta, epochs=1))
        expected = net.params - (eta / 2) * grad_backprop(net, data, "train")
        assert np.all(np.abs(online.params - expected) <= 1e-12)

    def test_history_once_per_epoch(self):
        net, data = tiny_training_setup()
        seen, callback = recorder()
        _, res = gd_train(net, data, GdConfig(eta=0.1, epochs=4), callback=callback)
        assert res.n_fevals == 5  # one loss_and_grad call at the start and one per epoch
        assert [entry[0] for entry in seen] == [0, 1, 2, 3, 4]

    def test_one_network_per_fit(self, monkeypatch):
        # Each epoch's vector is scored without building a Network; only the
        # trained network is one. The loss still goes through optim.loss_and_grad.
        built, scored = [], []
        with_params = Network.with_params
        monkeypatch.setattr(Network, "with_params", lambda net, p: built.append(1) or with_params(net, p))
        monkeypatch.setattr(optim, "loss_and_grad", lambda *a: scored.append(1) or loss_and_grad(*a))
        net, data = tiny_training_setup()
        _, res = gd_train(net, data, GdConfig(eta=0.1, epochs=5))
        assert len(built) == 1 and len(scored) == res.n_fevals == 6

    def test_deterministic(self):
        net, data = tiny_training_setup(seed=2)
        (seen1, callback1), (seen2, callback2) = recorder(), recorder()
        first, res1 = gd_train(net, data, GdConfig(eta=0.1, epochs=5), callback=callback1)
        second, res2 = gd_train(net, data, GdConfig(eta=0.1, epochs=5), callback=callback2)
        assert np.array_equal(first.params, second.params)
        assert seen1 == seen2

    def test_divergence_halts_with_partial_history(self, monkeypatch):
        net, data = tiny_training_setup()
        calls = poison_loss_after(monkeypatch, 2)
        seen, callback = recorder()
        trained, res = gd_train(net, data, GdConfig(eta=0.1, epochs=10), callback=callback)
        assert res.status == STATUS_DIVERGED
        assert res.iters < 10
        assert res.n_fevals == calls["n"]
        assert len(seen) == res.iters + 1
        assert np.all(np.isfinite(trained.params))

    @pytest.mark.parametrize("case", ["max_iters", "diverged"])
    def test_callback_matches_history(self, case, monkeypatch):
        net, data = tiny_training_setup()
        cfg, status = GdConfig(eta=0.1, epochs=6), STATUS_MAX_ITERS
        if case == "diverged":
            poison_loss_after(monkeypatch, 2)  # the loss after epoch 2 is NaN
            status = STATUS_DIVERGED
        seen, points = [], []

        def callback(it, x, f, grad_norm):
            seen.append((it, f, grad_norm))
            points.append(x)

        trained, res = gd_train(net, data, cfg, callback=callback)
        assert res.status == status
        # The result is the callback's last call, the last finite epoch when the run diverged.
        assert [entry[0] for entry in seen] == list(range(res.iters + 1))
        assert seen[-1] == (res.iters, res.f_final, res.grad_norm_final)
        assert res.iters == (1 if case == "diverged" else 6)
        assert np.isfinite(res.f_final)
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
        from qnmlp.mlp import _Pass

        forward = _Pass(net.topology, inputs, np.zeros(5))
        forward.forward(net.params)
        data = Dataset(inputs, forward.out[:, 0].copy(), 4)
        trained, res = bfgs_train(net, data)
        assert res.iters == 0
        assert res.status == STATUS_CONVERGED_GRAD
        assert res.grad_norm_final == 0.0
        assert np.array_equal(trained.params, net.params)

    def test_no_network_per_objective_call(self, monkeypatch):
        # The objective scores each trial without building a Network; only the
        # trained network is one. The loss still goes through optim.loss_and_grad.
        built, scored = [], []
        with_params = Network.with_params
        monkeypatch.setattr(Network, "with_params", lambda net, p: built.append(1) or with_params(net, p))
        monkeypatch.setattr(optim, "loss_and_grad", lambda *a: scored.append(1) or loss_and_grad(*a))
        net, data = tiny_training_setup(seed=5, rows=12)
        _, res = bfgs_train(net, data, StopCriteria(max_iters=20))
        assert len(built) == 1 and len(scored) == res.n_fevals > res.iters > 0

    def test_monotone_loss_history(self):
        net, data = tiny_training_setup(seed=4, rows=12)
        seen, callback = recorder()
        _, res = bfgs_train(net, data, StopCriteria(grad_tol=1e-7, max_iters=40), callback=callback)
        losses = [f for _, f, _ in seen]
        assert len(losses) == res.iters + 1
        assert all(b < a for a, b in zip(losses, losses[1:]))

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
