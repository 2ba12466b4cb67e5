from dataclasses import replace

import numpy as np
import pytest

from qnmlp import (
    BEALE,
    BOOTH,
    BenchConfig,
    BenchFunction,
    GdConfig,
    Network,
    StopCriteria,
    Topology,
    beale,
    beale_objective,
    booth,
    booth_objective,
    bfgs_minimize,
    bfgs_train,
    error_percent,
    gd_train,
    get_function,
    run_benchmark,
    run_comparison,
    sample_dataset,
)
from qnmlp import bench
from qnmlp.bench import TrainReport, _setup, beale_grad, booth_grad
from qnmlp.mlp import Dataset, normalize_targets


def central_diff_2d(fn, x0, x1, step=1e-6):
    g0 = (fn(x0 + step, x1) - fn(x0 - step, x1)) / (2 * step)
    g1 = (fn(x0, x1 + step) - fn(x0, x1 - step)) / (2 * step)
    return np.array([g0, g1])


class TestSurfaces:
    def test_beale_minimum(self):
        assert beale(3.0, 0.5) <= 1e-24

    def test_beale_origin(self):
        assert beale(0.0, 0.0) == 14.203125

    def test_beale_at_ones(self):
        # x1 = 1 zeroes every x0 contribution
        assert beale(1.0, 1.0) == 14.203125

    def test_booth_minimum(self):
        assert booth(1.0, 3.0) <= 1e-24

    def test_booth_origin(self):
        assert booth(0.0, 0.0) == 74.0

    def test_booth_corner(self):
        assert booth(-10.0, 10.0) == 234.0

    @pytest.mark.parametrize("fn", [beale, booth])
    def test_nonnegative_on_grid(self, fn):
        xs = np.linspace(-4.0, 4.0, 9)
        for a in xs:
            for b in xs:
                assert fn(a, b) >= 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_beale_gradient_against_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        x0, x1 = rng.uniform(-2.0, 2.0, 2)
        analytic = beale_grad(x0, x1)
        oracle = central_diff_2d(beale, x0, x1)
        assert np.all(np.abs(analytic - oracle) <= 1e-4 * np.maximum(1.0, np.abs(analytic)))

    @pytest.mark.parametrize("seed", range(6))
    def test_booth_gradient_against_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        x0, x1 = rng.uniform(-8.0, 8.0, 2)
        analytic = booth_grad(x0, x1)
        oracle = central_diff_2d(booth, x0, x1)
        assert np.all(np.abs(analytic - oracle) <= 1e-5 * np.maximum(1.0, np.abs(analytic)))


class TestDirectMinimization:
    def test_beale_from_ones(self):
        res = bfgs_minimize(beale_objective(), np.array([1.0, 1.0]),
                            StopCriteria(grad_tol=1e-6, max_iters=100))
        assert res.status == "converged_grad"
        assert res.iters <= 100
        assert res.f_final <= 1e-10
        assert np.allclose(res.x_final, [3.0, 0.5], atol=1e-4)

    def test_booth_from_origin(self):
        res = bfgs_minimize(booth_objective(), np.array([0.0, 0.0]),
                            StopCriteria(grad_tol=1e-6, max_iters=50))
        assert res.status == "converged_grad"
        assert res.iters <= 50
        assert res.f_final <= 1e-12
        assert np.allclose(res.x_final, [1.0, 3.0], atol=1e-6)


class TestBenchFunction:
    def test_registry(self):
        assert get_function("beale") is BEALE
        assert get_function("booth") is BOOTH

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            get_function("rosenbrock")

    def test_domain_must_order(self):
        with pytest.raises(ValueError):
            BenchFunction("bad", 1.0, 1.0, booth)

    def test_domains(self):
        assert (BEALE.domain_lo, BEALE.domain_hi) == (-4.5, 4.5)
        assert (BOOTH.domain_lo, BOOTH.domain_hi) == (-10.0, 10.0)


class TestSampleDataset:
    def test_deterministic(self):
        d1 = sample_dataset(BOOTH, 100, 0.8, 7)
        d2 = sample_dataset(BOOTH, 100, 0.8, 7)
        assert np.array_equal(d1.inputs, d2.inputs)
        assert np.array_equal(d1.targets_norm, d2.targets_norm)
        assert d1.split_index == d2.split_index

    def test_bounds(self):
        data = sample_dataset(BEALE, 200, 0.8, 3)
        assert np.all(data.inputs >= BEALE.domain_lo)
        assert np.all(data.inputs <= BEALE.domain_hi)
        assert np.all(data.targets_norm >= 0.1 - 1e-12)
        assert np.all(data.targets_norm <= 0.9 + 1e-12)

    def test_split_rounding(self):
        assert sample_dataset(BEALE, 10, 0.8, 0).split_index == 8

    def test_targets_match_surface(self):
        data = sample_dataset(BOOTH, 50, 0.8, 11)
        recomputed = booth(data.inputs[:, 0], data.inputs[:, 1])
        assert np.array_equal(normalize_targets(recomputed), data.targets_norm)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            sample_dataset(BOOTH, 9, 0.8, 0)

    def test_degenerate_split(self):
        with pytest.raises(ValueError):
            sample_dataset(BOOTH, 10, 0.999, 0)


class TestErrorPercent:
    def _net_at_half(self):
        t = Topology(1, 1, 1)
        return Network(t, np.zeros(t.n_params))

    def test_perfect_predictions(self):
        net = self._net_at_half()
        data = Dataset(np.zeros((2, 1)), np.array([0.5, 0.5]), 1)
        assert error_percent(net, data, "train") == 0.0

    def test_uniform_offset(self):
        net = self._net_at_half()
        data = Dataset(np.zeros((3, 1)), np.array([0.6, 0.6, 0.6]), 2)
        assert abs(error_percent(net, data, "train") - 1.0) <= 1e-12

    def test_constant_half_vs_09(self):
        net = self._net_at_half()
        data = Dataset(np.zeros((3, 1)), np.array([0.9, 0.9, 0.9]), 2)
        assert abs(error_percent(net, data, "train") - 16.0) <= 1e-12

    def test_invariant_under_row_permutation_within_split(self):
        rng = np.random.default_rng(17)
        data = sample_dataset(BOOTH, 40, 0.75, 17)
        t = Topology(2, 4, 1)
        from qnmlp import init_params

        net = Network(t, init_params(t, 5))
        perm = np.r_[rng.permutation(data.split_index),
                     data.split_index + rng.permutation(len(data.inputs) - data.split_index)]
        shuffled = Dataset(data.inputs[perm], data.targets_norm[perm], data.split_index)
        for rows in ("train", "test"):
            a = error_percent(net, data, rows)
            b = error_percent(net, shuffled, rows)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


class TestTrainReport:
    @pytest.mark.parametrize("field, value, match", [
        ("history", [], "history must not be empty"),
        ("train_error_pct", np.nan, "error percentages must be finite"),
        ("test_error_pct", np.inf, "error percentages must be finite"),
    ], ids=["empty-history", "nan-train-error", "inf-test-error"])
    def test_refused(self, field, value, match):
        fields = dict(train_error_pct=1.0, test_error_pct=1.0, iterations=3, wall_clock_s=0.0,
                      history=[(0, 1.0, 1.0, 1.0)], status="max_iters", init_params_hash="0" * 64)
        TrainReport(**fields)
        with pytest.raises(ValueError, match=match):
            TrainReport(**{**fields, field: value})


class TestRunBenchmark:
    def small_cfg(self, **overrides):
        base = dict(function=BOOTH, n_samples=120, train_fraction=0.8, seed=42, hidden=10,
                    optimizer="bfgs", stop=StopCriteria(grad_tol=1e-5, max_iters=150))
        base.update(overrides)
        return BenchConfig(**base)

    def test_booth_bfgs_seed42(self):
        report = run_benchmark(self.small_cfg())
        assert np.isfinite(report.test_error_pct)
        assert report.test_error_pct < 10.0
        assert report.status in ("converged_grad", "max_iters")
        assert report.wall_clock_s >= 0.0

    def test_deterministic_apart_from_wall_clock(self):
        r1 = run_benchmark(self.small_cfg())
        r2 = run_benchmark(self.small_cfg())
        assert r1.history == r2.history
        assert r1.train_error_pct == r2.train_error_pct
        assert r1.test_error_pct == r2.test_error_pct
        assert r1.iterations == r2.iterations
        assert r1.init_params_hash == r2.init_params_hash

    def test_minimal_dataset_shape(self):
        cfg = self.small_cfg(n_samples=10, train_fraction=0.5,
                             stop=StopCriteria(grad_tol=1e-5, max_iters=20))
        report = run_benchmark(cfg)
        assert report.history
        data = sample_dataset(BOOTH, 10, 0.5, 42)
        assert data.split_index == 5
        assert data.rows("train")[0].shape[0] == 5

    def test_history_columns(self):
        report = run_benchmark(self.small_cfg(stop=StopCriteria(grad_tol=1e-5, max_iters=30)))
        assert len(report.history) == report.iterations + 1
        first = report.history[0]
        assert len(first) == 4 and first[0] == 0

    @pytest.mark.parametrize("optimizer", ["gd", "bfgs"])
    def test_final_test_error_is_last_history_row(self, optimizer):
        # the report reads its test error from the last history row; it must be the
        # trained network's test error, bit for bit
        cfg = self.small_cfg(optimizer=optimizer, gd=GdConfig(eta=0.1, epochs=15),
                             stop=StopCriteria(grad_tol=1e-5, max_iters=30))
        report = run_benchmark(cfg)
        data, net0 = _setup(cfg)
        if optimizer == "gd":
            trained, _ = gd_train(net0, data, cfg.gd)
        else:
            trained, _ = bfgs_train(net0, data, cfg.stop, cfg.wolfe)
        assert report.test_error_pct == report.history[-1][2] == error_percent(trained, data, "test")
        assert report.train_error_pct == report.history[-1][1] == error_percent(trained, data, "train")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            self.small_cfg(n_samples=5)
        with pytest.raises(ValueError):
            self.small_cfg(optimizer="adam")
        with pytest.raises(ValueError):
            self.small_cfg(train_fraction=1.0)
        with pytest.raises(ValueError, match="seed"):
            self.small_cfg(seed=-1)

    @pytest.mark.parametrize("field, value", [("n_samples", 100.5), ("hidden", 2.5), ("seed", 1.5)])
    def test_counts_are_integers(self, field, value):
        # Each of these used to construct and fail later inside numpy with a bare TypeError.
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            self.small_cfg(**{field: value})
        assert type(getattr(self.small_cfg(**{field: np.int64(12)}), field)) is int


class TestMemoryCheck:
    """A run whose largest arrays exceed physical memory is refused when its config is
    made, before anything is allocated; no test here allocates an oversize array."""

    # 100 samples at hidden 10 (41 parameters, 80 train rows): the dataset takes 24 B a
    # row, a partition's loss workspace 8 (2 * 41 + 2 * rows * 11) B, the inverse Hessian 8 * 41**2 B.
    GD_BYTES = 2_400 + 14_736 + 4_176
    BFGS_BYTES = GD_BYTES + 13_448

    def test_unbounded_width_is_refused(self):
        with pytest.raises(ValueError, match=r"needs \d+ bytes for its largest arrays, more than the \d+ bytes"):
            BenchConfig(BEALE, hidden=99999999999999999999)

    @pytest.mark.parametrize("optimizer, needed", [("gd", GD_BYTES), ("bfgs", BFGS_BYTES)])
    def test_counts_dataset_workspaces_and_inverse_hessian(self, monkeypatch, optimizer, needed):
        monkeypatch.setattr(bench, "_physical_memory", lambda: needed)
        BenchConfig(BOOTH, n_samples=100, hidden=10, optimizer=optimizer)
        monkeypatch.setattr(bench, "_physical_memory", lambda: needed - 1)
        with pytest.raises(ValueError, match=f"needs {needed} bytes .* the {needed - 1} bytes of physical memory"):
            BenchConfig(BOOTH, n_samples=100, hidden=10, optimizer=optimizer)

    def test_comparison_checks_its_bfgs_fit_before_sampling(self, monkeypatch):
        def no_sampling(*args):
            raise AssertionError("sampled before the memory check")

        monkeypatch.setattr(bench, "_physical_memory", lambda: self.GD_BYTES)
        monkeypatch.setattr(bench, "sample_dataset", no_sampling)
        with pytest.raises(ValueError, match="physical memory"):
            run_comparison(BOOTH, seed=1, n_samples=100, hidden=10, optimizer="gd")


COMPARE_CFG = BenchConfig(BOOTH, n_samples=150, seed=42, gd=GdConfig(eta=0.1, epochs=120),
                          stop=StopCriteria(grad_tol=1e-5, max_iters=150))


@pytest.fixture(scope="module")
def reports():
    return run_comparison(**vars(COMPARE_CFG))


class TestRunComparison:
    def test_fits_are_the_standalone_fits(self, reports):
        # a comparison is run_benchmark of one config, once per optimizer
        for report, optimizer in zip(reports, ("gd", "bfgs")):
            alone = run_benchmark(replace(COMPARE_CFG, optimizer=optimizer))
            assert report.history == alone.history
            assert report.status == alone.status
            assert report.init_params_hash == alone.init_params_hash

    def test_shared_initial_state(self, reports):
        gd_report, bfgs_report = reports
        assert gd_report.init_params_hash == bfgs_report.init_params_hash

    def test_ordering(self, reports):
        gd_report, bfgs_report = reports
        assert bfgs_report.test_error_pct < gd_report.test_error_pct

    def test_histories_start_identically(self, reports):
        # same initial network and data: iteration-0 errors coincide
        gd_report, bfgs_report = reports
        assert gd_report.history[0][1] == bfgs_report.history[0][1]
        assert gd_report.history[0][2] == bfgs_report.history[0][2]
