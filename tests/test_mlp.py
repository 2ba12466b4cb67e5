import math
import tracemalloc

import numpy as np
import pytest

from qnmlp import (
    Dataset,
    Network,
    Topology,
    finite_diff_grad,
    grad_backprop,
    init_params,
    loss_and_grad,
    loss_mse,
    normalize_targets,
    sigmoid,
    unpack_params,
)
from qnmlp.mlp import _forward_batch, relative_error


def make_dataset(rng, n_rows, n_in, split_index):
    inputs = rng.uniform(-1.0, 1.0, size=(n_rows, n_in))
    raw = rng.uniform(0.0, 1.0, size=n_rows)
    return Dataset.from_samples(inputs, raw, split_index)


def constant_target_dataset(n_in, targets_norm, split_index):
    """Dataset of all-zero inputs with hand-picked normalized targets."""
    return Dataset(
        inputs=np.zeros((len(targets_norm), n_in)),
        targets_norm=np.asarray(targets_norm, dtype=float),
        split_index=split_index,
    )


def reference_sigmoid(x):
    """The textbook two-branch logistic function, kept as the bit reference
    for the in-place kernel in ``qnmlp.mlp``."""
    x = np.asarray(x, dtype=np.float64)
    z = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))
    return float(out) if out.ndim == 0 else out


def reference_loss_and_grad(net, data, rows):
    """MSE and gradient from the textbook expressions, kept as the bit
    reference for ``loss_and_grad`` and ``loss_mse``."""
    x, t = data.rows(rows)
    w1, b1, w2, b2 = unpack_params(net.topology, net.params)
    hidden = reference_sigmoid(x @ w1.T + b1)
    out = reference_sigmoid(hidden @ w2.T + b2)
    resid = out[:, 0] - t
    loss = float(np.mean(resid * resid))
    n = x.shape[0]
    d_out = (2.0 / n) * resid[:, None] * out * (1.0 - out)
    d_hid = (d_out @ w2) * hidden * (1.0 - hidden)
    grad = np.concatenate([(d_hid.T @ x).ravel(), d_hid.sum(axis=0),
                           (d_out.T @ hidden).ravel(), d_out.sum(axis=0)])
    return loss, grad


class TestTopology:
    def test_param_count_2_10_1(self):
        assert Topology(2, 10, 1).n_params == 41

    def test_param_count_1_1_1(self):
        assert Topology(1, 1, 1).n_params == 4

    @pytest.mark.parametrize("bad", [(0, 1, 1), (1, 0, 1), (1, 1, 0)])
    def test_rejects_empty_layers(self, bad):
        with pytest.raises(ValueError):
            Topology(*bad)


class TestInitParams:
    def test_deterministic(self):
        t = Topology(3, 4, 2)
        assert np.array_equal(init_params(t, 99), init_params(t, 99))

    def test_different_seeds_differ(self):
        t = Topology(3, 4, 2)
        assert not np.array_equal(init_params(t, 1), init_params(t, 2))

    def test_length_and_bounds(self):
        t = Topology(1, 1, 1)
        p = init_params(t, 5)
        assert p.shape == (4,)
        assert np.all(p >= -0.5) and np.all(p <= 0.5)

    def test_length_2_10_1(self):
        assert init_params(Topology(2, 10, 1), 0).shape == (41,)


class TestParamLayout:
    def test_unpack_shapes(self):
        t = Topology(2, 3, 1)
        p = np.arange(t.n_params, dtype=float)
        w1, b1, w2, b2 = unpack_params(t, p)
        assert w1.shape == (3, 2) and b1.shape == (3,)
        assert w2.shape == (1, 3) and b2.shape == (1,)

    def test_unpack_then_refill_roundtrips(self):
        t = Topology(2, 3, 2)
        p = np.random.default_rng(0).standard_normal(t.n_params)
        q = np.empty_like(p)
        for src, dst in zip(unpack_params(t, p), unpack_params(t, q)):
            dst[:] = src
        assert np.array_equal(p, q)


class TestNetwork:
    def test_length_checked(self):
        with pytest.raises(ValueError):
            Network(Topology(2, 3, 1), np.zeros(5))

    def test_nonfinite_rejected(self):
        t = Topology(1, 1, 1)
        with pytest.raises(ValueError):
            Network(t, np.array([0.0, 0.0, np.nan, 0.0]))

    def test_params_read_only(self):
        net = Network(Topology(1, 1, 1), np.zeros(4))
        with pytest.raises(ValueError):
            net.params[0] = 1.0


class TestSigmoid:
    def test_zero(self):
        assert sigmoid(0.0) == 0.5

    @pytest.mark.parametrize("x", [0.3, 1.7, 12.0, -4.2])
    def test_symmetry(self, x):
        assert abs(sigmoid(x) + sigmoid(-x) - 1.0) <= 1e-15

    def test_saturation(self):
        # at x=100 the exact value 1 - 3.7e-44 rounds to 1.0 in float64
        v = sigmoid(100.0)
        assert 1.0 - 1e-8 < v <= 1.0
        # strictly interior where float64 can still represent the gap
        w = sigmoid(30.0)
        assert 1.0 - 1e-8 < w < 1.0

    def test_no_overflow_for_extreme_inputs(self):
        with np.errstate(over="raise"):
            lo = sigmoid(-800.0)
            hi = sigmoid(800.0)
        assert 0.0 <= lo < 1e-300
        assert hi == 1.0  # saturated at double precision

    def test_elementwise_on_arrays(self):
        out = sigmoid(np.array([0.0, 100.0, -100.0]))
        assert out.shape == (3,)
        assert out[0] == 0.5

    @pytest.mark.parametrize("x", [0.0, -0.0, 1e-300, -1e-300, 800.0, -800.0,
                                   math.inf, -math.inf, math.nan])
    def test_special_values_match_reference(self, x):
        for arg in (x, np.array(x)):
            got, ref = sigmoid(arg), reference_sigmoid(arg)
            assert type(got) is float and type(ref) is float
            assert got == ref or (math.isnan(got) and math.isnan(ref))
            assert math.copysign(1.0, got) == math.copysign(1.0, ref)

    @pytest.mark.parametrize("seed", range(4))
    def test_arrays_match_reference(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((40, 7)) * 10.0 ** rng.uniform(-3, 3, (40, 7))
        x[0, :4] = [np.nan, np.inf, -np.inf, -0.0]
        before = x.copy()
        got = sigmoid(x)
        assert got.shape == x.shape
        assert np.array_equal(got, reference_sigmoid(x), equal_nan=True)
        assert np.array_equal(x, before, equal_nan=True)  # input untouched

    @pytest.mark.parametrize("layout", ["transposed", "fortran", "strided"])
    def test_non_contiguous_arrays_match_reference(self, layout):
        rng = np.random.default_rng(7)
        base = rng.standard_normal((40, 7)) * 30.0
        x = {"transposed": base.T,
             "fortran": np.asfortranarray(base),
             "strided": base[::2, ::3]}[layout]
        before = x.copy()
        got = sigmoid(x)
        assert got.shape == x.shape
        assert np.array_equal(got, reference_sigmoid(x))
        assert np.array_equal(x, before)  # input untouched


def forward_rows(topology, params, rows):
    """``_forward_batch`` over the given rows, from a flat parameter vector."""
    return _forward_batch(unpack_params(topology, np.asarray(params, dtype=float)),
                          np.atleast_2d(np.asarray(rows, dtype=float)))


class TestForward:
    def test_zero_params_give_half_everywhere(self):
        t = Topology(3, 5, 2)
        hidden, out = forward_rows(t, np.zeros(t.n_params), [0.7, -2.0, 4.0])
        assert hidden.shape == (1, 5) and out.shape == (1, 2)
        assert np.all(hidden == 0.5) and np.all(out == 0.5)

    def test_output_bias_drives_saturation(self):
        # all weights zero, output bias 10: output is sigmoid(10)
        _, out = forward_rows(Topology(1, 1, 1), [0.0, 0.0, 0.0, 10.0], [0.0])
        expected = 1.0 / (1.0 + math.exp(-10.0))
        assert abs(out[0, 0] - expected) <= 1e-15
        assert abs(out[0, 0] - 0.9999546) <= 1e-7

    def test_deterministic(self):
        t = Topology(2, 4, 1)
        params = init_params(t, 3)
        x = [0.25, -1.5]
        h1, o1 = forward_rows(t, params, x)
        h2, o2 = forward_rows(t, params, x)
        assert np.array_equal(h1, h2) and np.array_equal(o1, o2)

    @pytest.mark.parametrize("seed", range(10))
    def test_outputs_strictly_inside_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        t = Topology(2, 3, 2)
        hidden, out = forward_rows(t, init_params(t, seed), rng.uniform(-10.0, 10.0, 2))
        for v in (*hidden[0], *out[0]):
            assert 0.0 < v < 1.0


class TestDataset:
    def test_norm_range_enforced(self):
        with pytest.raises(ValueError):
            constant_target_dataset(1, [0.05, 0.5], 1)

    @pytest.mark.parametrize("split", [0, 2])
    def test_degenerate_split_rejected(self, split):
        with pytest.raises(ValueError):
            constant_target_dataset(1, [0.5, 0.5], split)

    def test_rows_selector(self):
        data = make_dataset(np.random.default_rng(0), 5, 2, 3)
        x_train, t_train = data.rows("train")
        x_test, t_test = data.rows("test")
        assert x_train.shape == (3, 2) and t_train.shape == (3,)
        assert x_test.shape == (2, 2) and t_test.shape == (2,)

    def test_bad_selector(self):
        data = make_dataset(np.random.default_rng(0), 5, 2, 3)
        with pytest.raises(ValueError):
            data.rows("validation")

    def test_arrays_read_only(self):
        data = make_dataset(np.random.default_rng(0), 5, 2, 3)
        with pytest.raises(ValueError):
            data.inputs[0, 0] = 99.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_inputs_rejected(self, bad):
        inputs = np.zeros((4, 2))
        inputs[2, 1] = bad
        with pytest.raises(ValueError, match="inputs must be finite"):
            Dataset.from_samples(inputs, [0.0, 1.0, 2.0, 3.0], 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_raw_targets_rejected(self, bad):
        with pytest.raises(ValueError, match="raw targets must be finite"):
            Dataset.from_samples(np.zeros((4, 2)), [0.0, bad, 1.0, 2.0], 2)


class TestNormalization:
    def test_endpoints(self):
        assert np.array_equal(normalize_targets([0.0, 1.0]), [0.1, 0.9])

    def test_midpoint(self):
        normed = normalize_targets([0.0, 5.0, 10.0])
        assert np.allclose(normed, [0.1, 0.5, 0.9], atol=1e-15)

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            normalize_targets([3.0, 3.0, 3.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(ValueError, match="raw targets must be finite"):
            normalize_targets([0.0, bad, 1.0])

    @pytest.mark.parametrize("seed", range(5))
    def test_roundtrip(self, seed):
        # the map is affine in raw units: inverting it through min/max recovers raw
        raw = np.random.default_rng(seed).uniform(-1e4, 1e5, 40)
        lo, hi = raw.min(), raw.max()
        back = lo + (normalize_targets(raw) - 0.1) * ((hi - lo) / 0.8)
        assert np.all(np.abs(back - raw) <= 1e-10 * np.maximum(1.0, np.abs(raw)))


class TestLossMse:
    def test_zero_when_outputs_match_targets(self):
        t = Topology(2, 3, 1)
        net = Network(t, np.zeros(t.n_params))  # outputs exactly 0.5
        data = constant_target_dataset(2, [0.5, 0.5, 0.5], 2)
        assert loss_mse(net, data, "train") == 0.0
        assert loss_mse(net, data, "test") == 0.0

    def test_single_row_hand_value(self):
        t = Topology(1, 1, 1)
        net = Network(t, np.zeros(4))  # output 0.5
        data = constant_target_dataset(1, [0.9, 0.5], 1)
        assert abs(loss_mse(net, data, "train") - 0.16) <= 1e-15

    def test_two_rows_hand_value(self):
        t = Topology(1, 1, 1)
        net = Network(t, np.zeros(4))
        # train residuals 0.1 and 0.3 -> (0.01 + 0.09) / 2
        data = constant_target_dataset(1, [0.6, 0.8, 0.5], 2)
        assert abs(loss_mse(net, data, "train") - 0.05) <= 1e-15

    def test_nonnegative(self):
        rng = np.random.default_rng(4)
        t = Topology(2, 4, 1)
        net = Network(t, init_params(t, 4))
        data = make_dataset(rng, 8, 2, 6)
        assert loss_mse(net, data, "train") >= 0.0

    def test_multi_output_network_rejected(self):
        t = Topology(2, 3, 2)
        net = Network(t, np.zeros(t.n_params))
        data = make_dataset(np.random.default_rng(0), 5, 2, 3)
        with pytest.raises(ValueError):
            loss_mse(net, data, "train")

    def test_input_width_mismatch_rejected(self):
        t = Topology(3, 3, 1)
        net = Network(t, np.zeros(t.n_params))
        data = make_dataset(np.random.default_rng(0), 5, 2, 3)
        with pytest.raises(ValueError):
            loss_mse(net, data, "train")


class TestGradBackprop:
    def test_zero_at_exact_fit(self):
        t = Topology(2, 3, 1)
        net = Network(t, np.zeros(t.n_params))
        data = constant_target_dataset(2, [0.5, 0.5, 0.5], 2)
        assert np.array_equal(grad_backprop(net, data, "train"), np.zeros(t.n_params))

    @pytest.mark.parametrize("trial", range(5))
    def test_matches_finite_differences(self, trial):
        rng = np.random.default_rng(1000 + trial)
        h = trial % 5 + 1
        t = Topology(2, h, 1)
        net = Network(t, init_params(t, 2000 + trial))
        data = make_dataset(rng, 6, 2, 5)
        analytic = grad_backprop(net, data, "train")
        oracle = finite_diff_grad(net, data, "train", 1e-5)
        assert relative_error(analytic, oracle) <= 1e-6

    def test_mean_linearity_over_row_blocks(self):
        # gradient over A+B rows == row-weighted average of the block gradients
        rng = np.random.default_rng(7)
        inputs = rng.uniform(-1.0, 1.0, size=(9, 2))
        raw = rng.uniform(0.0, 1.0, size=9)
        t = Topology(2, 3, 1)
        net = Network(t, init_params(t, 11))

        full = Dataset.from_samples(inputs, raw, 8)  # train = rows 0..7
        first = Dataset.from_samples(inputs, raw, 4)  # train = rows 0..3
        reorder = np.r_[4:8, 0:4, 8]
        second = Dataset.from_samples(inputs[reorder], raw[reorder], 4)  # train = rows 4..7

        g_full = grad_backprop(net, full, "train")
        g_a = grad_backprop(net, first, "train")
        g_b = grad_backprop(net, second, "train")
        combined = 0.5 * g_a + 0.5 * g_b
        assert np.all(np.abs(g_full - combined) <= 1e-12)

    def test_loss_and_grad_consistent_with_parts(self):
        rng = np.random.default_rng(3)
        t = Topology(2, 4, 1)
        net = Network(t, init_params(t, 3))
        data = make_dataset(rng, 7, 2, 5)
        f, g = loss_and_grad(net, data, "train")
        assert f == loss_mse(net, data, "train")
        assert np.array_equal(g, grad_backprop(net, data, "train"))


class TestFiniteDiffGrad:
    def test_output_bias_matches_hand_derivative(self):
        # 1-1-1 net: loss (sigma(w2*h + b2) - T)^2, h fixed by the input row
        w1, b1, w2, b2 = 0.3, -0.2, 0.7, 0.4
        net = Network(Topology(1, 1, 1), np.array([w1, b1, w2, b2]))
        x, target = 0.5, 0.8
        data = Dataset(np.array([[x], [0.0]]), np.array([target, 0.5]), 1)
        h = 1.0 / (1.0 + math.exp(-(w1 * x + b1)))
        z = w2 * h + b2
        o = 1.0 / (1.0 + math.exp(-z))
        hand = 2.0 * (o - target) * o * (1.0 - o)
        fd = finite_diff_grad(net, data, "train", 1e-5)
        assert abs(fd[3] - hand) <= 1e-9  # central differences: O(step^2)

    def test_zero_residual_point(self):
        t = Topology(2, 3, 1)
        net = Network(t, np.zeros(t.n_params))
        data = constant_target_dataset(2, [0.5, 0.5, 0.5], 2)
        fd = finite_diff_grad(net, data, "train", 1e-5)
        assert np.all(np.abs(fd) < 1e-10)

    def test_step_must_be_positive(self):
        t = Topology(1, 1, 1)
        net = Network(t, np.zeros(4))
        data = constant_target_dataset(1, [0.5, 0.5], 1)
        with pytest.raises(ValueError):
            finite_diff_grad(net, data, "train", 0.0)

    def test_leaves_network_untouched(self):
        t = Topology(1, 2, 1)
        net = Network(t, init_params(t, 8))
        before = net.params.copy()
        data = make_dataset(np.random.default_rng(0), 4, 1, 3)
        finite_diff_grad(net, data, "train", 1e-5)
        assert np.array_equal(net.params, before)


class TestKernelBits:
    """The in-place kernels give the textbook expressions' bits exactly."""

    @pytest.mark.parametrize("rows", ["train", "test"])
    @pytest.mark.parametrize("scale", [0.5, 3.0, 30.0, 300.0, 3000.0])
    @pytest.mark.parametrize("hidden", [1, 3, 10, 100])
    def test_loss_and_grad_and_loss_mse_match_reference(self, hidden, scale, rows):
        rng = np.random.default_rng(hidden * 1000 + int(scale))
        t = Topology(2, hidden, 1)
        data = make_dataset(rng, 60, 2, 45)
        for _ in range(2):
            net = Network(t, rng.uniform(-scale, scale, t.n_params))
            ref_loss, ref_grad = reference_loss_and_grad(net, data, rows)
            loss, grad = loss_and_grad(net, data, rows)
            assert loss == ref_loss
            assert np.array_equal(grad, ref_grad)
            assert loss_mse(net, data, rows) == ref_loss

    def test_loss_and_grad_temporaries_bounded(self):
        # Deterministic memory gate: the peak traced allocation of one call at
        # hidden 100 on 400 rows stays under four rows x hidden float64 arrays.
        n_rows, hidden = 400, 100
        t = Topology(2, hidden, 1)
        net = Network(t, init_params(t, 0))
        data = make_dataset(np.random.default_rng(0), n_rows + 100, 2, n_rows)
        loss_and_grad(net, data, "train")  # warm-up
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loss_and_grad(net, data, "train")
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 4 * n_rows * hidden * 8
