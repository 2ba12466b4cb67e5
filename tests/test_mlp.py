import copy
import functools
import math
import pickle
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
from qnmlp.mlp import _KERNEL_SIGNATURES, _kernels, _Pass, relative_error


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


def assert_reference_bits(net, data, rows):
    """loss_and_grad and loss_mse give reference_loss_and_grad's bytes, the sign of
    every zero included (np.array_equal takes -0.0 for +0.0); returns the gradient."""
    with np.errstate(over="ignore"):
        ref_loss, ref_grad = reference_loss_and_grad(net, data, rows)
        loss, grad = loss_and_grad(net, data, rows)
        loss_only = loss_mse(net, data, rows)
    assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
    assert grad.tobytes() == ref_grad.tobytes()
    assert np.float64(loss_only).tobytes() == np.float64(ref_loss).tobytes()
    return grad


class TestTopology:
    def test_param_count_2_10_1(self):
        assert Topology(2, 10, 1).n_params == 41

    def test_param_count_1_1_1(self):
        assert Topology(1, 1, 1).n_params == 4

    @pytest.mark.parametrize("bad", [(0, 1, 1), (1, 0, 1), (1, 1, 0), (2, 3, 2)])
    def test_rejects_empty_layers(self, bad):
        with pytest.raises(ValueError):
            Topology(*bad)

    @pytest.mark.parametrize("field, value", [("n_in", 2.0), ("n_hidden", 2.5), ("n_out", "1")])
    def test_counts_are_integers(self, field, value):
        counts = {"n_in": 2, "n_hidden": 3, "n_out": 1, field: value}
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            Topology(**counts)
        t = Topology(np.int64(2), np.int32(3))
        assert type(t.n_in) is int and type(t.n_hidden) is int and t.n_params == 13


class TestInitParams:
    def test_deterministic(self):
        t = Topology(3, 4, 1)
        assert np.array_equal(init_params(t, 99), init_params(t, 99))

    def test_different_seeds_differ(self):
        t = Topology(3, 4, 1)
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
        t = Topology(2, 3, 1)
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
    """The forward pass's (hidden, out) over the given rows, from a flat parameter
    vector, copied out of the pass's workspace."""
    x = np.atleast_2d(np.asarray(rows, dtype=float))
    forward = _Pass(topology, x, np.zeros(x.shape[0]))
    forward.forward(np.asarray(params, dtype=float))
    return forward.hidden.copy(), forward.out.copy()


class TestForward:
    def test_zero_params_give_half_everywhere(self):
        t = Topology(3, 5, 1)
        hidden, out = forward_rows(t, np.zeros(t.n_params), [0.7, -2.0, 4.0])
        assert hidden.shape == (1, 5) and out.shape == (1, 1)
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

    def test_hidden_layer_matches_reference_on_special_values(self):
        # One input of 1.0, the values as input weights and hidden biases of -0.0:
        # each hidden pre-activation is its value, through the compiled sigmoid.
        values = np.array([0.0, -0.0, 1e-300, -1e-300, 800.0, -800.0, math.inf, -math.inf, math.nan])
        t = Topology(1, values.size, 1)
        params = np.zeros(t.n_params)
        w1, b1, _, _ = unpack_params(t, params)
        w1[:, 0], b1[:] = values, -0.0
        hidden, _ = forward_rows(t, params, [1.0])
        ref = reference_sigmoid(values)
        assert np.array_equal(hidden[0], ref, equal_nan=True)
        assert np.array_equal(np.signbit(hidden[0]), np.signbit(ref))

    @pytest.mark.parametrize("seed", range(10))
    def test_outputs_strictly_inside_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        t = Topology(2, 3, 1)
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

    def test_split_index_is_an_integer(self):
        with pytest.raises(ValueError, match="split_index must be an integer"):
            constant_target_dataset(1, [0.5, 0.5, 0.5], 1.5)
        assert type(constant_target_dataset(1, [0.5, 0.5, 0.5], np.int64(2)).split_index) is int

    def test_arrays_read_only(self):
        data = make_dataset(np.random.default_rng(0), 5, 2, 3)
        with pytest.raises(ValueError):
            data.inputs[0, 0] = 99.0

    @pytest.mark.parametrize("inputs, targets, match", [
        (np.zeros(4), [0.5] * 4, "inputs must be a 2-D array"),
        (np.zeros((4, 0)), [0.5] * 4, "inputs must be a 2-D array"),
        (np.zeros((4, 2, 1)), [0.5] * 4, "inputs must be a 2-D array"),
        (np.zeros((4, 2)), [0.5] * 3, "one entry per row"),
        (np.zeros((1, 2)), [0.5], "one entry per row"),
    ], ids=["1-d", "empty-rows", "3-d", "row-target-mismatch", "one-row"])
    def test_malformed_shapes_rejected(self, inputs, targets, match):
        with pytest.raises(ValueError, match=match):
            Dataset(inputs, targets, 1)

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

    @pytest.mark.parametrize("raw", [[], [1.0], [[0.0, 1.0]]], ids=["none", "one", "2-d"])
    def test_fewer_than_two_rejected(self, raw):
        with pytest.raises(ValueError, match="need at least 2 raw targets"):
            normalize_targets(raw)

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


class TestKernelArguments:
    """``_KERNEL_SIGNATURES`` is the one source of the kernels' argument types. No kernel
    has ``argtypes`` set, so without the table's ctypes objects a bare int would go to C
    as a 32-bit int."""

    def test_kernels_leave_argtypes_unset(self):
        kernels = _kernels()
        for name in _KERNEL_SIGNATURES:
            assert getattr(kernels, name).argtypes is None, name
            assert getattr(kernels, name).restype is None, name

    @pytest.mark.parametrize("hidden", [1, 4])
    def test_pass_binds_the_types_the_table_names(self, hidden, monkeypatch):
        rng = np.random.default_rng(hidden)
        t = Topology(2, hidden, 1)
        data = make_dataset(rng, 12, 2, 9)
        net = Network(t, rng.uniform(-1.0, 1.0, t.n_params))
        bound = data._pass("train", t)
        calls = []

        def checked(*args, name, kernel):  # checks before the call: a wrong type could crash it
            calls.append(name)
            assert tuple(type(a) for a in args) == _KERNEL_SIGNATURES[name], name
            kernel(*args)

        for name in ("sigmoid_begin", "sigmoid_end", "output_delta", "hidden_delta"):
            monkeypatch.setattr(bound, name, functools.partial(checked, name=name, kernel=getattr(bound, name)))
        f, g = bound.loss_and_grad(net.params)
        assert calls == ["sigmoid_begin", "sigmoid_end"] * 2 + ["output_delta", "hidden_delta"]
        expected = loss_and_grad(net, copy.deepcopy(data))  # from a pass of its own
        assert f == expected[0] and g.tobytes() == expected[1].tobytes()


class TestKernelBits:
    """The in-place kernels give the textbook expressions' bits exactly."""

    @pytest.mark.parametrize("rows", ["train", "test"])
    @pytest.mark.parametrize("scale", [0.5, 3.0, 30.0, 300.0, 3000.0, 1e155, 1e200, 1e300])
    @pytest.mark.parametrize("hidden", [1, 3, 10, 100])
    def test_loss_and_grad_and_loss_mse_match_reference(self, hidden, scale, rows):
        rng = np.random.default_rng(hidden * 1000 + int(scale))
        t = Topology(2, hidden, 1)
        data = make_dataset(rng, 60, 2, 45)
        if scale > 1e154:
            # Inputs at the parameters' scale, so that products overflow: the hidden
            # pre-activations reach +-inf, and BLAS sums some +inf and -inf to +inf
            # where IEEE addition gives NaN.
            data = Dataset(data.inputs * scale, data.targets_norm, data.split_index)
        for _ in range(2):
            assert_reference_bits(Network(t, rng.uniform(-scale, scale, t.n_params)), data, rows)

    @pytest.mark.parametrize("rows", ["train", "test"])
    @pytest.mark.parametrize("hidden", [1, 2, 3])
    def test_saturated_output_sums_negative_zero_deltas_to_positive_zero(self, hidden, rows):
        # Output bias 1e3 and every output weight negative: the output is exactly 1.0, so
        # d_out is +0.0 and every hidden delta (+0.0 * w2_j) * h * (1 - h) is -0.0. numpy's
        # column sums start from +0.0, so the hidden-bias gradient is +0.0, not -0.0.
        rng = np.random.default_rng(hidden)
        t = Topology(2, hidden, 1)
        data = make_dataset(rng, 60, 2, 45)
        params = rng.uniform(-1.0, 1.0, t.n_params)
        _, _, w2, b2 = unpack_params(t, params)
        w2[:] = -rng.uniform(0.1, 1.0, hidden)
        b2[:] = 1e3
        grad = assert_reference_bits(Network(t, params), data, rows)
        gb1 = unpack_params(t, grad)[1]
        assert np.array_equal(gb1, np.zeros(hidden)) and not np.signbit(gb1).any()

    @pytest.mark.parametrize("rows", ["train", "test"])
    @pytest.mark.parametrize("hidden", [1, 3, 10])
    def test_one_row_partition_matches_reference(self, hidden, rows):
        rng = np.random.default_rng(hidden + 7)
        t = Topology(2, hidden, 1)
        data = make_dataset(rng, 9, 2, 1)
        for scale in (0.5, 30.0, 3000.0):
            assert_reference_bits(Network(t, rng.uniform(-scale, scale, t.n_params)), data, rows)

    def test_workspace_size_is_what_a_pass_allocates(self):
        # BenchConfig's memory check counts a pass's arrays through _Pass.nbytes.
        t = Topology(2, 7, 1)
        data = make_dataset(np.random.default_rng(3), 30, 2, 23)
        found = data._pass("train", t)
        arrays = (found.params, found.grad, found.hidden, found.d_hid, found.out, found.d_out)
        assert sum(a.nbytes for a in arrays) == _Pass.nbytes(t, 23)

    def test_reused_workspace_leaks_nothing(self):
        # One dataset keeps one pass per (partition, topology) and reuses it;
        # interleaved calls over two parameter vectors, both partitions and two
        # widths must each give the bits of the same call on a fresh dataset.
        rng = np.random.default_rng(21)
        data = make_dataset(rng, 13, 2, 9)
        nets = []
        for hidden in (3, 7):
            t = Topology(2, hidden, 1)
            nets += [Network(t, rng.uniform(-3.0, 3.0, t.n_params)) for _ in range(2)]
        for _ in range(2):
            for net in nets:
                for rows in ("train", "test"):
                    for loss in (loss_and_grad, loss_mse):
                        fresh = Dataset(data.inputs, data.targets_norm, data.split_index)
                        got, want = loss(net, data, rows), loss(net, fresh, rows)
                        if loss is loss_mse:
                            assert got == want
                        else:
                            assert got[0] == want[0] and np.array_equal(got[1], want[1])
        assert len(data._passes) == 4
        assert data._pass("train", Topology(2, 3, 1)) is data._pass("train", Topology(2, 3, 1))

    @pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy, lambda d: pickle.loads(pickle.dumps(d))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_copied_dataset_makes_its_own_passes(self, duplicate):
        # A pass holds its workspace's addresses, so a copy must not inherit them.
        rng = np.random.default_rng(5)
        data = make_dataset(rng, 8, 2, 6)
        net = Network(Topology(2, 4, 1), rng.uniform(-1.0, 1.0, 17))
        before = loss_and_grad(net, data)
        twin = duplicate(data)
        assert twin._passes == {}
        after = loss_and_grad(net, twin)
        assert after[0] == before[0] and np.array_equal(after[1], before[1])
        assert twin._pass("train", net.topology) is not data._pass("train", net.topology)

    def test_loss_and_grad_temporaries_bounded(self):
        # Deterministic memory gate: the peak traced allocation of one call at
        # hidden 100 on 400 rows stays under 2.5 rows x hidden float64 arrays
        # (the workspace holds two: the hidden layer and exp's argument).
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
        assert peak <= 2.5 * n_rows * hidden * 8
