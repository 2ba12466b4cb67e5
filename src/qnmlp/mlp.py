"""One-hidden-layer sigmoid perceptron over a flat parameter vector.

The flat layout is ``[W_in_hidden row-major | b_hidden | W_hidden_out
row-major | b_out]``, which is what both optimizers treat as the point
they are minimizing over. Targets are scaled into [0.1, 0.9] so the
sigmoid output unit can actually reach them; errors are measured in
those normalized units.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Topology",
    "Network",
    "Dataset",
    "NORM_LO",
    "NORM_HI",
    "init_params",
    "unpack_params",
    "sigmoid",
    "loss_mse",
    "loss_and_grad",
    "grad_backprop",
    "finite_diff_grad",
    "normalize_targets",
    "relative_error",
]

# Normalized-target range: strictly inside (0, 1) so an exact fit never
# needs infinite weights.
NORM_LO = 0.1
NORM_HI = 0.9


@dataclass(frozen=True)
class Topology:
    """Node counts of the three layers."""

    n_in: int
    n_hidden: int
    n_out: int = 1

    def __post_init__(self):
        if min(self.n_in, self.n_hidden, self.n_out) < 1:
            raise ValueError(f"all layer sizes must be >= 1, got {self}")

    @property
    def n_params(self) -> int:
        return self.n_hidden * self.n_in + self.n_hidden + self.n_out * self.n_hidden + self.n_out


def init_params(topology: Topology, seed: int) -> np.ndarray:
    """Uniform [-0.5, 0.5] start weights from a deterministic stream."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-0.5, 0.5, topology.n_params)


def unpack_params(topology: Topology, params: np.ndarray):
    """Views (w_in_hidden, b_hidden, w_hidden_out, b_out) into the flat vector."""
    t = topology
    end_w1 = t.n_hidden * t.n_in
    end_b1 = end_w1 + t.n_hidden
    end_w2 = end_b1 + t.n_out * t.n_hidden
    w1 = params[:end_w1].reshape(t.n_hidden, t.n_in)
    b1 = params[end_w1:end_b1]
    w2 = params[end_b1:end_w2].reshape(t.n_out, t.n_hidden)
    b2 = params[end_w2:]
    return w1, b1, w2, b2


@dataclass(frozen=True, eq=False)
class Network:
    """A topology plus one flat parameter vector (kept read-only)."""

    topology: Topology
    params: np.ndarray

    def __post_init__(self):
        p = np.array(self.params, dtype=np.float64)
        if p.ndim != 1 or p.size != self.topology.n_params:
            raise ValueError(
                f"parameter vector has length {p.size}, topology {self.topology} needs {self.topology.n_params}"
            )
        if not np.all(np.isfinite(p)):
            raise ValueError("parameters must all be finite")
        p.setflags(write=False)
        object.__setattr__(self, "params", p)

    def with_params(self, params) -> "Network":
        return Network(self.topology, params)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Sampled input rows with their normalized targets.

    Rows [0, split_index) are the training partition, the rest is the
    test partition. ``targets_norm`` lives in [0.1, 0.9].
    """

    inputs: np.ndarray  # (n, n_in), raw function-domain units
    targets_norm: np.ndarray  # (n,)
    split_index: int

    def __post_init__(self):
        x = np.array(self.inputs, dtype=np.float64)
        norm = np.array(self.targets_norm, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] < 1:
            raise ValueError(f"inputs must be a 2-D array of non-empty rows, got shape {x.shape}")
        n = x.shape[0]
        if n < 2 or norm.shape != (n,):
            raise ValueError("inputs and targets_norm need one entry per row, at least 2 rows")
        for name, a in (("inputs", x), ("targets_norm", norm)):
            if not np.all(np.isfinite(a)):
                raise ValueError(f"{name} must be finite (no NaN or inf)")
            a.setflags(write=False)
        if not (np.all(norm >= NORM_LO - 1e-12) and np.all(norm <= NORM_HI + 1e-12)):
            raise ValueError(f"normalized targets must lie in [{NORM_LO}, {NORM_HI}]")
        if not 1 <= self.split_index < n:
            raise ValueError(f"split_index {self.split_index} leaves an empty partition for {n} rows")
        object.__setattr__(self, "inputs", x)
        object.__setattr__(self, "targets_norm", norm)

    @classmethod
    def from_samples(cls, inputs, targets_raw, split_index: int) -> "Dataset":
        """Build a dataset by normalizing raw targets over the full sample."""
        return cls(inputs, normalize_targets(targets_raw), split_index)

    def rows(self, which: str):
        """(inputs, normalized targets) for the 'train' or 'test' partition."""
        if which == "train":
            sel = slice(0, self.split_index)
        elif which == "test":
            sel = slice(self.split_index, None)
        else:
            raise ValueError(f"row selector must be 'train' or 'test', got {which!r}")
        return self.inputs[sel], self.targets_norm[sel]


def normalize_targets(raw):
    """Affine map sending min(raw) -> 0.1 and max(raw) -> 0.9."""
    r = np.asarray(raw, dtype=np.float64)
    if r.ndim != 1 or r.size < 2:
        raise ValueError(f"need at least 2 raw targets, got shape {r.shape}")
    if not np.all(np.isfinite(r)):
        raise ValueError("raw targets must be finite (no NaN or inf)")
    lo, hi = float(r.min()), float(r.max())
    if not hi > lo:
        raise ValueError("raw targets are constant; the normalization map is undefined")
    return NORM_LO + (r - lo) * ((NORM_HI - NORM_LO) / (hi - lo))


def _sigmoid_inplace(a: np.ndarray) -> None:
    """Overwrite the float64 array ``a`` (ndim >= 1) with its logistic function.

    With z = exp(-|a|) this computes 1 / (1 + z) where a >= 0 and
    z / (1 + z) elsewhere, so exp never overflows. One branch-free
    numerator serves both: z <= 1 where a >= 0, so max(z, 1) = 1 there,
    and max(z, 0) = z elsewhere (NaN stays NaN).
    """
    e = np.abs(a)
    np.negative(e, out=e)
    np.exp(e, out=e)
    num = np.maximum(e, a >= 0)
    e += 1.0
    np.divide(num, e, out=a)


def sigmoid(x):
    """Logistic function, overflow-safe for large |x|. Works elementwise."""
    x = np.array(x, dtype=np.float64, order="C")
    _sigmoid_inplace(x.reshape(-1))  # a C-ordered copy, so this 1-d view writes into x
    return float(x) if x.ndim == 0 else x


def _check_net_vs_data(net: Network, data: Dataset) -> None:
    t = net.topology
    if data.inputs.shape[1] != t.n_in:
        raise ValueError(f"dataset rows have {data.inputs.shape[1]} inputs, network expects {t.n_in}")
    if t.n_out != 1:
        raise ValueError("dataset training needs a single output unit")


def _forward_batch(weights, x: np.ndarray):
    """The forward pass over rows x, given ``unpack_params``' views; returns (hidden, out)."""
    w1, b1, w2, b2 = weights
    hidden = x @ w1.T  # (n, n_hidden)
    hidden += b1
    _sigmoid_inplace(hidden)
    out = hidden @ w2.T  # (n, n_out)
    out += b2
    _sigmoid_inplace(out)
    return hidden, out


def loss_mse(net: Network, data: Dataset, rows: str = "train") -> float:
    """Mean squared error against normalized targets on the selected rows."""
    _check_net_vs_data(net, data)
    x, t = data.rows(rows)
    _, out = _forward_batch(unpack_params(net.topology, net.params), x)
    r = out[:, 0] - t
    r *= r
    return float(np.add.reduce(r) / r.size)  # np.mean's float64 sum and division


def loss_and_grad(net: Network, data: Dataset, rows: str = "train"):
    """MSE and its gradient from one shared forward pass."""
    _check_net_vs_data(net, data)
    x, t = data.rows(rows)
    topo = net.topology
    weights = unpack_params(topo, net.params)
    hidden, out = _forward_batch(weights, x)
    resid = out[:, 0] - t
    n = x.shape[0]
    loss = float(np.add.reduce(resid * resid) / n)  # np.mean's float64 sum and division

    # The textbook products in their textbook order, written in place:
    # d_out = 2/n * resid * out * (1 - out) and
    # d_hid = (d_out W2) * hidden * (1 - hidden); with one output unit d_out W2
    # is the broadcast d_out * W2, each entry one rounded product either way.
    # gw2 reads hidden before it is overwritten with 1 - hidden.
    d_out = (2.0 / n) * resid[:, None]  # (n, 1)
    d_out *= out
    np.subtract(1.0, out, out=out)
    d_out *= out
    grad = np.empty_like(net.params)
    gw1, gb1, gw2, gb2 = unpack_params(topo, grad)
    gw2[:] = d_out.T @ hidden
    gb2[:] = d_out.sum(axis=0)
    d_hid = d_out * weights[2]  # (n, n_hidden); weights[2] is W_hidden_out
    d_hid *= hidden
    np.subtract(1.0, hidden, out=hidden)
    d_hid *= hidden
    gw1[:] = d_hid.T @ x
    gb1[:] = d_hid.sum(axis=0)
    return loss, grad


def grad_backprop(net: Network, data: Dataset, rows: str = "train") -> np.ndarray:
    """Gradient of ``loss_mse`` in flat layout order.

    This is the true ascent gradient of the averaged loss, 2/N factor
    included, so it can be checked against finite differences directly.
    """
    return loss_and_grad(net, data, rows)[1]


def finite_diff_grad(net: Network, data: Dataset, rows: str = "train", step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient oracle; leaves the network untouched."""
    if not step > 0:
        raise ValueError(f"step must be positive, got {step}")
    base = np.array(net.params)
    grad = np.empty_like(base)
    for i in range(base.size):
        p = base.copy()
        p[i] = base[i] + step
        f_plus = loss_mse(net.with_params(p), data, rows)
        p[i] = base[i] - step
        f_minus = loss_mse(net.with_params(p), data, rows)
        grad[i] = (f_plus - f_minus) / (2.0 * step)
    return grad


def relative_error(a, b) -> float:
    """max over coordinates of |a - b| / max(1, |a|, |b|)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom))
