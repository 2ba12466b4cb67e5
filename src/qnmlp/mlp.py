"""One-hidden-layer sigmoid perceptron over a flat parameter vector.

The flat layout is ``[W_in_hidden row-major | b_hidden | W_hidden_out
row-major | b_out]``, which is what both optimizers treat as the point
they are minimizing over. Targets are scaled into [0.1, 0.9] so the
sigmoid output unit can actually reach them; errors are measured in
those normalized units.
"""

from __future__ import annotations

import ctypes
import operator
import tempfile
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import NamedTuple

import numpy as np

__all__ = [
    "KernelBuildError",
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

# The perceptron's elementwise passes and the inverse-Hessian update's rank-two
# pass are C, built at first use by this command: optimised, but with no fused
# multiply-add, no reassociation and no CPU-specific instructions, so every
# entry is the textbook IEEE expression.
_KERNEL_SOURCE = Path(__file__).with_name("_kernels.c")
_KERNEL_BUILD = ("cc", "-O3", "-ffp-contract=off", "-fno-fast-math", "-shared", "-fPIC")
_KERNEL_SIGNATURES = {  # name -> argument types; every kernel returns nothing
    "rank_two_update": (ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_void_p),
    "sigmoid_begin": (ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_ssize_t),
    "sigmoid_end": (ctypes.c_void_p, ctypes.c_void_p, ctypes.c_ssize_t),
    "output_delta": (ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_ssize_t),
    "hidden_delta": (ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
                     ctypes.c_ssize_t, ctypes.c_ssize_t),
}


class KernelBuildError(RuntimeError):
    """The C compiler ``cc`` is missing or could not build the compiled kernels."""


@cache
def _kernels() -> ctypes.CDLL:
    """Build ``_kernels.c`` with ``cc`` and load it, once per process, from a
    temporary directory that is removed once the library is loaded."""
    import subprocess  # here, not at the top: importing qnmlp should not pay for it

    try:
        with tempfile.TemporaryDirectory(prefix="qnmlp-") as tmp:
            library = Path(tmp) / "_kernels.so"
            subprocess.run([*_KERNEL_BUILD, str(_KERNEL_SOURCE), "-o", str(library)],
                           check=True, capture_output=True, text=True)
            kernels = ctypes.CDLL(str(library))
    except (OSError, subprocess.CalledProcessError) as err:
        detail = " ".join(str(getattr(err, "stderr", None) or err).split())
        raise KernelBuildError(f"the compiled kernels could not be built with the C compiler 'cc': {detail}") from None
    for name, argtypes in _KERNEL_SIGNATURES.items():
        function = getattr(kernels, name)
        function.argtypes = argtypes
        function.restype = None
    return kernels


def _store_count(owner, name: str) -> int:
    """Store the frozen dataclass field ``owner.name`` as an int, through
    ``operator.index``, and return it; a ValueError naming the field if it is not one."""
    value = getattr(owner, name)
    try:
        count = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    object.__setattr__(owner, name, count)
    return count


@dataclass(frozen=True)
class Topology:
    """Node counts of the three layers; the output layer is one unit."""

    n_in: int
    n_hidden: int
    n_out: int = 1

    def __post_init__(self):
        for name in ("n_in", "n_hidden", "n_out"):
            _store_count(self, name)
        if min(self.n_in, self.n_hidden) < 1 or self.n_out != 1:
            raise ValueError(f"need n_in, n_hidden >= 1 and n_out == 1, got {self}")

    @property
    def n_params(self) -> int:
        return (self.n_in + 2) * self.n_hidden + 1


def init_params(topology: Topology, seed: int) -> np.ndarray:
    """Uniform [-0.5, 0.5] start weights from a deterministic stream."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-0.5, 0.5, topology.n_params)


def unpack_params(topology: Topology, params: np.ndarray):
    """Views (w_in_hidden, b_hidden, w_hidden_out, b_out) into the flat vector."""
    t = topology
    end_w1 = t.n_hidden * t.n_in
    end_b1 = end_w1 + t.n_hidden
    end_w2 = end_b1 + t.n_hidden
    w1 = params[:end_w1].reshape(t.n_hidden, t.n_in)
    b1 = params[end_w1:end_b1]
    w2 = params[end_b1:end_w2].reshape(1, t.n_hidden)
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


class _Unchecked(NamedTuple):
    """What the loss functions read of a ``Network``, without its copy and
    check: for a finite vector that the caller has just made, such as a BFGS trial."""

    topology: Topology
    params: np.ndarray


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
        _store_count(self, "split_index")
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
        object.__setattr__(self, "_passes", {})  # (rows, topology) -> _Pass, filled at first use

    def __getstate__(self):
        # A copy or an unpickled dataset makes its own passes: these hold this one's addresses.
        return {**self.__dict__, "_passes": {}}

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

    def _pass(self, rows: str, topology: Topology) -> "_Pass":
        """The forward and backward pass over one partition for one topology, made at first use."""
        found = self._passes.get((rows, topology))
        if found is None:
            found = self._passes[rows, topology] = _Pass(topology, *self.rows(rows))
        return found


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


def sigmoid(x):
    """Logistic function, overflow-safe for large |x|. Works elementwise.

    With e = exp(-|x|) this is 1 / (1 + e) where x >= 0 and e / (1 + e)
    elsewhere, so exp never overflows; the loss pass's compiled sigmoid gives the same bits.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0, e) / (1.0 + e)
    return float(out) if out.ndim == 0 else out


class _Pass:
    """The forward and backward pass over rows x with targets t, for one topology.

    ``Dataset._pass`` builds one per partition and topology, at first use.
    It allocates a parameter buffer, a gradient buffer and four blocks once,
    the activations ``hidden`` and ``out`` and the deltas ``d_hid`` and
    ``d_out``, and reads their addresses once (``ndarray.ctypes.data`` costs
    about a microsecond). Each call copies its parameters into the buffer and
    overwrites all four blocks before reading them, so no call sees another's
    values; the delta blocks take exp's argument first, and ``out`` ends
    holding the squared residuals. Two threads must not share one pass.
    """

    def __init__(self, topology: Topology, x: np.ndarray, t: np.ndarray):
        if x.shape[1] != topology.n_in:
            raise ValueError(f"dataset rows have {x.shape[1]} inputs, network expects {topology.n_in}")
        n, n_hidden = x.shape[0], topology.n_hidden
        self.kernels, self.topology, self.x, self.t = _kernels(), topology, x, t  # output_delta reads t by address
        self.params, self.grad = np.empty(topology.n_params), np.empty(topology.n_params)
        self.hidden, self.d_hid = np.empty((n, n_hidden)), np.empty((n, n_hidden))
        self.out, self.d_out = np.empty((n, 1)), np.empty((n, 1))
        w1, b1, w2, b2 = unpack_params(topology, self.params)
        self.gw1, self.gb1, self.gw2, self.gb2 = unpack_params(topology, self.grad)
        self.d_hid_t, self.d_out_t, self.squares = self.d_hid.T, self.d_out.T, self.out[:, 0]
        hid_at, d_hid_at, out_at, d_out_at = (a.ctypes.data for a in (self.hidden, self.d_hid, self.out, self.d_out))
        # Each layer's input, transposed weights, activations and exp's argument, then
        # sigmoid_begin's arguments; then output_delta's and hidden_delta's.
        self.layers = ((x, w1.T, self.hidden, self.d_hid, hid_at, d_hid_at, b1.ctypes.data, n, n_hidden),
                       (self.hidden, w2.T, self.out, self.d_out, out_at, d_out_at, b2.ctypes.data, n, 1))
        self.out_delta = (d_out_at, out_at, t.ctypes.data, n)
        self.hid_delta = (d_hid_at, self.gb1.ctypes.data, d_out_at, w2.ctypes.data, hid_at, n, n_hidden)

    @staticmethod
    def nbytes(topology: Topology, rows: int) -> int:
        """Bytes that a pass over rows rows allocates: two vectors of n_params and four blocks."""
        return 8 * (2 * topology.n_params + 2 * rows * (topology.n_hidden + 1))

    def forward(self, params: np.ndarray) -> None:
        """Both layers' activations for params, into ``hidden`` and ``out``: ``sigmoid``
        of each weighted sum plus bias, with the two passes around numpy's exp in C."""
        np.copyto(self.params, params)
        for a, w_t, z, t, z_at, t_at, b_at, rows, cols in self.layers:
            np.matmul(a, w_t, out=z)
            self.kernels.sigmoid_begin(z_at, t_at, b_at, rows, cols)
            np.exp(t, out=t)
            self.kernels.sigmoid_end(z_at, t_at, z.size)

    def loss(self, params: np.ndarray) -> float:
        self.forward(params)
        self.kernels.output_delta(*self.out_delta)
        return float(np.add.reduce(self.squares) / self.squares.size)  # np.mean's float64 sum and division

    def loss_and_grad(self, params: np.ndarray):
        # The textbook products in their textbook order, each entry one rounded
        # product: d_out = 2/n * resid * out * (1 - out) and d_hid = (d_out W2) *
        # hidden * (1 - hidden), where with one output unit d_out W2 is the broadcast
        # d_out * W2. The kernels also leave resid**2 in out and sum d_hid's columns.
        loss = self.loss(params)
        np.matmul(self.d_out_t, self.hidden, out=self.gw2)
        np.add.reduce(self.d_out, axis=0, out=self.gb2)
        self.kernels.hidden_delta(*self.hid_delta)
        np.matmul(self.d_hid_t, self.x, out=self.gw1)
        if self.topology.n_hidden == 1:  # numpy sums a single column pairwise, not row by row
            np.add.reduce(self.d_hid, axis=0, out=self.gb1)
        return loss, self.grad.copy()


def loss_mse(net: Network, data: Dataset, rows: str = "train") -> float:
    """Mean squared error against normalized targets on the selected rows."""
    return data._pass(rows, net.topology).loss(net.params)


def loss_and_grad(net: Network, data: Dataset, rows: str = "train"):
    """MSE and its gradient from one shared forward pass."""
    return data._pass(rows, net.topology).loss_and_grad(net.params)


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
