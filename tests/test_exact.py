"""mpmath at 40 digits as an exact-arithmetic oracle for the training loss and gradient.

The oracle takes the float64 training rows and parameters as exact numbers
and forms the MSE and its backpropagated gradient in 40-digit arithmetic,
with each sigmoid derivative as e / (1 + e)^2 for e = exp(-z), which stays
exact however far the unit saturates. ``loss_and_grad`` must agree with it
to a few ulps: 1e-15 relative on the loss, and 4e-15 of the largest exact
gradient entry on every entry. Skipped when mpmath is not installed.
"""

import numpy as np
import pytest

from qnmlp import Network, Topology, bench, init_params, loss_and_grad, unpack_params

mpmath = pytest.importorskip("mpmath")

DIGITS = 40
LOSS_REL_TOL = 1e-15
GRAD_REL_TOL = 4e-15


def exact_loss_and_grad(topology, params, x, t):
    """The training MSE and its gradient, in flat layout order, as 40-digit mpf values."""
    n, n_hidden = len(x), topology.n_hidden
    with mpmath.workdps(DIGITS):
        exact = np.frompyfunc(mpmath.mpf, 1, 1)  # a float64 converts exactly
        w1, b1, w2, b2 = (exact(a).tolist() for a in unpack_params(topology, params))
        w2, b2, x, t = w2[0], b2[0], exact(x).tolist(), exact(t).tolist()

        def unit(z):  # the sigmoid and its derivative
            e = mpmath.exp(-z)
            return 1 / (1 + e), e / (1 + e) ** 2

        loss = mpmath.mpf(0)
        gw1 = [[mpmath.mpf(0)] * topology.n_in for _ in range(n_hidden)]
        gb1, gw2, gb2 = [mpmath.mpf(0)] * n_hidden, [mpmath.mpf(0)] * n_hidden, mpmath.mpf(0)
        for row, target in zip(x, t):
            hidden = [unit(mpmath.fsum(w * xi for w, xi in zip(w1[j], row)) + b1[j]) for j in range(n_hidden)]
            out, d_out = unit(mpmath.fsum(w2[j] * hidden[j][0] for j in range(n_hidden)) + b2)
            resid = out - target
            loss += resid * resid
            d_out = 2 * resid * d_out / n
            gb2 += d_out
            for j, (h, dh) in enumerate(hidden):
                gw2[j] += d_out * h
                d_hid = d_out * w2[j] * dh
                gb1[j] += d_hid
                gw1[j] = [g + d_hid * xi for g, xi in zip(gw1[j], row)]
        return loss / n, [g for row in gw1 for g in row] + gb1 + gw2 + [gb2]


def relative_errors(fn, hidden, scale):
    """The loss's relative error, and the gradient's largest error over its largest exact entry."""
    data = bench.sample_dataset(bench.FUNCTIONS[fn], 60, 0.8, 2)
    topology = Topology(2, hidden)
    params = init_params(topology, 2) * scale
    loss, grad = loss_and_grad(Network(topology, params), data, "train")
    exact_loss, exact_grad = exact_loss_and_grad(topology, params, *data.rows("train"))
    with mpmath.workdps(DIGITS):
        loss_err = abs(loss - exact_loss) / exact_loss
        grad_err = max(abs(g - e) for g, e in zip(grad.tolist(), exact_grad)) / max(abs(e) for e in exact_grad)
    return float(loss_err), float(grad_err)


SATURATED = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 15: a positively saturated unit's o(1 - o) rounds to exactly 0 "
    "(about 1.5e-9 of max|g| here)")
CASES = [pytest.param(fn, hidden, scale, marks=SATURATED if (hidden, scale) == (10, 30) else ())
         for fn in ("beale", "booth") for hidden in (1, 3, 10) for scale in (1, 5, 30)]


@pytest.mark.parametrize("fn, hidden, scale", CASES)
def test_loss_and_grad_match_exact_arithmetic(fn, hidden, scale):
    loss_err, grad_err = relative_errors(fn, hidden, scale)
    assert loss_err <= LOSS_REL_TOL
    assert grad_err <= GRAD_REL_TOL
