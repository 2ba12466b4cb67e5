"""scipy as an independent oracle for ``bfgs_minimize``.

Both minimizers start from the same point and must end at the same
minimiser within 1e-6; only end points are compared, since the two line
searches take different steps. Skipped when scipy is not installed.
"""

import numpy as np
import pytest

from qnmlp import Objective, StopCriteria, beale_objective, bfgs_minimize

optimize = pytest.importorskip("scipy.optimize")

TOL = 1e-6
GTOL = 1e-8


def rosenbrock(n):
    # The classic start (-1.2, 1, ..., 1). At n = 5 both minimizers end in the
    # local minimum near (-1, 1, ..., 1), f = 3.93, where both line searches run
    # out of floating-point precision; at n = 10 they end in different minima.
    x0 = np.ones(n)
    x0[0] = -1.2
    return Objective(lambda x: (optimize.rosen(x), optimize.rosen_der(x)), n), x0


def spd_quadratic(seed, n=8):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = (q * rng.uniform(0.5, 10.0, n)) @ q.T
    b = rng.standard_normal(n)
    return Objective(lambda x: (0.5 * x @ a @ x - b @ x, a @ x - b), n), rng.standard_normal(n)


CASES = {
    "rosenbrock-2": lambda: rosenbrock(2),
    "rosenbrock-5": lambda: rosenbrock(5),
    "beale": lambda: (beale_objective(), np.array([1.0, 1.0])),
    **{f"spd-quadratic-{seed}": (lambda seed=seed: spd_quadratic(seed)) for seed in range(3)},
}


@pytest.mark.parametrize("case", CASES)
def test_same_minimiser_as_scipy_bfgs(case):
    obj, x0 = CASES[case]()
    ours = bfgs_minimize(obj, x0, StopCriteria(grad_tol=GTOL, max_iters=2000))
    theirs = optimize.minimize(lambda x: obj.eval(x)[0], x0, jac=lambda x: obj.eval(x)[1],
                               method="BFGS", options={"gtol": GTOL, "maxiter": 2000})
    assert ours.grad_norm_final <= TOL
    assert np.max(np.abs(ours.x_final - theirs.x)) <= TOL
