"""One-hidden-layer perceptron training with gradient descent and BFGS.

The package compares plain per-example backprop against a full-batch
BFGS quasi-Newton trainer with a strong-Wolfe line search on the Beale
and Booth function-approximation benchmarks. See ``qnmlp.cli`` for the
command-line front end.
"""

__version__ = "0.1.0"

from .bench import (
    BEALE,
    BOOTH,
    BenchConfig,
    BenchFunction,
    TrainReport,
    beale,
    beale_objective,
    booth,
    booth_objective,
    error_percent,
    get_function,
    run_benchmark,
    run_comparison,
    sample_dataset,
)
from .mlp import (
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
from .optim import (
    STATUS_DIVERGED,
    CurvatureError,
    GdConfig,
    KernelBuildError,
    LineSearchError,
    MinimizeResult,
    NotDescentError,
    Objective,
    StepRecord,
    StopCriteria,
    WolfeConfig,
    bfgs_minimize,
    bfgs_train,
    bfgs_update_hessian,
    bfgs_update_inv_hessian,
    gd_train,
    wolfe_line_search,
)
