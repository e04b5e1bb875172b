"""Curvature-tunable activations, exact loss-Hessian diagonals for small
fully-connected nets, ell-infinity attacks, and sweep tooling that ties
activation curvature to adversarial robustness and sharpness."""

from .activations import (
    ActivationSpec,
    CurvatureProfile,
    SubgradientWarning,
    alpha_for_curvature,
    d1,
    d2,
    max_abs_d2,
    rct_af,
    value,
)
from .attacks import (
    AttackConfig,
    clean_accuracy,
    fgsm,
    pgd_batch,
    robust_accuracy,
)
from .data import Dataset, GeneratorSpec, make_dataset
from .errors import (
    CurvactError,
    ResultsFormatError,
    TrainingDivergedError,
    UnsupportedActivationError,
)
from .hessian import (
    HessianDiagReport,
    dataset_diag_norm,
    hessian_diag_exact,
    hessian_diag_fd,
    normalized_diag_norm,
)
from .network import (
    Network,
    flat_params,
    forward,
    forward_batch,
    init_network,
    loss,
    mean_loss,
)
from .svg import ChartSpec, Series, render_chart, write_chart
from .training import (
    SweepConfig,
    SweepResult,
    TrainConfig,
    TrainingHistory,
    default_sweep_config,
    read_sweep_results,
    run_sweep,
    train_network,
)

__version__ = "0.1.0"

__all__ = [
    "ActivationSpec",
    "AttackConfig",
    "ChartSpec",
    "CurvactError",
    "CurvatureProfile",
    "Dataset",
    "GeneratorSpec",
    "HessianDiagReport",
    "Network",
    "ResultsFormatError",
    "Series",
    "SubgradientWarning",
    "SweepConfig",
    "SweepResult",
    "TrainConfig",
    "TrainingDivergedError",
    "TrainingHistory",
    "UnsupportedActivationError",
    "alpha_for_curvature",
    "clean_accuracy",
    "d1",
    "d2",
    "dataset_diag_norm",
    "default_sweep_config",
    "fgsm",
    "flat_params",
    "forward",
    "forward_batch",
    "hessian_diag_exact",
    "hessian_diag_fd",
    "init_network",
    "loss",
    "make_dataset",
    "max_abs_d2",
    "mean_loss",
    "normalized_diag_norm",
    "pgd_batch",
    "rct_af",
    "read_sweep_results",
    "render_chart",
    "robust_accuracy",
    "run_sweep",
    "train_network",
    "value",
    "write_chart",
]
