"""Force-sequence release detection: data generation, training, inference."""

from .curves import (
    ForceSequence,
    LoadCurveParams,
    generate_handover_sequence,
    sample_curve_params,
)
from .dataset import (
    WindowDataset,
    balance_dataset,
    load_sequence_csv,
    save_sequence_csv,
    window_dataset,
)
from .network import (
    NetworkParams,
    backward_batch,
    bce_loss,
    bce_output_grad,
    forward_batch,
    init_network,
    load_weights,
    predict_batch,
    save_weights,
)
from .runtime import HOLD, RELEASE, ReleaseMonitor, ThresholdReleaseMonitor
from .training import (
    TrainingConfig,
    TrainingDivergedError,
    evaluate_accuracy,
    evaluate_loss,
    one_hot,
    train,
)

__all__ = [
    "ForceSequence",
    "LoadCurveParams",
    "generate_handover_sequence",
    "sample_curve_params",
    "WindowDataset",
    "window_dataset",
    "balance_dataset",
    "save_sequence_csv",
    "load_sequence_csv",
    "NetworkParams",
    "init_network",
    "forward_batch",
    "predict_batch",
    "backward_batch",
    "bce_loss",
    "bce_output_grad",
    "save_weights",
    "load_weights",
    "TrainingConfig",
    "TrainingDivergedError",
    "train",
    "evaluate_accuracy",
    "evaluate_loss",
    "one_hot",
    "HOLD",
    "RELEASE",
    "ReleaseMonitor",
    "ThresholdReleaseMonitor",
]
