"""Unsupervised health-index learning and RUL estimation.

A reconstruction LSTM trained on healthy operation turns multi-sensor
run-to-failure series into one-dimensional health-index curves; remaining
useful life is then estimated by similarity-weighted matching against the
training curves. See the pipeline module for the end-to-end recipe and the
cli module for the command line.

Importing edhi sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS to 1 where they are unset. A GEMM that BLAS splits across
threads can sum in another order, so the thread count changes a build's
bits. BLAS reads the variables when numpy is first imported, so a process
that imported numpy before edhi keeps the thread count it started with.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from .config import RunConfig, SweepGrid, parse_config_text, parse_sweep_grid
from .data import (
    RunToFailureDataset,
    SyntheticSpec,
    generate_synthetic,
    held_out_split,
    parse_generic,
    parse_turbofan,
    parse_turbofan_series,
    truncate_instance,
    truncate_random,
)
from .health import HiCurve, hi_curve, pointwise_reconstruction, sliding_windows
from .lstm import LstmEdModel, TrainResult, init_model, train
from .matching import RulEstimate, candidate_estimates, estimate_rul
from .metrics import EvalRecord, MetricsReport, full_report
from .persist import PipelineBundle, load_pipeline, save_pipeline
from .pipeline import (
    StageError,
    build_pipeline,
    evaluate_pipeline,
    predict_one,
    run_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "EvalRecord",
    "HiCurve",
    "LstmEdModel",
    "MetricsReport",
    "PipelineBundle",
    "RulEstimate",
    "RunConfig",
    "RunToFailureDataset",
    "StageError",
    "SweepGrid",
    "SyntheticSpec",
    "TrainResult",
    "build_pipeline",
    "candidate_estimates",
    "estimate_rul",
    "evaluate_pipeline",
    "full_report",
    "generate_synthetic",
    "held_out_split",
    "hi_curve",
    "init_model",
    "load_pipeline",
    "parse_config_text",
    "parse_generic",
    "parse_sweep_grid",
    "parse_turbofan",
    "parse_turbofan_series",
    "pointwise_reconstruction",
    "predict_one",
    "run_sweep",
    "save_pipeline",
    "sliding_windows",
    "train",
    "truncate_instance",
    "truncate_random",
    "__version__",
]
