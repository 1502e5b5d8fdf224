"""Asynchronous federated optimization toolkit.

Provides a staleness-aware asynchronous server, regularized local SGD
workers, synchronous and serial baselines, a deterministic simulation
harness (sampled-staleness and discrete-event latency modes), and a
TCP transport for running the same protocol across processes.
"""

from fedasync.numerics import (
    Objective,
    QuadraticObjective,
    LogisticObjective,
    MlpObjective,
    finite_diff_grad,
    mix,
    reg_grad,
)
from fedasync.data import (
    Dataset,
    Shard,
    MiniBatch,
    gen_regression,
    gen_classification,
    partition_non_iid,
    sample_minibatch,
    train_eval_split,
    save_dataset,
    load_dataset,
)
from fedasync.worker import (
    WorkerConfig,
    LocalUpdate,
    DivergenceError,
    choose_steps,
    local_train,
)
from fedasync.server import (
    ServerConfig,
    ServerState,
    ProtocolError,
    StaleUpdateError,
    decay_factor,
    staleness_weight,
    apply_update,
    plan_triggers,
)
from fedasync.metrics import MetricsRecord, write_metrics_csv, write_metrics_jsonl
from fedasync.simulator import (
    DelayModel,
    ExperimentConfig,
    Problem,
    RunFailure,
    RunResult,
    build_problem,
    run_fedasync_sampled,
    run_fedasync_latency,
)
from fedasync.baselines import FedAvgConfig, run_fedavg, run_serial_sgd

__all__ = [
    "Objective",
    "QuadraticObjective",
    "LogisticObjective",
    "MlpObjective",
    "finite_diff_grad",
    "mix",
    "reg_grad",
    "Dataset",
    "Shard",
    "MiniBatch",
    "gen_regression",
    "gen_classification",
    "partition_non_iid",
    "sample_minibatch",
    "train_eval_split",
    "save_dataset",
    "load_dataset",
    "WorkerConfig",
    "LocalUpdate",
    "DivergenceError",
    "choose_steps",
    "local_train",
    "ServerConfig",
    "ServerState",
    "ProtocolError",
    "StaleUpdateError",
    "decay_factor",
    "staleness_weight",
    "apply_update",
    "plan_triggers",
    "MetricsRecord",
    "write_metrics_csv",
    "write_metrics_jsonl",
    "DelayModel",
    "ExperimentConfig",
    "Problem",
    "RunFailure",
    "RunResult",
    "build_problem",
    "run_fedasync_sampled",
    "run_fedasync_latency",
    "FedAvgConfig",
    "run_fedavg",
    "run_serial_sgd",
]

__version__ = "0.1.0"
