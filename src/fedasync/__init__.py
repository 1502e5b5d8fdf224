"""Asynchronous federated optimization toolkit.

Provides a staleness-aware asynchronous server, regularized local SGD
workers, synchronous and serial baselines, a deterministic simulation
harness (sampled-staleness and discrete-event latency modes), and a
TCP transport for running the same protocol across processes.
"""

from fedasync.baselines import FedAvgConfig, run_fedavg, run_serial_sgd
from fedasync.server import ServerConfig
from fedasync.simulator import (
    DelayModel,
    ExperimentConfig,
    Problem,
    RunResult,
    build_problem,
    run_fedasync_latency,
    run_fedasync_sampled,
)
from fedasync.worker import WorkerConfig

__all__ = [
    "ExperimentConfig",
    "ServerConfig",
    "WorkerConfig",
    "DelayModel",
    "FedAvgConfig",
    "Problem",
    "RunResult",
    "build_problem",
    "run_fedasync_sampled",
    "run_fedasync_latency",
    "run_fedavg",
    "run_serial_sgd",
]

__version__ = "0.1.0"
