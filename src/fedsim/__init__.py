"""Desk-scale simulator of federated fine-tuning with entropy-based data selection."""

__version__ = "0.1.0"

from .data import ClientPartition, Dataset, PartitionSpec
from .federation import FederationConfig, RoundReport, initial_model, run_federation
from .nn import Model

__all__ = [
    "__version__",
    "ClientPartition",
    "Dataset",
    "PartitionSpec",
    "FederationConfig",
    "RoundReport",
    "initial_model",
    "run_federation",
    "Model",
]
