"""Embedding models, losses, optimizers, trainer and model registry."""

from .base import KGEModel, ModelConfig
from .translational import RotatE, TransD, TransE, TransH, TransR
from .factorization import ComplEx, DistMult, RESCAL, TuckER
from .conve import ConvE
from .losses import (
    LogisticLoss,
    LossFunction,
    MarginRankingLoss,
    SelfAdversarialLoss,
    make_loss,
)
from .optim import Adagrad, Adam, Optimizer, SGD, make_optimizer
from .trainer import (
    NaNLossError,
    TrainingCallback,
    TrainingConfig,
    TrainingResult,
    TrainingRun,
    train_model,
)
from .registry import (
    ALL_EMBEDDING_MODELS,
    CORE_MODELS,
    MODEL_REGISTRY,
    UnknownModelError,
    make_model,
    resolve_model_class,
)

__all__ = [
    "KGEModel",
    "ModelConfig",
    "TransE",
    "TransH",
    "TransR",
    "TransD",
    "RotatE",
    "RESCAL",
    "DistMult",
    "ComplEx",
    "TuckER",
    "ConvE",
    "LossFunction",
    "MarginRankingLoss",
    "LogisticLoss",
    "SelfAdversarialLoss",
    "make_loss",
    "Optimizer",
    "SGD",
    "Adagrad",
    "Adam",
    "make_optimizer",
    "TrainingRun",
    "TrainingCallback",
    "TrainingConfig",
    "TrainingResult",
    "NaNLossError",
    "train_model",
    "MODEL_REGISTRY",
    "CORE_MODELS",
    "ALL_EMBEDDING_MODELS",
    "UnknownModelError",
    "make_model",
    "resolve_model_class",
]
