"""Stochastic collapsed variational inference for discrete sequence models.

Minibatch training of hidden Markov models with finite or stick-breaking
transition priors, an uncollapsed variational baseline, and held-out
predictive likelihood evaluation.
"""

from .config import ALGORITHMS, ConfigError, RunConfig
from .corpus import (
    Corpus,
    GroundTruth,
    SyntheticSpec,
    Vocabulary,
    generate_synthetic,
    load_corpus,
    minibatches,
    save_corpus,
    split,
)
from .engine import (
    MetricRecord,
    NumericalError,
    TrainedModel,
    k_effective,
    predictive_log_likelihood,
    train,
)
from .messages import SurrogateParams, sweep
from .model_io import (
    ChecksumError,
    ModelFormatError,
    TruncatedFileError,
    VersionMismatchError,
    load_model,
    save_model,
)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "ConfigError",
    "RunConfig",
    "Corpus",
    "GroundTruth",
    "SyntheticSpec",
    "Vocabulary",
    "generate_synthetic",
    "load_corpus",
    "minibatches",
    "save_corpus",
    "split",
    "MetricRecord",
    "NumericalError",
    "TrainedModel",
    "k_effective",
    "predictive_log_likelihood",
    "train",
    "SurrogateParams",
    "sweep",
    "ChecksumError",
    "ModelFormatError",
    "TruncatedFileError",
    "VersionMismatchError",
    "load_model",
    "save_model",
    "__version__",
]
