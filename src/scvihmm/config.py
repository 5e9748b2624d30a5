"""Run configuration shared by the library entry points and the CLI."""

import math
from dataclasses import dataclass, fields

ALGORITHMS = ("scvi-hmm", "scvi-hdphmm", "svi-hmm")


class ConfigError(ValueError):
    """Invalid run configuration; message names the offending field."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return _is_int(value) or (isinstance(value, float) and math.isfinite(value))


@dataclass
class RunConfig:
    """Training settings.

    Defaults follow the reference experimental setup: symmetric 0.1
    transition and emission priors, Gamma(1, 0.1) concentration priors,
    kappa 0.5 with minibatches of 1000, a large batch of 10000, and
    truncation 45.  ``large_batch_size`` sets how often the hierarchical
    prior updates, once per ceil(large_batch_size / minibatch_size) steps;
    each update reads the table-count estimates of the minibatch that ends
    its large batch, 1000 sequences at the defaults.  The step-size theory
    wants kappa strictly above 0.5; 0.5 itself is the boundary value used
    in practice and is accepted.

    ``threads`` is validated and recorded, as saved config files and format
    2 checkpoints hold it, but it has no effect: every sweep runs serially
    on the calling thread.  It goes with the benchmark change that drops the
    benchmark's own thread count (ROADMAP.md, item 1).
    """

    algorithm: str = "scvi-hmm"
    num_states: int = 45
    kappa: float = 0.5
    minibatch_size: int = 1000
    large_batch_size: int = 10000
    passes: int = 10
    budget_seconds: float = None
    trans_prior: float = 0.1
    emit_prior: float = 0.1
    alpha_prior_shape: float = 1.0
    alpha_prior_rate: float = 0.1
    gamma_prior_shape: float = 1.0
    gamma_prior_rate: float = 0.1
    seed: int = 0
    batch_mode: str = "shuffle"
    eval_every_steps: int = None
    threads: int = 1

    @property
    def hierarchical(self) -> bool:
        """Whether the algorithm keeps a stick posterior, as ``scvi-hdphmm`` does."""
        return self.algorithm == "scvi-hdphmm"

    def validate(self):
        def require(name, ok, want):
            value = getattr(self, name)
            if not ok(value):
                raise ConfigError(f"{name} must be {want}, got {value!r}")

        require("algorithm", lambda v: v in ALGORITHMS, f"one of {ALGORITHMS}")
        for name in ("num_states", "minibatch_size", "threads"):
            require(name, lambda v: _is_int(v) and v >= 1, "a positive integer")
        require("large_batch_size", lambda v: _is_int(v) and v >= self.minibatch_size,
                "an integer >= minibatch_size")
        for name in ("passes", "seed"):
            require(name, lambda v: _is_int(v) and v >= 0, "a nonnegative integer")
        require("kappa", lambda v: _is_real(v) and 0.5 <= v <= 1.0, "a number in [0.5, 1]")
        for name in ("trans_prior", "emit_prior", "alpha_prior_shape",
                     "alpha_prior_rate", "gamma_prior_shape", "gamma_prior_rate"):
            require(name, lambda v: _is_real(v) and v > 0, "a positive number")
        require("budget_seconds", lambda v: v is None or (_is_real(v) and v > 0),
                "null or a positive number")
        require("batch_mode", lambda v: v in ("shuffle", "iid"), "'shuffle' or 'iid'")
        require("eval_every_steps", lambda v: v is None or (_is_int(v) and v >= 1),
                "null or a positive integer")
        return self

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        return cls(**data)
