"""Stochastic training loop over expected collapsed statistics.

One minibatch step freezes the surrogate transition and emission matrices,
sweeps every sequence in the batch with forward-backward against that
frozen snapshot, and blends the corpus-scaled batch statistics into the
running expectations with step size rho_n = (1+n)^(-kappa).  The step
count n is the only schedule state: ``train`` keeps it and passes rho in.
All three algorithms keep the same statistics and take the same step; they
differ only in the mode the surrogate is built from (see
``initial_mode``).  The step is pure: it returns the new statistics and the
batch sums, which carry the absence sums exactly when the mode is an
``HdpPosterior``.  In that hierarchical mode ``train`` sums the transition
counts and absence sums over a large batch's sequences and refreshes the
stick posterior once per large batch from the table-count estimates of
their means, with the same schedule over the count of large batches; the
other modes simply have no large-batch level.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from . import svi
from .config import RunConfig
from .corpus import Corpus, minibatches
from .emissions import EmissionPrior, surrogate_emission_matrix
from .hdp import HdpPosterior, tables_from_aggregates, update_hdp
from .messages import SurrogateParams, sweep
from .special import GammaParams

# a state counts as "used" if its incoming expected-transition mass
# exceeds this fraction of the total
K_EFFECTIVE_THRESHOLD = 1e-3

__all__ = [
    "NumericalError",
    "GlobalStats",
    "FiniteMode",
    "SviMode",
    "MetricRecord",
    "TrainedModel",
    "step_size",
    "initial_mode",
    "initialize_stats",
    "build_surrogate",
    "process_minibatch",
    "batch_stream",
    "train",
    "predictive_log_likelihood",
    "k_effective",
]


class NumericalError(RuntimeError):
    """Local statistics stopped being finite; message identifies where."""


@dataclass
class GlobalStats:
    """Running expected transition counts and emission statistics.

    ``trans_counts`` is (K+1) x K with row 0 holding start transitions;
    ``token_stats[k][w]`` is the expected count of token w emitted from
    state k.  Every algorithm keeps this state; the mode decides how it
    becomes a surrogate.
    """

    trans_counts: np.ndarray
    token_stats: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.trans_counts, dtype=float)
        t = np.asarray(self.token_stats, dtype=float)
        if c.ndim != 2 or c.shape[0] != c.shape[1] + 1:
            raise ValueError("trans_counts must be (K+1) x K")
        if t.ndim != 2:
            raise ValueError("token_stats must be K x V")
        for name, arr in (("trans_counts", c), ("token_stats", t)):
            if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
                raise ValueError(f"{name} entries must be finite and >= 0")
        if t.shape[0] != c.shape[1]:
            raise ValueError("emission stats state count does not match trans_counts")
        self.trans_counts = c
        self.token_stats = t


def step_size(step: int, kappa: float) -> float:
    """rho_n = (1+n)^(-kappa) for step count n."""
    return float((1.0 + step) ** -kappa)


@dataclass(frozen=True)
class FiniteMode:
    """Flat symmetric prior over transition targets."""

    prior_count: float

    def __post_init__(self):
        if not self.prior_count > 0:
            raise ValueError("prior_count must be positive")


@dataclass(frozen=True)
class SviMode:
    """Uncollapsed baseline: geometric rows of the Dirichlet parameters prior + counts."""

    prior_count: float

    def __post_init__(self):
        if not self.prior_count > 0:
            raise ValueError("prior_count must be positive")


def _concentration_priors(config: RunConfig):
    return (
        GammaParams(config.alpha_prior_shape, config.alpha_prior_rate),
        GammaParams(config.gamma_prior_shape, config.gamma_prior_rate),
    )


def initial_mode(config: RunConfig):
    """The mode a run of ``config.algorithm`` starts from.

    This is the one place that reads the algorithm name; training and
    checkpoints dispatch on the type of the mode it returns.
    """
    if config.algorithm == "scvi-hmm":
        return FiniteMode(config.trans_prior)
    if config.algorithm == "scvi-hdphmm":
        return HdpPosterior.initial(config.num_states, *_concentration_priors(config))
    if config.algorithm == "svi-hmm":
        return SviMode(config.trans_prior)
    raise ValueError(f"unknown algorithm {config.algorithm!r}")


def initialize_stats(num_states: int, vocab_size: int, token_count: float, seed: int) -> GlobalStats:
    """Exponential random statistics scaled to the corpus token mass.

    Scaling both totals to the token count makes the first sub-unity step
    sizes blend comparably sized quantities.
    """
    rng = np.random.default_rng(seed)
    trans = rng.exponential(1.0, size=(num_states + 1, num_states))
    trans *= token_count / trans.sum()
    emit = rng.exponential(1.0, size=(num_states, vocab_size))
    emit *= token_count / emit.sum()
    return GlobalStats(trans, emit)


def build_surrogate(stats: GlobalStats, mode, prior: EmissionPrior) -> SurrogateParams:
    """Point transition/emission matrices from the current statistics.

    In the collapsed modes each transition row k is proportional to
    prior_term + counts, where the prior term is the flat count in finite
    mode and the per-target geometric weight in hierarchical mode (the
    start row included).  The uncollapsed mode takes the geometric rows of
    prior + counts for transitions and emissions alike.
    """
    if isinstance(mode, SviMode):
        return svi.svi_surrogate(
            mode.prior_count + stats.trans_counts,
            prior.pseudo_counts + stats.token_stats,
        )
    if isinstance(mode, FiniteMode):
        prior_term = np.full(stats.trans_counts.shape[1], mode.prior_count)
    elif isinstance(mode, HdpPosterior):
        prior_term = mode.geo_alpha_pi
    else:
        raise TypeError(f"unknown model mode {type(mode).__name__}")
    unnorm = prior_term[None, :] + stats.trans_counts
    trans = unnorm / unnorm.sum(axis=1, keepdims=True)
    emit = surrogate_emission_matrix(prior, stats.token_stats)
    return SurrogateParams(trans, emit)


def process_minibatch(
    stats: GlobalStats,
    batch,
    rho: float,
    mode,
    prior: EmissionPrior,
    corpus_size: int,
):
    """One stochastic update of the global statistics; modifies no argument.

    Freezes the surrogate, sweeps the batch, then blends
    (1-rho) * old + rho * (N/M) * batch sums, where N is the corpus
    sequence count and M the batch's actual size.  Returns the blend as new
    ``GlobalStats`` and the batch's ``BatchSums``, whose absence sums are
    computed exactly when ``mode`` is an ``HdpPosterior``.
    """
    params = build_surrogate(stats, mode, prior)
    sums = sweep(params, batch, absence=isinstance(mode, HdpPosterior))
    if not (np.all(np.isfinite(sums.counts)) and np.all(np.isfinite(sums.token_stats))):
        bad = np.flatnonzero(~np.isfinite(sums.loglik))
        where = f"sequence at batch position {bad[0]}" if bad.size else "minibatch"
        raise NumericalError(f"non-finite local statistics for {where}")
    scale = corpus_size / len(batch)
    new_counts = (1.0 - rho) * stats.trans_counts + rho * scale * sums.counts
    new_tokens = (1.0 - rho) * stats.token_stats + rho * scale * sums.token_stats
    return GlobalStats(new_counts, new_tokens), sums


@dataclass
class MetricRecord:
    """One evaluation point along a training run.

    ``train_seconds`` is the wall clock since the run started less the time
    spent at evaluation points; ``eval_seconds`` is the time spent on
    held-out evaluation, 0 without a held-out set.  Both are cumulative.
    """

    step: int
    pass_index: int
    train_seconds: float
    eval_seconds: float
    heldout_ll: float
    k_effective: int


@dataclass
class TrainedModel:
    """Everything needed to rebuild surrogates and evaluate.

    ``config`` records the algorithm; the sizes are the shapes of ``stats``.
    The mode must be one the config implies, as a checkpoint stores only
    the config and the hierarchical posterior: it has the type of
    ``initial_mode(config)``, equals it when flat or uncollapsed, and has
    the config's state count when hierarchical.
    """

    config: RunConfig
    stats: GlobalStats
    mode: object
    vocab: object = None

    def __post_init__(self):
        if self.config.num_states != self.num_states:
            raise ValueError(f"config num_states {self.config.num_states!r}, stats {self.num_states}")
        implied = initial_mode(self.config)
        if type(self.mode) is not type(implied):
            raise ValueError(
                f"{self.algorithm} takes a {type(implied).__name__} mode, got {type(self.mode).__name__}"
            )
        if isinstance(implied, HdpPosterior):
            if self.mode.num_states != self.num_states:
                raise ValueError(f"mode has {self.mode.num_states} states, config {self.num_states}")
        elif self.mode != implied:
            raise ValueError(f"mode {self.mode!r} contradicts config, which implies {implied!r}")
        if self.vocab is not None and len(self.vocab) != self.vocab_size:
            raise ValueError(f"vocab of {len(self.vocab)} words, stats {self.vocab_size}")

    @property
    def algorithm(self) -> str:
        return self.config.algorithm

    @property
    def num_states(self) -> int:
        return self.stats.trans_counts.shape[1]

    @property
    def vocab_size(self) -> int:
        return self.stats.token_stats.shape[1]

    def surrogate(self) -> SurrogateParams:
        prior = EmissionPrior.symmetric(self.config.emit_prior, self.vocab_size)
        return build_surrogate(self.stats, self.mode, prior)


def k_effective(model: TrainedModel) -> int:
    """States whose incoming expected-transition mass is non-negligible."""
    column_mass = model.stats.trans_counts.sum(axis=0)
    return int(np.sum(column_mass > K_EFFECTIVE_THRESHOLD * column_mass.sum()))


def predictive_log_likelihood(model, heldout: Corpus) -> float:
    """Average per-time-step log likelihood over a held-out corpus."""
    if len(heldout.sequences) == 0:
        raise ValueError("held-out corpus is empty")
    params = model.surrogate() if isinstance(model, TrainedModel) else model
    return float(sweep(params, heldout.sequences, stats=False).loglik.sum()) / heldout.counts


def batch_stream(corpus: Corpus, config: RunConfig):
    """The minibatch index stream a training run will consume.

    All algorithms draw from this same stream construction, so runs with
    identical seed, batch size, and mode see identical data order.
    """
    return minibatches(corpus, config.minibatch_size, config.seed, config.batch_mode)


def train(corpus: Corpus, config: RunConfig, heldout: Corpus = None):
    """Run the training loop; returns (model, metric records).

    Metrics are recorded at initialization, at every pass boundary, every
    ``eval_every_steps`` if configured, and at the final step.  Training
    length is ``passes`` sweeps, or ``budget_seconds`` of wall clock when
    set.  The step count is the only schedule state: the n-th minibatch
    step takes rho_n, and the n-th large-batch HDP update takes rho_n too.
    """
    config.validate()
    vocab_size = len(corpus.vocab)
    corpus_size = len(corpus)
    emit_prior = EmissionPrior.symmetric(config.emit_prior, vocab_size)
    alpha_prior, gamma_prior = _concentration_priors(config)

    stats = initialize_stats(config.num_states, vocab_size, corpus.counts, config.seed + 1)
    mode = initial_mode(config)
    steps_per_large = math.ceil(config.large_batch_size / config.minibatch_size)
    # the large batch's summed (counts, absence_pair, absence_row) and its sequence count
    large_sums, large_seqs = (0.0, 0.0, 0.0), 0

    stream = batch_stream(corpus, config)
    batches_per_pass = max(1, math.ceil(corpus_size / config.minibatch_size))
    total_steps = None if config.budget_seconds is not None else config.passes * batches_per_pass

    metrics = []
    step = 0
    start = time.perf_counter()
    # seconds spent at evaluation points, and on held-out evaluation within them
    paused = eval_seconds = 0.0

    def current_model():
        return TrainedModel(config, stats, mode, corpus.vocab)

    def record():
        nonlocal paused, eval_seconds
        entered = time.perf_counter()
        model = current_model()
        ll = float("nan")
        if heldout is not None:
            ll = predictive_log_likelihood(model, heldout)
            eval_seconds += time.perf_counter() - entered
        metrics.append(
            MetricRecord(
                step,
                step // batches_per_pass,
                entered - start - paused,
                eval_seconds,
                ll,
                k_effective(model),
            )
        )
        paused += time.perf_counter() - entered

    record()
    while True:
        if total_steps is not None and step >= total_steps:
            break
        if config.budget_seconds is not None and time.perf_counter() - start >= config.budget_seconds:
            break
        batch = [corpus.sequences[i] for i in next(stream)]
        rho = step_size(step, config.kappa)
        try:
            stats, sums = process_minibatch(stats, batch, rho, mode, emit_prior, corpus_size)
        except NumericalError as exc:
            raise NumericalError(f"{exc} (step {step})") from None
        step += 1
        if isinstance(mode, HdpPosterior):
            parts = (sums.counts, sums.absence_pair, sums.absence_row)
            large_sums = [total + part for total, part in zip(large_sums, parts)]
            large_seqs += len(batch)
            if step % steps_per_large == 0:
                means = [total / large_seqs for total in large_sums]
                tables = tables_from_aggregates(*means, corpus_size, mode)
                hdp_rho = step_size(step // steps_per_large - 1, config.kappa)
                mode = update_hdp(mode, tables, hdp_rho, alpha_prior, gamma_prior)
                large_sums, large_seqs = (0.0, 0.0, 0.0), 0
        due_pass = step % batches_per_pass == 0
        due_interval = (
            config.eval_every_steps is not None
            and step % config.eval_every_steps == 0
        )
        if due_pass or due_interval:
            record()
    if metrics[-1].step != step:
        record()
    return current_model(), metrics
