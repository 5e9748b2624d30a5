"""Stochastic training loop over expected collapsed statistics.

One minibatch step freezes the surrogate transition and emission matrices,
sweeps every sequence in the batch with forward-backward against that
frozen snapshot, and blends the corpus-scaled batch statistics into the
running expectations with step size rho_n = (1+n)^(-kappa).  The step
count n is the only schedule state: ``train`` keeps it and passes rho in.
All three algorithms keep the same statistics and take the same step; they
differ only in how ``build_surrogate``, the one place statistics become
point parameters, reads them.  A ``TrainedModel`` holds the statistics, its
``RunConfig`` (the one record of its algorithm and priors) and the
hierarchical algorithm's stick posterior, and checks them where they enter.
The step is pure: it maps a model to the next model, without re-checking
it, and returns the batch sums, which carry the absence sums when asked.
For a model that holds a stick posterior ``train`` asks for them only on
the minibatch that ends each large batch, and refreshes the stick
posterior from the table-count estimates of that minibatch's means, with
the same schedule over the count of large batches; the other algorithms
simply have no large-batch level.
"""

import copy
import math
import time
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .corpus import Corpus, minibatches
from .hdp import HdpPosterior, tables_from_aggregates, update_hdp
from .messages import SurrogateParams, sweep
from .special import GammaParams, dirichlet_geo_rows

# a state counts as "used" if its incoming expected-transition mass
# exceeds this fraction of the total
K_EFFECTIVE_THRESHOLD = 1e-3

__all__ = [
    "NumericalError",
    "MetricRecord",
    "TrainedModel",
    "step_size",
    "initialize_stats",
    "build_surrogate",
    "process_minibatch",
    "train",
    "predictive_log_likelihood",
    "k_effective",
]


class NumericalError(RuntimeError):
    """Local statistics stopped being finite; message identifies where."""


@dataclass
class TrainedModel:
    """A model's expected statistics and everything needed to read them.

    ``trans_counts`` is (K+1) x K with row 0 holding start transitions;
    ``token_stats[k][w]`` is the expected count of token w emitted from
    state k.  Both hold finite, nonnegative entries whose row sums are
    finite.  ``config`` is the one record of the algorithm and the priors,
    and must validate; the sizes are the shapes of the statistics.  ``hdp``
    is the stick posterior, held exactly when the config is hierarchical and
    with its state count.  The checks run where values enter: ``train``'s
    initial model, ``load_model`` or a caller's constructor call;
    ``process_minibatch`` and ``train`` make each next model with
    ``_updated``, unchecked.
    """

    config: RunConfig
    trans_counts: np.ndarray
    token_stats: np.ndarray
    hdp: HdpPosterior = None
    vocab: object = None

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
            if not _finite_row_sums(arr):
                raise ValueError(f"{name} row sums must be finite")
        if t.shape[0] != c.shape[1]:
            raise ValueError("emission stats state count does not match trans_counts")
        self.trans_counts, self.token_stats = c, t
        self.config.validate()
        if self.config.num_states != self.num_states:
            raise ValueError(f"config num_states {self.config.num_states!r}, stats {self.num_states}")
        hierarchical = self.config.hierarchical
        if hierarchical != (self.hdp is not None):
            want = "an HdpPosterior" if hierarchical else "None"
            raise ValueError(f"{self.algorithm} takes hdp {want}, got {type(self.hdp).__name__}")
        if hierarchical and self.hdp.num_states != self.num_states:
            raise ValueError(f"hdp has {self.hdp.num_states} states, config {self.num_states}")
        if self.vocab is not None and len(self.vocab) != self.vocab_size:
            raise ValueError(f"vocab of {len(self.vocab)} words, stats {self.vocab_size}")

    @property
    def algorithm(self) -> str:
        return self.config.algorithm

    @property
    def num_states(self) -> int:
        return self.trans_counts.shape[1]

    @property
    def vocab_size(self) -> int:
        return self.token_stats.shape[1]

    def surrogate(self) -> SurrogateParams:
        return build_surrogate(self)


def _finite_row_sums(arr) -> bool:
    """Whether every row of ``arr`` sums to a finite value, without overflow warnings.

    Also false where an entry is not finite.  Entries near the largest float
    can be finite while their row sum overflows, and the surrogate's rows
    divide by those sums.
    """
    with np.errstate(over="ignore"):
        return bool(np.isfinite(arr.sum(axis=1)).all())


def _updated(model: TrainedModel, **changes) -> TrainedModel:
    """``replace(model, **changes)`` without re-running ``__post_init__``'s checks.

    For a step's new statistics or stick posterior, whose shapes the step
    keeps, so that the checks run once per ``train`` run and not per step.
    """
    new = copy.copy(model)
    vars(new).update(changes)
    return new


def _unchecked_surrogate(trans, emit) -> SurrogateParams:
    """``SurrogateParams(trans, emit)`` without ``__post_init__``'s checks.

    For ``build_surrogate``'s rows, which are positive and normalized by
    construction, so that a caller's own parameters are checked where they
    enter and a step's are not re-checked.
    """
    params = object.__new__(SurrogateParams)
    vars(params).update(trans=trans, emit=emit)
    return params


def step_size(step: int, kappa: float) -> float:
    """rho_n = (1+n)^(-kappa) for step count n."""
    return float((1.0 + step) ** -kappa)


def initialize_stats(num_states: int, vocab_size: int, token_count: float, seed: int):
    """Exponential random ``(trans_counts, token_stats)`` scaled to the corpus token mass.

    Scaling both totals to the token count makes the first sub-unity step
    sizes blend comparably sized quantities.
    """
    rng = np.random.default_rng(seed)
    trans = rng.exponential(1.0, size=(num_states + 1, num_states))
    trans *= token_count / trans.sum()
    emit = rng.exponential(1.0, size=(num_states, vocab_size))
    emit *= token_count / emit.sum()
    return trans, emit


def build_surrogate(model) -> SurrogateParams:
    """Point transition/emission matrices from a model's statistics.

    The config's ``emit_prior`` is the symmetric Dirichlet pseudo-count c of
    every emission row.  In the collapsed algorithms each transition row is
    proportional to prior_term + counts, where the prior term is the flat
    ``trans_prior`` count for ``scvi-hmm`` and, for ``scvi-hdphmm``, the
    per-target geometric weight of ``model.hdp`` (the start row included),
    and emission row k is the zeroth-order mean of its expected counts
    n = ``token_stats[k]``:

        row[w] = (c + n[w]) / (V c + sum(n)).

    The rows are built once per minibatch from the running statistics; a
    token's own count is not taken out first.  The uncollapsed ``svi-hmm``
    reads prior + counts as the Dirichlet variational parameters of every
    row (Hoffman et al., "Stochastic Variational Inference", JMLR 2013) and
    takes their geometric rows exp(psi(prior + n) - psi(row sum)),
    renormalized (``dirichlet_geo_rows``), for transitions and emissions
    alike.  The rows are not checked again: a checked model's counts are
    finite and nonnegative and its priors positive.
    """
    config = model.config
    pseudo = np.full(model.token_stats.shape[1], float(config.emit_prior))
    if config.algorithm == "svi-hmm":
        return _unchecked_surrogate(
            dirichlet_geo_rows(config.trans_prior + model.trans_counts),
            dirichlet_geo_rows(pseudo + model.token_stats),
        )
    if model.hdp is None:
        prior_term = np.full(model.trans_counts.shape[1], config.trans_prior)
    else:
        prior_term = model.hdp.geo_alpha_pi
    unnorm = prior_term[None, :] + model.trans_counts
    trans = unnorm / unnorm.sum(axis=1, keepdims=True)
    # the pairwise sum of V copies of c, which V * c differs from in the last bit
    # for about half of all (c, V), e.g. 2.1000000000000005 against 2.1 at V = 21
    denom = pseudo.sum() + model.token_stats.sum(axis=1)
    return _unchecked_surrogate(trans, (pseudo + model.token_stats) / denom[:, None])


def process_minibatch(model, batch, rho: float, corpus_size: int, absence=None):
    """One stochastic step from a model to the next; modifies no argument.

    ``batch`` is anything ``sweep`` takes: a corpus's ``windows``, as
    ``train`` passes, or a list of token sequences.  Freezes the surrogate,
    sweeps the batch, then blends
    (1-rho) * old + rho * (N/M) * batch sums, where N is the corpus
    sequence count and M the batch's actual size.  Returns the model that
    holds the blend and the batch's ``BatchSums``, which carry the absence
    sums if ``absence`` is true; by default, exactly when the model holds a
    stick posterior.  ``train`` asks for them only where it reads them.  A
    blend of nonnegative values with rho in (0, 1] stays nonnegative, so
    the next model is tested only for finite row sums, which its entries
    then share, and not checked again.
    """
    if not 0.0 < rho <= 1.0:
        raise ValueError(f"rho must be in (0, 1], got {rho!r}")
    if not corpus_size > 0:
        raise ValueError(f"corpus_size must be positive, got {corpus_size!r}")
    params = build_surrogate(model)
    if absence is None:
        absence = model.hdp is not None
    sums = sweep(params, batch, absence=absence)
    scale = corpus_size / len(batch)
    new_counts = (1.0 - rho) * model.trans_counts + rho * scale * sums.counts
    new_tokens = (1.0 - rho) * model.token_stats + rho * scale * sums.token_stats
    if not (_finite_row_sums(new_counts) and _finite_row_sums(new_tokens)):
        bad = np.flatnonzero(~np.isfinite(sums.loglik))
        where = f"sequence at batch position {bad[0]}" if bad.size else "minibatch"
        raise NumericalError(f"non-finite local statistics for {where}")
    return _updated(model, trans_counts=new_counts, token_stats=new_tokens), sums


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


def k_effective(model: TrainedModel) -> int:
    """States whose incoming expected-transition mass is non-negligible."""
    column_mass = model.trans_counts.sum(axis=0)
    return int(np.sum(column_mass > K_EFFECTIVE_THRESHOLD * column_mass.sum()))


def predictive_log_likelihood(model, heldout: Corpus) -> float:
    """Average per-time-step log likelihood over a held-out corpus.

    A ``TrainedModel`` that holds words refuses a corpus indexed by another
    vocabulary, since each token would be scored as another word.
    """
    if len(heldout) == 0:
        raise ValueError("held-out corpus is empty")
    if isinstance(model, TrainedModel) and model.vocab is not None and heldout.vocab != model.vocab:
        raise ValueError("held-out corpus is indexed by another vocabulary than the model's")
    params = model.surrogate() if isinstance(model, TrainedModel) else model
    return float(sweep(params, heldout, stats=False).loglik.sum()) / heldout.counts


def train(corpus: Corpus, config: RunConfig, heldout: Corpus = None):
    """Run the training loop; returns (model, metric records).

    Metrics are recorded at initialization, at every pass boundary, every
    ``eval_every_steps`` if configured, and at the final step.  Training
    length is ``passes`` sweeps, or ``budget_seconds`` of wall clock when
    set.  The step count is the only schedule state: the n-th minibatch
    step takes rho_n, and the n-th large-batch HDP update takes rho_n too.
    ``large_batch_size`` sets how often the stick posterior updates: once
    every ceil(large_batch_size / minibatch_size) steps, counted across
    passes.  Only the step that ends a large batch computes absence sums,
    and its update reads the table-count estimates of that minibatch alone:
    its sums divided by its size.  A run's unfinished last large batch
    computes none.
    Each step sweeps its minibatch as windows into the corpus's one token
    array (``Corpus.windows`` of the drawn index array).
    """
    config.validate()
    corpus_size = len(corpus)
    alpha_prior = GammaParams(config.alpha_prior_shape, config.alpha_prior_rate)
    gamma_prior = GammaParams(config.gamma_prior_shape, config.gamma_prior_rate)
    counts, tokens = initialize_stats(config.num_states, len(corpus.vocab), corpus.counts, config.seed + 1)
    hdp = None
    if config.hierarchical:
        hdp = HdpPosterior.initial(config.num_states, config.trans_prior, alpha_prior, gamma_prior)
    model = TrainedModel(config, counts, tokens, hdp, corpus.vocab)
    steps_per_large = math.ceil(config.large_batch_size / config.minibatch_size)

    stream = minibatches(corpus, config.minibatch_size, config.seed, config.batch_mode)
    batches_per_pass = math.ceil(corpus_size / config.minibatch_size)
    total_steps = None if config.budget_seconds is not None else config.passes * batches_per_pass

    metrics = []
    step = 0
    start = time.perf_counter()
    # seconds spent at evaluation points, and on held-out evaluation within them
    paused = eval_seconds = 0.0

    def record():
        nonlocal paused, eval_seconds
        entered = time.perf_counter()
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
        batch = corpus.windows(next(stream))
        rho = step_size(step, config.kappa)
        update = model.hdp is not None and (step + 1) % steps_per_large == 0
        try:
            model, sums = process_minibatch(model, batch, rho, corpus_size, absence=update)
        except NumericalError as exc:
            raise NumericalError(f"{exc} (step {step})") from None
        step += 1
        if update:
            means = [part / len(batch) for part in (sums.counts, sums.absence_pair, sums.absence_row)]
            tables = tables_from_aggregates(*means, corpus_size, model.hdp)
            hdp_rho = step_size(step // steps_per_large - 1, config.kappa)
            hdp = update_hdp(model.hdp, tables, hdp_rho, alpha_prior, gamma_prior)
            model = _updated(model, hdp=hdp)
        due_pass = step % batches_per_pass == 0
        due_interval = (
            config.eval_every_steps is not None
            and step % config.eval_every_steps == 0
        )
        if due_pass or due_interval:
            record()
    if metrics[-1].step != step:
        record()
    return model, metrics
