"""Checks for the stochastic training engine."""

import math
import threading

import numpy as np
import pytest

from oracles import batch_cvb0_hmm, batch_sums, log_forward_backward, log_space_loglik
from scvihmm import messages
from scvihmm.config import ConfigError, RunConfig
from scvihmm.corpus import Corpus, SyntheticSpec, Vocabulary, generate_synthetic, split
from scvihmm.emissions import EmissionPrior
from scvihmm.engine import (
    FiniteMode,
    GlobalStats,
    NumericalError,
    SviMode,
    TrainedModel,
    batch_stream,
    build_surrogate,
    initial_mode,
    initialize_stats,
    k_effective,
    predictive_log_likelihood,
    process_minibatch,
    step_size,
    train,
)
from scvihmm.hdp import HdpPosterior, tables_from_aggregates, update_hdp
from scvihmm.messages import SurrogateParams, sweep
from scvihmm.special import BetaParams, GammaParams


def nan_sweep(position):
    """The real sweep, with its sums and one sequence's log likelihood made NaN."""

    def broken(params, batch, **kwargs):
        sums = sweep(params, batch, **kwargs)
        sums.counts[:] = np.nan
        sums.loglik[position] = np.nan
        return sums

    return broken


def tiny_corpus(rng, n_seqs=12, vocab_size=5, max_len=9):
    vocab = Vocabulary(f"w{i}" for i in range(vocab_size - 1))
    seqs = [
        rng.integers(1, vocab_size, rng.integers(2, max_len + 1))
        for _ in range(n_seqs)
    ]
    return Corpus.from_sequences(seqs, vocab)


def mode_bytes(mode):
    """The bytes of every array and number a mode holds."""
    if isinstance(mode, HdpPosterior):
        parts = (mode.sticks.u, mode.sticks.v, mode.geo_alpha_pi,
                 [mode.alpha.a, mode.alpha.b, mode.gamma.a, mode.gamma.b])
    else:
        parts = ([mode.prior_count],)
    return [np.asarray(part, dtype=float).tobytes() for part in parts]


class TestSchedule:
    def test_first_step_is_one(self):
        for kappa in (0.5, 0.7, 1.0):
            assert step_size(0, kappa) == 1.0

    def test_second_step_half_kappa(self):
        assert abs(step_size(1, 0.5) - 2 ** -0.5) < 1e-15

    def test_fourth_step_full_kappa(self):
        assert step_size(3, 1.0) == 0.25

    def test_batch_sizes(self):
        # the schedule is the step count alone; the run config checks batch sizes
        with pytest.raises(ConfigError, match="large_batch_size"):
            RunConfig(minibatch_size=10, large_batch_size=5).validate()


class TestInitializeStats:
    def test_deterministic(self):
        a = initialize_stats(3, 7, 1000.0, seed=5)
        b = initialize_stats(3, 7, 1000.0, seed=5)
        np.testing.assert_array_equal(a.trans_counts, b.trans_counts)
        np.testing.assert_array_equal(a.token_stats, b.token_stats)

    def test_positive_entries(self):
        stats = initialize_stats(4, 6, 500.0, seed=1)
        assert np.all(stats.trans_counts > 0)
        assert np.all(stats.token_stats > 0)

    def test_mass_scaled_to_token_count(self):
        stats = initialize_stats(5, 11, 1234.5, seed=2)
        assert abs(stats.trans_counts.sum() - 1234.5) < 1e-6
        assert abs(stats.token_stats.sum() - 1234.5) < 1e-6


class TestBuildSurrogate:
    def test_zero_stats_finite_uniform(self):
        stats = GlobalStats(np.zeros((5, 4)), np.zeros((4, 3)))
        params = build_surrogate(stats, FiniteMode(0.1), EmissionPrior.symmetric(0.1, 3))
        np.testing.assert_allclose(params.trans, 0.25, atol=1e-15)

    def test_zero_stats_hdp_startup_uniform(self):
        stats = GlobalStats(np.zeros((5, 4)), np.zeros((4, 3)))
        mode = HdpPosterior.initial(4)
        params = build_surrogate(stats, mode, EmissionPrior.symmetric(0.1, 3))
        np.testing.assert_allclose(params.trans, 0.25, atol=1e-15)

    def test_count_row_normalization(self):
        counts = np.zeros((3, 2))
        counts[1] = [8.0, 2.0]
        stats = GlobalStats(counts, np.zeros((2, 3)))
        params = build_surrogate(stats, FiniteMode(0.1), EmissionPrior.symmetric(0.1, 3))
        np.testing.assert_allclose(params.trans[1], np.array([8.1, 2.1]) / 10.2, atol=1e-12)
        np.testing.assert_allclose(params.trans[0], 0.5, atol=1e-12)

    def test_unknown_mode(self):
        stats = GlobalStats(np.zeros((3, 2)), np.zeros((2, 3)))
        with pytest.raises(TypeError):
            build_surrogate(stats, object(), EmissionPrior.symmetric(0.1, 3))

    def test_unknown_algorithm_has_no_mode(self):
        with pytest.raises(ValueError, match="bogus"):
            initial_mode(RunConfig(algorithm="bogus"))


class TestProcessMinibatch:
    def _setup(self, seed=3, num_states=3, vocab_size=5):
        rng = np.random.default_rng(seed)
        corpus = tiny_corpus(rng, vocab_size=vocab_size)
        stats = initialize_stats(num_states, vocab_size, corpus.counts, seed)
        prior = EmissionPrior.symmetric(0.1, vocab_size)
        return corpus, stats, prior

    def test_first_step_is_pure_batch_estimate(self):
        corpus, stats, prior = self._setup()
        before = (stats.trans_counts.copy(), stats.token_stats.copy())
        batch = corpus.sequences[:4]
        # rho = 1 zeroes the old statistics in the blend; the result must be
        # exactly (N/M) * batch sums under the frozen surrogate
        params = build_surrogate(stats, FiniteMode(0.1), prior)
        sums = sweep(params, batch)
        scale = len(corpus) / len(batch)
        out, _ = process_minibatch(stats, batch, 1.0, FiniteMode(0.1), prior, len(corpus))
        np.testing.assert_array_equal(out.trans_counts, scale * sums.counts)
        np.testing.assert_array_equal(out.token_stats, scale * sums.token_stats)
        # and those sums are the log-space posteriors' sums
        counts, tokens, _ = batch_sums(log_forward_backward, params.trans, params.emit, batch)
        np.testing.assert_allclose(sums.counts, counts, atol=1e-10)
        np.testing.assert_allclose(sums.token_stats, tokens, atol=1e-10)
        # the step returns new statistics and leaves its input as it was
        np.testing.assert_array_equal(stats.trans_counts, before[0])
        np.testing.assert_array_equal(stats.token_stats, before[1])

    @pytest.mark.parametrize("mode", [
        FiniteMode(0.1),
        SviMode(0.1),
        HdpPosterior(
            BetaParams(np.array([1.5, 2.0, 0.7]), np.array([3.0, 1.2, 4.0])),
            GammaParams(2.0, 0.3), GammaParams(1.5, 0.4), np.array([0.4, 0.2, 0.05]),
        ),
    ])
    def test_pure_step_returns_sweep_sums(self, mode):
        corpus, stats, prior = self._setup(seed=14)
        batch = corpus.sequences[:6]
        stats_before = (stats.trans_counts.tobytes(), stats.token_stats.tobytes())
        mode_before = mode_bytes(mode)
        out, sums = process_minibatch(stats, batch, step_size(3, 0.6), mode, prior, len(corpus))
        # no argument is modified
        assert (stats.trans_counts.tobytes(), stats.token_stats.tobytes()) == stats_before
        assert mode_bytes(mode) == mode_before
        # the sums are the sweep's against the frozen surrogate, absence
        # sums included exactly in the hierarchical mode
        hierarchical = isinstance(mode, HdpPosterior)
        ref = sweep(build_surrogate(stats, mode, prior), batch, absence=hierarchical)
        for name in ("loglik", "counts", "token_stats"):
            np.testing.assert_array_equal(getattr(sums, name), getattr(ref, name))
        for name in ("absence_pair", "absence_row"):
            assert (getattr(sums, name) is None) == (not hierarchical)
            if hierarchical:
                np.testing.assert_array_equal(getattr(sums, name), getattr(ref, name))
        scale = len(corpus) / len(batch)
        rho = step_size(3, 0.6)
        np.testing.assert_array_equal(
            out.trans_counts, (1.0 - rho) * stats.trans_counts + rho * scale * ref.counts
        )

    def test_vanishing_step_changes_nothing(self):
        corpus, stats, prior = self._setup()
        rho = step_size(10**12, 1.0)
        out, _ = process_minibatch(
            stats, corpus.sequences[:4], rho, FiniteMode(0.1), prior, len(corpus)
        )
        np.testing.assert_allclose(out.trans_counts, stats.trans_counts, rtol=1e-9)
        np.testing.assert_allclose(
            out.token_stats, stats.token_stats, rtol=1e-9
        )

    def test_total_mass_convex_combination(self):
        corpus, stats, prior = self._setup(seed=8)
        rho = step_size(4, 0.7)
        batch = corpus.sequences[:5]
        out, _ = process_minibatch(stats, batch, rho, FiniteMode(0.1), prior, len(corpus))
        batch_tokens = sum(len(s) for s in batch)
        expected = (1 - rho) * stats.trans_counts.sum() + rho * (
            len(corpus) / len(batch)
        ) * batch_tokens
        assert abs(out.trans_counts.sum() - expected) < 1e-8 * expected
        assert abs(out.token_stats.sum() - expected) < 1e-8 * expected

    def test_nonnegative_and_finite(self):
        corpus, stats, prior = self._setup(seed=9)
        out = stats
        for step, start in enumerate(range(0, 12, 4)):
            out, _ = process_minibatch(
                out, corpus.sequences[start : start + 4], step_size(step, 0.5),
                FiniteMode(0.1), prior, len(corpus),
            )
            assert np.all(out.trans_counts >= 0) and np.all(np.isfinite(out.trans_counts))

    def test_repeat_call_bit_identical(self):
        corpus, stats, prior = self._setup(seed=10)
        batch = corpus.sequences[:6]
        a, _ = process_minibatch(stats, batch, step_size(2, 0.6), FiniteMode(0.1), prior, len(corpus))
        b, _ = process_minibatch(stats, batch, step_size(2, 0.6), FiniteMode(0.1), prior, len(corpus))
        np.testing.assert_array_equal(a.trans_counts, b.trans_counts)
        np.testing.assert_array_equal(a.token_stats, b.token_stats)

    def test_order_invariance_of_reduction(self):
        corpus, stats, prior = self._setup(seed=11)
        batch = corpus.sequences[:6]
        a, _ = process_minibatch(stats, batch, step_size(2, 0.6), FiniteMode(0.1), prior, len(corpus))
        b, _ = process_minibatch(
            stats, batch[::-1], step_size(2, 0.6), FiniteMode(0.1), prior, len(corpus)
        )
        np.testing.assert_allclose(a.trans_counts, b.trans_counts, rtol=1e-9, atol=1e-12)

    def test_empty_batch(self):
        _, stats, prior = self._setup()
        with pytest.raises(ValueError):
            process_minibatch(stats, [], step_size(0, 0.6), FiniteMode(0.1), prior, 10)

    def test_nonfinite_stats_abort(self, monkeypatch):
        corpus, stats, prior = self._setup()
        monkeypatch.setattr("scvihmm.engine.sweep", nan_sweep(position=0))
        with pytest.raises(NumericalError, match="batch position 0"):
            process_minibatch(
                stats, corpus.sequences[:2], step_size(0, 0.6), FiniteMode(0.1), prior, 12
            )

    def test_batch_cvb_fixed_point(self):
        # single sequence, rho pinned to 1 at every step: the
        # engine must walk the same trajectory as an independently coded
        # batch collapsed-VB iteration from the same start
        rng = np.random.default_rng(20)
        seq = rng.integers(0, 4, 20)
        vocab = Vocabulary(f"w{i}" for i in range(3))
        corpus = Corpus.from_sequences([seq], vocab)
        num_states, vocab_size = 2, 4
        stats = initialize_stats(num_states, vocab_size, 20.0, seed=7)
        prior = EmissionPrior.symmetric(0.1, vocab_size)
        oracle = batch_cvb0_hmm(
            seq, num_states, vocab_size, 0.1, 0.1,
            stats.trans_counts, stats.token_stats, 60,
        )
        current = stats
        for i in range(60):
            current, _ = process_minibatch(
                current, [seq], step_size(0, 1.0), FiniteMode(0.1), prior, 1
            )
        ref_counts, ref_tokens = oracle[-1]
        np.testing.assert_allclose(current.trans_counts, ref_counts, atol=1e-6)
        np.testing.assert_allclose(current.token_stats, ref_tokens, atol=1e-6)


class TestPredictiveLogLikelihood:
    def test_uniform_single_state(self):
        vocab_size = 100
        params = SurrogateParams(np.ones((2, 1)), np.full((1, vocab_size), 0.01))
        vocab = Vocabulary(f"w{i}" for i in range(vocab_size - 1))
        corpus = Corpus.from_sequences(
            [np.array([3, 17, 42]), np.array([99, 0])], vocab
        )
        ll = predictive_log_likelihood(params, corpus)
        assert abs(ll - (-math.log(vocab_size))) < 1e-12

    def test_matches_generating_model_forward(self):
        rng = np.random.default_rng(30)
        trans = rng.dirichlet(np.ones(3), size=4)
        emit = rng.dirichlet(np.ones(6), size=3)
        params = SurrogateParams(trans, emit)
        vocab = Vocabulary(f"w{i}" for i in range(5))
        seqs = [rng.integers(0, 6, rng.integers(2, 12)) for _ in range(8)]
        corpus = Corpus.from_sequences(seqs, vocab)
        expected = sum(log_space_loglik(trans, emit, s) for s in seqs) / sum(
            len(s) for s in seqs
        )
        assert abs(predictive_log_likelihood(params, corpus) - expected) < 1e-9

    def test_empty_heldout(self):
        params = SurrogateParams(np.ones((2, 1)), np.full((1, 4), 0.25))
        vocab = Vocabulary(["a"])
        corpus = Corpus([], vocab, 0)
        with pytest.raises(ValueError):
            predictive_log_likelihood(params, corpus)


class TestKEffective:
    def test_counts_concentrated_columns(self):
        counts = np.zeros((4, 3))
        counts[:, 0] = [5.0, 100.0, 200.0, 50.0]
        counts[:, 1] = [1.0, 2.0, 1.0, 0.5]
        counts[0, 2] = 1e-5
        stats = GlobalStats(counts, np.zeros((3, 2)))
        model = TrainedModel(RunConfig(num_states=3), stats, FiniteMode(0.1))
        assert k_effective(model) == 2


class TestTrainedModel:
    def test_sizes_and_algorithm_are_derived(self):
        stats = GlobalStats(np.zeros((4, 3)), np.zeros((3, 5)))
        config = RunConfig(algorithm="svi-hmm", num_states=3)
        model = TrainedModel(config, stats, SviMode(0.1))
        assert (model.algorithm, model.num_states, model.vocab_size) == ("svi-hmm", 3, 5)

    def test_contradicting_config_or_vocab_rejected(self):
        stats = GlobalStats(np.zeros((4, 3)), np.zeros((3, 5)))
        with pytest.raises(ValueError, match="num_states"):
            TrainedModel(RunConfig(num_states=7), stats, FiniteMode(0.1))
        with pytest.raises(ValueError, match="vocab"):
            TrainedModel(RunConfig(num_states=3), stats, FiniteMode(0.1), Vocabulary(["a"]))

    @pytest.mark.parametrize("algo, mode", [
        ("scvi-hmm", SviMode(0.1)),
        ("scvi-hmm", HdpPosterior.initial(3)),
        ("scvi-hmm", FiniteMode(5.0)),
        ("scvi-hdphmm", FiniteMode(0.1)),
        ("scvi-hdphmm", SviMode(0.1)),
        ("scvi-hdphmm", HdpPosterior.initial(4)),
        ("svi-hmm", FiniteMode(0.1)),
        ("svi-hmm", HdpPosterior.initial(3)),
        ("svi-hmm", SviMode(5.0)),
    ], ids=[
        "scvi-hmm-svi", "scvi-hmm-hdp", "scvi-hmm-other-prior",
        "scvi-hdphmm-finite", "scvi-hdphmm-svi", "scvi-hdphmm-4-states",
        "svi-hmm-finite", "svi-hmm-hdp", "svi-hmm-other-prior",
    ])
    def test_mode_contradicting_config_rejected(self, algo, mode):
        # a checkpoint rebuilds the mode from the config, so these could not
        # be read back as saved
        stats = GlobalStats(np.zeros((4, 3)), np.zeros((3, 5)))
        with pytest.raises(ValueError, match="mode"):
            TrainedModel(RunConfig(algorithm=algo, num_states=3), stats, mode)

    @pytest.mark.parametrize("algo, mode", [
        ("scvi-hmm", FiniteMode(0.1)),
        ("scvi-hdphmm", HdpPosterior(
            BetaParams(np.array([1.5, 2.0, 1.0]), np.array([3.0, 2.0, 1.0])),
            GammaParams(2.0, 0.3), GammaParams(1.5, 0.2), np.array([0.4, 0.2, 0.1]),
        )),
        ("svi-hmm", SviMode(0.1)),
    ], ids=["scvi-hmm", "scvi-hdphmm", "svi-hmm"])
    def test_mode_implied_by_config_accepted(self, algo, mode):
        stats = GlobalStats(np.zeros((4, 3)), np.zeros((3, 5)))
        assert TrainedModel(RunConfig(algorithm=algo, num_states=3), stats, mode).mode is mode


class TestTrain:
    def test_single_state_is_smoothed_unigram(self):
        rng = np.random.default_rng(40)
        corpus = tiny_corpus(rng, n_seqs=40, vocab_size=7, max_len=12)
        train_c, test_c = split(corpus, 0.75, seed=1)
        config = RunConfig(
            algorithm="scvi-hmm", num_states=1, kappa=0.5,
            minibatch_size=len(train_c), large_batch_size=len(train_c),
            passes=3, seed=2,
        )
        model, metrics = train(train_c, config, heldout=test_c)
        vocab_size = len(corpus.vocab)
        counts = np.zeros(vocab_size)
        for seq in train_c.sequences:
            counts += np.bincount(seq, minlength=vocab_size)
        probs = (0.1 + counts) / (0.1 * vocab_size + counts.sum())
        expected = sum(
            float(np.log(probs[seq]).sum()) for seq in test_c.sequences
        ) / sum(len(s) for s in test_c.sequences)
        assert abs(metrics[-1].heldout_ll - expected) < 1e-6
        assert abs(predictive_log_likelihood(model, test_c) - expected) < 1e-6

    def test_zero_passes_returns_initialization(self):
        rng = np.random.default_rng(41)
        corpus = tiny_corpus(rng)
        config = RunConfig(
            algorithm="scvi-hmm", num_states=3, minibatch_size=4,
            large_batch_size=4, passes=0, seed=9,
        )
        model, metrics = train(corpus, config, heldout=corpus)
        assert len(metrics) == 1
        assert metrics[0].step == 0
        init = initialize_stats(3, len(corpus.vocab), corpus.counts, config.seed + 1)
        np.testing.assert_array_equal(model.stats.trans_counts, init.trans_counts)

    def test_training_beats_initialization(self):
        spec = SyntheticSpec.random(3, 10, 400, 5, 15, seed=3, self_persistence=0.5)
        corpus, _ = generate_synthetic(spec)
        train_c, test_c = split(corpus, 0.9, seed=0)
        config = RunConfig(
            algorithm="scvi-hmm", num_states=3, minibatch_size=40,
            large_batch_size=40, passes=5, seed=4,
        )
        model, metrics = train(train_c, config, heldout=test_c)
        assert metrics[-1].heldout_ll > metrics[0].heldout_ll

    def test_metrics_cadence_and_monotone_clock(self):
        rng = np.random.default_rng(42)
        corpus = tiny_corpus(rng, n_seqs=10)
        config = RunConfig(
            algorithm="scvi-hmm", num_states=2, minibatch_size=5,
            large_batch_size=5, passes=2, seed=0,
        )
        _, metrics = train(corpus, config, heldout=corpus)
        assert [m.step for m in metrics] == [0, 2, 4]
        assert [m.pass_index for m in metrics] == [0, 1, 2]
        for field in ("train_seconds", "eval_seconds"):
            seconds = [getattr(m, field) for m in metrics]
            assert all(b >= a for a, b in zip(seconds, seconds[1:]))
        assert metrics[-1].eval_seconds > 0.0

    def test_eval_clock_is_zero_without_heldout(self):
        rng = np.random.default_rng(42)
        corpus = tiny_corpus(rng, n_seqs=10)
        config = RunConfig(
            algorithm="scvi-hmm", num_states=2, minibatch_size=5,
            large_batch_size=5, passes=2, seed=0,
        )
        _, metrics = train(corpus, config)
        assert [m.eval_seconds for m in metrics] == [0.0, 0.0, 0.0]
        seconds = [m.train_seconds for m in metrics]
        assert seconds[0] >= 0.0 and all(b >= a for a, b in zip(seconds, seconds[1:]))

    def test_eval_every_steps_cadence(self):
        rng = np.random.default_rng(50)
        corpus = tiny_corpus(rng, n_seqs=10)
        config = RunConfig(
            algorithm="scvi-hmm", num_states=2, minibatch_size=3,
            large_batch_size=3, passes=3, eval_every_steps=3, seed=1,
        )
        _, metrics = train(corpus, config, heldout=corpus)
        # 4 steps per pass, 12 in all: step 0, the multiples of 3, the pass
        # boundaries and the final step, each once (12 is all three)
        assert [m.step for m in metrics] == [0, 3, 4, 6, 8, 9, 12]
        assert [m.pass_index for m in metrics] == [0, 0, 1, 1, 2, 2, 3]

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(43)
        corpus = tiny_corpus(rng, n_seqs=16)
        config = RunConfig(
            algorithm="scvi-hmm", num_states=3, minibatch_size=4,
            large_batch_size=4, passes=2, seed=11,
        )
        model_a, metrics_a = train(corpus, config, heldout=corpus)
        model_b, metrics_b = train(corpus, config, heldout=corpus)
        np.testing.assert_array_equal(model_a.stats.trans_counts, model_b.stats.trans_counts)
        for a, b in zip(metrics_a, metrics_b):
            assert (a.step, a.pass_index, a.heldout_ll, a.k_effective) == (
                b.step, b.pass_index, b.heldout_ll, b.k_effective
            )

    @pytest.mark.parametrize("algo", ["scvi-hmm", "scvi-hdphmm", "svi-hmm"])
    def test_threads_field_has_no_effect(self, monkeypatch, algo):
        # a small slice size spreads each minibatch over several slices
        monkeypatch.setattr(messages, "SLICE_POSITIONS", 12)
        sweep_threads, slice_threads = [], []

        def spy(calls, func):
            def wrapped(*args, **kwargs):
                calls.append(threading.current_thread())
                return func(*args, **kwargs)
            return wrapped

        monkeypatch.setattr("scvihmm.engine.sweep", spy(sweep_threads, sweep))
        monkeypatch.setattr(messages, "_slice_sums", spy(slice_threads, messages._slice_sums))
        corpus = tiny_corpus(np.random.default_rng(55), n_seqs=24)
        runs = []
        for threads in (1, 2):
            config = RunConfig(
                algorithm=algo, num_states=3, minibatch_size=8, large_batch_size=16,
                passes=2, seed=6, threads=threads,
            )
            runs.append(train(corpus, config, heldout=corpus))
        batch = [corpus.sequences[i] for i in next(batch_stream(corpus, config))]
        assert len(messages._slices(batch, 5)) >= 3
        (model_a, metrics_a), (model_b, metrics_b) = runs
        np.testing.assert_array_equal(model_a.stats.trans_counts, model_b.stats.trans_counts)
        np.testing.assert_array_equal(model_a.stats.token_stats, model_b.stats.token_stats)
        assert mode_bytes(model_a.mode) == mode_bytes(model_b.mode)
        assert [m.heldout_ll for m in metrics_a] == [m.heldout_ll for m in metrics_b]
        for calls in (sweep_threads, slice_threads):
            assert calls and all(t is threading.main_thread() for t in calls)

    def test_eval_is_pure_function_of_state(self):
        rng = np.random.default_rng(44)
        corpus = tiny_corpus(rng)
        config = RunConfig(
            algorithm="scvi-hmm", num_states=2, minibatch_size=6,
            large_batch_size=6, passes=1, seed=5,
        )
        model, _ = train(corpus, config, heldout=corpus)
        assert predictive_log_likelihood(model, corpus) == predictive_log_likelihood(
            model, corpus
        )

    def test_hdp_mode_updates_sticks(self):
        rng = np.random.default_rng(45)
        corpus = tiny_corpus(rng, n_seqs=20)
        config = RunConfig(
            algorithm="scvi-hdphmm", num_states=4, minibatch_size=5,
            large_batch_size=10, passes=2, seed=6,
        )
        model, metrics = train(corpus, config, heldout=corpus)
        # two minibatches per large batch, 4 per pass: the stick posterior
        # must have moved off its pinned startup cache
        assert not np.allclose(model.mode.geo_alpha_pi, 0.1)
        assert np.isfinite(metrics[-1].heldout_ll)

    def test_hdp_step_sizes_follow_large_batch_count(self, monkeypatch):
        rhos = []

        def recording(post, tables, rho, *priors):
            rhos.append(rho)
            return update_hdp(post, tables, rho, *priors)

        monkeypatch.setattr("scvihmm.engine.update_hdp", recording)
        corpus = tiny_corpus(np.random.default_rng(51), n_seqs=20)
        config = RunConfig(
            algorithm="scvi-hdphmm", num_states=3, kappa=0.7, minibatch_size=5,
            large_batch_size=10, passes=2, seed=3,
        )
        train(corpus, config)
        # 8 steps, one HDP update every 2: the n-th update takes (1+n)^-kappa
        assert rhos == [1.0, 2 ** -0.7, 3 ** -0.7, 4 ** -0.7]

    def test_large_batch_sums_feed_table_estimates(self, monkeypatch):
        # 11 sequences in minibatches of 4: each pass ends on a short batch of
        # 3, and the second large batch (steps 3 and 4) crosses the pass
        # boundary right after it
        steps, tables_inputs = [], []

        def stepping(stats, batch, rho, mode, prior, corpus_size):
            steps.append((stats, [np.array(seq) for seq in batch], mode, prior))
            return process_minibatch(stats, batch, rho, mode, prior, corpus_size)

        def tabling(counts, absence_pair, absence_row, corpus_size, post):
            tables_inputs.append((counts, absence_pair, absence_row, corpus_size, post))
            return tables_from_aggregates(counts, absence_pair, absence_row, corpus_size, post)

        monkeypatch.setattr("scvihmm.engine.process_minibatch", stepping)
        monkeypatch.setattr("scvihmm.engine.tables_from_aggregates", tabling)
        corpus = tiny_corpus(np.random.default_rng(54), n_seqs=11)
        config = RunConfig(
            algorithm="scvi-hdphmm", num_states=3, minibatch_size=4,
            large_batch_size=8, passes=2, seed=2,
        )
        train(corpus, config)
        stream = batch_stream(corpus, config)
        for _, batch, _, _ in steps:
            expected = [corpus.sequences[i] for i in next(stream)]
            assert len(batch) == len(expected)
            assert all(np.array_equal(a, b) for a, b in zip(batch, expected))
        assert [len(batch) for _, batch, _, _ in steps] == [4, 4, 3, 4, 4, 3]
        assert len(tables_inputs) == 3
        for large, got in enumerate(tables_inputs):
            pair = steps[2 * large : 2 * large + 2]
            seqs = sum(len(batch) for _, batch, _, _ in pair)
            totals = None
            for stats, batch, mode, prior in pair:
                sums = sweep(build_surrogate(stats, mode, prior), batch, absence=True)
                parts = (sums.counts, sums.absence_pair, sums.absence_row)
                totals = parts if totals is None else [a + b for a, b in zip(totals, parts)]
            for total, arg in zip(totals, got[:3]):
                np.testing.assert_array_equal(arg, total / seqs)
            assert got[3] == len(corpus)
            assert got[4] is pair[-1][2]

    def test_nonfinite_stats_name_batch_position_and_step(self, monkeypatch):
        monkeypatch.setattr("scvihmm.engine.sweep", nan_sweep(position=0))
        corpus = tiny_corpus(np.random.default_rng(52))
        config = RunConfig(num_states=2, minibatch_size=4, large_batch_size=4, passes=1)
        with pytest.raises(NumericalError, match=r"batch position 0.*step 0"):
            train(corpus, config)

    def test_nan_in_multi_slice_batch_names_position_and_step(self, monkeypatch):
        # one sequence alone carries the last token; from the second step on
        # its emission column is NaN, so only that sequence goes non-finite
        rng = np.random.default_rng(53)
        seqs = [rng.integers(1, 5, rng.integers(2, 10)) for _ in range(11)]
        target = 6
        seqs[target] = np.array([1, 5, 2, 5, 3])
        corpus = Corpus.from_sequences(seqs, Vocabulary(f"w{i}" for i in range(5)))
        config = RunConfig(num_states=2, minibatch_size=11, large_batch_size=11, passes=2, seed=4)
        monkeypatch.setattr(messages, "SLICE_POSITIONS", 10)
        stream = batch_stream(corpus, config)
        next(stream)
        second = next(stream)
        assert len(messages._slices([corpus.sequences[i] for i in second], 6)) >= 3
        position = int(np.flatnonzero(second == target)[0])
        calls = []

        def poisoned(stats, mode, prior):
            params = build_surrogate(stats, mode, prior)
            calls.append(1)
            if len(calls) >= 2:
                params.emit[:, 5] = np.nan
            return params

        monkeypatch.setattr("scvihmm.engine.build_surrogate", poisoned)
        with pytest.raises(NumericalError, match=rf"batch position {position} \(step 1\)"):
            train(corpus, config)

    def test_empty_corpus_rejected_before_any_step(self):
        empty = Corpus.from_sequences([], Vocabulary(["a"]))
        for passes in (0, 1):
            with pytest.raises(ValueError, match="empty corpus"):
                train(empty, RunConfig(passes=passes, num_states=2))

    def test_svi_mode_runs(self):
        rng = np.random.default_rng(46)
        corpus = tiny_corpus(rng, n_seqs=16)
        config = RunConfig(
            algorithm="svi-hmm", num_states=3, minibatch_size=4,
            large_batch_size=4, passes=2, seed=7,
        )
        model, metrics = train(corpus, config, heldout=corpus)
        assert isinstance(model.mode, SviMode)
        assert np.isfinite(metrics[-1].heldout_ll)

    def test_shared_batch_stream_across_algorithms(self):
        rng = np.random.default_rng(47)
        corpus = tiny_corpus(rng, n_seqs=14)
        base = dict(num_states=3, minibatch_size=4, large_batch_size=4, passes=1, seed=13)
        streams = [
            batch_stream(corpus, RunConfig(algorithm=a, **base))
            for a in ("scvi-hmm", "scvi-hdphmm", "svi-hmm")
        ]
        for _ in range(8):
            first = next(streams[0])
            for s in streams[1:]:
                np.testing.assert_array_equal(first, next(s))

    def test_invalid_config_rejected(self):
        rng = np.random.default_rng(48)
        corpus = tiny_corpus(rng)
        bad = [
            ("algorithm", 3), ("num_states", True), ("kappa", 0.3), ("kappa", "0.8"),
            ("kappa", 0.49), ("kappa", 1.01),
            ("minibatch_size", 2.0), ("large_batch_size", "10000"), ("passes", None),
            ("budget_seconds", "5"), ("trans_prior", [0.1]), ("emit_prior", True),
            ("alpha_prior_shape", None), ("alpha_prior_rate", "1"),
            ("gamma_prior_shape", float("nan")), ("gamma_prior_rate", {}),
            ("seed", 1.5), ("seed", -1), ("batch_mode", 0), ("eval_every_steps", 1.5),
            ("eval_every_steps", False), ("threads", False),
        ]
        for name, value in bad:
            with pytest.raises(ConfigError, match=f"^{name} must"):
                train(corpus, RunConfig(**{name: value}), heldout=corpus)

    def test_budget_mode_stops(self):
        rng = np.random.default_rng(49)
        corpus = tiny_corpus(rng, n_seqs=10)
        config = RunConfig(
            algorithm="scvi-hmm", num_states=2, minibatch_size=2,
            large_batch_size=2, passes=1, budget_seconds=0.2, seed=8,
        )
        model, metrics = train(corpus, config, heldout=corpus)
        # budget mode overrides the pass count: one pass would be 5 steps
        assert metrics[-1].step > 5
        assert np.isfinite(metrics[-1].heldout_ll)
