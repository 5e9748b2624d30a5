"""Checks for the stochastic training engine."""

import math
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (batch_cvb0_hmm, batch_sums, batch_vb_hmm, dirichlet_predictive_row,
                     log_forward_backward, log_space_loglik, surrogate_emission_row)
from scvihmm import messages
from scvihmm.config import ConfigError, RunConfig
from scvihmm.corpus import Corpus, SyntheticSpec, Vocabulary, generate_synthetic, minibatches, split
from scvihmm.engine import (
    NumericalError,
    TrainedModel,
    build_surrogate,
    initialize_stats,
    k_effective,
    predictive_log_likelihood,
    process_minibatch,
    step_size,
    train,
)
from scvihmm.hdp import HdpPosterior, tables_from_aggregates, update_hdp
from scvihmm.messages import SurrogateParams, sweep
from scvihmm.special import BetaParams, GammaParams, dirichlet_geo_rows

# RunConfig's Gamma(1, 0.1) concentration priors
PRIOR = GammaParams(1.0, 0.1)


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


def hdp_bytes(hdp):
    """The bytes of every array and number a stick posterior holds; none without one."""
    if hdp is None:
        return []
    parts = (hdp.sticks.u, hdp.sticks.v, hdp.geo_alpha_pi,
             [hdp.alpha.a, hdp.alpha.b, hdp.gamma.a, hdp.gamma.b])
    return [np.asarray(part, dtype=float).tobytes() for part in parts]


def flat_model(trans_counts, token_stats, algorithm="scvi-hmm", **priors):
    """A flat-prior model of these statistics; the default priors unless ``priors`` are given."""
    config = RunConfig(algorithm=algorithm, num_states=trans_counts.shape[1], **priors)
    return TrainedModel(config, trans_counts, token_stats)


def emission_matrix(emit_prior, token_stats):
    """The emission rows ``build_surrogate`` builds for ``token_stats``."""
    k = token_stats.shape[0]
    return build_surrogate(flat_model(np.ones((k + 1, k)), token_stats, emit_prior=emit_prior)).emit


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
        for x, y in zip(a, b, strict=True):
            np.testing.assert_array_equal(x, y)

    def test_positive_entries(self):
        trans_counts, token_stats = initialize_stats(4, 6, 500.0, seed=1)
        assert np.all(trans_counts > 0)
        assert np.all(token_stats > 0)

    def test_mass_scaled_to_token_count(self):
        trans_counts, token_stats = initialize_stats(5, 11, 1234.5, seed=2)
        assert abs(trans_counts.sum() - 1234.5) < 1e-6
        assert abs(token_stats.sum() - 1234.5) < 1e-6


class TestBuildSurrogate:
    def test_zero_stats_finite_uniform(self):
        params = build_surrogate(flat_model(np.zeros((5, 4)), np.zeros((4, 3))))
        np.testing.assert_allclose(params.trans, 0.25, atol=1e-15)

    def test_zero_stats_hdp_startup_uniform(self):
        config = RunConfig(algorithm="scvi-hdphmm", num_states=4)
        hdp = HdpPosterior.initial(4, 0.1, PRIOR, PRIOR)
        params = build_surrogate(TrainedModel(config, np.zeros((5, 4)), np.zeros((4, 3)), hdp))
        np.testing.assert_allclose(params.trans, 0.25, atol=1e-15)

    @pytest.mark.parametrize("trans_prior", [0.1, 0.37, 5.0])
    def test_hdp_start_matches_the_flat_prior(self, trans_prior):
        # the hierarchical model's first sweep starts from the flat model's transition rows
        corpus = tiny_corpus(np.random.default_rng(3), vocab_size=9)
        models = [
            train(corpus, RunConfig(algorithm=algo, num_states=6, minibatch_size=4,
                                    large_batch_size=4, passes=0, trans_prior=trans_prior))[0]
            for algo in ("scvi-hdphmm", "scvi-hmm")
        ]
        hdp, flat = (build_surrogate(model).trans for model in models)
        assert hdp.tobytes() == flat.tobytes()

    def test_count_row_normalization(self):
        counts = np.zeros((3, 2))
        counts[1] = [8.0, 2.0]
        params = build_surrogate(flat_model(counts, np.zeros((2, 3))))
        np.testing.assert_allclose(params.trans[1], np.array([8.1, 2.1]) / 10.2, atol=1e-12)
        np.testing.assert_allclose(params.trans[0], 0.5, atol=1e-12)

    def test_build_surrogate_takes_geometric_rows(self):
        trans_counts, token_stats = initialize_stats(3, 5, 40.0, seed=1)
        config = RunConfig(algorithm="svi-hmm", num_states=3, trans_prior=0.2, emit_prior=0.3)
        params = build_surrogate(TrainedModel(config, trans_counts, token_stats))
        np.testing.assert_array_equal(params.trans, dirichlet_geo_rows(0.2 + trans_counts))
        np.testing.assert_array_equal(params.emit, dirichlet_geo_rows(0.3 + token_stats))


class TestEmissionPrior:
    @pytest.mark.parametrize(
        "pseudo", [0.0, -0.5, np.nan, np.inf], ids=[f"pseudo{i}" for i in range(4)]
    )
    def test_rejects_bad_pseudo_counts(self, pseudo):
        with pytest.raises(ConfigError, match="^emit_prior must be a positive number"):
            emission_matrix(pseudo, np.ones((2, 5)))


class TestEmissionStats:
    """The emission statistics are the ``token_stats`` array of a TrainedModel."""

    def test_rejects_negative_entries(self):
        for bad in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="^token_stats entries must be finite and >= 0$"):
                TrainedModel(RunConfig(num_states=1), np.ones((2, 1)), np.array([[1.0, bad]]))

    @pytest.mark.parametrize("token_stats, message", [
        (np.ones(4), "^token_stats must be K x V$"),
        (np.ones((3, 4)), "^emission stats state count does not match trans_counts$"),
    ], ids=["1-d", "state-count"])
    def test_rejects_misshapen_stats(self, token_stats, message):
        with pytest.raises(ValueError, match=message):
            TrainedModel(RunConfig(num_states=2), np.ones((3, 2)), token_stats)


class TestSurrogateRow:
    def test_zero_stats_gives_uniform(self):
        stats = np.zeros((2, 5))
        row = surrogate_emission_row(np.full(5, 0.1), stats, 0)
        np.testing.assert_allclose(row, np.full(5, 0.2), atol=1e-15)
        np.testing.assert_array_equal(emission_matrix(0.1, stats)[0], row)

    def test_single_count_example(self):
        pseudo = np.full(5, 0.1)
        stats = np.array([[1.0, 0.0, 0.0, 0.0, 0.0]])
        row = surrogate_emission_row(pseudo, stats, 0)
        expected = np.array([1.1, 0.1, 0.1, 0.1, 0.1]) / 1.5
        np.testing.assert_allclose(row, expected, atol=1e-15)
        oracle = dirichlet_predictive_row(pseudo, stats[0])
        np.testing.assert_allclose(row, oracle, atol=1e-12)

    def test_two_token_example(self):
        pseudo = np.full(2, 0.1)
        stats = np.array([[3.0, 1.0]])
        row = surrogate_emission_row(pseudo, stats, 0)
        np.testing.assert_allclose(row, np.array([3.1, 1.1]) / 4.2, atol=1e-15)
        oracle = dirichlet_predictive_row(pseudo, stats[0])
        np.testing.assert_allclose(row, oracle, atol=1e-12)

    def test_generic_form_agreement_on_random_stats(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            vocab = int(rng.integers(2, 8))
            pseudo = rng.uniform(0.05, 3.0, vocab)
            stats = rng.uniform(0.0, 10.0, (1, vocab))
            row = surrogate_emission_row(pseudo, stats, 0)
            oracle = dirichlet_predictive_row(pseudo, stats[0])
            np.testing.assert_allclose(row, oracle, atol=1e-12)

    def test_rows_normalized_and_positive(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            stats = rng.uniform(0.0, 50.0, (4, 9))
            mat = emission_matrix(0.1, stats)
            assert np.all(mat > 0.0) and np.all(mat < 1.0)
            np.testing.assert_allclose(mat.sum(axis=1), 1.0, atol=1e-12)

    def test_matrix_matches_rows(self):
        # the oracle's denominator sums V copies of c; V * c differs in the last
        # bit at (0.1, 21), 2.1 against 2.1000000000000005, which small
        # counts do not round away
        rng = np.random.default_rng(17)
        for c, vocab, top in ((rng.uniform(0.1, 2.0), 6, 5.0), (0.1, 21, 0.1), (0.37, 500, 0.1)):
            stats = rng.uniform(0.0, top, (3, vocab))
            mat = emission_matrix(c, stats)
            for k in range(3):
                np.testing.assert_array_equal(mat[k], surrogate_emission_row(np.full(vocab, c), stats, k))

    def test_state_index_out_of_range(self):
        stats = np.zeros((2, 5))
        with pytest.raises(IndexError):
            surrogate_emission_row(np.full(5, 0.1), stats, 2)

    def test_vocab_mismatch(self):
        with pytest.raises(ValueError):
            surrogate_emission_row(np.full(4, 0.1), np.zeros((2, 5)), 0)


def kl_to_uniform(row):
    v = row.size
    return float(np.sum(row * (np.log(row) + np.log(v))))


class TestSurrogateRowProperties:
    def test_flattening_moves_toward_uniform(self):
        # Adding a constant to every token stat (and V*c to the count) keeps
        # the row valid and shrinks its KL divergence to uniform.
        pseudo = np.full(5, 0.1)
        base = np.array([[12.0, 3.0, 0.5, 0.0, 1.5]])
        last_kl = kl_to_uniform(
            surrogate_emission_row(pseudo, base, 0)
        )
        for c in (1.0, 10.0, 100.0):
            stats = base + c
            row = surrogate_emission_row(pseudo, stats, 0)
            np.testing.assert_allclose(row.sum(), 1.0, atol=1e-12)
            kl = kl_to_uniform(row)
            assert kl < last_kl
            last_kl = kl

    def test_large_count_limit_recovers_proportions(self):
        proportions = np.array([0.4, 0.3, 0.2, 0.1])
        stats = 1e6 * proportions[None, :]
        row = surrogate_emission_row(np.full(4, 0.1), stats, 0)
        np.testing.assert_allclose(row, proportions, atol=1e-4)

    def test_row_independence(self):
        rng = np.random.default_rng(23)
        t = rng.uniform(0.0, 10.0, (4, 6))
        before = emission_matrix(0.1, t)
        t2 = t.copy()
        t2[2] += rng.uniform(1.0, 5.0, 6)
        after = emission_matrix(0.1, t2)
        for k in (0, 1, 3):
            assert np.array_equal(before[k], after[k])
        assert not np.array_equal(before[2], after[2])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_rows_valid(self, seed):
        rng = np.random.default_rng(seed)
        vocab = int(rng.integers(2, 12))
        stats = rng.uniform(0.0, 100.0, (2, vocab))
        row = surrogate_emission_row(rng.uniform(0.01, 5.0, vocab), stats, 1)
        assert np.all(row > 0.0)
        assert abs(row.sum() - 1.0) < 1e-12


class TestProcessMinibatch:
    def _setup(self, seed=3, num_states=3, vocab_size=5):
        rng = np.random.default_rng(seed)
        corpus = tiny_corpus(rng, vocab_size=vocab_size)
        return corpus, flat_model(*initialize_stats(num_states, vocab_size, corpus.counts, seed))

    def test_first_step_is_pure_batch_estimate(self):
        corpus, model = self._setup()
        before = (model.trans_counts.copy(), model.token_stats.copy())
        batch = corpus.sequences[:4]
        # rho = 1 zeroes the old statistics in the blend; the result must be
        # exactly (N/M) * batch sums under the frozen surrogate
        params = build_surrogate(model)
        sums = sweep(params, batch)
        scale = len(corpus) / len(batch)
        out, _ = process_minibatch(model, batch, 1.0, len(corpus))
        np.testing.assert_array_equal(out.trans_counts, scale * sums.counts)
        np.testing.assert_array_equal(out.token_stats, scale * sums.token_stats)
        # and those sums are the log-space posteriors' sums
        counts, tokens, _ = batch_sums(log_forward_backward, params.trans, params.emit, batch)
        np.testing.assert_allclose(sums.counts, counts, atol=1e-10)
        np.testing.assert_allclose(sums.token_stats, tokens, atol=1e-10)
        # the step returns a new model and leaves its input as it was
        np.testing.assert_array_equal(model.trans_counts, before[0])
        np.testing.assert_array_equal(model.token_stats, before[1])

    # each mode is an algorithm and the stick posterior its model holds
    @pytest.mark.parametrize("mode", [
        ("scvi-hmm", None),
        ("svi-hmm", None),
        ("scvi-hdphmm", HdpPosterior(
            BetaParams(np.array([1.5, 2.0, 0.7]), np.array([3.0, 1.2, 4.0])),
            GammaParams(2.0, 0.3), GammaParams(1.5, 0.4), np.array([0.4, 0.2, 0.05]),
        )),
    ])
    def test_pure_step_returns_sweep_sums(self, mode):
        algorithm, hdp = mode
        corpus, flat = self._setup(seed=14)
        model = TrainedModel(replace(flat.config, algorithm=algorithm), flat.trans_counts,
                             flat.token_stats, hdp, corpus.vocab)
        batch = corpus.sequences[:6]
        stats_before = (model.trans_counts.tobytes(), model.token_stats.tobytes())
        hdp_before = hdp_bytes(hdp)
        out, sums = process_minibatch(model, batch, step_size(3, 0.6), len(corpus))
        # no argument is modified, and the next model keeps all but the statistics
        assert (model.trans_counts.tobytes(), model.token_stats.tobytes()) == stats_before
        assert hdp_bytes(hdp) == hdp_before
        assert out.config is model.config and out.hdp is hdp and out.vocab is corpus.vocab
        # the sums are the sweep's against the frozen surrogate, absence
        # sums included exactly in the hierarchical mode
        hierarchical = hdp is not None
        ref = sweep(build_surrogate(model), batch, absence=hierarchical)
        for name in ("loglik", "counts", "token_stats"):
            np.testing.assert_array_equal(getattr(sums, name), getattr(ref, name))
        for name in ("absence_pair", "absence_row"):
            assert (getattr(sums, name) is None) == (not hierarchical)
            if hierarchical:
                np.testing.assert_array_equal(getattr(sums, name), getattr(ref, name))
        scale = len(corpus) / len(batch)
        rho = step_size(3, 0.6)
        np.testing.assert_array_equal(
            out.trans_counts, (1.0 - rho) * model.trans_counts + rho * scale * ref.counts
        )

    def test_vanishing_step_changes_nothing(self):
        corpus, model = self._setup()
        rho = step_size(10**12, 1.0)
        out, _ = process_minibatch(model, corpus.sequences[:4], rho, len(corpus))
        np.testing.assert_allclose(out.trans_counts, model.trans_counts, rtol=1e-9)
        np.testing.assert_allclose(out.token_stats, model.token_stats, rtol=1e-9)

    def test_total_mass_convex_combination(self):
        corpus, model = self._setup(seed=8)
        rho = step_size(4, 0.7)
        batch = corpus.sequences[:5]
        out, _ = process_minibatch(model, batch, rho, len(corpus))
        batch_tokens = sum(len(s) for s in batch)
        expected = (1 - rho) * model.trans_counts.sum() + rho * (
            len(corpus) / len(batch)
        ) * batch_tokens
        assert abs(out.trans_counts.sum() - expected) < 1e-8 * expected
        assert abs(out.token_stats.sum() - expected) < 1e-8 * expected

    def test_nonnegative_and_finite(self):
        corpus, model = self._setup(seed=9)
        for step, start in enumerate(range(0, 12, 4)):
            out, _ = process_minibatch(
                model, corpus.sequences[start : start + 4], step_size(step, 0.5), len(corpus),
            )
            assert np.all(out.trans_counts >= 0) and np.all(np.isfinite(out.trans_counts))
            model = out

    def test_repeat_call_bit_identical(self):
        corpus, model = self._setup(seed=10)
        batch = corpus.sequences[:6]
        a, _ = process_minibatch(model, batch, step_size(2, 0.6), len(corpus))
        b, _ = process_minibatch(model, batch, step_size(2, 0.6), len(corpus))
        np.testing.assert_array_equal(a.trans_counts, b.trans_counts)
        np.testing.assert_array_equal(a.token_stats, b.token_stats)

    def test_order_invariance_of_reduction(self):
        corpus, model = self._setup(seed=11)
        batch = corpus.sequences[:6]
        a, _ = process_minibatch(model, batch, step_size(2, 0.6), len(corpus))
        b, _ = process_minibatch(model, batch[::-1], step_size(2, 0.6), len(corpus))
        np.testing.assert_allclose(a.trans_counts, b.trans_counts, rtol=1e-9, atol=1e-12)

    def test_empty_batch(self):
        _, model = self._setup()
        with pytest.raises(ValueError):
            process_minibatch(model, [], step_size(0, 0.6), 10)

    @pytest.mark.parametrize("rho, corpus_size, message", [
        (0.0, 12, r"^rho must be in \(0, 1\], got 0.0$"),
        (-0.1, 12, r"^rho must be in \(0, 1\], got -0.1$"),
        (1.5, 12, r"^rho must be in \(0, 1\], got 1.5$"),
        (float("nan"), 12, r"^rho must be in \(0, 1\], got nan$"),
        (0.5, 0, "^corpus_size must be positive, got 0$"),
        (0.5, -3, "^corpus_size must be positive, got -3$"),
    ])
    def test_refuses_step_size_and_corpus_size_out_of_range(self, rho, corpus_size, message):
        corpus, model = self._setup()
        with pytest.raises(ValueError, match=message):
            process_minibatch(model, corpus.sequences[:2], rho, corpus_size)

    def test_nonfinite_stats_abort(self, monkeypatch):
        corpus, model = self._setup()
        monkeypatch.setattr("scvihmm.engine.sweep", nan_sweep(position=0))
        with pytest.raises(NumericalError, match="batch position 0"):
            process_minibatch(model, corpus.sequences[:2], step_size(0, 0.6), 12)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_blend_aborts(self):
        # finite sums scaled by a huge corpus overflow in the blend, not the sweep
        corpus, model = self._setup()
        with pytest.raises(NumericalError, match="^non-finite local statistics for minibatch$"):
            process_minibatch(model, corpus.sequences[:1], 0.5, 1e308)

    def test_batch_cvb_fixed_point(self):
        # single sequence, rho pinned to 1 at every step: the
        # engine must walk the same trajectory as an independently coded
        # batch collapsed-VB iteration from the same start
        rng = np.random.default_rng(20)
        seq = rng.integers(0, 4, 20)
        num_states, vocab_size = 2, 4
        trans_counts, token_stats = initialize_stats(num_states, vocab_size, 20.0, seed=7)
        oracle = batch_cvb0_hmm(
            seq, num_states, vocab_size, 0.1, 0.1,
            trans_counts, token_stats, 60,
        )
        current = flat_model(trans_counts, token_stats)
        for i in range(60):
            current, _ = process_minibatch(current, [seq], step_size(0, 1.0), 1)
        ref_counts, ref_tokens = oracle[-1]
        np.testing.assert_allclose(current.trans_counts, ref_counts, atol=1e-6)
        np.testing.assert_allclose(current.token_stats, ref_tokens, atol=1e-6)


def untrained_svi_model(vocab_size, num_states, seed):
    rng = np.random.default_rng(seed)
    vocab = Vocabulary(f"w{i}" for i in range(vocab_size - 1))
    seqs = [rng.integers(1, vocab_size, rng.integers(3, 9)) for _ in range(10)]
    corpus = Corpus.from_sequences(seqs, vocab)
    config = RunConfig(algorithm="svi-hmm", num_states=num_states, minibatch_size=5,
                       large_batch_size=5, passes=0, seed=seed)
    model, _ = train(corpus, config)
    return model, corpus


class TestSviInitialize:
    def test_deterministic_and_above_prior(self):
        a, _ = untrained_svi_model(6, 3, seed=4)
        b, _ = untrained_svi_model(6, 3, seed=4)
        assert a.hdp is None and a.config.trans_prior == 0.1
        np.testing.assert_array_equal(a.trans_counts, b.trans_counts)
        # the Dirichlet parameters prior + counts sit strictly above the prior
        assert np.all(a.trans_counts > 0)
        assert np.all(a.token_stats > 0)

    def test_noise_mass_scaled_to_tokens(self):
        model, corpus = untrained_svi_model(9, 4, seed=1)
        init_counts, _ = initialize_stats(4, 9, corpus.counts, seed=2)
        np.testing.assert_array_equal(model.trans_counts, init_counts)
        assert abs(model.trans_counts.sum() - corpus.counts) < 1e-6
        assert abs(model.token_stats.sum() - corpus.counts) < 1e-6

    def test_shape_validation(self):
        with pytest.raises(ValueError, match=r"^trans_counts must be \(K\+1\) x K$"):
            flat_model(np.ones((3, 3)), np.ones((3, 4)), "svi-hmm")
        with pytest.raises(ValueError, match="^token_stats entries must be finite and >= 0$"):
            flat_model(np.ones((4, 3)), -np.ones((3, 4)), "svi-hmm")
        with pytest.raises(ConfigError, match="^trans_prior must"):
            flat_model(np.ones((3, 2)), np.ones((2, 4)), "svi-hmm", trans_prior=0.0)


def random_batch(rng, n_seqs, vocab_size, max_len=12):
    return [
        rng.integers(0, vocab_size, rng.integers(3, max_len + 1))
        for _ in range(n_seqs)
    ]


def svi_model(num_states, vocab_size, token_count, seed):
    return flat_model(*initialize_stats(num_states, vocab_size, token_count, seed), "svi-hmm")


def svi_update(model, batch, rho, corpus_size):
    return process_minibatch(model, batch, rho, corpus_size)[0]


class TestSviStep:
    def test_full_step_is_prior_plus_batch_estimate(self):
        rng = np.random.default_rng(5)
        model = svi_model(2, 4, 50.0, seed=2)
        batch = random_batch(rng, 3, 4)
        params = build_surrogate(model)
        sums = sweep(params, batch)
        scale = 9 / 3
        out = svi_update(model, batch, 1.0, 9)
        np.testing.assert_array_equal(out.trans_counts, scale * sums.counts)
        np.testing.assert_array_equal(out.token_stats, scale * sums.token_stats)

    def test_vanishing_step_changes_nothing(self):
        rng = np.random.default_rng(6)
        model = svi_model(2, 4, 50.0, seed=3)
        batch = random_batch(rng, 3, 4)
        out = svi_update(model, batch, step_size(10**12, 1.0), 9)
        np.testing.assert_allclose(out.trans_counts, model.trans_counts, rtol=1e-9)

    def test_counter_increment_and_empty_batch(self):
        model = svi_model(2, 4, 50.0, seed=3)
        before = (model.trans_counts.copy(), model.token_stats.copy())
        svi_update(model, [np.array([1, 2, 0])], step_size(3, 0.7), 5)
        # the schedule is the caller's step count; the step mutates nothing
        np.testing.assert_array_equal(model.trans_counts, before[0])
        np.testing.assert_array_equal(model.token_stats, before[1])
        with pytest.raises(ValueError):
            svi_update(model, [], step_size(4, 0.7), 5)

    def test_batch_vb_fixed_point(self):
        # full-batch steps with rho pinned to 1 must walk the same
        # trajectory as an independently coded batch VB iteration
        rng = np.random.default_rng(8)
        batch = random_batch(rng, 6, 5, max_len=15)
        current = svi_model(2, 5, 60.0, seed=5)
        oracle = batch_vb_hmm(
            batch, 2, 5, 0.1, 0.1,
            0.1 + current.trans_counts, 0.1 + current.token_stats, 40,
        )
        for _ in range(40):
            current = svi_update(current, batch, 1.0, len(batch))
        ref_trans, ref_emit = oracle[-1]
        np.testing.assert_allclose(0.1 + current.trans_counts, ref_trans, rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(
            0.1 + current.token_stats, ref_emit, rtol=1e-6, atol=1e-9
        )


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
        corpus = Corpus([], vocab)
        with pytest.raises(ValueError):
            predictive_log_likelihood(params, corpus)

    def test_refuses_corpus_over_other_words(self):
        corpus = tiny_corpus(np.random.default_rng(31))
        model, _ = train(corpus, RunConfig(num_states=2, passes=1))
        reordered = Corpus.from_sequences(corpus.sequences, Vocabulary(corpus.vocab.words[::-1]))
        with pytest.raises(ValueError, match="another vocabulary"):
            predictive_log_likelihood(model, reordered)
        with pytest.raises(ValueError, match="another vocabulary"):
            train(corpus, model.config, heldout=reordered)
        # equal words in equal order pass, in another Vocabulary object
        same = Corpus.from_sequences(corpus.sequences, Vocabulary(corpus.vocab.words))
        assert predictive_log_likelihood(model, same) == predictive_log_likelihood(model, corpus)


class TestKEffective:
    def test_counts_concentrated_columns(self):
        counts = np.zeros((4, 3))
        counts[:, 0] = [5.0, 100.0, 200.0, 50.0]
        counts[:, 1] = [1.0, 2.0, 1.0, 0.5]
        counts[0, 2] = 1e-5
        assert k_effective(flat_model(counts, np.zeros((3, 2)))) == 2


class TestTrainedModel:
    def test_sizes_and_algorithm_are_derived(self):
        config = RunConfig(algorithm="svi-hmm", num_states=3)
        model = TrainedModel(config, np.zeros((4, 3)), np.zeros((3, 5)))
        assert (model.algorithm, model.num_states, model.vocab_size) == ("svi-hmm", 3, 5)

    def test_contradicting_config_or_vocab_rejected(self):
        stats = (np.zeros((4, 3)), np.zeros((3, 5)))
        with pytest.raises(ValueError, match="num_states"):
            TrainedModel(RunConfig(num_states=7), *stats)
        with pytest.raises(ValueError, match="vocab"):
            TrainedModel(RunConfig(num_states=3), *stats, vocab=Vocabulary(["a"]))

    @pytest.mark.parametrize("trans_counts, token_stats, message", [
        (np.ones(4), np.ones((3, 5)), r"^trans_counts must be \(K\+1\) x K$"),
        (np.ones((3, 3)), np.ones((3, 5)), r"^trans_counts must be \(K\+1\) x K$"),
        (np.full((4, 3), np.nan), np.ones((3, 5)), "^trans_counts entries must be finite and >= 0$"),
        (-np.ones((4, 3)), np.ones((3, 5)), "^trans_counts entries must be finite and >= 0$"),
        (np.full((4, 3), np.inf), np.ones((3, 5)), "^trans_counts entries must be finite and >= 0$"),
    ], ids=["1-d", "square", "nan", "negative", "inf"])
    def test_rejects_bad_trans_counts(self, trans_counts, token_stats, message):
        # the statistics are checked before the config, whose state count they fix
        with pytest.raises(ValueError, match=message):
            TrainedModel(RunConfig(num_states=3), trans_counts, token_stats)

    def test_statistics_are_stored_as_float_arrays(self):
        model = TrainedModel(RunConfig(num_states=1), [[1], [2]], [[3, 4]])
        for arr in (model.trans_counts, model.token_stats):
            assert isinstance(arr, np.ndarray) and arr.dtype == np.float64

    @pytest.mark.parametrize("overrides, hdp, error, match", [
        (dict(algorithm="scvi-hmm"), HdpPosterior.initial(3, 0.1, PRIOR, PRIOR),
         ValueError, "scvi-hmm takes hdp None"),
        (dict(algorithm="svi-hmm"), HdpPosterior.initial(3, 0.1, PRIOR, PRIOR),
         ValueError, "svi-hmm takes hdp None"),
        (dict(algorithm="scvi-hdphmm"), None, ValueError, "takes hdp an HdpPosterior"),
        (dict(algorithm="scvi-hdphmm"), HdpPosterior.initial(4, 0.1, PRIOR, PRIOR),
         ValueError, "hdp has 4 states"),
        (dict(emit_prior=0.0), None, ConfigError, "^emit_prior must"),
        (dict(emit_prior=float("nan")), None, ConfigError, "^emit_prior must"),
        (dict(trans_prior=-1), None, ConfigError, "^trans_prior must"),
        (dict(algorithm="bogus"), None, ConfigError, "^algorithm must"),
    ], ids=[
        "scvi-hmm-hdp", "svi-hmm-hdp", "scvi-hdphmm-finite", "scvi-hdphmm-4-states",
        "emit-prior-zero", "emit-prior-nan", "negative-trans-prior", "unknown-algorithm",
    ])
    def test_mode_contradicting_config_rejected(self, overrides, hdp, error, match):
        # the config must hold on its own, and the stick posterior, the one
        # state a model keeps beside its statistics, must be the one it
        # implies: a checkpoint reads the posterior exactly for scvi-hdphmm
        config = RunConfig(num_states=3, **overrides)
        with pytest.raises(error, match=match) as raised:
            TrainedModel(config, np.zeros((4, 3)), np.zeros((3, 5)), hdp)
        assert raised.type is error

    @pytest.mark.parametrize("algo, hdp", [
        ("scvi-hmm", None),
        ("scvi-hdphmm", HdpPosterior(
            BetaParams(np.array([1.5, 2.0, 1.0]), np.array([3.0, 2.0, 1.0])),
            GammaParams(2.0, 0.3), GammaParams(1.5, 0.2), np.array([0.4, 0.2, 0.1]),
        )),
        ("svi-hmm", None),
    ], ids=["scvi-hmm", "scvi-hdphmm", "svi-hmm"])
    def test_mode_implied_by_config_accepted(self, algo, hdp):
        model = TrainedModel(RunConfig(algorithm=algo, num_states=3), np.zeros((4, 3)),
                             np.zeros((3, 5)), hdp)
        assert model.hdp is hdp and model.config.algorithm == algo


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
        init_counts, _ = initialize_stats(3, len(corpus.vocab), corpus.counts, config.seed + 1)
        np.testing.assert_array_equal(model.trans_counts, init_counts)

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
        np.testing.assert_array_equal(model_a.trans_counts, model_b.trans_counts)
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
        stream = minibatches(corpus, config.minibatch_size, config.seed, config.batch_mode)
        batch = [corpus.sequences[i] for i in next(stream)]
        assert len(messages._slices(batch, 5)) >= 3
        (model_a, metrics_a), (model_b, metrics_b) = runs
        np.testing.assert_array_equal(model_a.trans_counts, model_b.trans_counts)
        np.testing.assert_array_equal(model_a.token_stats, model_b.token_stats)
        assert hdp_bytes(model_a.hdp) == hdp_bytes(model_b.hdp)
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
        assert not np.allclose(model.hdp.geo_alpha_pi, 0.1)
        assert np.isfinite(metrics[-1].heldout_ll)

    @pytest.mark.parametrize("algorithm", ["scvi-hmm", "scvi-hdphmm", "svi-hmm"])
    def test_config_is_validated_once_per_run_not_per_step(self, monkeypatch, algorithm):
        calls = []
        validate = RunConfig.validate

        def counting(config):
            calls.append(config.algorithm)
            return validate(config)

        monkeypatch.setattr(RunConfig, "validate", counting)
        corpus = tiny_corpus(np.random.default_rng(55), n_seqs=12)
        counts, models = [], []
        for passes in (1, 5):
            config = RunConfig(algorithm=algorithm, num_states=3, minibatch_size=2,
                               large_batch_size=4, passes=passes, seed=4)
            calls.clear()
            model, metrics = train(corpus, config)
            assert metrics[-1].step == 6 * passes
            counts.append(len(calls))
            models.append(model)
        assert counts[0] == counts[1] >= 1
        # the checks still guard a model made outside train
        model = models[0]
        with pytest.raises(ConfigError, match="^kappa must"):
            TrainedModel(replace(model.config, kappa=0.2), model.trans_counts, model.token_stats,
                         model.hdp)

    @pytest.mark.parametrize("algorithm", ["scvi-hmm", "scvi-hdphmm", "svi-hmm"])
    def test_statistics_are_checked_once_per_run_not_per_step(self, monkeypatch, algorithm):
        checks = []
        post_init = TrainedModel.__post_init__

        def counting(model):
            checks.append(model.config.algorithm)
            return post_init(model)

        monkeypatch.setattr(TrainedModel, "__post_init__", counting)
        corpus = tiny_corpus(np.random.default_rng(55), n_seqs=12)
        counts = []
        for passes in (1, 5):
            config = RunConfig(algorithm=algorithm, num_states=3, minibatch_size=2,
                               large_batch_size=4, passes=passes, seed=4)
            checks.clear()
            _, metrics = train(corpus, config)
            assert metrics[-1].step == 6 * passes
            counts.append(len(checks))
        assert counts[0] == counts[1] >= 1

    @pytest.mark.parametrize("algorithm", ["scvi-hmm", "scvi-hdphmm", "svi-hmm"])
    def test_surrogate_is_checked_where_it_enters_not_per_step(self, monkeypatch, algorithm):
        checks = []
        post_init = SurrogateParams.__post_init__

        def counting(params):
            checks.append(1)
            return post_init(params)

        monkeypatch.setattr(SurrogateParams, "__post_init__", counting)
        corpus = tiny_corpus(np.random.default_rng(57), n_seqs=12)
        config = RunConfig(algorithm=algorithm, num_states=3, minibatch_size=2,
                           large_batch_size=4, passes=2, seed=4)
        model, metrics = train(corpus, config, heldout=corpus)
        assert metrics[-1].step == 12 and np.isfinite(metrics[-1].heldout_ll)
        assert checks == []
        # a caller's own matrices are still checked, and a bad one still fails
        params = model.surrogate()
        SurrogateParams(params.trans, params.emit)
        assert checks == [1]
        with pytest.raises(ValueError, match="^trans rows must sum to 1 within 1e-10$"):
            SurrogateParams(2.0 * params.trans, params.emit)
        assert checks == [1, 1]

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
        # 3.  The second large batch (steps 2 and 3) crosses the pass boundary
        # after the first, and the third (steps 4 and 5) ends on the second,
        # so its estimate reads 3 sequences
        steps, tables_inputs = [], []

        def stepping(model, batch, rho, corpus_size, **kwargs):
            steps.append((model, [np.array(seq) for seq in batch]))
            return process_minibatch(model, batch, rho, corpus_size, **kwargs)

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
        stream = minibatches(corpus, config.minibatch_size, config.seed, config.batch_mode)
        for _, batch in steps:
            expected = [corpus.sequences[i] for i in next(stream)]
            assert len(batch) == len(expected)
            assert all(np.array_equal(a, b) for a, b in zip(batch, expected))
        assert [len(batch) for _, batch in steps] == [4, 4, 3, 4, 4, 3]
        assert len(tables_inputs) == 3
        for large, got in enumerate(tables_inputs):
            # only the large batch's last minibatch, swept by its own model
            model, batch = steps[2 * large + 1]
            sums = sweep(build_surrogate(model), batch, absence=True)
            for part, arg in zip((sums.counts, sums.absence_pair, sums.absence_row), got[:3]):
                np.testing.assert_array_equal(arg, part / len(batch))
            assert got[3] == len(corpus)
            assert got[4] is model.hdp

    def test_absence_sums_only_where_a_large_batch_ends(self, monkeypatch):
        # 11 sequences in minibatches of 4 and large batches of 4 steps: over
        # 3 passes (9 steps) the sticks update after the 4th and 8th steps,
        # and the 9th starts a large batch the run never finishes
        asked, updates = [], []

        def spying(params, batch, stats=True, absence=False):
            asked.append(absence)
            return sweep(params, batch, stats, absence)

        def recording(post, *args):
            updates.append(len(asked))
            return update_hdp(post, *args)

        monkeypatch.setattr("scvihmm.engine.sweep", spying)
        monkeypatch.setattr("scvihmm.engine.update_hdp", recording)
        corpus = tiny_corpus(np.random.default_rng(56), n_seqs=11)
        config = RunConfig(
            algorithm="scvi-hdphmm", num_states=3, minibatch_size=4,
            large_batch_size=16, passes=3, seed=2,
        )
        train(corpus, config)
        assert asked == [False, False, False, True, False, False, False, True, False]
        assert updates == [4, 8]
        # the other algorithms never ask for them
        for algorithm in ("scvi-hmm", "svi-hmm"):
            asked.clear()
            train(corpus, replace(config, algorithm=algorithm))
            assert asked == [False] * 9

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
        stream = minibatches(corpus, config.minibatch_size, config.seed, config.batch_mode)
        next(stream)
        second = next(stream)
        assert len(messages._slices([corpus.sequences[i] for i in second], 6)) >= 3
        position = int(np.flatnonzero(second == target)[0])
        calls = []

        def poisoned(model):
            params = build_surrogate(model)
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
        assert model.algorithm == "svi-hmm" and model.hdp is None
        assert np.isfinite(metrics[-1].heldout_ll)

    @pytest.mark.parametrize("prior", [1e-3, 1e-4])
    def test_svi_mode_runs_at_tiny_priors(self, prior):
        # psi(prior) is about -1/prior, so an unused cell's geometric weight
        # would underflow to 0 without the floor on its log
        corpus = tiny_corpus(np.random.default_rng(46), n_seqs=16)
        config = RunConfig(
            algorithm="svi-hmm", num_states=3, minibatch_size=4, large_batch_size=4,
            passes=2, seed=7, trans_prior=prior, emit_prior=prior,
        )
        model, metrics = train(corpus, config, heldout=corpus)
        assert all(np.isfinite(m.heldout_ll) for m in metrics)
        params = model.surrogate()
        assert np.all(params.trans > 0.0) and np.all(params.emit > 0.0)

    def test_shared_batch_stream_across_algorithms(self, monkeypatch):
        batches = {}

        def recording(model, batch, rho, corpus_size, **kwargs):
            batches.setdefault(model.algorithm, []).append(np.array(batch.starts))
            return process_minibatch(model, batch, rho, corpus_size, **kwargs)

        monkeypatch.setattr("scvihmm.engine.process_minibatch", recording)
        rng = np.random.default_rng(47)
        corpus = tiny_corpus(rng, n_seqs=14)
        base = dict(num_states=3, minibatch_size=4, large_batch_size=4, passes=2, seed=13)
        for algorithm in ("scvi-hmm", "scvi-hdphmm", "svi-hmm"):
            train(corpus, RunConfig(algorithm=algorithm, **base))
        first, *others = batches.values()
        assert len(batches) == 3 and len(first) == 8
        for other in others:
            for a, b in zip(first, other, strict=True):
                np.testing.assert_array_equal(a, b)

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
