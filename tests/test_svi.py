"""Checks for the uncollapsed variational baseline.

Its state is the engine's expected counts; the Dirichlet variational
parameters of every row are the prior plus those counts.
"""

import math

import numpy as np
import pytest

from oracles import batch_vb_hmm
from scvihmm.config import RunConfig
from scvihmm.corpus import Corpus, Vocabulary
from scvihmm.emissions import EmissionPrior
from scvihmm.engine import (
    GlobalStats,
    SviMode,
    build_surrogate,
    initialize_stats,
    process_minibatch,
    step_size,
    train,
)
from scvihmm.svi import svi_surrogate


class TestSurrogate:
    @pytest.mark.parametrize("c", [0.5, 1.0, 7.0])
    def test_symmetric_rows_are_uniform(self, c):
        params = svi_surrogate(np.full((4, 3), c), np.full((3, 5), c))
        np.testing.assert_allclose(params.trans, 1 / 3, atol=1e-12)
        np.testing.assert_allclose(params.emit, 1 / 5, atol=1e-12)

    def test_two_to_one_row(self):
        # weights exp(psi(2)), exp(psi(1)) over common denominator
        # renormalize to e/(e+1), 1/(e+1)
        params = svi_surrogate(np.ones((2, 1)), np.array([[2.0, 1.0]]))
        e = math.e
        np.testing.assert_allclose(
            params.emit[0], [e / (e + 1), 1 / (e + 1)], atol=1e-12
        )

    def test_rows_positive_and_normalized(self):
        rng = np.random.default_rng(0)
        params = svi_surrogate(rng.gamma(2.0, size=(5, 4)), rng.gamma(2.0, size=(4, 6)))
        assert np.all(params.trans > 0) and np.all(params.emit > 0)
        np.testing.assert_allclose(params.trans.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(params.emit.sum(axis=1), 1.0, atol=1e-12)


def untrained_svi_model(vocab_size, num_states, seed):
    rng = np.random.default_rng(seed)
    vocab = Vocabulary(f"w{i}" for i in range(vocab_size - 1))
    seqs = [rng.integers(1, vocab_size, rng.integers(3, 9)) for _ in range(10)]
    corpus = Corpus.from_sequences(seqs, vocab)
    config = RunConfig(algorithm="svi-hmm", num_states=num_states, minibatch_size=5,
                       large_batch_size=5, passes=0, seed=seed)
    model, _ = train(corpus, config)
    return model, corpus


class TestInitialize:
    def test_deterministic_and_above_prior(self):
        a, _ = untrained_svi_model(6, 3, seed=4)
        b, _ = untrained_svi_model(6, 3, seed=4)
        assert isinstance(a.mode, SviMode) and a.mode.prior_count == 0.1
        np.testing.assert_array_equal(a.stats.trans_counts, b.stats.trans_counts)
        # the Dirichlet parameters prior + counts sit strictly above the prior
        assert np.all(a.stats.trans_counts > 0)
        assert np.all(a.stats.token_stats > 0)

    def test_noise_mass_scaled_to_tokens(self):
        model, corpus = untrained_svi_model(9, 4, seed=1)
        init = initialize_stats(4, 9, corpus.counts, seed=2)
        np.testing.assert_array_equal(model.stats.trans_counts, init.trans_counts)
        assert abs(model.stats.trans_counts.sum() - corpus.counts) < 1e-6
        assert abs(model.stats.token_stats.sum() - corpus.counts) < 1e-6

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            GlobalStats(np.ones((3, 3)), np.ones((3, 4)))
        with pytest.raises(ValueError):
            GlobalStats(np.ones((4, 3)), -np.ones((3, 4)))
        with pytest.raises(ValueError):
            SviMode(0.0)


def random_batch(rng, n_seqs, vocab_size, max_len=12):
    return [
        rng.integers(0, vocab_size, rng.integers(3, max_len + 1))
        for _ in range(n_seqs)
    ]


def svi_update(stats, batch, rho, corpus_size):
    vocab_size = stats.token_stats.shape[1]
    prior = EmissionPrior.symmetric(0.1, vocab_size)
    return process_minibatch(stats, batch, rho, SviMode(0.1), prior, corpus_size)[0]


class TestStep:
    def test_full_step_is_prior_plus_batch_estimate(self):
        from scvihmm.messages import sweep

        rng = np.random.default_rng(5)
        stats = initialize_stats(2, 4, 50.0, seed=2)
        batch = random_batch(rng, 3, 4)
        params = build_surrogate(stats, SviMode(0.1), EmissionPrior.symmetric(0.1, 4))
        sums = sweep(params, batch)
        scale = 9 / 3
        out = svi_update(stats, batch, 1.0, 9)
        np.testing.assert_array_equal(out.trans_counts, scale * sums.counts)
        np.testing.assert_array_equal(out.token_stats, scale * sums.token_stats)

    def test_vanishing_step_changes_nothing(self):
        rng = np.random.default_rng(6)
        stats = initialize_stats(2, 4, 50.0, seed=3)
        batch = random_batch(rng, 3, 4)
        out = svi_update(stats, batch, step_size(10**12, 1.0), 9)
        np.testing.assert_allclose(out.trans_counts, stats.trans_counts, rtol=1e-9)

    def test_counter_increment_and_empty_batch(self):
        stats = initialize_stats(2, 4, 50.0, seed=3)
        before = (stats.trans_counts.copy(), stats.token_stats.copy())
        svi_update(stats, [np.array([1, 2, 0])], step_size(3, 0.7), 5)
        # the schedule is the caller's step count; the step mutates nothing
        np.testing.assert_array_equal(stats.trans_counts, before[0])
        np.testing.assert_array_equal(stats.token_stats, before[1])
        with pytest.raises(ValueError):
            svi_update(stats, [], step_size(4, 0.7), 5)

    def test_batch_vb_fixed_point(self):
        # full-batch steps with rho pinned to 1 must walk the same
        # trajectory as an independently coded batch VB iteration
        rng = np.random.default_rng(8)
        batch = random_batch(rng, 6, 5, max_len=15)
        stats = initialize_stats(2, 5, 60.0, seed=5)
        oracle = batch_vb_hmm(
            batch, 2, 5, 0.1, 0.1,
            0.1 + stats.trans_counts, 0.1 + stats.token_stats, 40,
        )
        current = stats
        for _ in range(40):
            current = svi_update(current, batch, 1.0, len(batch))
        ref_trans, ref_emit = oracle[-1]
        np.testing.assert_allclose(0.1 + current.trans_counts, ref_trans, rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(
            0.1 + current.token_stats, ref_emit, rtol=1e-6, atol=1e-9
        )
