"""Checks for the categorical emission rows that ``build_surrogate`` builds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dirichlet_predictive_row, surrogate_emission_row
from scvihmm.config import ConfigError, RunConfig
from scvihmm.engine import GlobalStats, TrainedModel, build_surrogate


def emission_matrix(emit_prior, token_stats):
    """The emission rows ``build_surrogate`` builds for ``token_stats``."""
    k = token_stats.shape[0]
    stats = GlobalStats(np.ones((k + 1, k)), token_stats)
    config = RunConfig(num_states=k, emit_prior=emit_prior)
    return build_surrogate(TrainedModel(config, stats)).emit


class TestEmissionPrior:
    @pytest.mark.parametrize(
        "pseudo", [0.0, -0.5, np.nan, np.inf], ids=[f"pseudo{i}" for i in range(4)]
    )
    def test_rejects_bad_pseudo_counts(self, pseudo):
        with pytest.raises(ConfigError, match="^emit_prior must be a positive number"):
            emission_matrix(pseudo, np.ones((2, 5)))


class TestEmissionStats:
    """The emission statistics are the ``token_stats`` array of GlobalStats."""

    def test_rejects_negative_entries(self):
        for bad in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="token_stats"):
                GlobalStats(np.ones((2, 1)), np.array([[1.0, bad]]))


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
