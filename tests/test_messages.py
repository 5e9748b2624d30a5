"""Checks for the batched forward-backward sweep."""

import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    batch_sums,
    dense_absence,
    enumerate_paths,
    log_forward_backward,
    log_space_loglik,
    stepwise_forward,
    stepwise_recursion,
    whole_slice_sums,
)
from scvihmm import messages
from scvihmm.corpus import Corpus, Vocabulary
from scvihmm.messages import SurrogateParams, sweep


def random_params(rng, num_states, vocab_size):
    trans = rng.dirichlet(np.full(num_states, 0.8), size=num_states + 1)
    emit = rng.dirichlet(np.full(vocab_size, 0.8), size=num_states)
    return SurrogateParams(trans, emit)


def random_batch(rng, vocab_size, n_seqs, max_len):
    return [rng.integers(0, vocab_size, int(rng.integers(1, max_len + 1))) for _ in range(n_seqs)]


class TestSurrogateParams:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            SurrogateParams(np.full((2, 2), 0.5), np.full((2, 3), 1 / 3))

    def test_emit_state_mismatch(self):
        with pytest.raises(ValueError):
            SurrogateParams(np.full((3, 2), 0.5), np.full((3, 4), 0.25))

    def test_unnormalized_row(self):
        trans = np.full((3, 2), 0.5)
        trans[1] = [0.6, 0.6]
        with pytest.raises(ValueError):
            SurrogateParams(trans, np.full((2, 4), 0.25))

    def test_zero_entry(self):
        trans = np.array([[1.0, 0.0], [0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ValueError):
            SurrogateParams(trans, np.full((2, 4), 0.25))

    def test_accessors(self):
        params = random_params(np.random.default_rng(0), 3, 7)
        assert params.num_states == 3
        assert params.vocab_size == 7


class TestForwardBackward:
    def test_single_position(self):
        params = random_params(np.random.default_rng(1), 3, 4)
        sums = sweep(params, [np.array([2])])
        expected = params.trans[0] * params.emit[:, 2]
        np.testing.assert_allclose(sums.counts[0], expected / expected.sum(), atol=1e-12)
        np.testing.assert_array_equal(sums.counts[1:], 0.0)
        np.testing.assert_allclose(sums.token_stats[:, 2], sums.counts[0], atol=1e-12)
        assert abs(sums.loglik[0] - math.log(expected.sum())) < 1e-12

    def test_single_state_chain(self):
        rng = np.random.default_rng(2)
        emit = rng.dirichlet(np.full(5, 1.0))[None, :]
        params = SurrogateParams(np.ones((2, 1)), emit)
        seq = np.array([0, 3, 3, 1, 4])
        sums = sweep(params, [seq])
        np.testing.assert_allclose(sums.counts, [[1.0], [4.0]], atol=1e-12)
        np.testing.assert_allclose(sums.token_stats, [[1.0, 1.0, 0.0, 2.0, 1.0]], atol=1e-12)
        expected_ll = float(np.log(emit[0, seq]).sum())
        assert abs(sums.loglik[0] - expected_ll) < 1e-12

    def test_fixed_case_against_enumeration(self):
        params = random_params(np.random.default_rng(42), 2, 3)
        batch = [np.array([0, 2, 1])]
        sums = sweep(params, batch)
        counts, tokens, loglik = batch_sums(enumerate_paths, params.trans, params.emit, batch)
        np.testing.assert_allclose(sums.counts, counts, atol=1e-10)
        np.testing.assert_allclose(sums.token_stats, tokens, atol=1e-10)
        assert abs(sums.loglik[0] - loglik[0]) < 1e-10 * abs(loglik[0])

    def test_random_cases_against_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            K = int(rng.integers(1, 4))
            V = int(rng.integers(2, 5))
            params = random_params(rng, K, V)
            batch = random_batch(rng, V, int(rng.integers(1, 5)), 8)
            sums = sweep(params, batch)
            counts, tokens, loglik = batch_sums(enumerate_paths, params.trans, params.emit, batch)
            np.testing.assert_allclose(sums.counts, counts, atol=1e-10)
            np.testing.assert_allclose(sums.token_stats, tokens, atol=1e-10)
            np.testing.assert_array_less(
                np.abs(np.exp(sums.loglik) - np.exp(loglik)), 1e-10 * np.exp(loglik)
            )

    def test_agrees_with_log_space_recursion(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            params = random_params(rng, int(rng.integers(1, 6)), 8)
            batch = random_batch(rng, 8, int(rng.integers(1, 6)), 199)
            got = sweep(params, batch).loglik
            for ll, seq in zip(got, batch):
                ref = log_space_loglik(params.trans, params.emit, seq)
                assert abs(ll - ref) < 1e-9 * max(1.0, abs(ref))

    def test_agrees_with_log_space_sweep(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            params = random_params(rng, int(rng.integers(1, 6)), 8)
            batch = random_batch(rng, 8, int(rng.integers(1, 9)), 60)
            sums = sweep(params, batch)
            counts, tokens, loglik = batch_sums(
                log_forward_backward, params.trans, params.emit, batch
            )
            np.testing.assert_allclose(sums.counts, counts, atol=1e-10)
            np.testing.assert_allclose(sums.token_stats, tokens, atol=1e-10)
            np.testing.assert_allclose(sums.loglik, loglik, rtol=1e-10)

    def test_label_equivariance(self):
        rng = np.random.default_rng(13)
        K = 4
        params = random_params(rng, K, 6)
        batch = random_batch(rng, 6, 3, 12)
        perm = rng.permutation(K)
        trans_p = np.empty_like(params.trans)
        trans_p[0] = params.trans[0, perm]
        trans_p[1:] = params.trans[1:][perm][:, perm]
        params_p = SurrogateParams(trans_p, params.emit[perm])
        sums = sweep(params, batch)
        sums_p = sweep(params_p, batch)
        np.testing.assert_allclose(sums_p.counts[0], sums.counts[0, perm], atol=1e-12)
        np.testing.assert_allclose(sums_p.counts[1:], sums.counts[1:][perm][:, perm], atol=1e-12)
        np.testing.assert_allclose(sums_p.token_stats, sums.token_stats[perm], atol=1e-12)
        np.testing.assert_allclose(sums_p.loglik, sums.loglik, rtol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_posterior_consistency(self, seed):
        # the pairwise marginals sum to the unary ones: every state's incoming
        # transition mass is its emitted token mass, and both total T
        rng = np.random.default_rng(seed)
        K = int(rng.integers(1, 7))
        V = int(rng.integers(2, 9))
        params = random_params(rng, K, V)
        batch = random_batch(rng, V, int(rng.integers(1, 6)), 39)
        total = sum(seq.size for seq in batch)
        sums = sweep(params, batch)
        np.testing.assert_allclose(sums.counts.sum(axis=0), sums.token_stats.sum(axis=1), atol=1e-8)
        assert abs(sums.counts.sum() - total) < 1e-8
        assert abs(sums.token_stats.sum() - total) < 1e-8

    def test_empty_sequence(self):
        params = random_params(np.random.default_rng(3), 2, 3)
        with pytest.raises(ValueError):
            sweep(params, [np.array([0, 1]), np.array([], dtype=int)])
        with pytest.raises(ValueError):
            sweep(params, [])

    def test_token_out_of_range(self):
        params = random_params(np.random.default_rng(3), 2, 3)
        for bad in ([0, 3], [-1, 0]):
            with pytest.raises(ValueError):
                sweep(params, [np.array([0, 1, 2]), np.array(bad)])

    @pytest.mark.parametrize(
        "bad",
        [
            np.array([0.0, 1.0]),
            np.array([True, False]),
            np.array([[0, 1], [1, 0]]),
            np.array([], dtype=np.int64),
            np.array(1),
        ],
        ids=["float", "bool", "2-d", "empty", "0-d"],
    )
    def test_malformed_sequence_named_wherever_it_sits(self, bad):
        params = random_params(np.random.default_rng(3), 2, 3)
        good = [np.array([0, 1, 2]), np.array([2, 1], dtype=np.uint8)]
        for batch in ([bad] + good, good + [bad], good[:1] + [bad] + good[1:]):
            with pytest.raises(ValueError, match="^sequence must be a nonempty 1-d array of integer token indices$"):
                sweep(params, batch)

    def test_unsigned_and_narrow_integer_tokens_sweep_like_int64(self):
        rng = np.random.default_rng(4)
        params = random_params(rng, 3, 5)
        batch = random_batch(rng, 5, 6, 19)
        ref = sweep(params, batch, absence=True)
        # np.concatenate promotes a mix of uint64 and int64 to float64
        mixed = [seq.astype(np.uint64) if i % 2 else seq for i, seq in enumerate(batch)]
        for cast in (np.uint8, np.int16, np.uint64, None):
            got = sweep(params, mixed if cast is None else [seq.astype(cast) for seq in batch],
                        absence=True)
            for name in ("loglik", "counts", "token_stats", "absence_pair", "absence_row"):
                np.testing.assert_array_equal(getattr(got, name), getattr(ref, name))


class TestLocalStats:
    def test_single_state_counts(self):
        params = SurrogateParams(np.ones((2, 1)), np.full((1, 4), 0.25))
        seq = np.array([0, 1, 2, 3, 0])
        sums = sweep(params, [seq])
        assert abs(sums.counts[0, 0] - 1.0) < 1e-12
        assert abs(sums.counts[1, 0] - 4.0) < 1e-12
        np.testing.assert_allclose(sums.token_stats[0], [2.0, 1.0, 1.0, 1.0], atol=1e-12)

    def test_mass_conservation(self):
        rng = np.random.default_rng(21)
        params = random_params(rng, 3, 5)
        seq = rng.integers(0, 5, 6)
        sums = sweep(params, [seq])
        assert abs(sums.counts.sum() - 6.0) < 1e-8
        assert abs(sums.token_stats.sum() - 6.0) < 1e-8


class TestSequenceLogLikelihood:
    def test_matches_forward_backward(self):
        # evaluation runs the forward half alone; it is the same recursion
        rng = np.random.default_rng(31)
        for _ in range(20):
            params = random_params(rng, int(rng.integers(1, 5)), 6)
            batch = random_batch(rng, 6, int(rng.integers(1, 6)), 59)
            full = sweep(params, batch).loglik
            fast = sweep(params, batch, stats=False)
            np.testing.assert_array_equal(fast.loglik, full)
            assert fast.counts is None and fast.token_stats is None


class TestSlices:
    """A small ``SLICE_POSITIONS`` spreads one batch over several slices."""

    def _case(self, seed=5, n_seqs=10):
        rng = np.random.default_rng(seed)
        params = random_params(rng, 4, 7)
        batch = [rng.integers(0, 7, int(n)) for n in rng.integers(1, 15, n_seqs)]
        return params, batch

    def test_batch_spans_several_slices(self, monkeypatch):
        params, batch = self._case()
        monkeypatch.setattr(messages, "SLICE_POSITIONS", 20)
        slices = messages._slices(batch, params.vocab_size)
        assert len(slices) >= 4
        # every sequence lands in exactly one column, longest first
        cols = np.concatenate([c for c, _, _ in slices])
        assert sorted(cols) == list(range(len(batch)))
        lengths = [batch[i].size for i in cols]
        assert lengths == sorted(lengths, reverse=True)
        for c, tokens, n_at in slices:
            # the padded size bounds a slice; its tokens are the running positions only
            assert n_at.size * c.size <= 20 or c.size == 1
            assert tokens.size == n_at.sum() == sum(batch[i].size for i in c)

    @pytest.mark.parametrize("absence", [False, True])
    def test_order_and_slicing_move_sums_by_rounding_only(self, monkeypatch, absence):
        params, batch = self._case(seed=6, n_seqs=12)
        ref = sweep(params, batch, absence=absence)
        variants = []
        for positions in (20, 37, 2**15):
            monkeypatch.setattr(messages, "SLICE_POSITIONS", positions)
            variants.append((sweep(params, batch, absence=absence), False))
            variants.append((sweep(params, batch[::-1], absence=absence), True))
        for got, reversed_ in variants:
            loglik = got.loglik[::-1] if reversed_ else got.loglik
            np.testing.assert_allclose(loglik, ref.loglik, rtol=1e-12, atol=0)
            np.testing.assert_allclose(got.counts, ref.counts, rtol=1e-12, atol=0)
            np.testing.assert_allclose(got.token_stats, ref.token_stats, rtol=1e-12, atol=0)
            if absence:
                np.testing.assert_allclose(got.absence_pair, ref.absence_pair, rtol=1e-12, atol=0)
                np.testing.assert_allclose(got.absence_row, ref.absence_row, rtol=1e-12, atol=0)

    def test_training_slices_take_at_most_the_sequence_cap(self, monkeypatch):
        # 1,000 sequences of 10-40 tokens: a stats sweep multiplies at most 256 rows a step
        rng = np.random.default_rng(107)
        params = random_params(rng, 45, 500)
        batch = [rng.integers(0, 500, n) for n in rng.integers(10, 41, 1000)]
        assert max(seq.size for seq in batch) == 40
        assert [c.size for c, _, _ in messages._slices(batch, params.vocab_size)] == [256] * 3 + [232]
        got = sweep(params, batch, absence=True)
        # the padded-position cap alone cuts 819 + 181
        monkeypatch.setattr(messages, "SLICE_SEQUENCES", 4096)
        assert [c.size for c, _, _ in messages._slices(batch, params.vocab_size)] == [819, 181]
        ref = sweep(params, batch, absence=True)
        np.testing.assert_array_equal(got.loglik, ref.loglik)
        for field in ("counts", "token_stats", "absence_pair", "absence_row"):
            np.testing.assert_allclose(getattr(got, field), getattr(ref, field), rtol=1e-12, atol=0)

    def test_multi_slice_sums_match_log_space_oracle(self, monkeypatch):
        params, batch = self._case(seed=8, n_seqs=9)
        monkeypatch.setattr(messages, "SLICE_POSITIONS", 20)
        sums = sweep(params, batch)
        counts, tokens, loglik = batch_sums(log_forward_backward, params.trans, params.emit, batch)
        np.testing.assert_allclose(sums.counts, counts, atol=1e-10)
        np.testing.assert_allclose(sums.token_stats, tokens, atol=1e-10)
        np.testing.assert_allclose(sums.loglik, loglik, rtol=1e-10)


class TestWindows:
    """The sweep reads a batch as windows into one token array, whatever it was given."""

    @staticmethod
    def _packed(seqs, cols):
        # the old per-slice layout, position by position: at each time the tokens
        # of the slice's sequences still running, in slice order
        longest = max(len(seqs[b]) for b in cols)
        return [int(seqs[b][t]) for t in range(longest) for b in cols if len(seqs[b]) > t]

    @staticmethod
    def _seqs(rng, n_seqs):
        return [rng.integers(0, 7, int(n)) for n in rng.integers(1, 30, n_seqs)]

    VOCAB = Vocabulary(f"w{i}" for i in range(6))

    @pytest.mark.parametrize("stats", [True, False])
    def test_window_slices_match_the_list_and_the_packed_layout(self, monkeypatch, stats):
        monkeypatch.setattr(messages, "SLICE_POSITIONS", 24)
        rng = np.random.default_rng(101)
        # the last sequence, 200 tokens, is past both slicings' padded caps, so it sweeps alone
        seqs = self._seqs(rng, 40) + [rng.integers(0, 7, 200)]
        corpus = Corpus(seqs, self.VOCAB)
        spanned = False
        for _ in range(12):
            index = rng.choice(len(seqs), size=int(rng.integers(1, 30)), replace=bool(rng.integers(2)))
            if rng.integers(2):
                index[0] = len(seqs) - 1
            batch = [seqs[i] for i in index]
            from_list = messages._slices(batch, 7, stats)
            from_windows = messages._slices(corpus.windows(index), 7, stats)
            assert len(from_list) == len(from_windows) >= 1
            for (c1, t1, n1), (c2, t2, n2) in zip(from_list, from_windows):
                np.testing.assert_array_equal(c1, c2)
                np.testing.assert_array_equal(n1, n2)
                assert t1.dtype == t2.dtype == np.intp
                np.testing.assert_array_equal(t1, t2)
                assert t2.tolist() == self._packed(batch, c2)
            spanned |= len(from_list) > 1
        assert spanned

    @pytest.mark.parametrize("absence", [False, True])
    def test_sweep_of_a_list_and_of_the_same_windows_are_bit_equal(self, monkeypatch, absence):
        monkeypatch.setattr(messages, "SLICE_POSITIONS", 40)
        rng = np.random.default_rng(103)
        params = random_params(rng, 4, 7)
        seqs = self._seqs(rng, 25)
        corpus = Corpus(seqs, self.VOCAB)
        index = rng.permutation(len(seqs))[:17]
        got = sweep(params, corpus.windows(index), absence=absence)
        ref = sweep(params, [seqs[i] for i in index], absence=absence)
        for name in ("loglik", "counts", "token_stats", "absence_pair", "absence_row"):
            np.testing.assert_array_equal(getattr(got, name), getattr(ref, name))
        whole = sweep(params, corpus, stats=False).loglik
        np.testing.assert_array_equal(whole, sweep(params, seqs, stats=False).loglik)

    def test_out_of_range_tokens_raise_the_range_message(self):
        params = random_params(np.random.default_rng(107), 2, 3)
        good = [np.array([0, 1, 2]), np.array([2, 1], dtype=np.uint8)]
        for bad in (np.array([3]), np.array([-1, 0]), np.array([2**63], dtype=np.uint64)):
            for batch in ([bad] + good, good + [bad]):
                with pytest.raises(ValueError, match="^sequence token index outside vocabulary$"):
                    sweep(params, batch)
        with pytest.raises(ValueError, match="^batch must not be empty$"):
            sweep(params, [])
        # a corpus over a larger vocabulary sweeps while its tokens stay in range
        corpus = Corpus(good + [np.array([1, 2])], Vocabulary(f"w{i}" for i in range(5)))
        sweep(params, corpus)
        sweep(params, corpus.windows([0, 1]))
        wider = Corpus(good + [np.array([4])], corpus.vocab)
        for batch in (wider, wider.windows([2])):
            with pytest.raises(ValueError, match="^sequence token index outside vocabulary$"):
                sweep(params, batch)


def chain_batch(rng, trans, emit, n_seqs, max_len):
    """Token sequences sampled from a chain: (K+1) x K trans, K x V emit."""
    batch = []
    for _ in range(n_seqs):
        z = rng.choice(trans.shape[1], p=trans[0])
        seq = []
        for _ in range(int(rng.integers(1, max_len + 1))):
            seq.append(rng.choice(emit.shape[1], p=emit[z]))
            z = rng.choice(trans.shape[1], p=trans[1 + z])
        batch.append(np.array(seq))
    return batch


def unreachable_emitter():
    """Three states, where state 2 is all but unreachable yet alone emits token 2.

    Its right factor at a token 2 is about 1e30, past SERIES_RIGHT_MAX, so
    the pair term there takes the dense path.
    """
    trans = np.array([[0.5, 0.5, 1e-30], [0.7, 0.3, 1e-30], [0.3, 0.7, 1e-30], [0.5, 0.5, 1e-30]])
    trans /= trans.sum(axis=1, keepdims=True)
    emit = np.array([[0.5, 0.5, 1e-40], [0.4, 0.6, 1e-40], [1e-12, 1e-12, 1.0]])
    emit /= emit.sum(axis=1, keepdims=True)
    return SurrogateParams(trans, emit)


class TestAbsenceSeries:
    """The pair absence series against the dense, every-cell reference."""

    def _compare(self, monkeypatch, params, batch):
        seen = []
        series_absence = messages._absence

        def spy(*args):
            # the arrays are views of the sweep's held buffers, which the next slice refills
            seen.append(tuple(np.copy(arg) for arg in args))
            return series_absence(*args)

        monkeypatch.setattr(messages, "_absence", spy)
        got = sweep(params, batch, absence=True)
        monkeypatch.setattr(messages, "_absence", dense_absence)
        ref = sweep(params, batch, absence=True)
        monkeypatch.setattr(messages, "_absence", series_absence)
        np.testing.assert_array_equal(np.isneginf(got.absence_pair), np.isneginf(ref.absence_pair))
        finite = np.isfinite(ref.absence_pair)
        assert np.all(np.isfinite(got.absence_pair[finite]))
        np.testing.assert_allclose(
            got.absence_pair[finite], ref.absence_pair[finite], rtol=1e-13, atol=0
        )
        np.testing.assert_array_equal(got.absence_row, ref.absence_row)
        return seen, got

    def test_random_batches_over_several_chunks(self, monkeypatch):
        rng = np.random.default_rng(41)
        monkeypatch.setattr(messages, "SERIES_CHUNK_ROWS", 5)
        forced = 0
        for _ in range(25):
            K = int(rng.integers(1, 7))
            params = random_params(rng, K, 6)
            batch = random_batch(rng, 6, int(rng.integers(2, 9)), 30)
            seen, got = self._compare(monkeypatch, params, batch)
            # more rows of the pair term than one chunk holds
            assert sum(len(before) for _, before, *_ in seen) > 5
            # with one state, the only transition is forced at every position
            forced += np.count_nonzero(np.isneginf(got.absence_pair[1:]))
        assert forced > 0

    def _sticky_one_hot(self, K=4, V=4):
        trans = np.full((K + 1, K), 0.01 / (K - 1))
        trans[0] = 1.0 / K
        trans[1:][np.eye(K, dtype=bool)] = 0.99
        emit = np.full((K, V), 1e-9)
        emit[np.arange(K), np.arange(K) % V] = 1.0 - (V - 1) * 1e-9
        return trans, emit

    def test_near_deterministic_chain_runs_exact_cells(self, monkeypatch):
        rng = np.random.default_rng(43)
        trans, emit = self._sticky_one_hot()
        params = SurrogateParams(trans, emit)
        batch = chain_batch(rng, trans, emit, 12, 40)
        seen, _ = self._compare(monkeypatch, params, batch)
        pair_max = max(
            (before[:, :, None] * inner * after[:, None, :]).max()
            for inner, before, after, *_ in seen
        )
        assert pair_max > messages.SERIES_BOUND

    def test_large_right_factor_takes_the_dense_path(self, monkeypatch):
        params = unreachable_emitter()
        batch = [np.array([0, 1, 2, 0, 1]), np.array([1, 0, 0, 1, 1, 0, 2]), np.array([1, 1])]
        seen, _ = self._compare(monkeypatch, params, batch)
        right_max = max(args[2].max() for args in seen)
        assert right_max > messages.SERIES_RIGHT_MAX

    def test_hot_cells_found_in_runs_sum_as_one(self, monkeypatch):
        # the hot cells are listed in runs but their corrections summed by one
        # bincount in position order, so the run length moves no bit
        rng = np.random.default_rng(59)
        params = random_params(rng, 4, 6)
        seen = []
        series_absence = messages._absence
        monkeypatch.setattr(messages, "_absence", lambda *args: seen.append([np.copy(arg) for arg in args]) or series_absence(*args))
        sweep(params, random_batch(rng, 6, 12, 40), absence=True)
        (args,) = seen
        whole = series_absence(*[np.copy(arg) for arg in args])
        runs = []
        exact_cells = messages._exact_cells

        def spy(*masks):
            for run in exact_cells(*masks):
                runs.append(run)
                yield run

        monkeypatch.setattr(messages, "_exact_cells", spy)
        # runs of about 7 cells
        monkeypatch.setattr(messages, "BLOCK_DOUBLES", 7 * 16)
        got = series_absence(*[np.copy(arg) for arg in args])
        assert len(runs) > 3
        for a, b in zip(got, whole):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("constant", ["SERIES_BOUND", "SERIES_RIGHT_MAX"])
    def test_every_cell_exact(self, monkeypatch, constant):
        # SERIES_BOUND = 0 sends every cell to the exact correction,
        # SERIES_RIGHT_MAX = 0 every position to the dense path
        rng = np.random.default_rng(47)
        monkeypatch.setattr(messages, constant, 0.0)
        trans, emit = self._sticky_one_hot()
        self._compare(monkeypatch, SurrogateParams(trans, emit), chain_batch(rng, trans, emit, 6, 25))
        for _ in range(10):
            params = random_params(rng, int(rng.integers(1, 6)), 5)
            self._compare(monkeypatch, params, random_batch(rng, 5, int(rng.integers(1, 6)), 20))


def economized_coefficients(terms, taylor_terms=40, bound=Fraction(1, 16)):
    """c_1 .. c_terms of log(1 - p) ~ -sum_m c_m p^m, in exact rationals.

    The Taylor series -log(1 - p) / p = sum_k p^k / (k + 1), cut at
    ``taylor_terms``, loses its top degree to the shifted Chebyshev
    polynomial T_n(2 p / bound - 1) of that degree, down to degree terms - 1.
    """
    x = [Fraction(-1), 2 / bound]
    cheb = [[Fraction(1)], x]
    while len(cheb) < taylor_terms:
        nxt = [Fraction(0)] * (len(cheb[-1]) + 1)
        for k, c in enumerate(cheb[-1]):
            nxt[k] += 2 * x[0] * c
            nxt[k + 1] += 2 * x[1] * c
        for k, c in enumerate(cheb[-2]):
            nxt[k] -= c
        cheb.append(nxt)
    poly = [Fraction(1, k + 1) for k in range(taylor_terms)]
    for n in range(taylor_terms - 1, terms - 1, -1):
        lead = poly[n] / cheb[n][n]
        for k, c in enumerate(cheb[n]):
            poly[k] -= lead * c
    return poly[:terms]


class TestSeriesCoefficients:
    def test_literals_are_the_rounded_economization(self):
        # a longer Taylor cut rounds to the same doubles
        for taylor_terms in (40, 60):
            coefs = economized_coefficients(len(messages.SERIES_COEFS), taylor_terms)
            assert tuple(float(c) for c in coefs) == messages.SERIES_COEFS

    def test_series_matches_log1p_on_its_range(self):
        p = np.linspace(0.0, messages.SERIES_BOUND, 100_001)[1:]
        want = np.log1p(-p)
        rel = np.abs(messages._series(p) - want) / np.abs(want)
        assert rel.max() <= 2 * np.finfo(float).eps


class TestTokenStats:
    def test_bit_identical_to_scatter_add(self, monkeypatch):
        # by position, in the order np.add.at adds, over a multi-slice batch of mixed lengths
        rng = np.random.default_rng(53)
        params = random_params(rng, 5, 9)
        batch = random_batch(rng, 9, 14, 30)
        monkeypatch.setattr(messages, "SLICE_POSITIONS", 60)
        unaries = []
        series_absence = messages._absence

        def spy(*args):
            unaries.append(args[3].copy())
            return series_absence(*args)

        monkeypatch.setattr(messages, "_absence", spy)
        got = sweep(params, batch, absence=True).token_stats
        slices = messages._slices(batch, params.vocab_size)
        assert len(slices) > 2
        assert any(n_at[-1] < n_at[0] for _, _, n_at in slices)
        ref = None
        for (_, tokens, _), unary in zip(slices, unaries):
            by_token = np.zeros((params.vocab_size, params.num_states))
            np.add.at(by_token, tokens, unary)
            ref = by_token.T if ref is None else ref + by_token.T
        np.testing.assert_array_equal(got, ref)


class TestLazyRenormalization:
    """The forward and backward rows renormalized every ``RENORM_EVERY`` positions."""

    CADENCES = (1, 2, 3, 7, 2**20)

    def _case(self):
        # lengths that end inside a block, a length-1 sequence, and several slices
        rng = np.random.default_rng(61)
        params = random_params(rng, 4, 7)
        lengths = [1, 2, 5, 8, 9, 13, 17, 22, 30, 31]
        return params, [rng.integers(0, 7, n) for n in lengths]

    def test_cadences_agree_with_each_other_and_the_oracle(self, monkeypatch):
        params, batch = self._case()
        monkeypatch.setattr(messages, "SLICE_POSITIONS", 64)
        assert len(messages._slices(batch, params.vocab_size)) >= 3
        counts, tokens, loglik = batch_sums(log_forward_backward, params.trans, params.emit, batch)
        logliks = np.array([log_space_loglik(params.trans, params.emit, seq) for seq in batch])
        runs = []
        for every in self.CADENCES:
            monkeypatch.setattr(messages, "RENORM_EVERY", every)
            runs.append(sweep(params, batch, absence=True))
        for got in runs:
            np.testing.assert_allclose(got.loglik, logliks, rtol=1e-12, atol=0)
            np.testing.assert_allclose(got.loglik, loglik, rtol=1e-12, atol=0)
            np.testing.assert_allclose(got.counts, counts, rtol=1e-12, atol=0)
            np.testing.assert_allclose(got.token_stats, tokens, rtol=1e-12, atol=0)
            for field in ("loglik", "counts", "token_stats", "absence_pair", "absence_row"):
                ref = getattr(runs[0], field)
                np.testing.assert_array_equal(np.isneginf(getattr(got, field)), np.isneginf(ref))
                finite = np.isfinite(ref)
                np.testing.assert_allclose(getattr(got, field)[finite], ref[finite], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("every", CADENCES + (messages.RENORM_EVERY,))
    def test_forward_only_is_bit_identical_to_the_full_sweep(self, monkeypatch, every):
        params, batch = self._case()
        monkeypatch.setattr(messages, "SLICE_POSITIONS", 64)
        monkeypatch.setattr(messages, "RENORM_EVERY", every)
        full = sweep(params, batch, absence=True).loglik
        np.testing.assert_array_equal(sweep(params, batch, stats=False).loglik, full)

    @pytest.mark.parametrize("every", [1, 3, 8])
    def test_block_length_is_apart_from_the_cadence(self, monkeypatch, every):
        # _forward refills its emission block with as many whole times as fit it, and
        # keeps the rows of two times in a ring, whatever the cadence
        params, batch = self._case()
        monkeypatch.setattr(messages, "SLICE_POSITIONS", 64)
        columns = np.ascontiguousarray(params.emit.T)
        K = params.num_states
        slices = messages._slices(batch, params.vocab_size)
        assert len(slices) >= 3
        assert any(len(set(n_at.tolist())) > 2 for _, _, n_at in slices)
        for _, tokens, n_at in slices:
            whole = np.empty((tokens.size, K)), np.empty((tokens.size, K))
            ref = messages._forward(params, columns, tokens, messages._plan(n_at, tokens.size), every, *whole)
            offsets = np.cumsum(n_at) - n_at
            for steps in (1, 3, 8, n_at.size):
                # a block of `steps` whole times, and one a row longer
                for extra in (0, 1):
                    rows, obs = np.empty((n_at[:2].sum(), K)), np.empty((n_at[:steps].sum() + extra, K))
                    plan = messages._plan(n_at, len(obs))
                    got = messages._forward(params, columns, tokens, plan, every, rows, obs)
                    for a, b in zip(got, ref):
                        np.testing.assert_array_equal(a, b)
                    # the ring holds the rows of the last two times, the block of t at (t % 2) x n_0
                    for t in range(max(0, n_at.size - 2), n_at.size):
                        at, n = t % 2 * n_at[0], n_at[t]
                        np.testing.assert_array_equal(rows[at : at + n], whole[0][offsets[t] : offsets[t] + n])

    def _rare_token_case(self):
        # token 0 has emission 1e-90 under every state, so 8 of them in a row
        # multiply to 1e-720, past the smallest double
        emit = np.array([[1e-90, 0.5, 0.5], [1e-90, 0.2, 0.8]])
        emit[:, 1:] *= (1.0 - 1e-90) / emit[:, 1:].sum(axis=1, keepdims=True)
        trans = np.array([[0.6, 0.4], [0.7, 0.3], [0.2, 0.8]])
        params = SurrogateParams(trans, emit)
        return params, [np.zeros(20, dtype=int), np.array([1, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 1]), np.array([2])]

    @pytest.mark.parametrize("stats", [False, True])
    def test_underflow_retries_at_every_position(self, monkeypatch, stats):
        params, batch = self._rare_token_case()
        seen = []
        recursion = messages._recursion

        def spy(*args):
            out = recursion(*args)
            seen.append((args[-1], out[2]))
            return out

        monkeypatch.setattr(messages, "_recursion", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sweep(params, batch, stats=stats)
        assert seen == [(messages.RENORM_EVERY, False), (1, True)]
        logliks = [log_space_loglik(params.trans, params.emit, seq) for seq in batch]
        np.testing.assert_allclose(got.loglik, logliks, rtol=1e-12, atol=0)
        if stats:
            counts, tokens, _ = batch_sums(log_forward_backward, params.trans, params.emit, batch)
            np.testing.assert_allclose(got.counts, counts, rtol=1e-12, atol=0)
            np.testing.assert_allclose(got.token_stats, tokens, rtol=1e-12, atol=0)

    @staticmethod
    def _accumulated(scales, n_at, every):
        # each running row adds log f_t as it is renormalized, time by time
        sizes = n_at.tolist()
        ends = sizes[1:] + [0]
        loglik, at = np.zeros(sizes[0]), 0
        for t, n in enumerate(sizes):
            lo = 0 if t % every == every - 1 else ends[t]
            loglik[lo:n] += np.log(scales[at + lo : at + n])
            at += n
        return loglik

    @pytest.mark.parametrize("case", ["ragged", "one-sequence", "rare-token"])
    def test_log_likelihoods_add_the_factors_in_time_order(self, monkeypatch, case):
        # _forward sums the logs of all factors once, after its loop
        every = messages.RENORM_EVERY
        if case == "ragged":
            params, batch = self._case()
            monkeypatch.setattr(messages, "SLICE_POSITIONS", 64)
            assert any(len(set(n_at.tolist())) > 2 for _, _, n_at in messages._slices(batch, params.vocab_size))
        elif case == "one-sequence":
            rng = np.random.default_rng(103)
            params = random_params(rng, 4, 7)
            batch = [rng.integers(0, 7, 500)]
        else:
            # the R = 1 retry, which the sweep then reports
            params, batch = self._rare_token_case()
            every = 1
        columns = np.ascontiguousarray(params.emit.T)
        K = params.num_states
        logliks = np.empty(len(batch))
        for cols, tokens, n_at in messages._slices(batch, params.vocab_size):
            whole = np.empty((tokens.size, K)), np.empty((tokens.size, K))
            plan = messages._plan(n_at, tokens.size)
            scales, logliks[cols] = messages._forward(params, columns, tokens, plan, every, *whole)
            np.testing.assert_array_equal(logliks[cols], self._accumulated(scales, n_at, every))
        np.testing.assert_array_equal(sweep(params, batch, stats=False).loglik, logliks)

    def test_nan_fails_the_range_check(self):
        assert not messages._in_range(np.array([1.0, np.nan]))
        assert not messages._in_range(np.array([0.0, 1.0]))
        assert not messages._in_range(np.array([np.inf]))
        assert messages._in_range(np.array([messages.RENORM_FLOOR, 1.0]))

    def test_forward_only_memory_stays_per_block(self, monkeypatch):
        # 5 chains x 6000 tokens at K = 45: gathering the slice's emissions
        # whole would take 5 * 6000 * 45 * 8 bytes = 10.8 MB; the peak counts
        # the held buffers' first growth, whatever ran before
        rng = np.random.default_rng(67)
        params = random_params(rng, 45, 500)
        batch = [rng.integers(0, 500, 6000) for _ in range(5)]
        monkeypatch.setattr(messages._held, "buffers", [np.empty(0)] * 3, raising=False)
        tracemalloc.start()
        try:
            sweep(params, batch, stats=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20


class TestForwardOnlySlices:
    """A forward-only slice is cut by what it holds, blocks of ``RENORM_EVERY`` times."""

    def test_both_caps_bind_and_a_long_sequence_sweeps_alone(self, monkeypatch):
        # at most 8 sequences and 8 * 64 = 512 padded positions per slice
        monkeypatch.setattr(messages, "SLICE_POSITIONS", 64)
        monkeypatch.setattr(messages, "SLICE_SEQUENCES", 8)
        rng = np.random.default_rng(83)
        lengths = [600, 100, 90, 60, 60, 50] + [3] * 20 + [1] * 10
        batch = [rng.integers(0, 7, n) for n in lengths]
        slices = messages._slices(batch, 7, stats=False)
        # 600 is past the padded cap, 5 x 100 meets it, and the short ones meet the count cap
        assert [c.size for c, _, _ in slices] == [1, 5, 8, 8, 8, 6]
        assert sorted(np.concatenate([c for c, _, _ in slices])) == list(range(len(batch)))
        for c, tokens, n_at in slices:
            assert c.size * n_at.size <= 512 or c.size == 1
            # the emission block of RENORM_EVERY times fits a held buffer
            assert n_at[: messages.RENORM_EVERY].sum() <= 64
            assert tokens.size == sum(batch[i].size for i in c)
        # stats slices keep the training cap
        assert [c.size for c, _, _ in messages._slices(batch, 7)][:6] == [1] * 6

    def _chains(self, lengths):
        rng = np.random.default_rng(89)
        return random_params(rng, 45, 500), [rng.integers(0, 500, n) for n in lengths]

    def test_long_chains_make_one_slice_within_a_bound(self, monkeypatch):
        # 8 chains x 6000 tokens at K = 45, the long-seqs held-out shape: the
        # training cap would cut 5 and 3.  The peak counts the held buffers'
        # first growth, a 256-time emission block of 0.7 MB among them
        params, batch = self._chains([6000] * 8)
        assert len(messages._slices(batch, params.vocab_size, stats=False)) == 1
        assert len(messages._slices(batch, params.vocab_size)) == 2
        monkeypatch.setattr(messages._held, "buffers", [np.empty(0)] * 3, raising=False)
        tracemalloc.start()
        try:
            sweep(params, batch, stats=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20, peak

    def test_log_likelihoods_bit_equal_to_the_stats_sweep(self):
        params, batch = self._chains(np.random.default_rng(97).integers(4000, 6001, 8))
        forward_only = [c.tolist() for c, _, _ in messages._slices(batch, params.vocab_size, stats=False)]
        with_stats = [c.tolist() for c, _, _ in messages._slices(batch, params.vocab_size)]
        assert forward_only != with_stats
        np.testing.assert_array_equal(sweep(params, batch, stats=False).loglik, sweep(params, batch).loglik)

    def test_short_sequences_sweep_in_slices_of_the_cap(self):
        # 1,600 sequences of 10-40 tokens: a forward step multiplies at most 256 rows
        rng = np.random.default_rng(101)
        params = random_params(rng, 45, 500)
        batch = [rng.integers(0, 500, n) for n in rng.integers(10, 41, 1600)]
        slices = messages._slices(batch, params.vocab_size, stats=False)
        assert [c.size for c, _, _ in slices] == [256] * 6 + [64]
        np.testing.assert_array_equal(sweep(params, batch, stats=False).loglik, sweep(params, batch).loglik)


def reduced_blocks(monkeypatch):
    """The (tokens, n_at, alpha, right, unary, start) that each ``_block_sums`` call reduces, copied."""
    blocks = []
    block_sums = messages._block_sums

    def spy(params, tokens, n_at, alpha, right, unary, sums, start):
        # the sums overwrite alpha and unary, and the next block refills the buffers
        blocks.append(tuple(np.copy(x) for x in (tokens, n_at, alpha, right, unary)) + (start,))
        return block_sums(params, tokens, n_at, alpha, right, unary, sums, start)

    monkeypatch.setattr(messages, "_block_sums", spy)
    return blocks


def check_block_rows(blocks, tokens, n_at, rows):
    """Assert that ``blocks``, last first, cover the slice and reduce the whole-slice ``rows``, bit for bit.

    ``rows`` is ``stepwise_recursion``'s (alpha, right, unary).  A block of
    times a .. b - 1 holds their alpha rows, and their right and unary rows
    followed by those of time b, the next block's first.  Returns each
    block's first time a, in time order.
    """
    alpha, right, unary = rows
    offsets = np.concatenate([[0], np.cumsum(n_at)])
    starts, hi = [], tokens.size
    for got_tokens, got_n_at, got_alpha, got_right, got_unary, start in blocks:
        lo = hi - got_tokens.size
        (a,) = np.flatnonzero(offsets == lo)
        b = a + got_n_at.size - (1 if hi < tokens.size else 0)
        assert offsets[b] == hi and start == (a == 0)
        end = hi + (n_at[b] if b < n_at.size else 0)
        np.testing.assert_array_equal(got_tokens, tokens[lo:hi])
        np.testing.assert_array_equal(got_n_at, n_at[a : b + 1])
        np.testing.assert_array_equal(got_alpha, alpha[lo:hi])
        np.testing.assert_array_equal(got_right, right[lo:end])
        np.testing.assert_array_equal(got_unary, unary[lo:end])
        starts.append(int(a))
        hi = lo
    assert hi == 0
    return starts[::-1]


class TestStepLoops:
    """The span-by-span forward and backward loops against the per-time loops of ``oracles``, bit for bit."""

    CADENCES = (1, 3, 7, 8, 2**20)
    CASES = ("ragged", "one-step-runs", "one-sequence", "one-position")

    def _slice(self, case):
        rng = np.random.default_rng(107)
        params = random_params(rng, 5, 9)
        lengths = {
            # runs of 3, 6, 11, 13 and 7 times, so most widths change inside a cadence block
            "ragged": [40, 40, 33, 20, 20, 20, 9, 3],
            "one-step-runs": list(range(12, 0, -1)),
            "one-sequence": [50],
            "one-position": [1],
        }[case]
        (_, tokens, n_at), = messages._slices([rng.integers(0, 9, n) for n in lengths], 9)
        return params, np.ascontiguousarray(params.emit.T), tokens, n_at

    @staticmethod
    def _fill_times(n_at, cap):
        # the times at which a block of cap rows is refilled, holding as many whole times as fit
        fills, used = [], cap
        for t, n in enumerate(n_at.tolist()):
            if used + n > cap:
                fills.append(t)
                used = 0
            used += n
        return fills

    @pytest.mark.parametrize("every", CADENCES)
    @pytest.mark.parametrize("case", CASES)
    def test_stats_sweep(self, monkeypatch, case, every):
        # one block, blocks of a few times, and blocks as small as they go
        params, columns, tokens, n_at = self._slice(case)
        want_loglik, want = stepwise_recursion(params, columns, tokens, n_at, every)
        blocks = reduced_blocks(monkeypatch)
        # a block of the smallest width, two first times, from here on
        monkeypatch.setattr(messages, "BLOCK_TIMES", 2)
        for block in (2**16, 40, 0):
            monkeypatch.setattr(messages, "BLOCK_DOUBLES", block)
            blocks.clear()
            loglik, _, ok = messages._recursion(params, columns, tokens, n_at, True, False, every)
            assert ok
            np.testing.assert_array_equal(loglik, want_loglik)
            starts = check_block_rows(blocks, tokens, n_at, want)
            if block == 2**16:
                assert starts == [0]
            else:
                assert len(starts) > 1 or n_at.size == 1

    @pytest.mark.parametrize("every", CADENCES)
    @pytest.mark.parametrize("case", CASES)
    def test_forward_in_every_block_length(self, case, every):
        # whole buffers, then a two-time ring under emission blocks of every length
        # from one time to the slice, each refilled at the first time it lacks
        params, columns, tokens, n_at = self._slice(case)
        K = params.num_states
        whole = np.empty((tokens.size, K)), np.empty((tokens.size, K))
        want = stepwise_forward(params, columns, tokens, n_at, every, *whole)
        got = messages._forward(params, columns, tokens, messages._plan(n_at, tokens.size), every, *whole)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
        starts = {t for t in range(1, n_at.size) if n_at[t] != n_at[t - 1]}
        edges = inside = 0
        for cap in range(int(n_at[0]), tokens.size + 1):
            rows, obs = np.empty((n_at[:2].sum(), K)), np.empty((cap, K))
            got = messages._forward(params, columns, tokens, messages._plan(n_at, cap), every, rows, obs)
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)
            fills = set(self._fill_times(n_at, cap))
            edges += len(starts & fills)
            inside += len(starts - fills) * (len(fills) > 1)
        if case == "ragged":
            # widths change at a block's edge and inside a block
            assert edges and inside

    @pytest.mark.parametrize("every", CADENCES)
    @pytest.mark.parametrize("case", CASES)
    def test_forward_only_sweep(self, monkeypatch, case, every):
        # the forward-only sweep against the per-time loop as evaluation ran it, with
        # blocks of 8 times, and against the stats sweep; a cap of 2 sequences
        # makes its block 16 rows, so it refills
        params, columns, tokens, n_at = self._slice(case)
        K = params.num_states
        steps = messages.RENORM_EVERY
        ring, block = np.empty((n_at[:2].sum(), K)), np.empty((n_at[:steps].sum(), K))
        _, want = stepwise_forward(params, columns, tokens, n_at, every, ring, block, steps)
        with_stats = messages._recursion(params, columns, tokens, n_at, True, False, every)[0].copy()
        monkeypatch.setattr(messages, "SLICE_SEQUENCES", 2)
        got = messages._recursion(params, columns, tokens, n_at, False, False, every)[0]
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got, with_stats)


class TestBlocks:
    """A stats slice's sums, added block by block in the backward pass, against the whole slice's."""

    FIELDS = ("counts", "token_stats", "absence_pair", "absence_row")

    @staticmethod
    def _slice(params, batch):
        (_, tokens, n_at), = messages._slices(batch, params.vocab_size)
        return np.ascontiguousarray(params.emit.T), tokens, n_at

    @staticmethod
    def _reference(params, columns, tokens, n_at, every):
        loglik, rows = stepwise_recursion(params, columns, tokens, n_at, every)
        return loglik, rows, whole_slice_sums(params, tokens, n_at, *rows, messages._absence)

    def _check(self, monkeypatch, params, batch, block, every=messages.RENORM_EVERY):
        """Sweep one slice in blocks of ``block`` doubles; returns its block start times.

        ``every`` is the cadence of the attempt that yields the sums.
        """
        columns, tokens, n_at = self._slice(params, batch)
        want_loglik, rows, want = self._reference(params, columns, tokens, n_at, every)
        monkeypatch.setattr(messages, "BLOCK_DOUBLES", block)
        monkeypatch.setattr(messages, "BLOCK_TIMES", 2)
        blocks = reduced_blocks(monkeypatch)
        loglik, got = messages._slice_sums(params, columns, tokens, n_at, True, True)
        np.testing.assert_array_equal(loglik, want_loglik)
        # the blocks of the last attempt
        first, held = len(blocks), 0
        while held < tokens.size:
            first -= 1
            held += blocks[first][0].size
        starts = check_block_rows(blocks[first:], tokens, n_at, rows)
        for name, a, b in zip(self.FIELDS, got, want):
            np.testing.assert_array_equal(np.isneginf(a), np.isneginf(b), err_msg=name)
            finite = np.isfinite(b)
            assert np.all(np.isfinite(a[finite])), name
            if len(starts) == 1:
                # one block does the whole slice's arithmetic
                np.testing.assert_array_equal(a, b, err_msg=name)
            else:
                np.testing.assert_allclose(a[finite], b[finite], rtol=1e-13, atol=0, err_msg=name)
        return starts

    @pytest.mark.parametrize("seed", range(4))
    def test_one_block_keeps_the_whole_slice_sums(self, monkeypatch, seed):
        rng = np.random.default_rng(113 + seed)
        params = random_params(rng, int(rng.integers(1, 7)), 8)
        batch = random_batch(rng, 8, int(rng.integers(1, 30)), 40)
        assert self._check(monkeypatch, params, batch, messages.BLOCK_DOUBLES) == [0]

    @pytest.mark.parametrize("block", [0, 4 * 9, 4 * 20, 4 * 45])
    def test_edges_inside_runs_and_at_run_starts(self, monkeypatch, block):
        rng = np.random.default_rng(127)
        params = random_params(rng, 4, 6)
        # runs of 7, 6, 3 and 2 sequences, 5, 7, 13 and 5 times long
        batch = [rng.integers(0, 6, n) for n in (30, 30, 25, 12, 12, 12, 5)]
        starts = self._check(monkeypatch, params, batch, block)
        _, _, n_at = self._slice(params, batch)
        runs = set(np.flatnonzero(n_at[1:] != n_at[:-1]) + 1)
        edges = set(starts[1:])
        assert edges & runs and edges - runs
        if block == 0:
            # the first block takes one time, as two of 7 rows overfill its 14
            assert starts[1] == 1

    @pytest.mark.parametrize("block", [0, 3 * 4])
    def test_straddling_pair_terms_with_hot_cells_and_dense_rows(self, monkeypatch, block):
        # the pair term at each token 2 takes the dense path; states 0 and 1 leave hot cells
        params = unreachable_emitter()
        # tokens 2 at times 3, 4 and 9, 10, 11
        batch = [np.array([0, 1, 0, 2, 2, 1, 1, 0, 1, 2, 2, 2, 0, 1]), np.array([1, 0, 1, 2, 2, 0, 0, 1, 0, 2])]
        seen = []
        series_absence = messages._absence

        def spy(inner, before, after, unary, n_at, product):
            seen.append((np.copy(before), np.copy(after), np.copy(unary), np.copy(n_at)))
            return series_absence(inner, before, after, unary, n_at, product)

        monkeypatch.setattr(messages, "_absence", spy)
        starts = self._check(monkeypatch, params, batch, block)
        assert len(starts) > 3
        # the pair terms at each block's end time b: hot cells, and dense rows on both sides of b
        dense = []
        straddling_hot = []
        for before, after, unary, n_at in seen:
            scaled = after * before.sum(axis=1)[:, None]
            dense.append(scaled.max(axis=1) > messages.SERIES_RIGHT_MAX)
            tail = len(after) - (len(unary) - n_at[:-1].sum())
            if tail < len(after):
                hot_i = messages._leading_rows(np.copy(unary), n_at)[tail:] > messages.SERIES_BOUND
                hot_j = unary[len(unary) - (len(after) - tail) :] > messages.SERIES_BOUND
                straddling_hot.append((hot_i[:, :, None] & hot_j[:, None, :]).any())
            else:
                straddling_hot.append(False)
        # blocks come last first: block k + 1 before block k
        assert any(
            hot and dense[k].any() and dense[k - 1].any()
            for k, hot in enumerate(straddling_hot) if k
        )

    def test_retry_that_only_a_later_block_triggers(self, monkeypatch):
        # two sticky states that each emit their own token: the forward factors
        # stay in range, but where the forward and backward rows back different
        # states around the switch, their product U_t falls below RENORM_FLOOR
        eps, eta = 1e-220, 1e-60
        params = SurrogateParams(
            np.array([[0.5, 0.5], [1 - eps, eps], [eps, 1 - eps]]), np.array([[1 - eta, eta], [eta, 1 - eta]])
        )
        batch = [np.array([0] * 6 + [1] * 14)]
        columns, tokens, n_at = self._slice(params, batch)
        plan = messages._plan(n_at, tokens.size)
        scales, _ = messages._forward(params, columns, tokens, plan, messages.RENORM_EVERY, *np.empty((2, 20, 2)))
        assert messages._in_range(scales)
        attempts = []
        recursion = messages._recursion
        blocks = reduced_blocks(monkeypatch)

        def spy(*args):
            out = recursion(*args)
            attempts.append((args[-1], out[2], len(blocks)))
            return out

        monkeypatch.setattr(messages, "_recursion", spy)
        # one time per block, the last first: the blocks after the switch add their sums
        # before the one that fails
        self._check(monkeypatch, params, batch, 0, every=1)
        (every, ok, reduced), retry = attempts
        assert (every, ok, retry[:2]) == (messages.RENORM_EVERY, False, (1, True))
        assert 0 < reduced < n_at.size
        assert retry[2] - reduced == n_at.size


class TestSliceBuffers:
    """A stats sweep's slice arrays are views of buffers each thread holds."""

    def _chains(self, concentration=1.0):
        # 4 chains x 6000 tokens at K = 45: one array of K doubles per position is 8.6 MB
        rng = np.random.default_rng(67)
        K, V = 45, 500
        params = SurrogateParams(
            rng.dirichlet(np.full(K, concentration), K + 1), rng.dirichlet(np.full(V, concentration), K)
        )
        return params, [rng.integers(0, V, 6000) for _ in range(4)]

    def _steady_state_peak(self, params, batch, absence):
        # the first sweep grows the held buffers
        sweep(params, batch, absence=absence)
        tracemalloc.start()
        try:
            sweep(params, batch, absence=absence)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("absence, limit", [(False, 2 * 2**20), (True, 16 * 2**20)])
    def test_steady_state_sweep_makes_no_slice_sized_temporary(self, absence, limit):
        peak = self._steady_state_peak(*self._chains(), absence)
        assert peak < limit, peak

    def test_hot_cell_corrections_stay_within_the_absence_limit(self):
        # Dirichlet(0.8) parameters put about 11.7 hot cells on each position,
        # 281k in the slice; taken whole, their corrections peaked at 18.3 MB
        peak = self._steady_state_peak(*self._chains(0.8), absence=True)
        assert peak < 16 * 2**20, peak

    @pytest.mark.parametrize("absence, concentration", [(False, 1.0), (True, 0.8)])
    def test_cold_sweep_holds_one_slice_array(self, monkeypatch, absence, concentration):
        # the forward rows are the one array with a row per position, 8.6 MB here,
        # and the peak counts the held buffers' first growth; whole-slice arrays for
        # the backward pass took 26 MB or more.  Dirichlet(0.8) parameters put
        # about 11.7 hot cells on each position
        params, batch = self._chains(concentration)
        slice_array = sum(seq.size for seq in batch) * params.num_states * 8
        assert len(messages._slices(batch, params.vocab_size)) == 1
        monkeypatch.setattr(messages._held, "buffers", [np.empty(0)] * 4, raising=False)
        tracemalloc.start()
        try:
            sweep(params, batch, absence=absence)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < slice_array + 3 * 2**20, peak

    def test_slice_arrays_hold_one_row_per_running_position(self, monkeypatch):
        rng = np.random.default_rng(79)
        params = random_params(rng, 4, 7)
        batch = random_batch(rng, 7, 20, 25)
        monkeypatch.setattr(messages, "SLICE_POSITIONS", 60)
        # a block of 12 rows at K = 4, or of two first times where those are more
        monkeypatch.setattr(messages, "BLOCK_DOUBLES", 48)
        monkeypatch.setattr(messages, "BLOCK_TIMES", 2)
        slices = messages._slices(batch, params.vocab_size)
        assert len(slices) > 2
        assert any(n_at[-1] < n_at[0] for _, _, n_at in slices)
        shapes = []
        held_arrays = messages._held_arrays

        def spy(*args):
            shapes.append(args)
            return held_arrays(*args)

        monkeypatch.setattr(messages, "_held_arrays", spy)
        sweep(params, batch, absence=True)
        K = params.num_states
        # alpha holds a row per running position, right and beta one block, and the
        # carry the first rows of three arrays
        want = []
        for _, _, n_at in slices:
            block = (min(max(48 // K, 2 * n_at[0]), n_at.sum()), K)
            want.append(((n_at.sum(), K), block, block, (3 * n_at[0], K)))
        assert shapes == want
        assert sum(args[0][0] for args in shapes) == sum(seq.size for seq in batch)
        # most slices take several blocks
        assert sum(args[1][0] < args[0][0] for args in shapes) > len(shapes) // 2

    FAULTS = """
import resource
import numpy as np
from scvihmm.messages import SurrogateParams, sweep

rng = np.random.default_rng(71)
K, V = 45, 500
params = SurrogateParams(rng.dirichlet(np.ones(K), K + 1), rng.dirichlet(np.ones(V), K))
batch = [rng.integers(0, V, n) for n in rng.integers(10, 41, 200)]
faults = []
for _ in range(4):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    sweep(params, batch)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(faults)
"""

    def test_steady_state_sweeps_fault_in_no_new_pages(self):
        # one 40 x 200 x 45 slice array is 2.9 MB, about 700 pages; a sweep
        # that allocated its three afresh would fault them in again each time
        pytest.importorskip("resource")
        src = os.path.dirname(os.path.dirname(messages.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run(
            [sys.executable, "-c", self.FAULTS], env=env, capture_output=True,
            text=True, timeout=120, check=True,
        )
        faults = json.loads(out.stdout)
        assert max(faults[1:]) <= 200, faults

    def test_threads_sweeping_at_once_match_serial_sweeps(self, monkeypatch):
        # several slices per sweep and more threads than cores, switching often
        monkeypatch.setattr(messages, "SLICE_POSITIONS", 90)
        rng = np.random.default_rng(73)
        params = random_params(rng, 5, 9)
        batches = [random_batch(rng, 9, int(rng.integers(8, 20)), 30) for _ in range(4)]
        serial = [sweep(params, batch, absence=True) for batch in batches]
        results = [[] for _ in batches]

        def work(k):
            for _ in range(15):
                results[k].append(sweep(params, batches[k], absence=True))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(len(batches))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for ref, runs in zip(serial, results):
            assert len(runs) == 15
            for got in runs:
                for field in ("loglik", "counts", "token_stats", "absence_pair", "absence_row"):
                    np.testing.assert_array_equal(getattr(got, field), getattr(ref, field))
