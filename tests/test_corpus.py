"""Checks for corpus loading, splitting, batching, and synthesis."""

import hashlib
import re
import tracemalloc

import numpy as np
import pytest
from scipy.stats import chi2

from scvihmm import corpus as corpus_mod
from scvihmm.corpus import (
    Corpus,
    SyntheticSpec,
    Vocabulary,
    generate_synthetic,
    load_corpus,
    minibatches,
    save_corpus,
    split,
)


class TestLoadCorpus:
    def test_basic_parse(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("a b a\nb b\n")
        corpus = load_corpus(p)
        assert len(corpus) == 2
        assert len(corpus.vocab) == 3  # unk + a + b
        assert [len(s) for s in corpus.sequences] == [3, 2]
        np.testing.assert_array_equal(corpus.sequences[0], [1, 2, 1])
        np.testing.assert_array_equal(corpus.sequences[1], [2, 2])
        assert corpus.counts == 5

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("")
        with pytest.raises(ValueError, match="no sequences"):
            load_corpus(p)

    def test_blank_lines_skipped_and_counted(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("a b\n\n   \nb\n")
        corpus = load_corpus(p)
        assert len(corpus) == 2 and corpus.counts == 3

    def test_frozen_vocab_unk_policy(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("a c b\nzzz\n")
        vocab = Vocabulary(["a", "b"])
        corpus = load_corpus(p, vocab=vocab)
        assert [s.tolist() for s in corpus.sequences] == [[1, 0, 2], [0]]
        assert corpus.vocab is vocab and len(vocab) == 3

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_corpus(tmp_path / "absent.txt")

    def test_whitespace_and_line_endings_do_not_matter(self, tmp_path):
        plain = tmp_path / "plain.txt"
        plain.write_text("a b c\nb a\nc\n")
        messy = tmp_path / "messy.txt"
        messy.write_bytes(b"a\tb   c\r\n\t b \ta\r\nc")
        for vocab in (None, Vocabulary(["c", "a"])):
            want, got = load_corpus(plain, vocab=vocab), load_corpus(messy, vocab=vocab)
            assert got.vocab == want.vocab and got.counts == want.counts == 6
            assert [s.tolist() for s in got.sequences] == [s.tolist() for s in want.sequences]
            assert all(s.dtype == np.int64 for s in got.sequences)

    def test_built_vocab_lists_words_in_first_seen_order(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("cat the\nsat the mat\ncat on\n")
        assert load_corpus(p).vocab.words == ("cat", "the", "sat", "mat", "on")


class TestRoundTrip:
    def test_corpus_round_trip(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("the cat sat\non the mat\nthe end\n")
        corpus = load_corpus(p)
        q = tmp_path / "copy.txt"
        save_corpus(corpus, q)
        reloaded = load_corpus(q, vocab=corpus.vocab)
        assert len(reloaded) == len(corpus)
        for a, b in zip(corpus.sequences, reloaded.sequences):
            np.testing.assert_array_equal(a, b)

    def test_saved_bytes_match_the_per_token_formula(self, tmp_path):
        vocab = Vocabulary(["the", "cat", "sat", "é"])
        seqs = [[1, 2, 0, 3], [0], [4, 4, 1], [0, 0]]
        corpus = Corpus.from_sequences(seqs, vocab)
        got = tmp_path / "got.txt"
        save_corpus(corpus, got)
        want = "".join(" ".join(vocab.word(int(i)) for i in seq) + "\n" for seq in corpus.sequences)
        assert got.read_bytes() == want.encode("utf-8")
        assert got.read_text(encoding="utf-8").splitlines()[1] == "<unk>"

    def test_vocab_index_of_an_unknown_word_is_zero(self):
        vocab = Vocabulary(["a"])
        assert vocab.index("zzz") == 0 and vocab.index("a") == 1

    def test_vocab_round_trip(self, tmp_path):
        vocab = Vocabulary(["alpha", "beta", "gamma"])
        vp = tmp_path / "v.txt"
        vocab.save(vp)
        assert Vocabulary.load(vp) == vocab

    REPEAT = "repeats an earlier line"
    UNKNOWN = "is the unknown token, which every vocabulary holds at index 0"
    SPACE = "is empty or holds whitespace, so no corpus token can match it"

    @pytest.mark.parametrize("text, line, word, problem", [
        ("a\nb\na\nc\n", 3, "a", REPEAT),
        ("a\n<unk>\nb\n", 2, "<unk>", UNKNOWN),
        ("a\n\na b\n", 3, "a b", SPACE),
        ("a\nb \n", 2, "b ", SPACE),
    ], ids=["repeat", "unknown-token", "inner-space", "trailing-space"])
    def test_vocab_file_refuses_words_that_would_not_get_their_index(
        self, tmp_path, text, line, word, problem
    ):
        # the i-th listed word must get index i and be a possible corpus
        # token; the line count includes blank lines
        vp = tmp_path / "v.txt"
        vp.write_text(text, encoding="utf-8")
        message = f"vocabulary file {vp}, line {line}: word {word!r} {problem}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Vocabulary.load(vp)

    @pytest.mark.parametrize("words, line, problem", [
        (["a", "b", "a"], 3, REPEAT),
        (["a", "<unk>"], 2, UNKNOWN),
        (["a b", "c"], 1, SPACE),
        (["a", ""], 2, SPACE),
        (["a", 3], 2, "is not a string"),
    ], ids=["repeat", "unknown-token", "inner-space", "empty", "not-a-string"])
    def test_vocab_constructor_applies_the_file_rule(self, words, line, problem):
        # a vocabulary saves only words that load back at their own index; the
        # message names the refused word's line, word for word
        message = f"vocabulary line {line}: word {words[line - 1]!r} {problem}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Vocabulary(words)


class TestCorpusValidation:
    # sequences per block of a long list; a fault is placed in the first, second or third
    BLOCK = 1024

    def _seqs(self, n):
        return [np.array([1, 2, 1])] * n

    @pytest.mark.parametrize("where", [0, 1, 2])
    def test_range_error_in_any_block(self, where):
        vocab = Vocabulary(["a", "b"])
        pos = where * self.BLOCK + 5
        for bad in (np.array([1, 3]), np.array([-1, 2])):
            seqs = self._seqs(3 * self.BLOCK)
            seqs[pos] = bad
            with pytest.raises(ValueError, match="^sequence token index outside vocabulary$"):
                Corpus(seqs, vocab)

    def test_empty_sequence_past_the_first_block(self):
        seqs = self._seqs(2 * self.BLOCK)
        seqs[-1] = np.array([], dtype=np.int64)
        with pytest.raises(ValueError, match="^sequence must be a nonempty 1-d array of integer token indices$"):
            Corpus.from_sequences(seqs, Vocabulary(["a", "b"]))

    def test_empty_sequence_list_accepted(self):
        corpus = Corpus.from_sequences([], Vocabulary(["a"]))
        assert len(corpus) == 0 and corpus.counts == 0

    def test_from_sequences_refuses_non_integer_tokens(self):
        # once cast, [0.5, 2.9] became [0, 2]
        with pytest.raises(ValueError, match="^sequence must be a nonempty 1-d array of integer token indices$"):
            Corpus.from_sequences([[1, 2], [0.5, 2.9]], Vocabulary(["a", "b"]))

    def test_from_sequences_refuses_a_2d_sequence(self):
        with pytest.raises(ValueError, match="^sequence must be a nonempty 1-d array of integer token indices$"):
            Corpus.from_sequences([[[1, 2]]], Vocabulary(["a", "b"]))

    @pytest.mark.parametrize("seqs", [
        [np.array([1, 2]), np.array([[1, 2]])],  # concatenate would name the dimensions
        [np.array(2)],  # len() of a 0-d array raises TypeError
        [[1, 2], 3],
    ], ids=["2-d-among-1-d", "0-d", "0-d-among-1-d"])
    def test_from_sequences_refuses_sequences_that_are_not_1d(self, seqs):
        with pytest.raises(ValueError, match="^sequence must be a nonempty 1-d array of integer token indices$"):
            Corpus.from_sequences(seqs, Vocabulary(["a", "b"]))

    @pytest.mark.parametrize("where", [0, 2])
    def test_float_block_refused_in_any_block(self, where):
        seqs = self._seqs(3 * self.BLOCK)
        seqs[where * self.BLOCK + 5] = np.array([1.5, 2.0])
        with pytest.raises(ValueError, match="^sequence must be a nonempty 1-d array of integer token indices$"):
            Corpus(seqs, Vocabulary(["a", "b"]))

    @pytest.mark.parametrize("counts", [0, 5, 7])
    def test_counts_must_equal_the_token_total(self, counts):
        seqs = [np.array([1, 2, 1]), np.array([2, 2, 1])]
        assert Corpus(seqs, Vocabulary(["a", "b"])).counts == 6
        seqs = [np.array([1, 2])] * (counts // 2) + [np.array([2])] * (counts % 2)
        assert Corpus(seqs, Vocabulary(["a", "b"])).counts == counts

    def test_integer_dtypes_kept(self):
        # every integer dtype is taken, its values copied into the one intp array
        seqs = [np.array([1, 2], dtype=np.uint8), np.array([2], dtype=np.int16), [1, 1],
                np.array([2, 0], dtype=np.uint64)]
        corpus = Corpus.from_sequences(seqs, Vocabulary(["a", "b"]))
        assert [s.tolist() for s in corpus.sequences] == [[1, 2], [2], [1, 1], [2, 0]]
        assert corpus.tokens.dtype == np.intp and corpus.counts == 7
        for top in (3, 2**63, 2**64 - 1):
            # past the intp range, a uint64 token would turn negative in the copy
            with pytest.raises(ValueError, match="^sequence token index outside vocabulary$"):
                Corpus.from_sequences(seqs + [np.array([top], dtype=np.uint64)], Vocabulary(["a", "b"]))


class TestFlatLayout:
    """A corpus holds one read-only token array and its offsets, as a CSR matrix holds its rows."""

    def test_mutating_the_input_leaves_the_corpus_unchanged(self):
        a = np.array([1, 2, 3])
        corpus = Corpus([a], Vocabulary(["x", "y", "z"]))
        a[0] = 2
        assert corpus.sequences[0].tolist() == [1, 2, 3]
        assert corpus.tokens.tolist() == [1, 2, 3]

    def test_the_corpus_arrays_are_read_only(self):
        corpus = Corpus([np.array([1, 2]), np.array([2])], Vocabulary(["x", "y"]))
        for array in (corpus.sequences[1], corpus.tokens, corpus.offsets, corpus.lengths):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1
        assert corpus.tokens.tolist() == [1, 2, 2]

    def test_list_file_and_generator_give_the_same_flat_arrays(self, tmp_path):
        generated, _ = generate_synthetic(SyntheticSpec.random(3, 12, 40, 1, 9, seed=8))
        listed = Corpus(list(generated.sequences), generated.vocab)
        path = tmp_path / "c.txt"
        save_corpus(generated, path)
        for corpus in (listed, load_corpus(path, vocab=generated.vocab)):
            assert corpus.tokens.dtype == generated.tokens.dtype == np.intp
            np.testing.assert_array_equal(corpus.tokens, generated.tokens)
            np.testing.assert_array_equal(corpus.offsets, generated.offsets)
            np.testing.assert_array_equal(corpus.lengths, np.diff(generated.offsets))
            assert corpus.counts == generated.counts == generated.offsets[-1]
        # a built vocabulary indexes words by first sight, so only the lengths agree
        built = load_corpus(path)
        np.testing.assert_array_equal(built.offsets, generated.offsets)

    def test_sequences_are_views_of_the_flat_array_in_order(self):
        corpus = Corpus([[1], [2, 1, 1], [2, 2]], Vocabulary(["x", "y"]))
        assert [s.tolist() for s in corpus.sequences] == [[1], [2, 1, 1], [2, 2]]
        assert all(s.base is corpus.tokens for s in corpus.sequences)
        assert corpus.offsets.tolist() == [0, 1, 4, 6]

    def test_windows_pick_sequences_in_index_order(self):
        corpus = Corpus([[1], [2, 1, 1], [2, 2], [1, 2]], Vocabulary(["x", "y"]))
        windows = corpus.windows(np.array([2, 0, 2]))
        assert len(windows) == 3 and windows.tokens is corpus.tokens and windows.top == 2
        assert [w.tolist() for w in windows] == [[2, 2], [1], [2, 2]]
        assert [w.tolist() for w in corpus.windows()] == [s.tolist() for s in corpus.sequences]

    def test_split_matches_its_pinned_order(self):
        # the digest of split's sequences, side by side, as the per-sequence split gave them
        corpus, _ = generate_synthetic(SyntheticSpec.random(4, 30, 257, 1, 40, seed=5))
        digest = hashlib.sha256()
        for side in split(corpus, 0.7, seed=13):
            for seq in side.sequences:
                digest.update(np.asarray(seq, dtype="<i8").tobytes() + b"|")
            digest.update(b"#")
        assert digest.hexdigest() == "dd11573ab4bab2c133d8d2bc11e5432d7ed0ea1d17872ebb9f1292002edf78cf"

    def test_split_gathers_the_permuted_sequences(self):
        corpus, _ = generate_synthetic(SyntheticSpec.random(2, 9, 31, 1, 12, seed=6))
        train, test = split(corpus, 0.6, seed=4)
        order = np.random.default_rng(4).permutation(len(corpus))
        want = [corpus.sequences[i].tolist() for i in order]
        assert [s.tolist() for s in train.sequences + test.sequences] == want
        assert train.counts + test.counts == corpus.counts
        assert not (train.tokens.flags.writeable or test.tokens.flags.writeable)


class TestSplit:
    def _corpus(self, n):
        vocab = Vocabulary(["x"])
        return Corpus.from_sequences([np.array([1])] * n, vocab)

    def test_ninety_ten(self):
        train, test = split(self._corpus(10), 0.9, seed=0)
        assert (len(train), len(test)) == (9, 1)

    def test_half_of_two(self):
        train, test = split(self._corpus(2), 0.5, seed=0)
        assert (len(train), len(test)) == (1, 1)

    def test_deterministic(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("\n".join(f"w{i} w{i+1}" for i in range(20)) + "\n")
        corpus = load_corpus(p)
        a = split(corpus, 0.7, seed=11)
        b = split(corpus, 0.7, seed=11)
        for x, y in zip(a[0].sequences, b[0].sequences):
            np.testing.assert_array_equal(x, y)

    def test_partition(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("\n".join(f"u{i}" for i in range(13)) + "\n")
        corpus = load_corpus(p)
        train, test = split(corpus, 0.6, seed=3)
        seen = sorted(int(s[0]) for s in train.sequences + test.sequences)
        assert seen == sorted(int(s[0]) for s in corpus.sequences)
        train_ids = {int(s[0]) for s in train.sequences}
        test_ids = {int(s[0]) for s in test.sequences}
        assert not train_ids & test_ids
        assert train.vocab is corpus.vocab and test.vocab is corpus.vocab

    @pytest.mark.parametrize("fraction", [0.01, 0.99])
    def test_empty_side_rejected(self, fraction):
        with pytest.raises(ValueError):
            split(self._corpus(3), fraction, seed=0)

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.1])
    def test_fraction_domain(self, fraction):
        with pytest.raises(ValueError):
            split(self._corpus(10), fraction, seed=0)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, None])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        with pytest.raises(ValueError, match="^seed must be an integer >= 0, got "):
            split(self._corpus(4), 0.5, seed=seed)


class TestGenerateSynthetic:
    def test_single_state_unigram_concentration(self):
        emit = np.array([[0.5, 0.25, 0.15, 0.1]])
        spec = SyntheticSpec(1, 4, np.ones((2, 1)), emit, 1000, 100, 100, seed=5)
        corpus, truth = generate_synthetic(spec)
        tokens = np.concatenate(corpus.sequences) - 1
        n = tokens.size
        assert n == 100_000
        counts = np.bincount(tokens, minlength=4)
        for w in range(4):
            p = emit[0, w]
            sigma = np.sqrt(n * p * (1 - p))
            assert abs(counts[w] - n * p) <= 3 * sigma
        np.testing.assert_array_equal(truth.emit, emit)

    def test_deterministic_chain_is_periodic(self):
        trans = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        emit = np.eye(2)
        spec = SyntheticSpec(2, 2, trans, emit, 3, 7, 7, seed=0)
        corpus, _ = generate_synthetic(spec)
        for seq in corpus.sequences:
            np.testing.assert_array_equal(seq, [1, 2, 1, 2, 1, 2, 1])

    def test_same_seed_identical(self):
        spec = SyntheticSpec.random(3, 6, 50, 4, 12, seed=9)
        a, _ = generate_synthetic(spec)
        b, _ = generate_synthetic(spec)
        for x, y in zip(a.sequences, b.sequences):
            np.testing.assert_array_equal(x, y)

    def test_transition_frequencies_chi_square(self):
        # identity emissions expose the state path, so observed
        # token-to-token transitions can be tested against spec.trans
        rng = np.random.default_rng(2)
        trans_inner = rng.dirichlet(np.full(3, 5.0), size=3)
        trans = np.vstack([np.full(3, 1 / 3), trans_inner])
        spec = SyntheticSpec(3, 3, trans, np.eye(3), 1000, 101, 101, seed=14)
        corpus, _ = generate_synthetic(spec)
        counts = np.zeros((3, 3))
        for seq in corpus.sequences:
            states = seq - 1
            np.add.at(counts, (states[:-1], states[1:]), 1.0)
        assert counts.sum() == 100_000
        stat = 0.0
        for k in range(3):
            expected = counts[k].sum() * trans_inner[k]
            stat += float(((counts[k] - expected) ** 2 / expected).sum())
        assert stat < chi2.ppf(0.999, df=6)

    def test_draw_past_a_short_row_lands_on_its_last_cell_with_mass(self):
        # a row may sum to 1 - 9e-11 and still pass the spec check; a uniform
        # above that total used to count every cell and come back as V
        emit = np.array([[0.5, 0.5 - 9e-11, 0.0]])
        spec = SyntheticSpec(1, 3, np.ones((2, 1)), emit, 1, 1, 1)
        u = np.array([1.0 - 5e-11, 0.75, 0.25])
        raw = corpus_mod._sample_rows(np.cumsum(spec.emit, axis=1), np.zeros(3, int), u)
        np.testing.assert_array_equal(raw, [3, 1, 0])
        got = corpus_mod._sample_rows(corpus_mod._cumulative(spec.emit), np.zeros(3, int), u)
        np.testing.assert_array_equal(got, [1, 1, 0])

    def test_state_draw_stays_inside_the_truncation(self):
        trans = np.array([[0.5, 0.5], [0.3, 0.7 - 9e-11], [0.6, 0.4]])
        spec = SyntheticSpec(2, 2, trans, np.full((2, 2), 0.5), 1, 1, 1)
        cum = corpus_mod._cumulative(spec.trans)
        u = np.full(3, 1.0 - 5e-11)
        assert (u[:, None] > np.cumsum(spec.trans, axis=1)).sum(axis=1)[1] == 2
        np.testing.assert_array_equal(corpus_mod._sample_rows(cum, np.arange(3), u), [1, 1, 1])

    def test_in_range_draws_keep_their_cell(self):
        rng = np.random.default_rng(12)
        mat = rng.dirichlet(np.ones(6), size=50) * rng.integers(0, 2, (50, 6))
        mat[:, 0] += 1e-3
        mat /= mat.sum(axis=1, keepdims=True)
        rows = rng.integers(0, 50, 5000)
        u = rng.random(5000)
        raw = corpus_mod._sample_rows(np.cumsum(mat, axis=1), rows, u)
        np.testing.assert_array_equal(corpus_mod._sample_rows(corpus_mod._cumulative(mat), rows, u), raw)

    def test_grouped_draw_matches_sample_rows_on_adversarial_uniforms(self):
        mat = np.array([
            [0.25, 0.25, 0.5, 0.0],          # ties at exact cumulative values
            [0.0, 0.3, 0.0, 0.7],            # zero-mass cells: flat runs, a leading zero
            [0.5, 0.0, 0.5 - 9e-11, 0.0],    # short row with a zero tail
            [0.0, 0.0, 0.0, 1.0],            # all mass on the last cell
        ])
        cum = corpus_mod._cumulative(mat)
        finite = np.cumsum(mat, axis=1)
        rows, u = [], []
        for k in range(mat.shape[0]):
            edges = np.concatenate([finite[k], [0.0, 1.0 - 5e-11, np.nextafter(1.0, 0.0)]])
            for v in np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)]):
                if 0.0 <= v < 1.0:
                    rows.append(k)
                    u.append(v)
        rng = np.random.default_rng(3)
        rows = np.array(rows + list(rng.integers(0, 4, 500)))
        u = np.array(u + list(rng.random(500)))
        order = rng.permutation(rows.size)
        rows, u = rows[order], u[order]
        got = corpus_mod._sample_by_row(cum, rows, u)
        np.testing.assert_array_equal(got, corpus_mod._sample_rows(cum, rows, u))
        # ties land on the cell whose cumulative value they equal
        assert corpus_mod._sample_by_row(cum, np.zeros(2, int), np.array([0.25, 0.5])).tolist() == [0, 1]
        # a zero-mass cell is never drawn by a positive uniform
        assert set(got[(rows == 1) & (u > 0.0)].tolist()) <= {1, 3}
        # above the short row's total, the draw lands on its last cell with mass
        above = corpus_mod._sample_by_row(cum, np.array([2, 2]), np.array([1.0 - 5e-11, np.nextafter(1.0, 0.0)]))
        assert above.tolist() == [2, 2]
        assert (u[:, None] > finite[rows]).sum(axis=1).max() == 4  # the finite rows would leave the vocabulary

    @pytest.mark.parametrize(
        "case, digest",
        [
            ("random", "48f726e4b4cf71968b8b95a0d610308a23786d247584b46637eb7b8898a7884b"),
            ("zero cells", "a1a53ac30f7f2586bbff75b0a973da2d78b6ac3d63ac6365319ecaf374010ad4"),
        ],
    )
    def test_fixed_seed_corpus_pinned(self, case, digest):
        if case == "random":
            spec = SyntheticSpec.random(5, 40, 200, 3, 30, seed=11, self_persistence=0.3)
        else:
            trans = np.array([
                [0.0, 0.6, 0.4, 0.0], [0.5, 0.0, 0.5, 0.0], [0.0, 0.0, 0.0, 1.0],
                [0.2, 0.3, 0.5, 0.0], [0.25, 0.25, 0.25, 0.25],
            ])
            emit = np.array([
                [0.0, 0.7, 0.3, 0.0, 0.0], [0.2, 0.2, 0.2, 0.2, 0.2],
                [0.0, 0.0, 0.0, 0.0, 1.0], [0.5, 0.0, 0.0, 0.5, 0.0],
            ])
            spec = SyntheticSpec(4, 5, trans, emit, 300, 1, 25, seed=4)
        corpus, _ = generate_synthetic(spec)
        tokens = np.concatenate(corpus.sequences).astype("<i8")
        assert hashlib.sha256(tokens.tobytes()).hexdigest() == digest

    @staticmethod
    def _benchmark_shape(seq_count, min_length, max_length):
        # a sticky 10-state chain with sparse Dirichlet(0.1) emission rows, V = 500
        rng = np.random.default_rng([1, 1])
        trans = rng.dirichlet(np.ones(10), size=11)
        trans[1:] = 0.5 * trans[1:] + 0.5 * np.eye(10)
        emit = rng.dirichlet(np.full(500, 0.1), size=10)
        return SyntheticSpec(10, 500, trans, emit, seq_count, min_length, max_length, seed=1)

    @pytest.mark.parametrize(
        "shape, digest, peak_mib",
        [
            ((3600, 10, 40), "89723b9ac284b7347436c0e82aaf2a79823cc81e9fc6c273f9e5c22636caab37", 6.0),
            ((16, 4000, 6000), "4a6132dc58847c0e33926670fa0ff7bd247d4ef4d8ca7fe49dcc3e7d56f9f020", 2.5),
        ],
        ids=["many-short", "few-long"],
    )
    def test_benchmark_shapes_pinned_and_memory_bounded(self, shape, digest, peak_mib):
        spec = self._benchmark_shape(*shape)
        tracemalloc.start()
        try:
            corpus, _ = generate_synthetic(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tokens = np.concatenate(corpus.sequences).astype("<i8")
        assert hashlib.sha256(tokens.tobytes()).hexdigest() == digest
        assert corpus.counts == tokens.size
        # drawing the whole position range at once, or one n x V block per
        # position, peaks above these bounds
        assert peak < peak_mib * 2**20, f"peak {peak / 2**20:.2f} MiB"

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(2, 3, np.ones((3, 2)), np.full((2, 3), 1 / 3), 1, 1, 1)
        with pytest.raises(ValueError):
            SyntheticSpec(1, 2, np.ones((2, 1)), np.array([[0.5, 0.5]]), 0, 1, 1)
        with pytest.raises(ValueError):
            SyntheticSpec(1, 2, np.ones((2, 1)), np.array([[0.5, 0.5]]), 5, 4, 2)

    @pytest.mark.parametrize("name, shape, message", [
        ("trans", (2, 2), r"^trans must be \(K\+1\) x K$"),
        ("emit", (2, 3), "^emit must be K x V$"),
    ])
    def test_spec_refuses_misshapen_rows(self, name, shape, message):
        mats = {"trans": np.full((3, 2), 0.5), "emit": np.full((2, 4), 0.25)}
        mats[name] = np.full(shape, 1.0 / shape[1])
        with pytest.raises(ValueError, match=message):
            SyntheticSpec(2, 4, mats["trans"], mats["emit"], 5, 3, 5)

    @pytest.mark.parametrize("field, value, message", [
        ("seq_count", 2.5, "^seq_count must be an integer >= 1, got 2.5$"),
        ("seed", -1, "^seed must be an integer >= 0, got -1$"),
        ("num_states", True, "^num_states must be an integer >= 1, got True$"),
        ("max_length", 2, "^max_length must be an integer >= 3, got 2$"),
    ])
    def test_spec_refuses_counts_that_are_not_integers_above_their_floor(self, field, value, message):
        counts = dict(num_states=1, vocab_size=4, seq_count=5, min_length=3, max_length=5, seed=0)
        counts[field] = value
        trans, emit = np.ones((2, 1)), np.full((1, 4), 0.25)
        with pytest.raises(ValueError, match=message):
            SyntheticSpec(trans=trans, emit=emit, **counts)
        # random checks the same fields before it draws anything
        with pytest.raises(ValueError, match=message):
            SyntheticSpec.random(**counts)

    @pytest.mark.parametrize("value", ["0.5", float("nan"), -0.1, 1.5, None])
    def test_random_refuses_self_persistence_outside_the_unit_interval(self, value):
        with pytest.raises(ValueError, match="^self_persistence must be a number in \\[0, 1\\], got "):
            SyntheticSpec.random(2, 4, 5, 3, 5, self_persistence=value)

    @pytest.mark.parametrize("name", ["trans", "emit"])
    def test_spec_refuses_nan_rows(self, name):
        mats = {"trans": np.full((3, 2), 0.5), "emit": np.full((2, 4), 0.25)}
        mats[name][1, 0] = np.nan
        with pytest.raises(ValueError, match=f"{name} rows must be stochastic"):
            SyntheticSpec(2, 4, mats["trans"], mats["emit"], 5, 3, 5)


class TestMinibatches:
    def _corpus(self, n):
        vocab = Vocabulary(["x"])
        return Corpus.from_sequences([np.array([1])] * n, vocab)

    def test_shuffle_covers_each_pass(self):
        stream = minibatches(self._corpus(4), 2, seed=0, mode="shuffle")
        for _ in range(5):
            batch_a, batch_b = next(stream), next(stream)
            assert sorted(np.concatenate([batch_a, batch_b]).tolist()) == [0, 1, 2, 3]

    def test_shuffle_short_final_batch(self):
        stream = minibatches(self._corpus(5), 2, seed=1, mode="shuffle")
        sizes = [len(next(stream)) for _ in range(3)]
        assert sizes == [2, 2, 1]

    def test_iid_single(self):
        stream = minibatches(self._corpus(10), 1, seed=2, mode="iid")
        draws = [int(next(stream)[0]) for _ in range(200)]
        assert all(0 <= d < 10 for d in draws)
        assert len(set(draws)) > 5

    def test_deterministic(self):
        a = minibatches(self._corpus(7), 3, seed=4, mode="shuffle")
        b = minibatches(self._corpus(7), 3, seed=4, mode="shuffle")
        for _ in range(6):
            np.testing.assert_array_equal(next(a), next(b))

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            next(minibatches(self._corpus(3), 0, seed=0))
        with pytest.raises(ValueError):
            next(minibatches(self._corpus(3), 1, seed=0, mode="bogus"))
        for mode in ("shuffle", "iid"):
            with pytest.raises(ValueError, match="empty corpus"):
                next(minibatches(self._corpus(0), 2, seed=0, mode=mode))
        # the call itself checks, before any batch is drawn
        with pytest.raises(ValueError, match="empty corpus"):
            minibatches(self._corpus(0), 2, seed=0)
        with pytest.raises(ValueError, match="batch_size"):
            minibatches(self._corpus(3), 0, seed=0)

    @pytest.mark.parametrize("batch_size", [2.5, 2.0, True, -1, "2", None])
    def test_batch_size_must_be_a_positive_integer(self, batch_size):
        with pytest.raises(ValueError, match=r"^batch_size must be an integer >= 1, got "):
            minibatches(self._corpus(3), batch_size, seed=0)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "0", None])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        with pytest.raises(ValueError, match=r"^seed must be an integer >= 0, got "):
            minibatches(self._corpus(3), 2, seed=seed)
