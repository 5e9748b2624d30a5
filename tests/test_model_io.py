"""Checkpoint round-trip and corruption handling."""

import hashlib
import json
import struct

import numpy as np
import pytest

from scvihmm.config import RunConfig
from scvihmm.corpus import Corpus, Vocabulary
from scvihmm.engine import predictive_log_likelihood, train
from scvihmm.model_io import (
    ChecksumError,
    ModelFormatError,
    TruncatedFileError,
    VersionMismatchError,
    load_model,
    save_model,
)


def small_corpus(seed=0, n=14, vocab_size=6):
    rng = np.random.default_rng(seed)
    vocab = Vocabulary(f"w{i}" for i in range(vocab_size - 1))
    seqs = [rng.integers(1, vocab_size, rng.integers(3, 9)) for _ in range(n)]
    return Corpus.from_sequences(seqs, vocab)


def trained(algorithm, seed=1):
    corpus = small_corpus(seed)
    config = RunConfig(
        algorithm=algorithm, num_states=3, minibatch_size=4,
        large_batch_size=8, passes=2, seed=seed,
    )
    model, _ = train(corpus, config)
    return model, corpus


def resign_header(path, edit):
    """Rewrite a checkpoint's JSON header through ``edit`` and sign the file again."""
    blob = path.read_bytes()
    header_len = struct.unpack_from("<I", blob, 8)[0]
    header = json.loads(blob[12 : 12 + header_len])
    edit(header)
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    payload = b"".join([
        blob[:8], struct.pack("<I", len(header_bytes)), header_bytes, blob[12 + header_len : -32]
    ])
    path.write_bytes(payload + hashlib.sha256(payload).digest())


# header edits of an svi-hmm checkpoint: (field the error must name, edit)
TAMPERED_HEADERS = {
    "unknown-algorithm": ("algorithm", lambda h: h["config"].update(algorithm="bogus")),
    "header-algorithm": ("algorithm", lambda h: h.update(algorithm="scvi-hmm")),
    "config-num-states": ("num_states", lambda h: h["config"].update(num_states=7)),
    "negative-emit-prior": ("emit_prior", lambda h: h["config"].update(emit_prior=-0.1)),
    "short-vocab-words": ("vocab", lambda h: h.update(vocab_words=h["vocab_words"][:-1])),
    "fractional-vocab-size": ("vocab_size", lambda h: h.update(vocab_size=h["vocab_size"] + 0.5)),
    "numeric-vocab-words": ("vocab_words", lambda h: h.update(vocab_words=[7] * h["vocab_size"])),
}


@pytest.mark.parametrize("algorithm", ["scvi-hmm", "scvi-hdphmm", "svi-hmm"])
class TestRoundTrip:
    def test_bit_identical_state(self, algorithm, tmp_path):
        model, _ = trained(algorithm)
        path = tmp_path / "model.bin"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.algorithm == model.algorithm
        assert loaded.num_states == model.num_states
        assert loaded.vocab_size == model.vocab_size
        assert loaded.config == model.config
        assert loaded.vocab == model.vocab
        assert type(loaded.mode) is type(model.mode)
        np.testing.assert_array_equal(loaded.stats.trans_counts, model.stats.trans_counts)
        np.testing.assert_array_equal(
            loaded.stats.token_stats, model.stats.token_stats
        )
        if algorithm == "scvi-hdphmm":
            a, b = loaded.mode, model.mode
            np.testing.assert_array_equal(a.sticks.u, b.sticks.u)
            np.testing.assert_array_equal(a.sticks.v, b.sticks.v)
            assert (a.alpha.a, a.alpha.b) == (b.alpha.a, b.alpha.b)
            assert (a.gamma.a, a.gamma.b) == (b.gamma.a, b.gamma.b)
            np.testing.assert_array_equal(a.geo_alpha_pi, b.geo_alpha_pi)

    def test_evaluation_bit_identical(self, algorithm, tmp_path):
        model, corpus = trained(algorithm, seed=2)
        path = tmp_path / "model.bin"
        save_model(model, path)
        loaded = load_model(path)
        assert predictive_log_likelihood(loaded, corpus) == predictive_log_likelihood(
            model, corpus
        )

    def test_double_round_trip_identical_bytes(self, algorithm, tmp_path):
        model, _ = trained(algorithm, seed=3)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_model(model, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestCorruption:
    def _saved(self, tmp_path):
        model, _ = trained("scvi-hmm", seed=4)
        path = tmp_path / "model.bin"
        save_model(model, path)
        return path

    def test_flipped_payload_byte(self, tmp_path):
        path = self._saved(tmp_path)
        blob = bytearray(path.read_bytes())
        # flip a bit in the float payload, well past the header
        blob[len(blob) - 200] ^= 0x40
        path.write_bytes(bytes(blob))
        with pytest.raises(ChecksumError):
            load_model(path)

    def test_truncated_file(self, tmp_path):
        path = self._saved(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 37])
        with pytest.raises(TruncatedFileError):
            load_model(path)

    def test_tiny_file(self, tmp_path):
        path = tmp_path / "model.bin"
        path.write_bytes(b"SC")
        with pytest.raises(TruncatedFileError):
            load_model(path)

    def test_tiny_file_with_bad_magic(self, tmp_path):
        # too short to hold the magic, and no prefix of it either
        path = tmp_path / "model.bin"
        path.write_bytes(b"XY")
        with pytest.raises(ModelFormatError, match="bad magic") as excinfo:
            load_model(path)
        assert type(excinfo.value) is ModelFormatError

    def test_version_mismatch(self, tmp_path):
        path = self._saved(tmp_path)
        blob = path.read_bytes()
        # format 1 stored svi-hmm posteriors where format 2 stores counts
        for version in (99, 1):
            stamped = bytearray(blob)
            stamped[4] = version
            path.write_bytes(bytes(stamped))
            with pytest.raises(VersionMismatchError):
                load_model(path)

    def test_bad_magic(self, tmp_path):
        path = self._saved(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[0] = ord("X")
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelFormatError) as excinfo:
            load_model(path)
        assert not isinstance(
            excinfo.value, (VersionMismatchError, TruncatedFileError, ChecksumError)
        )

    def test_trailing_garbage(self, tmp_path):
        path = self._saved(tmp_path)
        with open(path, "ab") as fh:
            fh.write(b"\x00" * 8)
        with pytest.raises(ModelFormatError):
            load_model(path)

    @pytest.mark.parametrize("case", sorted(TAMPERED_HEADERS))
    def test_header_contradicting_config(self, tmp_path, case):
        model, _ = trained("svi-hmm", seed=4)
        path = tmp_path / "model.bin"
        save_model(model, path)
        field, edit = TAMPERED_HEADERS[case]
        resign_header(path, edit)
        with pytest.raises(ModelFormatError, match=field) as excinfo:
            load_model(path)
        assert not isinstance(
            excinfo.value, (VersionMismatchError, TruncatedFileError, ChecksumError)
        )

    def test_error_types_are_distinct(self):
        kinds = {VersionMismatchError, TruncatedFileError, ChecksumError}
        assert len(kinds) == 3
        for kind in kinds:
            assert issubclass(kind, ModelFormatError)
