"""Checkpoint round-trip and corruption handling."""

import hashlib
import json
import os
import pathlib
import stat
import struct

import numpy as np
import pytest

from scvihmm import model_io
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
    # the vocabulary rule refuses a repeated word; the count still matches vocab_size
    "repeated-vocab-words": ("repeats an earlier line",
                             lambda h: h.update(vocab_words=h["vocab_words"][:-1] + h["vocab_words"][:1])),
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
        assert type(loaded.hdp) is type(model.hdp)
        np.testing.assert_array_equal(loaded.stats.trans_counts, model.stats.trans_counts)
        np.testing.assert_array_equal(
            loaded.stats.token_stats, model.stats.token_stats
        )
        if algorithm == "scvi-hdphmm":
            a, b = loaded.hdp, model.hdp
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


class TestAtomicSave:
    def test_failed_write_leaves_the_old_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "model.bin"
        save_model(trained("scvi-hmm", seed=4)[0], path)
        old = path.read_bytes()
        model, _ = trained("svi-hmm", seed=5)

        def sha256(payload):
            # the payload has gone to a temporary file beside the checkpoint
            assert len(list(tmp_path.iterdir())) == 2
            raise OSError("disk full")

        monkeypatch.setattr(model_io.hashlib, "sha256", sha256)
        with pytest.raises(OSError, match="disk full"):
            save_model(model, path)
        assert path.read_bytes() == old
        assert list(tmp_path.iterdir()) == [path]

    def test_replaced_file_has_fresh_bytes_and_default_mode(self, tmp_path):
        model, _ = trained("scvi-hdphmm", seed=3)
        fresh, replaced, plain = tmp_path / "fresh.bin", tmp_path / "replaced.bin", tmp_path / "plain"
        save_model(model, fresh)
        replaced.write_bytes(b"an older, longer file" * 1000)
        save_model(model, str(replaced))
        plain.write_bytes(b"")
        assert replaced.read_bytes() == fresh.read_bytes()
        assert sorted(tmp_path.iterdir()) == [fresh, plain, replaced]
        assert os.stat(fresh).st_mode == os.stat(plain).st_mode

    def test_file_then_directory_synced(self, tmp_path, monkeypatch):
        synced, fsync = [], os.fsync

        def recording_fsync(fd):
            synced.append(stat.S_ISDIR(os.fstat(fd).st_mode))
            fsync(fd)

        monkeypatch.setattr(model_io.os, "fsync", recording_fsync)
        monkeypatch.chdir(tmp_path)
        save_model(trained("scvi-hmm", seed=4)[0], "model.bin")
        assert synced == [False, True]
        assert [p.name for p in tmp_path.iterdir()] == ["model.bin"]


# Checkpoints in format version 2 of the golden-config models (tests/test_golden.py's
# corpus and config), with the SHA-256 of their surrogates' trans and emit bytes.
# Copied here so that a re-pin of the golden outputs does not re-pin these files.
FORMAT2_FILES = {
    "scvi-hmm": (
        "75cf098a493a20f4876aab56e018d82e86687121d9e8e985745140481034d1aa",
        "6c342288a33b449463b0b49d80626e1597a2dc0102258937e0b3a1d5efd5c6ff",
    ),
    "scvi-hdphmm": (
        "151fc282c604f7a3ab4d9e7b9731d1b05282cea313293110caad0c4aafb3befe",
        "e5d0ad3e8d8edb32cec1e07b4662b8ed404f025d2cc26f0ff1adc91a560ff6e7",
    ),
    "svi-hmm": (
        "8ad981642c0f158d336e4c77e358c938468b7aec8eb3fd6d1b153722d3b739a8",
        "4d4a73e9c018666f087a674b5bd0152f809865ff432021c3e8ca1ed39fc4681f",
    ),
}


@pytest.mark.parametrize("algorithm", sorted(FORMAT2_FILES))
def test_committed_format2_checkpoint_loads(algorithm, tmp_path):
    path = pathlib.Path(__file__).parent / "data" / f"v2-{algorithm}.bin"
    model = load_model(path)
    params = model.surrogate()
    assert model.algorithm == algorithm
    assert (
        hashlib.sha256(params.trans.tobytes()).hexdigest(),
        hashlib.sha256(params.emit.tobytes()).hexdigest(),
    ) == FORMAT2_FILES[algorithm]
    resaved = tmp_path / "resaved.bin"
    save_model(model, resaved)
    assert resaved.read_bytes() == path.read_bytes()


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

    def test_file_ends_inside_the_header(self, tmp_path):
        path = self._saved(tmp_path)
        blob = path.read_bytes()
        header_end = 12 + struct.unpack_from("<I", blob, 8)[0]
        path.write_bytes(blob[: header_end - 1])
        with pytest.raises(TruncatedFileError, match="^file ends inside the header$"):
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
