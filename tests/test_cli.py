"""End-to-end checks of the command-line surface."""

import csv
import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

from scvihmm.cli import (
    EXIT_CHECKSUM,
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_FORMAT,
    EXIT_NUMERICAL,
    EXIT_TRUNCATED,
    EXIT_VERSION,
    METRICS_HEADER,
    build_config,
    build_parser,
    main,
)
from scvihmm.config import RunConfig
from scvihmm.corpus import Vocabulary
from scvihmm.engine import GlobalStats, TrainedModel
from scvihmm.model_io import load_model, save_model
from test_model_io import TAMPERED_HEADERS, resign_header


def write_corpus(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def sample_corpus(path, n=30, seed=0):
    rng = np.random.default_rng(seed)
    lines = [
        " ".join(f"w{rng.integers(0, 8)}" for _ in range(rng.integers(3, 10)))
        for _ in range(n)
    ]
    write_corpus(path, lines)


def parse_metrics(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == METRICS_HEADER
    return [
        (int(r[0]), int(r[1]), float(r[2]), float(r[3]), float(r[4]), int(r[5]))
        for r in rows[1:]
    ]


class TestConfigResolution:
    def _args(self, argv):
        return build_parser().parse_args(["train", "corpus.txt"] + argv)

    def test_defaults_without_flags(self):
        config = build_config(self._args([]))
        assert config == RunConfig()
        assert (config.trans_prior, config.emit_prior) == (0.1, 0.1)
        assert (config.alpha_prior_shape, config.alpha_prior_rate) == (1.0, 0.1)
        assert (config.kappa, config.minibatch_size) == (0.5, 1000)
        assert (config.large_batch_size, config.num_states) == (10000, 45)

    def test_flags_override_file_overrides_defaults(self, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"kappa": 0.8, "seed": 5, "num_states": 7, "threads": 2}))
        args = self._args(["--config", str(cfg_file), "--kappa", "0.9"])
        config = build_config(args)
        assert config.kappa == 0.9
        assert config.seed == 5
        assert config.num_states == 7
        assert config.threads == 2
        assert config.minibatch_size == 1000

    @pytest.mark.parametrize("text, message", [
        ("{bad", "config file is not valid JSON"),
        ("[1, 2]", "config file must hold a JSON object"),
    ], ids=["invalid-json", "not-an-object"])
    def test_config_file_must_hold_a_json_object(self, tmp_path, capsys, text, message):
        corpus = tmp_path / "corpus.txt"
        sample_corpus(corpus)
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(text, encoding="utf-8")
        assert main(["train", str(corpus), "--config", str(cfg_file)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err

    def test_unknown_file_field_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"warp_factor": 9}))
        with pytest.raises(Exception, match="warp_factor"):
            build_config(self._args(["--config", str(cfg_file)]))


class TestTrain:
    def test_end_to_end(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        sample_corpus(corpus)
        model_out = tmp_path / "model.bin"
        metrics_out = tmp_path / "metrics.csv"
        code = main([
            "train", str(corpus), "--algo", "scvi-hmm", "--states", "3",
            "--minibatch", "5", "--large-batch", "5", "--passes", "2",
            "--seed", "1", "--heldout-fraction", "0.2",
            "--model-out", str(model_out), "--metrics-out", str(metrics_out),
        ])
        assert code == 0
        rows = parse_metrics(metrics_out)
        assert len(rows) >= 2
        for col in (2, 3):
            seconds = [r[col] for r in rows]
            assert all(b >= a for a, b in zip(seconds, seconds[1:]))
        assert rows[-1][3] > 0.0
        assert all(math.isfinite(r[4]) for r in rows)
        assert model_out.exists()

    def test_zero_passes_only_initialization(self, tmp_path):
        corpus = tmp_path / "corpus.txt"
        sample_corpus(corpus)
        metrics_out = tmp_path / "metrics.csv"
        code = main([
            "train", str(corpus), "--states", "2", "--minibatch", "5",
            "--large-batch", "5", "--passes", "0",
            "--heldout-fraction", "0.2", "--metrics-out", str(metrics_out),
        ])
        assert code == 0
        rows = parse_metrics(metrics_out)
        assert len(rows) == 1 and rows[0][0] == 0

    def test_eval_every_adds_metric_rows(self, tmp_path):
        corpus = tmp_path / "corpus.txt"
        sample_corpus(corpus)
        out = tmp_path / "metrics.csv"
        code = main([
            "train", str(corpus), "--states", "2", "--minibatch", "10",
            "--large-batch", "10", "--passes", "2", "--eval-every", "4",
            "--heldout-fraction", "0.2", "--metrics-out", str(out),
        ])
        assert code == 0
        # 24 training sequences make 3 steps per pass
        rows = parse_metrics(out)
        assert [(r[0], r[1]) for r in rows] == [(0, 0), (3, 1), (4, 1), (6, 2)]

    def test_metrics_deterministic_modulo_clock(self, tmp_path):
        corpus = tmp_path / "corpus.txt"
        sample_corpus(corpus, seed=3)
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            code = main([
                "train", str(corpus), "--states", "3", "--minibatch", "4",
                "--large-batch", "4", "--passes", "2", "--seed", "7",
                "--heldout-fraction", "0.2", "--metrics-out", str(out),
            ])
            assert code == 0
            outs.append([
                (r[0], r[1], r[4], r[5]) for r in parse_metrics(out)
            ])
        assert outs[0] == outs[1]

    def test_metrics_file_appends(self, tmp_path):
        corpus = tmp_path / "corpus.txt"
        sample_corpus(corpus)
        out = tmp_path / "metrics.csv"
        argv = [
            "train", str(corpus), "--states", "2", "--minibatch", "10",
            "--large-batch", "10", "--passes", "1",
            "--heldout-fraction", "0.2", "--metrics-out", str(out),
        ]
        assert main(argv) == 0
        first = len(parse_metrics(out))
        assert main(argv) == 0
        assert len(parse_metrics(out)) == 2 * first
        with open(out, encoding="utf-8") as fh:
            assert fh.read().count("step,pass") == 1

    def test_metrics_file_under_other_header_left_alone(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        sample_corpus(corpus)
        out = tmp_path / "metrics.csv"
        old = b"step,pass,seconds,heldout_ll,k_effective\r\n0,0,0.000000,-2.0,3\r\n"
        out.write_bytes(old)
        model_out = tmp_path / "model.bin"
        code = main([
            "train", str(corpus), "--states", "2", "--minibatch", "10",
            "--large-batch", "10", "--passes", "1", "--heldout-fraction", "0.2",
            "--metrics-out", str(out), "--model-out", str(model_out),
        ])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert str(out) in err and "step,pass,seconds" in err and ",".join(METRICS_HEADER) in err
        assert out.read_bytes() == old
        assert not model_out.exists()

    def test_metrics_file_under_matching_header_appends(self, tmp_path):
        corpus = tmp_path / "corpus.txt"
        sample_corpus(corpus)
        out = tmp_path / "metrics.csv"
        out.write_text(",".join(METRICS_HEADER) + "\r\n", encoding="utf-8")
        code = main([
            "train", str(corpus), "--states", "2", "--minibatch", "10",
            "--large-batch", "10", "--passes", "1", "--heldout-fraction", "0.2",
            "--metrics-out", str(out),
        ])
        assert code == 0
        assert len(parse_metrics(out)) == 2
        assert out.read_text(encoding="utf-8").count("step,pass") == 1

    def test_heldout_file_scores_like_eval(self, tmp_path, capsys):
        corpus, heldout = tmp_path / "corpus.txt", tmp_path / "heldout.txt"
        sample_corpus(corpus)
        sample_corpus(heldout, n=10, seed=1)
        model_out, metrics_out = tmp_path / "model.bin", tmp_path / "metrics.csv"
        code = main([
            "train", str(corpus), "--states", "3", "--minibatch", "5", "--large-batch", "5",
            "--passes", "2", "--heldout", str(heldout),
            "--model-out", str(model_out), "--metrics-out", str(metrics_out),
        ])
        assert code == 0
        final_ll = parse_metrics(metrics_out)[-1][4]
        capsys.readouterr()
        assert main(["eval", str(model_out), str(heldout)]) == 0
        assert capsys.readouterr().out == f"{final_ll:.6f}\n"

    def test_negative_split_seed_is_config_error(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        sample_corpus(corpus)
        code = main(["train", str(corpus), "--passes", "0", "--heldout-fraction", "0.2",
                     "--split-seed", "-1"])
        assert code == EXIT_CONFIG
        assert "seed must be an integer >= 0, got -1" in capsys.readouterr().err

    def test_heldout_file_and_fraction_conflict(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        sample_corpus(corpus)
        model_out = tmp_path / "model.bin"
        code = main([
            "train", str(corpus), "--passes", "0", "--heldout", str(corpus),
            "--heldout-fraction", "0.2", "--model-out", str(model_out),
        ])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "--heldout " in err and "--heldout-fraction" in err
        assert not model_out.exists()

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        sample_corpus(corpus)
        code = main(["train", str(corpus), "--kappa", "0.2"])
        assert code == EXIT_CONFIG
        assert "kappa" in capsys.readouterr().err
        cfg_file = tmp_path / "run.json"
        for field, value in [("kappa", "0.8"), ("eval_every_steps", 1.5), ("num_states", True)]:
            cfg_file.write_text(json.dumps({field: value}))
            assert main(["train", str(corpus), "--config", str(cfg_file)]) == EXIT_CONFIG
            assert field in capsys.readouterr().err
        for fraction in ("1.5", "0", "-0.1"):
            code = main(["train", str(corpus), "--passes", "0", "--heldout-fraction", fraction])
            assert code == EXIT_CONFIG
            assert "--heldout-fraction" in capsys.readouterr().err

    def test_threads_flag_is_an_argparse_error(self, tmp_path, capsys):
        # a config file may still name threads; the flag is gone
        corpus = tmp_path / "corpus.txt"
        sample_corpus(corpus)
        with pytest.raises(SystemExit) as exc:
            main(["train", str(corpus), "--passes", "0", "--threads", "2"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    def test_numerical_error_exit_cites_step(self, tmp_path, capsys, monkeypatch):
        from scvihmm.engine import NumericalError

        def explode(corpus, config, heldout=None):
            raise NumericalError("non-finite local statistics (step 5)")

        monkeypatch.setattr("scvihmm.cli.train", explode)
        corpus = tmp_path / "corpus.txt"
        sample_corpus(corpus)
        code = main(["train", str(corpus), "--passes", "1"])
        assert code == EXIT_NUMERICAL
        assert "step 5" in capsys.readouterr().err

    def test_missing_corpus_is_data_error(self, tmp_path, capsys):
        code = main(["train", str(tmp_path / "nope.txt")])
        assert code == EXIT_DATA

    def test_refused_vocab_file_is_data_error(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        sample_corpus(corpus)
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("w0\nw1\nw0\nw2\n", encoding="utf-8")
        model_out = tmp_path / "model.bin"
        code = main([
            "train", str(corpus), "--vocab", str(vocab), "--passes", "0",
            "--model-out", str(model_out),
        ])
        assert code == EXIT_DATA
        assert "line 3: word 'w0' repeats" in capsys.readouterr().err
        assert not model_out.exists()


class TestEval:
    def _train_model(self, tmp_path, algo="scvi-hmm"):
        corpus = tmp_path / "corpus.txt"
        sample_corpus(corpus, seed=5)
        model_out = tmp_path / "model.bin"
        code = main([
            "train", str(corpus), "--algo", algo, "--states", "3",
            "--minibatch", "6", "--large-batch", "6", "--passes", "2",
            "--model-out", str(model_out),
        ])
        assert code == 0
        return corpus, model_out

    def test_prints_single_real_and_is_deterministic(self, tmp_path, capsys):
        corpus, model_out = self._train_model(tmp_path)
        assert main(["eval", str(model_out), str(corpus)]) == 0
        first = capsys.readouterr().out
        assert main(["eval", str(model_out), str(corpus)]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert len(first.strip().splitlines()) == 1
        float(first.strip())

    def test_uniform_single_state_closed_form(self, tmp_path, capsys):
        vocab = Vocabulary(f"w{i}" for i in range(99))
        model = TrainedModel(
            RunConfig(num_states=1),
            GlobalStats(np.zeros((2, 1)), np.zeros((1, 100))),
            vocab=vocab,
        )
        model_out = tmp_path / "uniform.bin"
        save_model(model, model_out)
        corpus = tmp_path / "eval.txt"
        write_corpus(corpus, ["w0 w1 w2", "w3 w4"])
        assert main(["eval", str(model_out), str(corpus)]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "-4.605170"

    def test_hdp_model_evaluates_without_extra_flags(self, tmp_path, capsys):
        corpus, model_out = self._train_model(tmp_path, algo="scvi-hdphmm")
        assert main(["eval", str(model_out), str(corpus)]) == 0
        float(capsys.readouterr().out.strip())

    def test_vocab_mismatch_names_sizes(self, tmp_path, capsys):
        corpus, model_out = self._train_model(tmp_path)
        small_vocab = tmp_path / "vocab.txt"
        small_vocab.write_text("w0\nw1\n", encoding="utf-8")
        code = main(["eval", str(model_out), str(corpus), "--vocab", str(small_vocab)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert "9" in err and "3" in err

    def test_vocab_words_must_match_the_checkpoint(self, tmp_path, capsys):
        corpus, model_out = self._train_model(tmp_path)
        assert main(["eval", str(model_out), str(corpus)]) == 0
        own_score = capsys.readouterr().out
        words = list(load_model(model_out).vocab.words)
        same, reversed_ = tmp_path / "same.txt", tmp_path / "reversed.txt"
        same.write_text("".join(w + "\n" for w in words), encoding="utf-8")
        reversed_.write_text("".join(w + "\n" for w in words[::-1]), encoding="utf-8")
        assert main(["eval", str(model_out), str(corpus), "--vocab", str(same)]) == 0
        assert capsys.readouterr().out == own_score
        code = main(["eval", str(model_out), str(corpus), "--vocab", str(reversed_)])
        assert code == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == "" and str(reversed_) in captured.err

    def test_checkpoint_without_words_needs_vocab(self, tmp_path, capsys):
        # a vocabulary built from the corpus would read "c" as word 1, which is "a"
        vocab = Vocabulary(["a", "b", "c"])
        stats = GlobalStats(np.array([[3.0, 1.0], [4.0, 1.0], [1.0, 5.0]]),
                            np.array([[0.0, 6.0, 2.0, 0.0], [0.0, 0.0, 1.0, 7.0]]))
        corpus = tmp_path / "eval.txt"
        write_corpus(corpus, ["c b a a a", "a a b"])
        vocab_file, with_words, wordless = tmp_path / "vocab.txt", tmp_path / "a.bin", tmp_path / "b.bin"
        vocab.save(vocab_file)
        save_model(TrainedModel(RunConfig(num_states=2), stats, vocab=vocab), with_words)
        save_model(TrainedModel(RunConfig(num_states=2), stats), wordless)
        assert main(["eval", str(with_words), str(corpus)]) == 0
        own_score = capsys.readouterr().out
        assert main(["eval", str(wordless), str(corpus)]) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == "" and "--vocab" in captured.err
        assert main(["eval", str(wordless), str(corpus), "--vocab", str(vocab_file)]) == 0
        assert capsys.readouterr().out == own_score

    def test_eval_metrics_row(self, tmp_path, capsys):
        corpus, model_out = self._train_model(tmp_path)
        out = tmp_path / "eval.csv"
        assert main(["eval", str(model_out), str(corpus), "--metrics-out", str(out)]) == 0
        printed = float(capsys.readouterr().out.strip())
        rows = parse_metrics(out)
        assert len(rows) == 1
        assert rows[0][2] == 0.0 and rows[0][3] > 0.0
        assert abs(rows[0][4] - printed) < 1e-6

    def test_eval_metrics_file_under_other_header_left_alone(self, tmp_path, capsys):
        corpus, model_out = self._train_model(tmp_path)
        out = tmp_path / "eval.csv"
        old = b"step,pass,seconds,heldout_ll,k_effective\r\n"
        out.write_bytes(old)
        assert main(["eval", str(model_out), str(corpus), "--metrics-out", str(out)]) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == "" and str(out) in captured.err
        assert out.read_bytes() == old

    @pytest.mark.parametrize("case", sorted(TAMPERED_HEADERS))
    def test_header_contradicting_config_exit_code(self, tmp_path, capsys, case):
        corpus, model_out = self._train_model(tmp_path, algo="svi-hmm")
        field, edit = TAMPERED_HEADERS[case]
        resign_header(model_out, edit)
        assert main(["eval", str(model_out), str(corpus)]) == EXIT_FORMAT
        assert field in capsys.readouterr().err

    def test_corrupted_model_exit_codes(self, tmp_path, capsys):
        _, model_out = self._train_model(tmp_path)
        blob = bytearray(model_out.read_bytes())

        flipped = tmp_path / "flipped.bin"
        corrupted = bytearray(blob)
        corrupted[len(blob) - 100] ^= 0x20
        flipped.write_bytes(bytes(corrupted))
        assert main(["eval", str(flipped), "x"]) == EXIT_CHECKSUM

        short = tmp_path / "short.bin"
        short.write_bytes(bytes(blob[:-50]))
        assert main(["eval", str(short), "x"]) == EXIT_TRUNCATED

        versioned = tmp_path / "versioned.bin"
        corrupted = bytearray(blob)
        corrupted[4] = 9
        versioned.write_bytes(bytes(corrupted))
        assert main(["eval", str(versioned), "x"]) == EXIT_VERSION

        nonmodel = tmp_path / "nonmodel.bin"
        nonmodel.write_bytes(b"XYZW" + bytes(blob[4:]))
        assert main(["eval", str(nonmodel), "x"]) == EXIT_FORMAT
        nonmodel.write_bytes(b"XY")
        assert main(["eval", str(nonmodel), "x"]) == EXIT_FORMAT
        capsys.readouterr()


class TestGenerate:
    def _spec(self, tmp_path, **overrides):
        data = dict(num_states=3, vocab_size=10, seq_count=40,
                    min_length=5, max_length=12, seed=2)
        data.update(overrides)
        data = {k: v for k, v in data.items() if v is not None}  # None drops a field
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(data), encoding="utf-8")
        return spec

    def test_writes_corpus_and_vocab(self, tmp_path):
        spec = self._spec(tmp_path)
        out = tmp_path / "corpus.txt"
        vocab_out = tmp_path / "vocab.txt"
        code = main(["generate", "--spec", str(spec), "--out", str(out),
                     "--vocab-out", str(vocab_out)])
        assert code == 0
        lines = out.read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == 40
        assert all(5 <= len(line.split()) <= 12 for line in lines)
        assert len(vocab_out.read_text(encoding="utf-8").strip().splitlines()) == 10

    def test_inline_json_spec_matches_file_spec(self, tmp_path):
        data = dict(num_states=3, vocab_size=10, seq_count=40,
                    min_length=5, max_length=12, seed=2)
        from_file = tmp_path / "a.txt"
        inline = tmp_path / "b.txt"
        assert main(["generate", "--spec", str(self._spec(tmp_path)),
                     "--out", str(from_file)]) == 0
        assert main(["generate", "--spec", json.dumps(data),
                     "--out", str(inline)]) == 0
        assert inline.read_bytes() == from_file.read_bytes()

    def test_deterministic(self, tmp_path):
        spec = self._spec(tmp_path)
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert main(["generate", "--spec", str(spec), "--out", str(a)]) == 0
        assert main(["generate", "--spec", str(spec), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_heldout_split(self, tmp_path, capsys):
        spec = self._spec(tmp_path, seq_count=50)
        out, held = tmp_path / "train.txt", tmp_path / "held.txt"
        code = main(["generate", "--spec", str(spec), "--out", str(out),
                     "--heldout-out", str(held), "--heldout-fraction", "0.2"])
        assert code == 0
        n_train = len(out.read_text(encoding="utf-8").strip().splitlines())
        n_held = len(held.read_text(encoding="utf-8").strip().splitlines())
        assert (n_train, n_held) == (40, 10)
        code = main(["generate", "--spec", str(spec), "--out", str(out),
                     "--heldout-out", str(held), "--heldout-fraction", "1.5"])
        assert code == EXIT_CONFIG
        assert "--heldout-fraction" in capsys.readouterr().err

    def test_negative_split_seed_is_config_error(self, tmp_path, capsys):
        out, held = tmp_path / "train.txt", tmp_path / "held.txt"
        code = main(["generate", "--spec", str(self._spec(tmp_path)), "--out", str(out),
                     "--heldout-out", str(held), "--split-seed", "-1"])
        assert code == EXIT_CONFIG
        assert "seed must be an integer >= 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("inline, text, message", [
        (True, '{"num_states": 3,', "spec is not valid JSON"),
        (False, "{bad", "spec is not valid JSON"),
        (False, "[3, 10]", "spec must hold a JSON object"),
        (True, " [3, 10]", "spec must hold a JSON object"),
    ], ids=["inline-invalid-json", "file-invalid-json", "file-not-an-object", "inline-not-an-object"])
    def test_spec_must_be_a_json_object(self, tmp_path, capsys, inline, text, message):
        spec = tmp_path / "spec.json"
        spec.write_text(text, encoding="utf-8")
        code = main(["generate", "--spec", text if inline else str(spec),
                     "--out", str(tmp_path / "c.txt")])
        assert code == EXIT_CONFIG
        assert message in capsys.readouterr().err

    def test_unknown_spec_field(self, tmp_path, capsys):
        spec = self._spec(tmp_path, bogus=1)
        code = main(["generate", "--spec", str(spec), "--out", str(tmp_path / "c.txt")])
        assert code == EXIT_CONFIG
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("seq_count", 0), ("num_states", "2"), ("max_length", None),
        ("num_states", 0), ("vocab_size", 0),
        ("seed", -1), ("max_length", 4.5), ("self_persistence", -0.5),
        ("self_persistence", 1.5), ("self_persistence", "0.5"),
    ])
    def test_invalid_spec_value(self, tmp_path, capsys, field, value):
        spec = self._spec(tmp_path, **{field: value})
        code = main(["generate", "--spec", str(spec), "--out", str(tmp_path / "c.txt")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "spec" in err and field in err


class TestInstalledEntryPoint:
    def test_console_script_runs(self, tmp_path):
        exe = shutil.which("scvihmm")
        if exe is None:
            pytest.skip("console script not on PATH")
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(dict(
            num_states=2, vocab_size=5, seq_count=10, min_length=3, max_length=6
        )), encoding="utf-8")
        out = tmp_path / "corpus.txt"
        result = subprocess.run(
            [exe, "generate", "--spec", str(spec), "--out", str(out)],
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert out.exists()
