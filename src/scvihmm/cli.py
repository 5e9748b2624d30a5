"""Command-line surface: training, evaluation, synthetic generation.

Config precedence is flags over config file over built-in defaults; the
thread count additionally falls back to the SCVIHMM_THREADS environment
variable before the default of 1.  Failure classes map to distinct exit
codes so callers can tell a bad flag from a corrupted checkpoint.
"""

import argparse
import csv
import json
import os
import sys
import time

from .config import ALGORITHMS, ConfigError, RunConfig
from .corpus import (
    SyntheticSpec,
    Vocabulary,
    generate_synthetic,
    load_corpus,
    save_corpus,
    split,
)
from .engine import (
    MetricRecord,
    NumericalError,
    k_effective,
    predictive_log_likelihood,
    train,
)
from .model_io import (
    ChecksumError,
    ModelFormatError,
    TruncatedFileError,
    VersionMismatchError,
    load_model,
    save_model,
)

METRICS_HEADER = ["step", "pass", "seconds", "heldout_ll", "k_effective"]
THREADS_ENV = "SCVIHMM_THREADS"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_DATA = 4
EXIT_FORMAT = 5
EXIT_VERSION = 6
EXIT_TRUNCATED = 7
EXIT_CHECKSUM = 8

# (flag destination, config field)
_CONFIG_FLAGS = [
    ("algo", "algorithm"),
    ("states", "num_states"),
    ("kappa", "kappa"),
    ("minibatch", "minibatch_size"),
    ("large_batch", "large_batch_size"),
    ("passes", "passes"),
    ("budget_seconds", "budget_seconds"),
    ("trans_prior", "trans_prior"),
    ("emit_prior", "emit_prior"),
    ("alpha_shape", "alpha_prior_shape"),
    ("alpha_rate", "alpha_prior_rate"),
    ("gamma_shape", "gamma_prior_shape"),
    ("gamma_rate", "gamma_prior_rate"),
    ("seed", "seed"),
    ("batch_mode", "batch_mode"),
    ("eval_every", "eval_every_steps"),
    ("threads", "threads"),
]


def _add_config_flags(p):
    p.add_argument("--config", help="JSON file with config fields (flags win)")
    p.add_argument("--algo", choices=ALGORITHMS)
    p.add_argument("--states", type=int)
    p.add_argument("--kappa", type=float)
    p.add_argument("--minibatch", type=int)
    p.add_argument("--large-batch", dest="large_batch", type=int)
    p.add_argument("--passes", type=int)
    p.add_argument("--budget-seconds", dest="budget_seconds", type=float)
    p.add_argument("--trans-prior", dest="trans_prior", type=float)
    p.add_argument("--emit-prior", dest="emit_prior", type=float)
    p.add_argument("--alpha-shape", dest="alpha_shape", type=float)
    p.add_argument("--alpha-rate", dest="alpha_rate", type=float)
    p.add_argument("--gamma-shape", dest="gamma_shape", type=float)
    p.add_argument("--gamma-rate", dest="gamma_rate", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--batch-mode", dest="batch_mode", choices=("shuffle", "iid"))
    p.add_argument("--eval-every", dest="eval_every", type=int)
    p.add_argument("--threads", type=int)


def build_config(args) -> RunConfig:
    data = RunConfig().to_dict()
    file_fields = set()
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                file_data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}")
        if not isinstance(file_data, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(file_data) - set(data)
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        data.update(file_data)
        file_fields = set(file_data)
    if (
        args.threads is None
        and "threads" not in file_fields
        and os.environ.get(THREADS_ENV)
    ):
        try:
            data["threads"] = int(os.environ[THREADS_ENV])
        except ValueError:
            raise ConfigError(
                f"{THREADS_ENV} must be an integer, got {os.environ[THREADS_ENV]!r}"
            )
    for dest, field in _CONFIG_FLAGS:
        value = getattr(args, dest)
        if value is not None:
            data[field] = value
    config = RunConfig.from_dict(data)
    config.validate()
    return config


def append_metrics(path, records):
    fresh = not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        if fresh:
            writer.writerow(METRICS_HEADER)
        for m in records:
            writer.writerow(
                [m.step, m.pass_index, f"{m.seconds:.6f}", repr(m.heldout_ll), m.k_effective]
            )


def cmd_train(args) -> int:
    config = build_config(args)
    vocab = Vocabulary.load(args.vocab) if args.vocab else None
    corpus = load_corpus(args.corpus, vocab=vocab)
    heldout = None
    if args.heldout:
        heldout = load_corpus(args.heldout, vocab=corpus.vocab)
    elif args.heldout_fraction:
        corpus, heldout = split(corpus, 1.0 - args.heldout_fraction, args.split_seed)
    model, metrics = train(corpus, config, heldout)
    if args.model_out:
        save_model(model, args.model_out)
    if args.metrics_out:
        append_metrics(args.metrics_out, metrics)
    return EXIT_OK


def cmd_eval(args) -> int:
    model = load_model(args.model)
    if args.vocab:
        vocab = Vocabulary.load(args.vocab)
    else:
        vocab = model.vocab
    corpus = load_corpus(args.corpus, vocab=vocab)
    if len(corpus.vocab) != model.vocab_size:
        raise ValueError(
            f"model vocabulary size {model.vocab_size} does not match "
            f"corpus vocabulary size {len(corpus.vocab)}"
        )
    started = time.perf_counter()
    ll = predictive_log_likelihood(model, corpus)
    print(f"{ll:.6f}")
    if args.metrics_out:
        seconds = time.perf_counter() - started
        append_metrics(args.metrics_out, [MetricRecord(0, 0, seconds, ll, k_effective(model))])
    return EXIT_OK


_SPEC_FIELDS = (
    "num_states", "vocab_size", "seq_count", "min_length", "max_length",
    "seed", "self_persistence",
)


def cmd_generate(args) -> int:
    try:
        if args.spec.lstrip().startswith("{"):
            data = json.loads(args.spec)
        else:
            with open(args.spec, encoding="utf-8") as fh:
                data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"spec is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ConfigError("spec must hold a JSON object")
    unknown = set(data) - set(_SPEC_FIELDS)
    if unknown:
        raise ConfigError(f"unknown spec fields: {sorted(unknown)}")
    missing = {"num_states", "vocab_size", "seq_count", "min_length", "max_length"} - set(data)
    if missing:
        raise ConfigError(f"spec missing fields: {sorted(missing)}")
    spec = SyntheticSpec.random(**data)
    corpus, _ = generate_synthetic(spec)
    if args.heldout_out:
        train_c, test_c = split(corpus, 1.0 - args.heldout_fraction, args.split_seed)
        save_corpus(train_c, args.out)
        save_corpus(test_c, args.heldout_out)
    else:
        save_corpus(corpus, args.out)
    if args.vocab_out:
        corpus.vocab.save(args.vocab_out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scvihmm",
        description="Stochastic collapsed variational inference for discrete sequence models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model on a token corpus")
    p_train.add_argument("corpus", help="training corpus, one sequence per line")
    _add_config_flags(p_train)
    p_train.add_argument("--vocab", help="frozen vocabulary file")
    p_train.add_argument("--heldout", help="held-out corpus for metrics")
    p_train.add_argument("--heldout-fraction", dest="heldout_fraction", type=float)
    p_train.add_argument("--split-seed", dest="split_seed", type=int, default=0)
    p_train.add_argument("--model-out", dest="model_out")
    p_train.add_argument("--metrics-out", dest="metrics_out")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="held-out per-time-step log likelihood")
    p_eval.add_argument("model", help="model checkpoint path")
    p_eval.add_argument("corpus", help="evaluation corpus")
    p_eval.add_argument("--vocab", help="vocabulary file (defaults to the checkpoint's)")
    p_eval.add_argument("--metrics-out", dest="metrics_out")
    p_eval.set_defaults(func=cmd_eval)

    p_gen = sub.add_parser("generate", help="sample a synthetic corpus")
    p_gen.add_argument("--spec", required=True,
                       help="generator settings: inline JSON or a path to a JSON file")
    p_gen.add_argument("--out", required=True, help="corpus output path")
    p_gen.add_argument("--vocab-out", dest="vocab_out")
    p_gen.add_argument("--heldout-out", dest="heldout_out")
    p_gen.add_argument("--heldout-fraction", dest="heldout_fraction", type=float, default=0.1)
    p_gen.add_argument("--split-seed", dest="split_seed", type=int, default=0)
    p_gen.set_defaults(func=cmd_generate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ChecksumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECKSUM
    except TruncatedFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRUNCATED
    except VersionMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERSION
    except ModelFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
