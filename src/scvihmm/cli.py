"""Command-line surface: training, evaluation, synthetic generation.

Config precedence is flags over config file over built-in defaults.
Failure classes map to distinct exit codes so callers can tell a bad flag
from a corrupted checkpoint.
"""

import argparse
import csv
import inspect
import json
import os
import sys
import time

from .config import ALGORITHMS, ConfigError, RunConfig, _is_int, _is_real
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

METRICS_HEADER = ["step", "pass", "train_seconds", "eval_seconds", "heldout_ll", "k_effective"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_DATA = 4
EXIT_FORMAT = 5
EXIT_VERSION = 6
EXIT_TRUNCATED = 7
EXIT_CHECKSUM = 8

# (exception type, exit code), each subclass before its base
_EXIT_CODES = (
    (ConfigError, EXIT_CONFIG),
    (NumericalError, EXIT_NUMERICAL),
    (ChecksumError, EXIT_CHECKSUM),
    (TruncatedFileError, EXIT_TRUNCATED),
    (VersionMismatchError, EXIT_VERSION),
    (ModelFormatError, EXIT_FORMAT),
    (OSError, EXIT_DATA),
    (ValueError, EXIT_DATA),
)

# spec value checks by the annotation of its SyntheticSpec.random parameter
_SPEC_TYPES = {int: (_is_int, "an integer"), float: (_is_real, "a finite number")}

# (flag, config field, argparse keywords); flags override the --config file
_CONFIG_FLAGS = [
    ("--algo", "algorithm", dict(choices=ALGORITHMS)),
    ("--states", "num_states", dict(type=int)),
    ("--kappa", "kappa", dict(type=float)),
    ("--minibatch", "minibatch_size", dict(type=int)),
    ("--large-batch", "large_batch_size", dict(type=int)),
    ("--passes", "passes", dict(type=int)),
    ("--budget-seconds", "budget_seconds", dict(type=float)),
    ("--trans-prior", "trans_prior", dict(type=float)),
    ("--emit-prior", "emit_prior", dict(type=float)),
    ("--alpha-shape", "alpha_prior_shape", dict(type=float)),
    ("--alpha-rate", "alpha_prior_rate", dict(type=float)),
    ("--gamma-shape", "gamma_prior_shape", dict(type=float)),
    ("--gamma-rate", "gamma_prior_rate", dict(type=float)),
    ("--seed", "seed", dict(type=int)),
    ("--batch-mode", "batch_mode", dict(choices=("shuffle", "iid"))),
    ("--eval-every", "eval_every_steps", dict(type=int)),
]


def _add_config_flags(p):
    p.add_argument("--config", help="JSON file with config fields (flags win)")
    for flag, field, keywords in _CONFIG_FLAGS:
        p.add_argument(flag, dest=field, **keywords)


def build_config(args) -> RunConfig:
    data = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}")
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
    for _, field, _ in _CONFIG_FLAGS:
        value = getattr(args, field)
        if value is not None:
            data[field] = value
    return RunConfig.from_dict(data).validate()


def _train_fraction(args) -> float:
    """The train share of a ``--heldout-fraction`` split."""
    if not 0.0 < args.heldout_fraction < 1.0:
        raise ConfigError(f"--heldout-fraction must lie in (0, 1), got {args.heldout_fraction}")
    return 1.0 - args.heldout_fraction


def has_metrics_header(path) -> bool:
    """Whether ``path`` already starts with ``METRICS_HEADER``; False if absent or empty.

    A non-empty file under any other header raises ``ValueError``: rows
    appended to it would not match its columns.
    """
    if not os.path.exists(path) or os.path.getsize(path) == 0:
        return False
    with open(path, encoding="utf-8", newline="") as fh:
        header = next(csv.reader(fh), [])
    if header != METRICS_HEADER:
        raise ValueError(
            f"metrics file {path} has header {','.join(header)!r}, "
            f"expected {','.join(METRICS_HEADER)!r}"
        )
    return True


def append_metrics(path, records):
    fresh = not has_metrics_header(path)
    with open(path, "a", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        if fresh:
            writer.writerow(METRICS_HEADER)
        for m in records:
            writer.writerow([
                m.step, m.pass_index, f"{m.train_seconds:.6f}", f"{m.eval_seconds:.6f}",
                repr(m.heldout_ll), m.k_effective,
            ])


def cmd_train(args) -> int:
    config = build_config(args)
    if args.heldout and args.heldout_fraction is not None:
        raise ConfigError("--heldout and --heldout-fraction both set; give one")
    if args.metrics_out:
        has_metrics_header(args.metrics_out)
    vocab = Vocabulary.load(args.vocab) if args.vocab else None
    corpus = load_corpus(args.corpus, vocab=vocab)
    heldout = None
    if args.heldout:
        heldout = load_corpus(args.heldout, vocab=corpus.vocab)
    elif args.heldout_fraction is not None:
        corpus, heldout = split(corpus, _train_fraction(args), args.split_seed)
    model, metrics = train(corpus, config, heldout)
    if args.model_out:
        save_model(model, args.model_out)
    if args.metrics_out:
        append_metrics(args.metrics_out, metrics)
    return EXIT_OK


def cmd_eval(args) -> int:
    if args.metrics_out:
        has_metrics_header(args.metrics_out)
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
        append_metrics(args.metrics_out, [MetricRecord(0, 0, 0.0, seconds, ll, k_effective(model))])
    return EXIT_OK


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
    params = inspect.signature(SyntheticSpec.random).parameters
    unknown = set(data) - set(params)
    if unknown:
        raise ConfigError(f"unknown spec fields: {sorted(unknown)}")
    missing = {name for name, p in params.items() if p.default is p.empty} - set(data)
    if missing:
        raise ConfigError(f"spec missing fields: {sorted(missing)}")
    for name, value in data.items():
        ok, want = _SPEC_TYPES[params[name].annotation]
        if not ok(value):
            raise ConfigError(f"spec field {name} must be {want}, got {value!r}")
    try:
        spec = SyntheticSpec.random(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid spec: {exc}") from None
    corpus, _ = generate_synthetic(spec)
    if args.heldout_out:
        train_c, test_c = split(corpus, _train_fraction(args), args.split_seed)
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
    except tuple(kind for kind, _ in _EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
