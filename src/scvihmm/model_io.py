"""Self-describing binary model checkpoints.

Layout: 4 magic bytes, little-endian uint32 format version, a
length-prefixed UTF-8 JSON header (algorithm tag, dimensions, run
configuration, vocabulary words), then each matrix as row-major 64-bit
little-endian floats in a fixed order, and a trailing SHA-256 digest over
everything before it.  Raw float bytes give bit-exact round trips.

Every algorithm stores its expected counts ``trans_counts`` and
``token_stats``; the hierarchical model adds its stick posterior.  Format
1 stored Dirichlet posteriors for ``svi-hmm`` in the same shapes, so
reading them as counts would be silently wrong: only format 2 is read.

Error classification on load is structural first: the expected total size
is derived from the header, so a short file reports truncation rather
than the checksum mismatch it also implies; the digest is verified before
the matrices are interpreted.  The stored config is the one record of the
algorithm, the priors and the state count: it must validate, it alone
decides whether the stick arrays follow the counts, and the header's own
``algorithm`` and ``num_states`` must agree with it.
"""

import hashlib
import json
import os
import struct

import numpy as np

from .config import RunConfig
from .corpus import Vocabulary
from .engine import TrainedModel
from .hdp import HdpPosterior
from .special import BetaParams, GammaParams

MAGIC = b"SCVM"
FORMAT_VERSION = 2

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "ModelFormatError",
    "VersionMismatchError",
    "TruncatedFileError",
    "ChecksumError",
    "save_model",
    "load_model",
]


class ModelFormatError(ValueError):
    """The file is not a readable model checkpoint."""


class VersionMismatchError(ModelFormatError):
    """The checkpoint was written by an incompatible format version."""


class TruncatedFileError(ModelFormatError):
    """The file ends before the header-declared content does."""


class ChecksumError(ModelFormatError):
    """The trailing digest does not match the file contents."""


def _matrix_shapes(num_states: int, vocab_size: int, hdp: bool):
    k, v = num_states, vocab_size
    shapes = [("trans_counts", (k + 1, k)), ("token_stats", (k, v))]
    if hdp:
        shapes += [
            ("stick_u", (k,)),
            ("stick_v", (k,)),
            ("concentrations", (4,)),
            ("geo_alpha_pi", (k,)),
        ]
    return shapes


def _gather_arrays(model: TrainedModel) -> list:
    """The model's matrices in ``_matrix_shapes`` order."""
    arrays = [model.trans_counts, model.token_stats]
    if model.hdp is not None:
        post = model.hdp
        concentrations = np.array([post.alpha.a, post.alpha.b, post.gamma.a, post.gamma.b])
        arrays += [post.sticks.u, post.sticks.v, concentrations, post.geo_alpha_pi]
    return arrays


def save_model(model: TrainedModel, path):
    """Write ``model`` to ``path``, replacing any file there in one step.

    The bytes go to a temporary file in the same directory, which is
    synced and then renamed onto ``path``, and the directory is synced
    after the rename; an error or a crash before the rename leaves the
    file already at ``path`` as it was.
    """
    header = {
        "algorithm": model.algorithm,
        "num_states": model.num_states,
        "vocab_size": model.vocab_size,
        "config": model.config.to_dict(),
        "vocab_words": list(model.vocab.words) if model.vocab is not None else None,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    parts = [MAGIC, struct.pack("<I", FORMAT_VERSION)]
    parts.append(struct.pack("<I", len(header_bytes)))
    parts.append(header_bytes)
    shapes = _matrix_shapes(model.num_states, model.vocab_size, model.hdp is not None)
    for (name, shape), arr in zip(shapes, _gather_arrays(model), strict=True):
        arr = np.ascontiguousarray(arr, dtype="<f8")
        if arr.shape != shape:
            raise ValueError(f"matrix {name} has shape {arr.shape}, expected {shape}")
        parts.append(arr.tobytes())
    payload = b"".join(parts)
    tmp = f"{os.fspath(path)}.{os.urandom(6).hex()}.tmp"
    # "x" creates it with mode 0o666 under the umask, as "w" would create path itself
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(payload)
            fh.write(hashlib.sha256(payload).digest())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise
    # the rename itself is durable only once the directory is synced
    dir_fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def load_model(path) -> TrainedModel:
    with open(path, "rb") as fh:
        blob = fh.read()
    if not MAGIC.startswith(blob[:4]):
        raise ModelFormatError("bad magic bytes: not a model checkpoint")
    if len(blob) < 12:
        raise TruncatedFileError("file ends inside the fixed-size prefix")
    version = struct.unpack_from("<I", blob, 4)[0]
    if version != FORMAT_VERSION:
        raise VersionMismatchError(
            f"checkpoint format version {version}, reader supports {FORMAT_VERSION}"
        )
    header_len = struct.unpack_from("<I", blob, 8)[0]
    body_start = 12 + header_len
    if len(blob) < body_start:
        raise TruncatedFileError("file ends inside the header")
    try:
        header = json.loads(blob[12:body_start].decode("utf-8"))
        config = RunConfig.from_dict(header["config"]).validate()
        vocab_size = header["vocab_size"]
        vocab_words = header.get("vocab_words")
    except (ValueError, KeyError, TypeError) as exc:
        raise ModelFormatError(f"unreadable header: {exc}") from None
    for name in ("algorithm", "num_states"):
        if header.get(name) != getattr(config, name):
            stored = getattr(config, name)
            raise ModelFormatError(f"header {name} {header.get(name)!r} contradicts config {stored!r}")
    if type(vocab_size) is not int or vocab_size < 1:
        raise ModelFormatError(f"header vocab_size {vocab_size!r} is not a positive integer")
    if vocab_words is not None and not (
        isinstance(vocab_words, list) and all(isinstance(w, str) for w in vocab_words)
    ):
        raise ModelFormatError("header vocab_words is not a list of strings")
    shapes = _matrix_shapes(config.num_states, vocab_size, config.hierarchical)
    body_len = sum(8 * int(np.prod(shape)) for _, shape in shapes)
    expected = body_start + body_len + 32
    if len(blob) < expected:
        raise TruncatedFileError(
            f"file is {len(blob)} bytes, header implies {expected}"
        )
    if len(blob) > expected:
        raise ModelFormatError(f"{len(blob) - expected} trailing bytes after checksum")
    digest = hashlib.sha256(blob[:-32]).digest()
    if digest != blob[-32:]:
        raise ChecksumError("stored digest does not match file contents")

    arrays = {}
    offset = body_start
    for name, shape in shapes:
        n = 8 * int(np.prod(shape))
        arrays[name] = (
            np.frombuffer(blob, dtype="<f8", count=int(np.prod(shape)), offset=offset)
            .reshape(shape)
            .copy()
        )
        offset += n

    try:
        vocab = Vocabulary(vocab_words) if vocab_words is not None else None
        hdp = None
        if config.hierarchical:
            a_al, b_al, a_ga, b_ga = arrays["concentrations"]
            hdp = HdpPosterior(
                BetaParams(arrays["stick_u"], arrays["stick_v"]),
                GammaParams(a_al, b_al),
                GammaParams(a_ga, b_ga),
                arrays["geo_alpha_pi"],
            )
        return TrainedModel(config, arrays["trans_counts"], arrays["token_stats"], hdp, vocab)
    except ValueError as exc:
        raise ModelFormatError(f"invalid checkpoint contents: {exc}") from None
