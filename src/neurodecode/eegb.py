"""Binary containers for epochs, raw recordings and model checkpoints.

Both formats share one framing, and one set of rules that holds on write
and on read.  A file starts with a 4-byte magic and a u32 version (1);
every integer is a little-endian u32.  Every tensor is native
little-endian float32 (dtype code 0) or float64 (code 1) in C order: a
writer given any other dtype raises a ``DataError`` naming the tensor,
and a reader rejects any other code.  Every byte is accounted for: a file
that ends before its header's promise is a ``TruncatedPayloadError``, and
a byte after the last field, a descriptor or name that is not UTF-8 JSON,
or a repeated tensor name is a ``DataError`` naming the file.  Round
trips are bitwise exact.

Epoch container, after b"EEGB" and the version::

    n_trials, n_channels, n_samples, dtype    u32 each
    payload    n_trials * n_channels * n_samples floats, trial-major

A sidecar JSON-lines file at ``<path>.jsonl`` holds one object per line:
one trial-metadata record per trial.  Raw recordings reuse the layout
with ``n_trials = 1``; their sidecar starts with a header line
``{"kind": "raw", "sample_rate": ..., "channel_names": [...]}`` followed
by one line per stimulus event.

Checkpoint container, after b"EEGC" and the version::

    json_len   u32, then a UTF-8 JSON descriptor of json_len bytes
    n_tensors  u32, then per tensor: name_len u32, name bytes,
               dtype u32, ndim u32, dims u32 * ndim, raw data
"""

from __future__ import annotations

import json
import math
import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import BadMagicError, DataError, TruncatedPayloadError, VersionMismatchError

EPOCH_MAGIC = b"EEGB"
CKPT_MAGIC = b"EEGC"
FORMAT_VERSION = 1

_DTYPES = (np.dtype("<f4"), np.dtype("<f8"))  # indexed by dtype code
_DTYPE_OF = {dtype: code for code, dtype in enumerate(_DTYPES)}


def sidecar_path(path: str | Path) -> Path:
    return Path(str(path) + ".jsonl")


def _json_object(text: str | bytes, what: str) -> dict:
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError(f"{what} is not a JSON object: {obj!r}")
    return obj


def _header(magic: bytes, *fields: int) -> bytes:
    return magic + struct.pack(f"<{1 + len(fields)}I", FORMAT_VERSION, *fields)


def _framed(arr: np.ndarray, what: str) -> tuple[np.ndarray, int]:
    """``arr`` as the C-order bytes a container stores, and its dtype code."""
    arr = np.asarray(arr, order="C")  # not ascontiguousarray, which makes a 0-d array 1-d
    if arr.dtype not in _DTYPE_OF:
        raise DataError(f"{what} must be native float32 or float64, got {arr.dtype}")
    return arr, _DTYPE_OF[arr.dtype]


@contextmanager
def _replacing(path: Path):
    """A binary handle on ``<path>.tmp``, renamed over ``path`` once the block
    completes, so ``path`` is never left half written; a block that raises
    removes the temp file and leaves ``path`` as it was."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class _Reader:
    """A container file read front to back.  Each size is checked against
    the bytes left before it is read, so a corrupt header cannot ask for an
    allocation larger than the file itself."""

    def __init__(self, fh, path: Path):
        self.fh, self.path = fh, path

    def take(self, n: int, what: str) -> bytes:
        left = os.fstat(self.fh.fileno()).st_size - self.fh.tell()
        if n > left:
            raise TruncatedPayloadError(
                f"{self.path}: file ends inside {what}: header promises {n} bytes, {left} left"
            )
        return self.fh.read(n)

    def u32(self, n: int, what: str) -> tuple[int, ...]:
        return struct.unpack(f"<{n}I", self.take(4 * n, what))

    def array(self, code: int, shape: tuple[int, ...], what: str) -> np.ndarray:
        """The ``shape`` tensor of dtype ``code`` stored next, viewing the bytes read."""
        if code >= len(_DTYPES):
            raise DataError(f"{self.path}: {what} has unknown dtype code {code}")
        raw = self.take(math.prod(shape) * _DTYPES[code].itemsize, f"{what} payload")
        return np.frombuffer(raw, dtype=_DTYPES[code]).reshape(shape)


@contextmanager
def _reading(path: Path, magic: bytes):
    """A ``_Reader`` past the checked magic and version; the block reads every byte left."""
    if not path.exists():
        raise DataError(f"no such file: {path}")
    with open(path, "rb") as fh:
        reader = _Reader(fh, path)
        found = reader.take(4, "magic")
        if found != magic:
            raise BadMagicError(f"{path}: expected magic {magic!r}, found {found!r}")
        (version,) = reader.u32(1, "version")
        if version != FORMAT_VERSION:
            raise VersionMismatchError(f"{path}: format version {version}, supported {FORMAT_VERSION}")
        try:
            yield reader
        except ValueError as exc:  # bad JSON or UTF-8, or more dims than numpy takes
            raise DataError(f"{path}: {exc}") from exc
        if fh.read(1):
            raise DataError(f"{path}: trailing bytes after the last field")


def write_tensor_file(path: str | Path, tensor: np.ndarray, meta_lines: list[dict]) -> None:
    """Write an EEGB tensor plus its JSON-lines sidecar.

    ``tensor`` must be 3-d (trials x channels x samples), native float32
    or float64; the dtype is recorded in the header and survives the round
    trip bit for bit.  The old tensor is removed first and the new one
    renamed into place last, after its sidecar, so a write that fails
    partway leaves no tensor whose sidecar belongs to another write.
    """
    tensor, code = _framed(tensor, "epoch tensor")
    if tensor.ndim != 3:
        raise DataError(f"epoch tensor must be 3-d, got shape {tensor.shape}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.unlink(missing_ok=True)
    with _replacing(sidecar_path(path)) as fh:
        for line in meta_lines:
            fh.write((json.dumps(line, sort_keys=True) + "\n").encode("utf-8"))
    with _replacing(path) as fh:
        fh.write(_header(EPOCH_MAGIC, *tensor.shape, code))
        fh.write(tensor)  # the contiguous buffer itself: the bytes of tobytes(), uncopied


def read_tensor_file(path: str | Path) -> tuple[np.ndarray, list[dict]]:
    """Read an EEGB tensor and its sidecar lines.

    Raises the distinct :mod:`neurodecode.errors` classes for bad magic,
    unsupported version and truncated payload; how many sidecar lines a
    file needs is its caller's rule.
    """
    path = Path(path)
    with _reading(path, EPOCH_MAGIC) as reader:
        *shape, code = reader.u32(4, "header")
        tensor = reader.array(code, tuple(shape), "tensor")
    side = sidecar_path(path)
    if not side.exists():
        raise DataError(f"missing sidecar metadata file: {side}")
    try:
        with open(side, "r", encoding="utf-8") as fh:
            lines = [_json_object(ln, "sidecar line") for ln in fh if ln.strip()]
    except ValueError as exc:  # also a line that is not UTF-8
        raise DataError(f"{side}: {exc}") from exc
    return tensor, lines


def save_checkpoint(path: str | Path, descriptor: dict, tensors: dict[str, np.ndarray]) -> None:
    """Write an EEGC checkpoint: a JSON descriptor plus named tensors.

    The bytes go to ``<path>.tmp`` and replace ``path`` only once complete
    (see ``_replacing``).
    """
    blob = json.dumps(descriptor, sort_keys=True).encode("utf-8")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with _replacing(path) as fh:
        fh.write(_header(CKPT_MAGIC, len(blob)))
        fh.write(blob)
        fh.write(struct.pack("<I", len(tensors)))
        for name, arr in tensors.items():
            arr, code = _framed(arr, f"checkpoint tensor {name!r}")
            nb = name.encode("utf-8")
            fh.write(struct.pack(f"<I{len(nb)}s", len(nb), nb))
            fh.write(struct.pack(f"<{2 + arr.ndim}I", code, arr.ndim, *arr.shape))
            fh.write(arr)


def load_checkpoint(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    path = Path(path)
    tensors: dict[str, np.ndarray] = {}
    with _reading(path, CKPT_MAGIC) as reader:
        (json_len,) = reader.u32(1, "descriptor length")
        descriptor = _json_object(reader.take(json_len, "descriptor"), "descriptor")
        (n_tensors,) = reader.u32(1, "tensor count")
        for _ in range(n_tensors):
            (name_len,) = reader.u32(1, "tensor name length")
            name = reader.take(name_len, "tensor name").decode("utf-8")
            if name in tensors:
                raise DataError(f"{path}: tensor {name!r} appears twice")
            code, ndim = reader.u32(2, f"tensor {name!r} header")
            shape = reader.u32(ndim, f"tensor {name!r} dims")
            tensors[name] = reader.array(code, shape, f"tensor {name!r}").copy()
    return descriptor, tensors
