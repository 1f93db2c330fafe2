"""Binary container formats for epochs, raw recordings and model checkpoints.

Epoch container ("EEGB")
------------------------
Little-endian binary file::

    magic      4 bytes  b"EEGB"
    version    u32      1
    n_trials   u32
    n_channels u32
    n_samples  u32
    dtype      u32      0 = 32-bit IEEE float
    payload    n_trials * n_channels * n_samples floats, trial-major row-major

A sidecar JSON-lines file at ``<path>.jsonl`` holds one object per trial
with the trial-metadata fields.  Raw recordings reuse the same binary layout
with ``n_trials = 1``; their sidecar starts with a header line
``{"kind": "raw", "sample_rate": ..., "channel_names": [...]}`` followed by
one line per stimulus event.

Checkpoint container ("EEGC")
-----------------------------
    magic      4 bytes  b"EEGC"
    version    u32      1
    json_len   u32      followed by a UTF-8 JSON descriptor
    n_tensors  u32
    per tensor: name_len u32, name bytes, dtype u32 (0=f32, 1=f64),
                ndim u32, dims u32 * ndim, raw data

Round-trips are bitwise exact.
"""

from __future__ import annotations

import json
import math
import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import (
    BadMagicError,
    DataError,
    MetaMismatchError,
    TruncatedPayloadError,
    VersionMismatchError,
)

EPOCH_MAGIC = b"EEGB"
CKPT_MAGIC = b"EEGC"
FORMAT_VERSION = 1

_DTYPE_CODES = {0: np.float32, 1: np.float64}
_DTYPE_OF = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}


def sidecar_path(path: str | Path) -> Path:
    return Path(str(path) + ".jsonl")


def _bytes_left(fh) -> int:
    return os.fstat(fh.fileno()).st_size - fh.tell()


def _read_exact(fh, n: int, what: str) -> bytes:
    # a size is checked against the file before it is read, so a corrupt
    # header cannot ask for an allocation larger than the file itself
    left = _bytes_left(fh)
    if n > left:
        raise TruncatedPayloadError(f"file ends inside {what}: wanted {n} bytes, got {left}")
    return fh.read(n)


def _json_object(text: str | bytes, what: str) -> dict:
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError(f"{what} is not a JSON object: {obj!r}")
    return obj


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


def write_tensor_file(path: str | Path, tensor: np.ndarray, meta_lines: list[dict]) -> None:
    """Write an EEGB tensor plus its JSON-lines sidecar.

    ``tensor`` must be 3-d (trials x channels x samples), float32 or
    float64; the dtype is recorded in the header and survives the round
    trip bit for bit.  The old tensor is removed first and the new one
    renamed into place last, after its sidecar, so a write that fails
    partway leaves no tensor whose sidecar belongs to another write.
    """
    tensor = np.ascontiguousarray(tensor)
    if tensor.ndim != 3:
        raise DataError(f"epoch tensor must be 3-d, got shape {tensor.shape}")
    code = _DTYPE_OF.get(np.dtype(tensor.dtype.type))
    if code is None:
        raise DataError(f"tensor dtype must be float32 or float64, got {tensor.dtype}")
    header = EPOCH_MAGIC + struct.pack("<5I", FORMAT_VERSION, *tensor.shape, code)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.unlink(missing_ok=True)
    with _replacing(sidecar_path(path)) as fh:
        for line in meta_lines:
            fh.write((json.dumps(line, sort_keys=True) + "\n").encode("utf-8"))
    with _replacing(path) as fh:
        fh.write(header)
        fh.write(tensor)  # the contiguous buffer itself: the bytes of tobytes(), uncopied


def read_tensor_file(path: str | Path) -> tuple[np.ndarray, list[dict]]:
    """Read an EEGB tensor and its sidecar lines.

    Raises the distinct :mod:`neurodecode.errors` classes for bad magic,
    unsupported version, truncated payload and sidecar/tensor mismatch.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 4, "magic")
        if magic != EPOCH_MAGIC:
            raise BadMagicError(f"{path}: expected magic {EPOCH_MAGIC!r}, found {magic!r}")
        version, n_trials, n_channels, n_samples, dtype_code = struct.unpack(
            "<5I", _read_exact(fh, 20, "header")
        )
        if version != FORMAT_VERSION:
            raise VersionMismatchError(f"{path}: format version {version}, supported {FORMAT_VERSION}")
        if dtype_code not in _DTYPE_CODES:
            raise DataError(f"{path}: unknown dtype code {dtype_code}")
        dtype = _DTYPE_CODES[dtype_code]
        nbytes = n_trials * n_channels * n_samples * np.dtype(dtype).itemsize
        left = _bytes_left(fh)
        if left < nbytes:
            raise TruncatedPayloadError(f"{path}: payload holds {left} bytes, header promises {nbytes}")
        if left > nbytes:
            raise DataError(f"{path}: trailing bytes after payload")
        raw = fh.read(nbytes)
    tensor = np.frombuffer(raw, dtype=dtype).reshape(n_trials, n_channels, n_samples)

    side = sidecar_path(path)
    if not side.exists():
        raise DataError(f"missing sidecar metadata file: {side}")
    try:
        with open(side, "r", encoding="utf-8") as fh:
            lines = [_json_object(ln, "sidecar line") for ln in fh if ln.strip()]
    except ValueError as exc:  # also a line that is not UTF-8
        raise DataError(f"{side}: {exc}") from exc
    return tensor, lines


def check_meta_length(path: str | Path, n_trials: int, n_meta: int) -> None:
    if n_meta != n_trials:
        raise MetaMismatchError(
            f"{path}: tensor header declares {n_trials} trials but sidecar has {n_meta} records"
        )


def save_checkpoint(path: str | Path, descriptor: dict, tensors: dict[str, np.ndarray]) -> None:
    """Write an EEGC checkpoint: a JSON descriptor plus named tensors.

    The bytes go to ``<path>.tmp`` and replace ``path`` only once complete
    (see ``_replacing``).
    """
    blob = json.dumps(descriptor, sort_keys=True).encode("utf-8")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with _replacing(path) as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<2I", FORMAT_VERSION, len(blob)))
        fh.write(blob)
        fh.write(struct.pack("<I", len(tensors)))
        for name, arr in tensors.items():
            arr = np.ascontiguousarray(arr)
            if arr.dtype not in _DTYPE_OF:
                raise DataError(f"checkpoint tensor {name!r} has unsupported dtype {arr.dtype}")
            nb = name.encode("utf-8")
            fh.write(struct.pack("<I", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<2I", _DTYPE_OF[arr.dtype], arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())


def load_checkpoint(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    tensors: dict[str, np.ndarray] = {}
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 4, "magic")
        if magic != CKPT_MAGIC:
            raise BadMagicError(f"{path}: expected magic {CKPT_MAGIC!r}, found {magic!r}")
        version, json_len = struct.unpack("<2I", _read_exact(fh, 8, "header"))
        if version != FORMAT_VERSION:
            raise VersionMismatchError(f"{path}: format version {version}, supported {FORMAT_VERSION}")
        try:
            descriptor = _json_object(_read_exact(fh, json_len, "descriptor"), "descriptor")
            (n_tensors,) = struct.unpack("<I", _read_exact(fh, 4, "tensor count"))
            for _ in range(n_tensors):
                (name_len,) = struct.unpack("<I", _read_exact(fh, 4, "tensor name length"))
                name = _read_exact(fh, name_len, "tensor name").decode("utf-8")
                dtype_code, ndim = struct.unpack("<2I", _read_exact(fh, 8, "tensor header"))
                if dtype_code not in _DTYPE_CODES:
                    raise DataError(f"{path}: tensor {name!r} has unknown dtype code {dtype_code}")
                shape = struct.unpack(f"<{ndim}I", _read_exact(fh, 4 * ndim, "tensor dims"))
                dtype = np.dtype(_DTYPE_CODES[dtype_code])
                raw = _read_exact(fh, math.prod(shape) * dtype.itemsize, f"tensor {name!r} payload")
                tensors[name] = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
        except ValueError as exc:  # also a descriptor or tensor name that is not UTF-8
            raise DataError(f"{path}: {exc}") from exc
    return descriptor, tensors
