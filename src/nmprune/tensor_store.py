"""Binary tensor container and a CSV debug format.

Container layout: an 8-byte little-endian unsigned header length, a UTF-8
JSON header mapping entry names to ``{"dtype", "shape", "offset", "nbytes"}``,
then a raw row-major payload region. Offsets are relative to the start of
the payload region. Only float32 ("f32") and uint8 ("u8") entries exist.
"""

from __future__ import annotations

import json
import math
import os
import uuid
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, InvariantError, IoError, ShapeError

_TAG_TO_DTYPE = {"f32": np.dtype("<f4"), "u8": np.dtype("u1")}
_DTYPE_TO_TAG = {np.dtype(np.float32): "f32", np.dtype(np.uint8): "u8"}


def _check_entry(name, arr) -> np.ndarray:
    if not isinstance(name, str) or not name:
        raise InvariantError(f"entry names must be non-empty strings, got {name!r}")
    arr = np.asarray(arr)
    if arr.dtype not in _DTYPE_TO_TAG:
        raise InvariantError(
            f"entry {name!r} has dtype {arr.dtype}; only float32 and uint8 are stored"
        )
    return arr


@dataclass
class TensorBundle:
    """Named float32/uint8 tensors destined for one container file.

    Treated as immutable after construction; safe to share across threads.
    """

    entries: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        self.entries = {name: _check_entry(name, arr) for name, arr in self.entries.items()}

    def __getitem__(self, name) -> np.ndarray:
        return self.entries[name]

    def __contains__(self, name) -> bool:
        return name in self.entries

    def __len__(self) -> int:
        return len(self.entries)


def _reject_duplicate_keys(pairs):
    seen = {}
    for key, value in pairs:
        if key in seen:
            raise FormatError(f"duplicate entry name {key!r} in container header")
        seen[key] = value
    return seen


def load_bundle(path) -> TensorBundle:
    """Read a container file back into a bundle, bit-exactly."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 8:
        raise FormatError("file too short to hold the header length")
    header_len = int.from_bytes(blob[:8], "little")
    if len(blob) < 8 + header_len:
        raise FormatError("declared header length exceeds file size")
    try:
        header = json.loads(
            blob[8 : 8 + header_len].decode("utf-8"),
            object_pairs_hook=_reject_duplicate_keys,
        )
    except FormatError:
        raise
    except (UnicodeDecodeError, ValueError) as exc:
        raise FormatError(f"malformed container header: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError("container header must be a JSON object")

    payload = blob[8 + header_len :]
    entries = {}
    for name, meta in header.items():
        if not name:
            raise FormatError("container header has an empty entry name")
        if not isinstance(meta, dict):
            raise FormatError(f"entry {name!r}: header record must be an object")
        try:
            tag = meta["dtype"]
            shape = meta["shape"]
            offset = meta["offset"]
            nbytes = meta["nbytes"]
        except KeyError as exc:
            raise FormatError(f"entry {name!r}: missing header field {exc}") from exc
        dtype = _TAG_TO_DTYPE.get(tag)
        if dtype is None:
            raise FormatError(f"entry {name!r}: unknown dtype tag {tag!r}")
        if (
            not isinstance(shape, list)
            or not all(isinstance(d, int) and d >= 0 for d in shape)
        ):
            raise FormatError(f"entry {name!r}: shape must be a list of non-negative ints")
        if not isinstance(offset, int) or not isinstance(nbytes, int) or offset < 0 or nbytes < 0:
            raise FormatError(f"entry {name!r}: offset/nbytes must be non-negative ints")
        count = math.prod(shape)
        if nbytes != count * dtype.itemsize:
            raise FormatError(
                f"entry {name!r}: nbytes {nbytes} does not match shape {shape}"
            )
        if offset + nbytes > len(payload):
            raise FormatError(f"entry {name!r}: truncated payload")
        arr = np.frombuffer(payload, dtype=dtype, count=count, offset=offset)
        entries[name] = arr.reshape(shape).astype(dtype.newbyteorder("="), copy=True)
    return TensorBundle(entries)


def save_bundle(bundle: TensorBundle, path) -> None:
    """Write a bundle atomically (temp file + rename); byte-deterministic.

    The file gets the umask's default mode, like any other new file.
    """
    blobs = []
    header = {}
    offset = 0
    for name in sorted(bundle.entries):
        arr = _check_entry(name, bundle.entries[name])
        raw = np.ascontiguousarray(arr).astype(
            arr.dtype.newbyteorder("<"), copy=False
        ).tobytes()
        header[name] = {
            "dtype": _DTYPE_TO_TAG[arr.dtype],
            "shape": list(arr.shape),
            "offset": offset,
            "nbytes": len(raw),
        }
        blobs.append(raw)
        offset += len(raw)
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")

    directory = os.path.dirname(os.path.abspath(path))
    try:
        tmp_path = os.path.join(directory, f".nmprune-{uuid.uuid4().hex}")
        flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
        fd = os.open(tmp_path, flags, 0o666)
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(len(header_bytes).to_bytes(8, "little"))
                fh.write(header_bytes)
                for raw in blobs:
                    fh.write(raw)
            os.replace(tmp_path, path)
        except BaseException:
            os.unlink(tmp_path)
            raise
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def save_csv_matrix(matrix, path) -> None:
    """Write one matrix as comma-separated decimals, one row per line."""
    arr = np.asarray(matrix)
    if arr.ndim != 2:
        raise ShapeError(f"csv export needs a 2-D matrix, got shape {arr.shape}")
    try:
        # %.9g round-trips any float32 value exactly
        np.savetxt(path, arr.astype(np.float32), fmt="%.9g", delimiter=",")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def load_csv_matrix(path) -> np.ndarray:
    """Read a headerless comma-separated matrix as float32."""
    try:
        arr = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    except ValueError as exc:
        raise FormatError(f"malformed csv matrix: {exc}") from exc
    return arr.astype(np.float32)
