"""Binary tensor container.

Container layout: an 8-byte little-endian unsigned header length, a UTF-8
JSON header mapping entry names to ``{"dtype", "shape", "offset", "nbytes"}``,
then a raw row-major payload region. Offsets are relative to the start of
the payload region. Only float32 ("f32") and uint8 ("u8") entries exist.

``load_bundle`` returns a Bundle, a mapping of names to arrays that reads
each entry each time it is asked for; ``save_bundle`` takes any mapping of
names to arrays, checks each name and dtype as it writes, and also takes a
BlockSource for an array it streams.
"""

from __future__ import annotations

import json
import math
import os
import uuid
from collections.abc import Mapping
from functools import partial
from itertools import chain

import numpy as np

from .errors import FormatError, NMPruneError
from .metrics import BlockSource, row_blocks

_TAG_TO_DTYPE = {"f32": np.dtype("<f4"), "u8": np.dtype("u1")}
_DTYPE_TO_TAG = {np.dtype(np.float32): "f32", np.dtype(np.uint8): "u8"}


def _check_entry(name, entry) -> BlockSource:
    if not isinstance(name, str) or not name:
        raise NMPruneError(f"entry names must be non-empty strings, got {name!r}")
    if not isinstance(entry, BlockSource):
        arr = np.asarray(entry)
        entry = BlockSource(arr.dtype, arr.shape, [arr])
    dtype = np.dtype(entry.dtype)
    if dtype not in _DTYPE_TO_TAG:
        raise NMPruneError(f"entry {name!r} has dtype {dtype}; only float32 and uint8 are stored")
    return entry._replace(dtype=dtype)


def _payload(name, source: BlockSource, nbytes: int):
    """The source's blocks as little-endian bytes, refused unless each has the entry's
    trailing shape and together they hold ``nbytes``."""
    for block in source.blocks:
        raw = np.ascontiguousarray(block, dtype=source.dtype.newbyteorder("<"))
        nbytes -= raw.nbytes
        if nbytes < 0 or raw.shape[1:] != tuple(source.shape[1:]):
            break
        yield raw.data
    else:
        if not nbytes:
            return
    raise NMPruneError(f"entry {name!r}: row blocks do not fill its shape exactly")


def _is_count(value) -> bool:
    # type(), not isinstance(): JSON true and false load as bool, an int subclass
    return type(value) is int and value >= 0


def _reject_duplicate_keys(pairs):
    seen = {}
    for key, value in pairs:
        if key in seen:
            raise FormatError(f"duplicate entry name {key!r} in container header")
        seen[key] = value
    return seen


def _identity(st: os.stat_result) -> tuple:
    """What tells one version of a file from another: device, inode, size and mtime."""
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


class Bundle(Mapping):
    """The entries of a container file whose header load_bundle has checked.

    Each index reads the entry's payload, ``rows`` streams it, and the Bundle
    keeps nothing but the header's records: only the caller keeps an entry.
    Every read first checks that the file is still the one whose header was
    checked (same device, inode, size and mtime) and refuses it otherwise.
    """

    def __init__(self, path, stamp: tuple, records: dict):
        self._path, self._stamp = path, stamp
        self._records = records  # name -> (file dtype, shape, file offset, nbytes)

    def __getitem__(self, name) -> np.ndarray:
        dtype, shape, _, nbytes = self._records[name]
        arr = np.empty(shape, dtype=dtype)
        with self._open(name) as fh:
            if fh.readinto(arr.data) != nbytes:
                raise FormatError(f"entry {name!r}: truncated payload")
        return arr.astype(dtype.newbyteorder("="), copy=False)

    def __contains__(self, name) -> bool:
        return name in self._records

    def __iter__(self):
        return iter(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def rows(self, name) -> BlockSource:
        """Entry ``name`` as the BlockSource of its row blocks (metrics.row_blocks),
        read from the file only as they are iterated, each into one reused buffer.
        The blocks can be iterated again: every pass reopens the file and checks it."""
        dtype, shape, _, _ = self._records[name]
        return BlockSource(dtype.newbyteorder("="), shape, _Passes(self._stream, name))

    def _open(self, name):
        """The file, at entry ``name``'s payload, unless it changed since the header was checked."""
        _, _, offset, _ = self._records[name]
        fh = open(self._path, "rb")
        if _identity(os.fstat(fh.fileno())) != self._stamp:
            fh.close()
            raise FormatError(f"entry {name!r}: the file changed after its header was checked")
        fh.seek(offset)
        return fh

    def _stream(self, name):
        dtype, shape, _, _ = self._records[name]
        blocks = row_blocks(shape[0], math.prod(shape[1:]))
        buf = np.empty((blocks[0].stop if blocks else 0, *shape[1:]), dtype=dtype)
        with self._open(name) as fh:
            for rows in blocks:
                block = buf[: rows.stop - rows.start]
                if fh.readinto(block.data) != block.nbytes:
                    raise FormatError(f"entry {name!r}: truncated payload")
                yield block.astype(dtype.newbyteorder("="), copy=False)


class _Passes(partial):
    """A partial of an iterator's maker, iterated as a fresh iterator each time."""
    def __iter__(self):
        return self()


def load_bundle(path) -> Bundle:
    """Check a container file's header and the extent of every entry, then
    return its entries as a Bundle, which reads each one bit-exactly on demand."""
    with open(path, "rb") as fh:
        st = os.fstat(fh.fileno())
        size = st.st_size
        head = fh.read(8)
        if len(head) < 8:
            raise FormatError("file too short to hold the header length")
        header_len = int.from_bytes(head, "little")
        if size < 8 + header_len:
            raise FormatError("declared header length exceeds file size")
        try:
            header = json.loads(
                fh.read(header_len).decode("utf-8"),
                object_pairs_hook=_reject_duplicate_keys,
            )
        except (UnicodeDecodeError, ValueError) as exc:
            raise FormatError(f"malformed container header: {exc}") from exc
        if not isinstance(header, dict):
            raise FormatError("container header must be a JSON object")

        payload_start = 8 + header_len
        records = {}
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
            if not isinstance(shape, list) or not all(_is_count(d) for d in shape):
                raise FormatError(f"entry {name!r}: shape must be a list of non-negative ints")
            if not _is_count(offset) or not _is_count(nbytes):
                raise FormatError(f"entry {name!r}: offset/nbytes must be non-negative ints")
            if nbytes != math.prod(shape) * dtype.itemsize:
                raise FormatError(
                    f"entry {name!r}: nbytes {nbytes} does not match shape {shape}"
                )
            if payload_start + offset + nbytes > size:
                raise FormatError(f"entry {name!r}: truncated payload")
            records[name] = (dtype, tuple(shape), payload_start + offset, nbytes)
    return Bundle(path, _identity(st), records)


def write_atomic(path, chunks) -> None:
    """Write byte chunks to a new file in path's directory, then rename it
    over path; on failure the temporary file is removed.

    The file gets the umask's default mode, like any other new file.
    """
    directory = os.path.dirname(os.path.abspath(path))
    try:
        tmp_path = os.path.join(directory, f".nmprune-{uuid.uuid4().hex}")
        flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
        fd = os.open(tmp_path, flags, 0o666)
        try:
            with os.fdopen(fd, "wb") as fh:
                for chunk in chunks:
                    fh.write(chunk)
            os.replace(tmp_path, path)
        except BaseException:
            os.unlink(tmp_path)
            raise
    except OSError as exc:  # the reason alone: the temporary name differs on every run
        raise NMPruneError(f"cannot write {path}: {exc.strerror or exc}") from exc


def save_bundle(entries: dict, path) -> None:
    """Write named float32/uint8 arrays or BlockSources atomically; byte-deterministic."""
    sources = sorted((name, _check_entry(name, entry)) for name, entry in entries.items())
    header, offset = {}, 0
    for name, source in sources:
        nbytes = math.prod(source.shape) * source.dtype.itemsize
        header[name] = {"dtype": _DTYPE_TO_TAG[source.dtype], "shape": list(source.shape),
                        "offset": offset, "nbytes": nbytes}
        offset += nbytes
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    payload = (chunk for name, source in sources
               for chunk in _payload(name, source, header[name]["nbytes"]))
    write_atomic(path, chain([len(header_bytes).to_bytes(8, "little"), header_bytes], payload))
