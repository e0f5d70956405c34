"""Bounds-checked reading and atomic writing of the binary containers."""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct

import numpy as np

from .errors import FormatError


class Reader:
    """Cursor over a container's bytes, past its 8-byte magic.  A short read
    raises `FormatError` naming the offset and the expected size."""

    def __init__(self, path, name: str, magic: bytes):
        with open(path, "rb") as fh:
            self.data = fh.read()
        if self.data[:8] != magic:
            raise FormatError(f"bad {name} magic {self.data[:8]!r}")
        self.name = name
        self.pos = 8

    def take(self, n_bytes: int, what: str) -> bytes:
        pos = self.pos
        if pos + n_bytes > len(self.data):
            raise FormatError(
                f"{self.name} truncated at byte {pos}: {what} needs "
                f"{n_bytes} bytes, {len(self.data) - pos} left")
        self.pos = pos + n_bytes
        return self.data[pos : pos + n_bytes]

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def array(self, dtype: str, shape, what: str) -> np.ndarray:
        """The next tensor, stored as `dtype`, as a float64 array."""
        raw = self.take(math.prod(shape) * np.dtype(dtype).itemsize, what)
        return np.frombuffer(raw, dtype=dtype).reshape(shape).astype(np.float64)

    def expect_end(self) -> None:
        if self.pos != len(self.data):
            raise FormatError(
                f"{self.name} has {len(self.data) - self.pos} trailing bytes")


@contextlib.contextmanager
def atomic_open(path):
    """Binary handle on a temp file next to `path`, moved onto `path` only
    if the block completes; on any error `path` is left untouched."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def write_model(path, magic: bytes, version: int, meta: dict, tensors,
                dtype: str) -> None:
    blob = json.dumps(meta).encode("utf-8")
    with atomic_open(path) as fh:
        fh.write(magic + struct.pack("<II", version, len(blob)) + blob)
        for t in tensors:
            fh.write(np.ascontiguousarray(t, dtype=dtype).tobytes())


def read_model(path, magic: bytes, version: int, name: str):
    """(JSON header, Reader at the first tensor) of a model container: 8-byte
    magic, u32 version, u32 header length, JSON header, little-endian tensors.
    The caller reads the tensors and then calls `expect_end`."""
    r = Reader(path, name, magic)
    got, blob_len = r.unpack("<II", "version and header length")
    if got != version:
        raise FormatError(f"{name} version {got}, expected {version}")
    try:
        return json.loads(r.take(blob_len, "JSON header").decode("utf-8")), r
    except ValueError as exc:   # bad UTF-8 or bad JSON
        raise FormatError(f"{name} header is not valid JSON: {exc}") from exc
