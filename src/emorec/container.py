"""Bounds-checked reading and atomic writing of the binary containers.

A container is an 8-byte magic, u32 version, u32 header length, a JSON
header and little-endian tensors.  `read_model` checks the header against a
schema spelled in Python: `int` (not a bool), `float` (finite; an int too),
`str`, `bool` and `None` match one JSON value; a set of strings, one of
them; a tuple, any of its alternatives; `[item]`, a list of items;
`{key: spec}`, an object with exactly these keys; `ByType({type: {key:
spec}})`, an object whose "type" picks its keys.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
from typing import NamedTuple

import numpy as np

from .errors import FormatError


class ByType(NamedTuple):
    """An object whose "type" string picks the schema of its other keys."""
    schemas: dict


def _fits(v, spec) -> bool:
    """Whether v is a value of the one-value spec."""
    if spec is float:
        return type(v) in (int, float) and math.isfinite(v)
    if type(spec) is set:
        return type(v) is str and v in spec
    return v is None if spec is None else type(v) is spec


def _problem(v, spec, path=""):
    """(path, message) for the first field of v that is missing, unknown or
    of another type than spec says, or None."""
    if type(spec) is tuple:
        found = [_problem(v, alt, path) for alt in spec]
        # the alternative of v's kind, e.g. the object of (None, {...}), goes
        # deepest, to the field of v that it missed
        return None if None in found else max(found, key=lambda p: len(p[0]))
    composite = type(spec) in (list, dict, ByType)
    if not (type(v) is (list if type(spec) is list else dict) if composite
            else _fits(v, spec)):
        return path, (f"needs {f'a valid {path}' if path else 'an object'}, "
                      f"got {json.dumps(v)[:40]}")
    if not composite:
        return None
    if type(spec) is list:
        exact = spec[0] in (int, str, bool)   # then an item of that type fits
        items = (_problem(x, spec[0], f"{path}[{i}]") for i, x in enumerate(v)
                 if not (exact and type(x) is spec[0]))
        return next(filter(None, items), None)
    if type(spec) is ByType:
        kinds = set(spec.schemas)
        spec = {"type": kinds, **(spec.schemas[v["type"]]
                                  if _fits(v.get("type"), kinds) else {})}
    for key in [*spec, *v]:
        field = f"{path}.{key}" if path else key
        if key not in spec:
            return field, f"has unknown field {field}"
        if key not in v:
            return field, f"needs field {field}"
        found = _problem(v[key], spec[key], field)
        if found:
            return found
    return None


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

    def array(self, dtype: str, shape, what: str) -> np.ndarray:
        """The next tensor, stored as `dtype`, as a float64 array; a shape
        numpy cannot hold, or a value that is not finite, is a FormatError."""
        if min(shape, default=0) < 0:
            raise FormatError(f"{self.name} {what} has shape {list(shape)}")
        raw = self.take(math.prod(shape) * np.dtype(dtype).itemsize, what)
        try:
            a = np.frombuffer(raw, dtype=dtype).reshape(shape).astype(np.float64)
        except ValueError as exc:   # an empty tensor with a huge dimension
            raise FormatError(f"{self.name} {what}: {exc}") from exc
        if not np.isfinite(a).all():
            raise FormatError(f"{self.name} {what} holds NaN or infinity")
        return a

    def expect_end(self) -> None:
        if self.pos != len(self.data):
            raise FormatError(
                f"{self.name} has {len(self.data) - self.pos} trailing bytes")


def write_model(path, magic: bytes, version: int, meta: dict, tensors,
                dtype: str) -> None:
    """Write a container to a temp file next to `path`, moved onto `path`
    only once complete; on any error `path` is left untouched."""
    blob = json.dumps(meta).encode("utf-8")
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(magic + struct.pack("<II", version, len(blob)) + blob)
            for t in tensors:
                fh.write(np.ascontiguousarray(t, dtype=dtype).tobytes())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def read_model(path, magic: bytes, version: int, name: str, schema: dict):
    """(JSON header, Reader at the first tensor) of a container whose header
    fits schema.  The caller reads the tensors and then calls `expect_end`."""
    r = Reader(path, name, magic)
    got, blob_len = struct.unpack("<II", r.take(8, "version and header length"))
    if got != version:
        raise FormatError(f"{name} version {got}, expected {version}")
    try:
        meta = json.loads(r.take(blob_len, "JSON header").decode("utf-8"))
    except ValueError as exc:   # bad UTF-8 or bad JSON
        raise FormatError(f"{name} header is not valid JSON: {exc}") from exc
    found = _problem(meta, schema)
    if found:
        raise FormatError(f"{name} header {found[1]}")
    return meta, r
