"""Bit-exact binary snapshots of model states.

Layout (all integers and reals little-endian regardless of host):

    magic    4 bytes  b"DOSN"
    version  uint32   currently 1
    nx       uint32
    ny       uint32
    nfields  uint32
    per field: name_len uint32, name utf-8 bytes
    time     float64
    payload  per field, in header order: nx*ny float64, row-major

Write-then-read round-trips bitwise for every field; readers validate the
magic, version, grid shape and a finite model time before touching the
payload, and refuse a payload shorter or longer than the header declares.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .autodiff import unbox
from .dyncore import FIELDS, ModelState, has_tracer
from .errors import (
    DomainError,
    SnapshotMagicError,
    SnapshotShapeError,
    SnapshotTruncatedError,
    SnapshotVersionError,
    SnapshotError,
)
from .grid import Field, GridSpec

MAGIC = b"DOSN"
VERSION = 1


def write_snapshot(state: ModelState, path) -> None:
    """Serialize a state; the file is self-describing. DomainError for a
    flow-only state: a snapshot holds all four fields, T included."""
    if not has_tracer(state):
        raise DomainError(
            "a flow-only state carries no tracer T to write (T is Field(None))"
        )
    arrays = {}
    shape = None
    for name in FIELDS:
        a = np.ascontiguousarray(np.asarray(unbox(getattr(state, name).values), dtype="<f8"))
        if shape is None:
            shape = a.shape
        elif a.shape != shape:
            raise SnapshotShapeError(
                f"field '{name}' has shape {a.shape}, expected {shape}"
            )
        arrays[name] = a
    nx, ny = shape
    parts = [MAGIC, struct.pack("<IIII", VERSION, nx, ny, len(FIELDS))]
    for name in FIELDS:
        encoded = name.encode("utf-8")
        parts.append(struct.pack("<I", len(encoded)))
        parts.append(encoded)
    parts.append(struct.pack("<d", float(state.time)))
    for name in FIELDS:
        parts.append(arrays[name].tobytes(order="C"))
    with open(path, "wb") as handle:
        handle.write(b"".join(parts))


def read_snapshot(path, grid: GridSpec | None = None) -> ModelState:
    """Read a state back; validates magic, version, and (optionally) the grid."""
    with open(path, "rb") as handle:
        data = handle.read()
    if len(data) < 4 or data[:4] != MAGIC:
        raise SnapshotMagicError(
            f"{path}: bad magic {data[:4]!r}, expected {MAGIC!r}"
        )
    offset = 4
    version, nx, ny, nfields = _unpack(data, "<IIII", offset, path)
    offset += 16
    if version != VERSION:
        raise SnapshotVersionError(
            f"{path}: format version {version} not supported (expected {VERSION})"
        )
    names = []
    for _ in range(nfields):
        (name_len,) = _unpack(data, "<I", offset, path)
        offset += 4
        if offset + name_len > len(data):
            raise SnapshotTruncatedError(
                f"{path}: truncated field name (need {name_len} bytes at "
                f"offset {offset}, file has {len(data)})"
            )
        try:
            names.append(data[offset : offset + name_len].decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise SnapshotError(
                f"{path}: field name at offset {offset} is not UTF-8"
            ) from exc
        offset += name_len
    (time,) = _unpack(data, "<d", offset, path)
    if not math.isfinite(time):
        raise SnapshotError(f"{path}: model time {time} at offset {offset} is not finite")
    offset += 8

    expected_names = list(FIELDS)
    if names != expected_names:
        raise SnapshotError(
            f"{path}: field names {names} do not match the model state "
            f"{expected_names}"
        )
    if grid is not None and (nx, ny) != grid.shape:
        raise SnapshotShapeError(
            f"{path}: snapshot grid {(nx, ny)} does not match expected "
            f"{grid.shape}"
        )

    count = nx * ny
    payload_bytes = nfields * count * 8
    found = len(data) - offset
    if found < payload_bytes:
        raise SnapshotTruncatedError(
            f"{path}: truncated payload: expected {payload_bytes} bytes, "
            f"found {found}"
        )
    if found > payload_bytes:
        raise SnapshotError(
            f"{path}: {found - payload_bytes} surplus bytes after the "
            f"{payload_bytes}-byte payload"
        )
    fields = {}
    for name, stag in FIELDS.items():
        a = np.frombuffer(
            data, dtype="<f8", count=count, offset=offset
        ).reshape(nx, ny)
        offset += count * 8
        fields[name] = Field(np.ascontiguousarray(a), stag)
    return ModelState(time=time, **fields)


def _unpack(data, fmt, offset, path):
    size = struct.calcsize(fmt)
    if offset + size > len(data):
        raise SnapshotTruncatedError(
            f"{path}: truncated header (need {size} bytes at offset {offset}, "
            f"file has {len(data)})"
        )
    return struct.unpack_from(fmt, data, offset)
