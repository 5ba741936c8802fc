"""Snapshot binary format: round-trips and corruption handling."""

import struct

import numpy as np
import pytest

from diffocean.errors import (
    SnapshotError,
    SnapshotMagicError,
    SnapshotShapeError,
    SnapshotTruncatedError,
    SnapshotVersionError,
)
from diffocean.grid import make_channel_grid
from diffocean.snapshot import read_snapshot, write_snapshot
from helpers import random_state


def states_bitwise_equal(a, b):
    if np.float64(a.time).tobytes() != np.float64(b.time).tobytes():
        return False
    return all(
        np.asarray(getattr(a, n).values).tobytes()
        == np.asarray(getattr(b, n).values).tobytes()
        for n in ("u", "v", "eta", "T")
    )


def test_round_trip_bitwise(tmp_path):
    g = make_channel_grid(12, 10, 1e6, 1e6, 100.0, -1e-4, 2e-11)
    rng = np.random.default_rng(0)
    s = random_state(g, rng)
    s.time = 12345.5
    path = tmp_path / "state.dosn"
    write_snapshot(s, path)
    back = read_snapshot(path, grid=g)
    assert states_bitwise_equal(s, back)
    assert back.u.staggering.value == "u-face"


def test_round_trip_many_random_states(tmp_path):
    rng = np.random.default_rng(1)
    for i in range(25):
        nx = int(rng.integers(4, 20))
        ny = int(rng.integers(4, 20))
        g = make_channel_grid(nx, ny, 1e6, 1e6, 100.0, 0.0, 0.0)
        s = random_state(g, rng, amp=10.0 ** rng.integers(-6, 4))
        s.time = float(rng.random() * 1e7)
        path = tmp_path / f"s{i}.dosn"
        write_snapshot(s, path)
        assert states_bitwise_equal(s, read_snapshot(path))


def test_bad_magic(tmp_path):
    g = make_channel_grid(6, 6, 1e6, 1e6, 100.0, 0.0, 0.0)
    path = tmp_path / "bad.dosn"
    write_snapshot(random_state(g, np.random.default_rng(2)), path)
    data = bytearray(path.read_bytes())
    data[:4] = b"XXXX"
    path.write_bytes(bytes(data))
    with pytest.raises(SnapshotMagicError, match="bad magic"):
        read_snapshot(path)


def test_version_mismatch(tmp_path):
    g = make_channel_grid(6, 6, 1e6, 1e6, 100.0, 0.0, 0.0)
    path = tmp_path / "ver.dosn"
    write_snapshot(random_state(g, np.random.default_rng(3)), path)
    data = bytearray(path.read_bytes())
    data[4:8] = struct.pack("<I", 99)
    path.write_bytes(bytes(data))
    with pytest.raises(SnapshotVersionError, match="version 99"):
        read_snapshot(path)


def test_truncated_payload_names_byte_counts(tmp_path):
    g = make_channel_grid(6, 6, 1e6, 1e6, 100.0, 0.0, 0.0)
    path = tmp_path / "trunc.dosn"
    write_snapshot(random_state(g, np.random.default_rng(4)), path)
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    expected = 4 * 6 * 6 * 8
    with pytest.raises(
        SnapshotTruncatedError,
        match=f"expected {expected} bytes, found {expected - 8}",
    ):
        read_snapshot(path)


def test_trailing_bytes_after_the_payload_are_refused(tmp_path):
    g = make_channel_grid(6, 6, 1e6, 1e6, 100.0, 0.0, 0.0)
    path = tmp_path / "long.dosn"
    write_snapshot(random_state(g, np.random.default_rng(4)), path)
    path.write_bytes(path.read_bytes() + bytes(24))
    expected = 4 * 6 * 6 * 8
    with pytest.raises(
        SnapshotError, match=f"24 surplus bytes after the {expected}-byte payload"
    ):
        read_snapshot(path)


def test_grid_shape_mismatch(tmp_path):
    g = make_channel_grid(6, 6, 1e6, 1e6, 100.0, 0.0, 0.0)
    other = make_channel_grid(8, 6, 1e6, 1e6, 100.0, 0.0, 0.0)
    path = tmp_path / "shape.dosn"
    write_snapshot(random_state(g, np.random.default_rng(5)), path)
    with pytest.raises(SnapshotShapeError, match="does not match"):
        read_snapshot(path, grid=other)
    # without a grid argument the self-described shape is accepted
    read_snapshot(path)


def test_unexpected_field_names(tmp_path):
    g = make_channel_grid(6, 6, 1e6, 1e6, 100.0, 0.0, 0.0)
    path = tmp_path / "names.dosn"
    write_snapshot(random_state(g, np.random.default_rng(6)), path)
    data = bytearray(path.read_bytes())
    # first field name is "u" (length 1) right after the 20-byte fixed header
    assert data[24:25] == b"u"
    data[24:25] = b"q"
    path.write_bytes(bytes(data))
    with pytest.raises(SnapshotError, match="field names"):
        read_snapshot(path)


def test_empty_file(tmp_path):
    path = tmp_path / "empty.dosn"
    path.write_bytes(b"")
    with pytest.raises(SnapshotMagicError):
        read_snapshot(path)
