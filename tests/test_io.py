import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from flowseg import FlowField, FormatError, Frame, read_flow_file, read_frame, write_flow_file, write_frame
from flowseg.io import read_ppm, write_ppm


def small_dims():
    return st.tuples(st.integers(1, 8), st.integers(1, 8))


@given(
    dims=small_dims(),
    seed=st.integers(0, 2**32 - 1),
)
def test_flow_roundtrip_bitwise(tmp_path_factory, dims, seed):
    h, w = dims
    rng = np.random.default_rng(seed)
    field = FlowField(
        u=(rng.standard_normal((h, w)) * 100).astype(np.float32),
        v=(rng.standard_normal((h, w)) * 100).astype(np.float32),
    )
    path = tmp_path_factory.mktemp("flow") / "f.flo"
    write_flow_file(field, path)
    back = read_flow_file(path)
    assert back.width == w and back.height == h
    assert np.array_equal(back.u.view(np.uint32), field.u.view(np.uint32))
    assert np.array_equal(back.v.view(np.uint32), field.v.view(np.uint32))


def test_flow_file_byte_layout(tmp_path):
    # byte-level oracle built independently with struct: magic, dims, (u, v)
    field = FlowField(u=np.array([[1.0]], np.float32), v=np.array([[-2.0]], np.float32))
    path = tmp_path / "one.flo"
    write_flow_file(field, path)
    expected = (
        struct.pack("<f", 202021.25)
        + struct.pack("<ii", 1, 1)
        + struct.pack("<ff", 1.0, -2.0)
    )
    assert path.read_bytes() == expected
    assert len(expected) == 20


def test_flow_roundtrip_keeps_invalid_pixels_invalid(tmp_path):
    valid = np.ones((4, 5), bool)
    valid[2, 3] = False
    field = FlowField(u=np.full((4, 5), 1.5, np.float32), v=np.full((4, 5), -0.5, np.float32), valid=valid)
    path = tmp_path / "holes.flo"
    write_flow_file(field, path)
    back = read_flow_file(path)
    assert np.array_equal(back.valid, valid)
    assert np.array_equal(back.u, field.u) and np.array_equal(back.v, field.v)


def test_flow_bad_magic(tmp_path):
    path = tmp_path / "bad.flo"
    path.write_bytes(struct.pack("<f", 0.0) + struct.pack("<ii", 1, 1) + b"\0" * 8)
    with pytest.raises(FormatError):
        read_flow_file(path)


def test_flow_truncated_payload(tmp_path):
    path = tmp_path / "short.flo"
    path.write_bytes(struct.pack("<f", 202021.25) + struct.pack("<ii", 4, 4) + b"\0" * 16)
    with pytest.raises(FormatError):
        read_flow_file(path)


def test_flow_truncated_header(tmp_path):
    path = tmp_path / "tiny.flo"
    path.write_bytes(struct.pack("<f", 202021.25))
    with pytest.raises(FormatError):
        read_flow_file(path)


def test_flow_unknown_sentinel_marks_invalid(tmp_path):
    path = tmp_path / "sent.flo"
    payload = struct.pack("<f", 202021.25) + struct.pack("<ii", 2, 1)
    payload += struct.pack("<ff", 1e10, 0.0) + struct.pack("<ff", 0.5, 0.25)
    path.write_bytes(payload)
    field = read_flow_file(path)
    assert not field.valid[0, 0] and field.valid[0, 1]
    assert field.u[0, 0] == 0.0 and field.v[0, 0] == 0.0
    assert field.u[0, 1] == np.float32(0.5)


def test_flowfield_zeroes_invalid_components():
    field = FlowField(
        u=np.ones((2, 2), np.float32),
        v=np.ones((2, 2), np.float32),
        valid=np.array([[True, False], [True, True]]),
    )
    assert field.u[0, 1] == 0.0 and field.v[0, 1] == 0.0
    assert field.u[0, 0] == 1.0


def test_frame_roundtrip_2x2(tmp_path):
    frame = Frame(np.array([[0, 128], [255, 7]], np.uint8))
    path = tmp_path / "f.pgm"
    write_frame(frame, path)
    assert np.array_equal(read_frame(path).data, frame.data)


@given(dims=small_dims(), seed=st.integers(0, 2**32 - 1))
def test_frame_roundtrip_random(tmp_path_factory, dims, seed):
    h, w = dims
    rng = np.random.default_rng(seed)
    frame = Frame(rng.integers(0, 256, (h, w), dtype=np.uint8))
    path = tmp_path_factory.mktemp("pgm") / "f.pgm"
    write_frame(frame, path)
    assert np.array_equal(read_frame(path).data, frame.data)


def test_frame_rejects_ascii_graymap(tmp_path):
    path = tmp_path / "ascii.pgm"
    path.write_bytes(b"P2\n2 2\n255\n0 1 2 3\n")
    with pytest.raises(FormatError):
        read_frame(path)


def test_frame_rejects_16bit_maxval(tmp_path):
    path = tmp_path / "deep.pgm"
    path.write_bytes(b"P5\n2 2\n65535\n" + b"\0" * 8)
    with pytest.raises(FormatError):
        read_frame(path)


def test_frame_header_comments(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# a comment\n2 # inline\n1\n255\n\x01\x02")
    frame = read_frame(path)
    assert frame.width == 2 and frame.height == 1
    assert list(frame.data[0]) == [1, 2]


def test_frame_truncated_raster(tmp_path):
    path = tmp_path / "t.pgm"
    path.write_bytes(b"P5\n4 4\n255\n\x00\x01")
    with pytest.raises(FormatError):
        read_frame(path)


def test_ppm_roundtrip(tmp_path):
    rgb = np.arange(24, dtype=np.uint8).reshape(2, 4, 3)
    path = tmp_path / "o.ppm"
    write_ppm(rgb, path)
    assert np.array_equal(read_ppm(path), rgb)
