"""Frame and flow-field containers plus their binary file formats.

Frames are binary portable graymaps (P5, maxval 255). Flow fields use the
little-endian Middlebury-style layout: float32 magic 202021.25, int32 width,
int32 height, then row-major interleaved (u, v) float32 pairs; an invalid
pixel is written as the unknown-flow marker ``UNKNOWN_FLOW`` in both
components.
"""

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import FormatError, InputError

FLOW_MAGIC = 202021.25
# Middlebury convention: |component| above this marks unknown flow.
UNKNOWN_FLOW_THRESHOLD = 1e9
UNKNOWN_FLOW = 1e10


@dataclass(eq=False)
class Frame:
    """A single 8-bit grayscale video frame, row-major. Data of another
    type than uint8 or bool must hold whole numbers in 0..255, which the
    cast to uint8 keeps; anything else is an InputError, not a wrapped,
    truncated or zeroed pixel."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.ndim != 2 or arr.size == 0:
            raise InputError("frame data must be a non-empty 2-D array")
        if arr.dtype not in (np.uint8, np.bool_):
            # NaN fails every comparison, and an infinity the range
            if not ((arr >= 0) & (arr <= 255) & (np.floor(arr) == arr)).all():
                raise InputError("frame data must be whole numbers in 0..255")
        self.data = np.ascontiguousarray(arr, dtype=np.uint8)

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[0]


@dataclass(eq=False)
class FlowField:
    """Per-pixel 2-D velocity field in pixels/frame.

    Invalid pixels (textureless or unknown) carry ``valid=False`` and have
    u = v = 0, so downstream thresholding never sees garbage values.
    """

    u: np.ndarray
    v: np.ndarray
    valid: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        u = np.ascontiguousarray(self.u, dtype=np.float32)
        v = np.ascontiguousarray(self.v, dtype=np.float32)
        if u.ndim != 2 or u.shape != v.shape or u.size == 0:
            raise InputError("flow components must be equal-shaped 2-D arrays")
        if self.valid is None:
            valid = np.ones(u.shape, dtype=bool)
        else:
            valid = np.ascontiguousarray(self.valid, dtype=bool)
            if valid.shape != u.shape:
                raise InputError("flow validity mask shape mismatch")
        if not valid.all():
            u = u.copy()
            v = v.copy()
            u[~valid] = 0.0
            v[~valid] = 0.0
        self.u, self.v, self.valid = u, v, valid

    @property
    def width(self) -> int:
        return self.u.shape[1]

    @property
    def height(self) -> int:
        return self.u.shape[0]


def _parse_pnm_header(buf: bytes, expected_magic: bytes):
    """Return ((width, height, maxval), raster_offset) for a P5/P6 buffer."""
    if buf[:2] != expected_magic:
        raise FormatError(
            f"not a {expected_magic.decode()} file (magic {buf[:2]!r})"
        )
    tokens = []
    i = 2
    while len(tokens) < 3:
        while i < len(buf) and buf[i : i + 1].isspace():
            i += 1
        if i < len(buf) and buf[i : i + 1] == b"#":
            while i < len(buf) and buf[i : i + 1] != b"\n":
                i += 1
            continue
        j = i
        while j < len(buf) and not buf[j : j + 1].isspace() and buf[j : j + 1] != b"#":
            j += 1
        if j == i:
            raise FormatError("truncated header")
        tokens.append(buf[i:j])
        i = j
    if i >= len(buf) or not buf[i : i + 1].isspace():
        raise FormatError("missing whitespace after maxval")
    i += 1
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError as exc:
        raise FormatError(f"non-numeric header token: {exc}") from exc
    if width < 1 or height < 1:
        raise FormatError(f"bad dimensions {width}x{height}")
    if not 1 <= maxval <= 255:
        raise FormatError(f"maxval {maxval} unsupported (only 8-bit)")
    return (width, height, maxval), i


def _read_pnm(path, magic: bytes, channels: int) -> np.ndarray:
    """A P5 (1 channel) or P6 (3) raster as (h, w, channels) uint8; errors name the file."""
    buf = Path(path).read_bytes()
    try:
        (width, height, _), offset = _parse_pnm_header(buf, magic)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None
    size = width * height * channels
    raster = buf[offset : offset + size]
    if len(raster) < size:
        raise FormatError(f"{path}: truncated raster")
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width, channels)


def read_frame(path) -> Frame:
    return Frame(_read_pnm(path, b"P5", 1)[:, :, 0])


def write_frame(frame: Frame, path) -> None:
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (frame.width, frame.height))
        fh.write(frame.data)


def read_ppm(path) -> np.ndarray:
    """Read a binary P6 pixmap as an (h, w, 3) uint8 array."""
    return _read_pnm(path, b"P6", 3)


def write_ppm(rgb: np.ndarray, path) -> None:
    rgb = np.ascontiguousarray(rgb, dtype=np.uint8)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise InputError("P6 payload must be an (h, w, 3) array")
    with open(path, "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (rgb.shape[1], rgb.shape[0]))
        fh.write(rgb)


def read_flow_file(path) -> FlowField:
    buf = Path(path).read_bytes()
    if len(buf) < 12:
        raise FormatError("truncated flow header")
    (magic,) = struct.unpack("<f", buf[:4])
    if magic != np.float32(FLOW_MAGIC):
        raise FormatError(f"bad flow magic {magic!r}")
    width, height = struct.unpack("<ii", buf[4:12])
    if width < 1 or height < 1:
        raise FormatError(f"bad flow dimensions {width}x{height}")
    need = 12 + 8 * width * height
    if len(buf) < need:
        raise FormatError(
            f"truncated flow payload ({len(buf)} bytes, expected {need})"
        )
    pairs = np.frombuffer(buf, dtype="<f4", count=2 * width * height, offset=12)
    pairs = pairs.reshape(height, width, 2)
    u = pairs[..., 0].copy()
    v = pairs[..., 1].copy()
    bad = (
        ~np.isfinite(u)
        | ~np.isfinite(v)
        | (np.abs(u) > UNKNOWN_FLOW_THRESHOLD)
        | (np.abs(v) > UNKNOWN_FLOW_THRESHOLD)
    )
    return FlowField(u=u, v=v, valid=~bad)


def write_flow_file(flow: FlowField, path) -> None:
    pairs = np.empty((flow.height, flow.width, 2), dtype="<f4")
    pairs[..., 0] = flow.u
    pairs[..., 1] = flow.v
    pairs[~flow.valid] = UNKNOWN_FLOW
    with open(path, "wb") as fh:
        fh.write(struct.pack("<f", FLOW_MAGIC))
        fh.write(struct.pack("<ii", flow.width, flow.height))
        fh.write(pairs.tobytes())
