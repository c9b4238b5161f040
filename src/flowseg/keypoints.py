"""From a flow field to the initial segmentation map.

Pipeline: magnitude/orientation maps -> orientation quantization under a
magnitude threshold -> circular histogram peak detection -> 8-connected
grouping of same-bin keypoints.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .errors import InputError
from .io import FlowField

TWO_PI = 2.0 * np.pi
NONE_BIN = -1

DEFAULT_MAGNITUDE_THRESHOLD = 0.4
DEFAULT_BIN_COUNT = 8
DEFAULT_PEAK_MIN_FRACTION = 0.05
DEFAULT_MIN_GROUP_SIZE = 10

_STRUCT_8 = np.ones((3, 3), dtype=bool)


@dataclass(eq=False)
class MagOriMaps:
    """Per-pixel speed (px/frame) and direction in [0, 2pi)."""

    mag: np.ndarray
    ori: np.ndarray
    valid: np.ndarray


@dataclass(eq=False)
class QuantizedMap:
    """Per-pixel orientation bin (NONE_BIN where below threshold/invalid)."""

    bins: np.ndarray
    bin_count: int
    magnitude_threshold: float
    histogram: np.ndarray

    @property
    def width(self) -> int:
        return self.bins.shape[1]

    @property
    def height(self) -> int:
        return self.bins.shape[0]


@dataclass(eq=False)
class Group:
    """One spatially connected set of same-bin keypoints."""

    id: int
    bin: int
    x: np.ndarray
    y: np.ndarray
    vx: np.ndarray
    vy: np.ndarray
    clamped: np.ndarray

    @property
    def size(self) -> int:
        return self.x.size

    @property
    def centroid(self) -> tuple[float, float]:
        return float(self.x.mean()), float(self.y.mean())

    @property
    def mean_velocity(self) -> tuple[float, float]:
        return float(self.vx.mean()), float(self.vy.mean())

    def pixel_coords(self, width: int, height: int) -> tuple[np.ndarray, np.ndarray]:
        """Member positions rounded to in-bounds integer (row, col) pairs."""
        rows = np.clip(np.rint(self.y).astype(np.int64), 0, height - 1)
        cols = np.clip(np.rint(self.x).astype(np.int64), 0, width - 1)
        return rows, cols


@dataclass(eq=False)
class SegmentationMap:
    """All groups detected (or propagated) for one frame."""

    frame_index: int
    width: int
    height: int
    groups: list[Group] = field(default_factory=list)


def maps_identical(a: SegmentationMap, b: SegmentationMap) -> bool:
    """Bitwise equality of two maps (frame, dims, groups and member arrays)."""
    if (a.frame_index, a.width, a.height) != (b.frame_index, b.width, b.height):
        return False
    if len(a.groups) != len(b.groups):
        return False
    for ga, gb in zip(a.groups, b.groups):
        if (ga.id, ga.bin) != (gb.id, gb.bin):
            return False
        for fa, fb in ((ga.x, gb.x), (ga.y, gb.y), (ga.vx, gb.vx), (ga.vy, gb.vy)):
            if fa.shape != fb.shape or not np.array_equal(fa, fb):
                return False
        if not np.array_equal(ga.clamped, gb.clamped):
            return False
    return True


def magnitude_orientation(flow: FlowField) -> MagOriMaps:
    """Full-quadrant magnitude/orientation maps; zero vectors get angle 0."""
    u = flow.u.astype(np.float64)
    v = flow.v.astype(np.float64)
    mag = np.hypot(u, v)
    ori = np.mod(np.arctan2(v, u), TWO_PI)
    ori[ori >= TWO_PI] = 0.0  # guard against mod rounding to exactly 2pi
    ori[mag == 0.0] = 0.0
    return MagOriMaps(mag=mag, ori=ori, valid=flow.valid.copy())


def quantize(
    maps: MagOriMaps,
    magnitude_threshold: float = DEFAULT_MAGNITUDE_THRESHOLD,
    bin_count: int = DEFAULT_BIN_COUNT,
) -> QuantizedMap:
    """Assign each fast-enough valid pixel to an orientation bin.

    Bin k is centered on direction k*2pi/b and covers
    [(k - 1/2), (k + 1/2)) * 2pi/b modulo 2pi. Centering the bins on the
    compass directions keeps axis-aligned motion in one bin: estimator
    noise around a dominant direction like (v, 0) must not split its
    pixels across two adjacent bins, which edge-anchored bins would do.
    """
    if bin_count < 2:
        raise InputError("bin_count must be >= 2")
    if magnitude_threshold < 0:
        raise InputError("magnitude_threshold must be >= 0")
    keep = maps.valid & (maps.mag >= magnitude_threshold)
    idx = (
        np.floor(maps.ori * (bin_count / TWO_PI) + 0.5).astype(np.int16)
        % bin_count
    )
    bins = np.where(keep, idx, np.int16(NONE_BIN))
    histogram = np.bincount(idx[keep].astype(np.int64), minlength=bin_count)
    return QuantizedMap(
        bins=bins,
        bin_count=bin_count,
        magnitude_threshold=magnitude_threshold,
        histogram=histogram,
    )


def detect_peaks(
    histogram: np.ndarray, peak_min_fraction: float = DEFAULT_PEAK_MIN_FRACTION
) -> set[int]:
    """Circular peaks: strictly above the left neighbor, at least the right
    neighbor, and at least peak_min_fraction of the total count.

    Falls back to the argmax bin (lowest index on ties) when the histogram
    is nonempty but no bin qualifies.
    """
    h = np.asarray(histogram, dtype=np.int64)
    total = int(h.sum())
    if total == 0:
        return set()
    left = np.roll(h, 1)
    right = np.roll(h, -1)
    is_peak = (h > left) & (h >= right) & (h >= peak_min_fraction * total)
    peaks = {int(i) for i in np.flatnonzero(is_peak)}
    if not peaks:
        peaks = {int(np.argmax(h))}
    return peaks


def group_keypoints(
    quantized: QuantizedMap,
    peaks: set[int],
    flow: FlowField | None = None,
    min_group_size: int = DEFAULT_MIN_GROUP_SIZE,
    frame_index: int = 0,
) -> SegmentationMap:
    """Partition peak-bin keypoints into 8-connected same-bin groups.

    Components smaller than ``min_group_size`` are dropped. Ids run 1..N in
    raster order of each component's first pixel. Member velocities are
    sampled from ``flow`` when given, else zero.
    """
    if not set(peaks) <= set(range(quantized.bin_count)):
        raise InputError(f"peaks {peaks} outside bin range 0..{quantized.bin_count - 1}")
    height, width = quantized.bins.shape
    entries = []  # (first raster index, bin id, flat member indices)
    for bin_id in sorted(peaks):
        mask = quantized.bins == bin_id
        labeled, n = ndimage.label(mask, structure=_STRUCT_8)
        if n == 0:
            continue
        flat = labeled.ravel()
        nz = np.flatnonzero(flat)
        order = np.argsort(flat[nz], kind="stable")
        nz = nz[order]
        labs = flat[nz]
        starts = np.searchsorted(labs, np.arange(1, n + 1))
        ends = np.append(starts[1:], nz.size)
        for k in range(n):
            idxs = nz[starts[k] : ends[k]]
            if idxs.size < min_group_size:
                continue
            entries.append((int(idxs[0]), bin_id, idxs))
    entries.sort(key=lambda e: e[0])

    groups = []
    for gid, (_, bin_id, idxs) in enumerate(entries, start=1):
        rows = idxs // width
        cols = idxs % width
        if flow is not None:
            vx = flow.u[rows, cols].astype(np.float64)
            vy = flow.v[rows, cols].astype(np.float64)
        else:
            vx = np.zeros(idxs.size)
            vy = np.zeros(idxs.size)
        groups.append(
            Group(
                id=gid,
                bin=bin_id,
                x=cols.astype(np.float64),
                y=rows.astype(np.float64),
                vx=vx,
                vy=vy,
                clamped=np.zeros(idxs.size, dtype=bool),
            )
        )
    return SegmentationMap(frame_index=frame_index, width=width, height=height, groups=groups)


def segment_flow(
    flow: FlowField,
    magnitude_threshold: float = DEFAULT_MAGNITUDE_THRESHOLD,
    bin_count: int = DEFAULT_BIN_COUNT,
    peak_min_fraction: float = DEFAULT_PEAK_MIN_FRACTION,
    min_group_size: int = DEFAULT_MIN_GROUP_SIZE,
    frame_index: int = 0,
) -> SegmentationMap:
    """Run the whole keypoint-extraction chain on one flow field."""
    maps = magnitude_orientation(flow)
    quantized = quantize(maps, magnitude_threshold, bin_count)
    peaks = detect_peaks(quantized.histogram, peak_min_fraction)
    return group_keypoints(
        quantized, peaks, flow=flow, min_group_size=min_group_size, frame_index=frame_index
    )
