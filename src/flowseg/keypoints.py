"""From a flow field to the initial segmentation map.

``segment_flow`` runs the one keypoint chain, with the settings of one
``KeypointParams``: the speed of every flow vector -> the direction and
orientation bin of each keypoint (a valid pixel at least the magnitude
threshold fast) -> circular histogram peak detection (``detect_peaks``)
-> 8-connected grouping of same-bin keypoints (``group_keypoints``). A
``QuantizedMap`` is what passes from binning to grouping.

A map's members live in its ``Group`` objects and nowhere else. The code
that makes maps (``group_keypoints`` here, ``propagate_map`` in dynamics)
computes every member of a map in flat arrays and hands each group its
slice of them (``split_groups``); code that reads a map reads its groups.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .errors import InputError, require_integers
from .io import FlowField

TWO_PI = 2.0 * np.pi
NONE_BIN = -1
PEAK_MIN_FRACTION = 0.05

DEFAULT_MAGNITUDE_THRESHOLD = 0.4
DEFAULT_BIN_COUNT = 8
MAX_BIN_COUNT = np.iinfo(np.int16).max  # the bin map is int16
DEFAULT_MIN_GROUP_SIZE = 10

_STRUCT_8 = np.ones((3, 3), dtype=bool)


@dataclass(frozen=True)
class KeypointParams:
    """Settings of the keypoint chain, each checked here and nowhere else.

    A keypoint is a valid pixel at least ``magnitude_threshold`` fast; its
    direction falls in one of ``bin_count`` orientation bins, and a group
    keeps at least ``min_group_size`` keypoints. The bin map is int16, so
    ``bin_count`` is at most ``MAX_BIN_COUNT``.
    """

    magnitude_threshold: float = DEFAULT_MAGNITUDE_THRESHOLD
    bin_count: int = DEFAULT_BIN_COUNT
    min_group_size: int = DEFAULT_MIN_GROUP_SIZE

    def __post_init__(self):
        require_integers(bin_count=self.bin_count, min_group_size=self.min_group_size)
        if not 2 <= self.bin_count <= MAX_BIN_COUNT:
            raise InputError(f"bin_count must be in 2..{MAX_BIN_COUNT}")
        if not self.magnitude_threshold >= 0:  # NaN fails too
            raise InputError("magnitude_threshold must be >= 0")
        if self.min_group_size < 1:
            raise InputError("min_group_size must be >= 1")


@dataclass(eq=False)
class QuantizedMap:
    """Per-pixel orientation bin (NONE_BIN where below threshold/invalid)."""

    bins: np.ndarray
    bin_count: int
    histogram: np.ndarray


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
        """Member mean (x, y); NaN for a group without members. On float64
        members these are the bits of ``ndarray.mean`` (its pairwise sum,
        then its division by the count) without that method's per-call
        overhead, which a window's hundreds of groups would pay."""
        n = self.x.size
        return float(np.add.reduce(self.x) / n), float(np.add.reduce(self.y) / n)

    @property
    def mean_velocity(self) -> tuple[float, float]:
        return float(self.vx.mean()), float(self.vy.mean())


@dataclass(eq=False)
class SegmentationMap:
    """All groups detected (or propagated) for one frame."""

    frame_index: int
    width: int
    height: int
    groups: list[Group] = field(default_factory=list)


def split_groups(ids, bins, starts, x, y, vx, vy, clamped) -> list[Group]:
    """Groups of the given ids and bins, group k holding the slice
    ``starts[k]:starts[k + 1]`` of each flat member array."""
    bounds = starts.tolist()
    return [
        Group(gid, b, x[lo:hi], y[lo:hi], vx[lo:hi], vy[lo:hi], clamped[lo:hi])
        for gid, b, lo, hi in zip(ids, bins, bounds[:-1], bounds[1:])
    ]


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


def detect_peaks(histogram: np.ndarray) -> set[int]:
    """Circular peaks: strictly above the left neighbor, at least the right
    neighbor, and at least PEAK_MIN_FRACTION of the total count.

    Falls back to the argmax bin (lowest index on ties) when the histogram
    is nonempty but no bin qualifies.
    """
    h = np.asarray(histogram, dtype=np.int64)
    total = int(h.sum())
    if total == 0:
        return set()
    left = np.roll(h, 1)
    right = np.roll(h, -1)
    is_peak = (h > left) & (h >= right) & (h >= PEAK_MIN_FRACTION * total)
    peaks = {int(i) for i in np.flatnonzero(is_peak)}
    if not peaks:
        peaks = {int(np.argmax(h))}
    return peaks


def group_keypoints(
    quantized: QuantizedMap,
    peaks: set[int],
    flow: FlowField,
    min_group_size: int = DEFAULT_MIN_GROUP_SIZE,
    frame_index: int = 0,
) -> SegmentationMap:
    """Partition peak-bin keypoints into 8-connected same-bin groups.

    Components smaller than ``min_group_size`` are dropped. Ids run 1..N in
    raster order of each component's first pixel. Member velocities are
    sampled from ``flow``, the field that ``quantized`` bins.
    """
    if not set(peaks) <= set(range(quantized.bin_count)):
        raise InputError(f"peaks {peaks} outside bin range 0..{quantized.bin_count - 1}")
    if flow.u.shape != quantized.bins.shape:
        raise InputError(f"flow shape {flow.u.shape} differs from bin map shape {quantized.bins.shape}")
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
        for k in np.flatnonzero(ends - starts >= min_group_size):
            idxs = nz[starts[k] : ends[k]]
            entries.append((int(idxs[0]), bin_id, idxs))
    entries.sort(key=lambda e: e[0])

    idxs = np.concatenate([e[2] for e in entries] + [np.empty(0, np.int64)])
    rows = idxs // width
    cols = idxs % width
    groups = split_groups(
        range(1, len(entries) + 1), [e[1] for e in entries], np.cumsum([0] + [e[2].size for e in entries]),
        cols.astype(np.float64), rows.astype(np.float64),
        flow.u[rows, cols].astype(np.float64), flow.v[rows, cols].astype(np.float64),
        np.zeros(idxs.size, dtype=bool),
    )
    return SegmentationMap(frame_index, width, height, groups)


def segment_flow(
    flow: FlowField, params: KeypointParams = KeypointParams(), frame_index: int = 0
) -> SegmentationMap:
    """Run the whole keypoint-extraction chain on one flow field, with the
    settings of ``params``.

    A keypoint is a valid pixel whose speed, the float64 magnitude of its
    flow vector, is at least ``params.magnitude_threshold``. Directions and
    bins are taken on keypoints only: element-wise arithmetic gives each one
    the bits it has on the whole field. A direction lies in [0, 2pi] (``mod``
    may round one just below 2pi up to 2pi, which falls in bin 0), and a
    zero vector's is 0. With b = ``params.bin_count``, bin k is centered on
    direction k*2pi/b and covers [(k - 1/2), (k + 1/2)) * 2pi/b modulo 2pi.
    Centering the bins on the compass directions keeps axis-aligned motion
    in one bin: estimator noise around a dominant direction like (v, 0) must
    not split its pixels across two adjacent bins, which edge-anchored bins
    would do.
    """
    bin_count = params.bin_count
    u, v = flow.u.astype(np.float64), flow.v.astype(np.float64)
    mag = np.hypot(u, v)
    keep = flow.valid & (mag >= params.magnitude_threshold)
    ori = np.mod(np.arctan2(v[keep], u[keep]), TWO_PI)
    ori[mag[keep] == 0.0] = 0.0
    idx = np.floor(ori * (bin_count / TWO_PI) + 0.5).astype(np.int16) % bin_count
    bins = np.full(keep.shape, NONE_BIN, dtype=np.int16)
    bins[keep] = idx
    quantized = QuantizedMap(bins, bin_count, np.bincount(idx.astype(np.int64), minlength=bin_count))
    peaks = detect_peaks(quantized.histogram)
    return group_keypoints(quantized, peaks, flow, params.min_group_size, frame_index)
