"""Rasterization, coverage scoring, reports, and overlays.

The headline metric is ground-truth coverage: the labeled fraction of the
ground-truth region, |segmented AND gt| / |gt|. It is one-sided (adding
labeled pixels never lowers it), so an IoU column is reported next to it
as a diagnostic; acceptance numbers use coverage only.
"""

import csv
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np
from scipy import ndimage

from .errors import InputError, MetricError
from .io import Frame
from .keypoints import SegmentationMap
from .pipeline import RunResult

DEFAULT_DILATION_RADIUS = 3
_OPENING_STRUCT = np.ones((3, 3), dtype=bool)
_GOLDEN = 0.61803398875
OVERLAY_ALPHA = 0.5


@dataclass(eq=False)
class LabelMask:
    """Per-pixel group ids, 0 = background."""

    labels: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.labels, dtype=np.int32)
        if arr.ndim != 2:
            raise InputError("label mask must be 2-D")
        self.labels = arr

    @property
    def width(self) -> int:
        return self.labels.shape[1]

    @property
    def height(self) -> int:
        return self.labels.shape[0]


def disc_element(radius: int) -> np.ndarray:
    """Boolean disc: offsets with dx^2 + dy^2 <= radius^2."""
    r = int(radius)
    yy, xx = np.mgrid[-r : r + 1, -r : r + 1]
    return (xx * xx + yy * yy) <= r * r


def rasterize(seg_map: SegmentationMap, dilation_radius: int = DEFAULT_DILATION_RADIUS) -> LabelMask:
    """Paint member pixels per group, grow by a disc, then open once (3x3).

    At radius 0 both the dilation and the opening are skipped, so the mask
    is exactly the member pixel set. Where grown groups overlap, the pixel
    goes to the group with the nearer centroid, ties to the lower id. A
    group without members paints nothing.

    Each group's morphology runs on a crop: its member bounding box grown
    by ``dilation_radius + 2`` on every side (no margin at radius 0) and
    clipped to the map. The result equals the same morphology over the
    whole map: the disc reaches at most ``r`` px from a member, the
    opening's erosion reads one px beyond that, and the opening never
    grows the set, so everything the morphology reads or writes lies
    within ``r + 1`` px of a member and inside the crop. Where a crop meets
    the frame edge it ends exactly there, without padding, so the erosion
    sees the same out-of-frame background as on the whole map.
    """
    if dilation_radius < 0:
        raise InputError("dilation_radius must be >= 0")
    h, w = seg_map.height, seg_map.width
    labels = np.zeros((h, w), dtype=np.int32)

    disc = disc_element(dilation_radius) if dilation_radius > 0 else None
    margin = dilation_radius + 2 if disc is not None else 0
    shaped = []  # (group, box, crop mask) for groups with members
    for g in seg_map.groups:
        rows, cols = g.pixel_coords(w, h)
        if rows.size == 0:
            continue
        top, left = max(rows.min() - margin, 0), max(cols.min() - margin, 0)
        bottom, right = min(rows.max() + margin + 1, h), min(cols.max() + margin + 1, w)
        crop = np.zeros((bottom - top, right - left), dtype=bool)
        crop[rows - top, cols - left] = True
        if disc is not None:
            crop = ndimage.binary_dilation(crop, structure=disc)
            crop = ndimage.binary_opening(crop, structure=_OPENING_STRUCT)
        shaped.append((g, (slice(top, bottom), slice(left, right)), crop))
    if not shaped:
        return LabelMask(labels)

    coverage = np.zeros((h, w), dtype=np.int32)
    for _, box, crop in shaped:
        coverage[box] += crop
    for g, box, crop in shaped:
        region = labels[box]
        region[crop & (coverage[box] == 1)] = g.id

    contested = coverage > 1
    if contested.any():
        rows, cols = np.nonzero(contested)
        dist = np.full((len(shaped), rows.size), np.inf)
        for k, (g, (rs, cs), crop) in enumerate(shaped):
            inside = (rows >= rs.start) & (rows < rs.stop) & (cols >= cs.start) & (cols < cs.stop)
            covering = np.zeros(rows.size, dtype=bool)
            covering[inside] = crop[rows[inside] - rs.start, cols[inside] - cs.start]
            cx, cy = g.centroid
            d2 = (cols - cx) ** 2 + (rows - cy) ** 2
            dist[k, covering] = d2[covering]
        # argmin returns the first minimum; groups are in ascending id
        # order, so exact ties resolve to the lower id.
        winner = np.argmin(dist, axis=0)
        ids = np.array([g.id for g, _, _ in shaped], dtype=np.int32)
        labels[rows, cols] = ids[winner]
    return LabelMask(labels)


def _as_labels(mask) -> np.ndarray:
    if isinstance(mask, LabelMask):
        return mask.labels
    arr = np.asarray(mask)
    if arr.ndim != 2:
        raise InputError("mask must be 2-D")
    return arr


def accuracy(segmented, ground_truth) -> float:
    """Coverage of ground truth: |seg>0 AND gt>0| / |gt>0|."""
    seg = _as_labels(segmented)
    gt = _as_labels(ground_truth)
    if seg.shape != gt.shape:
        raise InputError(f"mask dimensions differ: {seg.shape} vs {gt.shape}")
    gt_pos = gt > 0
    denom = int(np.count_nonzero(gt_pos))
    if denom == 0:
        raise MetricError("ground truth mask is empty")
    hit = int(np.count_nonzero((seg > 0) & gt_pos))
    return hit / denom


def iou(segmented, ground_truth) -> float:
    """Diagnostic intersection-over-union of the foreground regions."""
    seg = _as_labels(segmented) > 0
    gt = _as_labels(ground_truth) > 0
    if seg.shape != gt.shape:
        raise InputError(f"mask dimensions differ: {seg.shape} vs {gt.shape}")
    union = int(np.count_nonzero(seg | gt))
    if union == 0:
        return 1.0
    return int(np.count_nonzero(seg & gt)) / union


def resample_nearest(mask: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Nearest-neighbor resampling to (height, width)."""
    src = np.asarray(mask)
    h, w = shape
    rows = np.minimum(((np.arange(h) + 0.5) * src.shape[0] / h).astype(np.int64), src.shape[0] - 1)
    cols = np.minimum(((np.arange(w) + 0.5) * src.shape[1] / w).astype(np.int64), src.shape[1] - 1)
    return src[np.ix_(rows, cols)]


@dataclass(frozen=True)
class AccuracyRow:
    frame_index: int
    window_index: int
    accuracy: float
    iou: float
    is_window_start: bool


@dataclass
class AccuracyReport:
    rows: list[AccuracyRow]
    mean_accuracy: float
    window_means: dict[int, float]

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["frame_index", "window_index", "accuracy", "iou", "is_window_start"])
            for row in self.rows:
                writer.writerow(
                    [
                        row.frame_index,
                        row.window_index,
                        f"{row.accuracy:.6f}",
                        f"{row.iou:.6f}",
                        int(row.is_window_start),
                    ]
                )

    def summary(self) -> str:
        lines = [f"mean accuracy: {self.mean_accuracy:.4f}"]
        for window, mean in sorted(self.window_means.items()):
            lines.append(f"window {window}: mean accuracy {mean:.4f}")
        return "\n".join(lines)


def score_frames(
    labelled: Iterable[tuple[int, np.ndarray]],
    ground_truth: Mapping[int, np.ndarray],
    window_size: int | None = None,
    first_frame: int = 1,
) -> AccuracyReport:
    """Score (frame_index, labels) pairs against per-frame ground truth.

    Window 1 spans frames first_frame .. first_frame + window_size - 1, and
    so on. Without a window size, or before first_frame, a frame gets
    window 0 and counts toward no window mean. Ground truth is resampled
    (nearest) to each mask's resolution when the dimensions differ. The
    first emitted frame of each window (the one after its first frame) is
    flagged.
    """
    rows = []
    per_window: dict[int, list[float]] = {}
    for frame_index, labels in labelled:
        if frame_index not in ground_truth:
            raise MetricError(f"missing ground truth for frame {frame_index}")
        gt = np.asarray(ground_truth[frame_index])
        if gt.shape != labels.shape:
            gt = resample_nearest(gt, labels.shape)
        offset = frame_index - first_frame
        window = offset // window_size + 1 if window_size and offset >= 0 else 0
        acc = accuracy(labels, gt)
        rows.append(
            AccuracyRow(
                frame_index=frame_index,
                window_index=window,
                accuracy=acc,
                iou=iou(labels, gt),
                is_window_start=window > 0 and offset % window_size == 1,
            )
        )
        if window:
            per_window.setdefault(window, []).append(acc)
    if not rows:
        raise MetricError("no maps to score")
    return AccuracyReport(
        rows=rows,
        mean_accuracy=float(np.mean([r.accuracy for r in rows])),
        window_means={w: float(np.mean(v)) for w, v in per_window.items()},
    )


def report(
    run: RunResult,
    ground_truth: Mapping[int, np.ndarray],
    dilation_radius: int = DEFAULT_DILATION_RADIUS,
) -> AccuracyReport:
    """Rasterize every emitted map of ``run`` and score it (see ``score_frames``)."""
    labelled = ((fi, rasterize(m, dilation_radius).labels) for fi, m in run.maps)
    first, last = run.windows[0]
    return score_frames(labelled, ground_truth, last - first + 1, first)


def label_color(label_id: int) -> tuple[int, int, int]:
    """Deterministic saturated color per group id (golden-angle hue walk)."""
    hue = (label_id * _GOLDEN) % 1.0
    i = int(hue * 6.0)
    f = hue * 6.0 - i
    v, p, q, t = 255, 38, int(255 * (1.0 - 0.85 * f)), int(255 * (1.0 - 0.85 * (1.0 - f)))
    rgb = [(v, t, p), (q, v, p), (p, v, t), (p, q, v), (t, p, v), (v, p, q)][i % 6]
    return rgb


def render_overlay(
    frame: Frame,
    mask: LabelMask,
    palette: dict[int, tuple[int, int, int]] | None = None,
    alpha: float = OVERLAY_ALPHA,
) -> np.ndarray:
    """Blend label colors over the grayscale frame; background passes through.

    Every labeled pixel is blended in one step through a color table with
    one row per label present, found by binary search in the sorted ids.
    """
    if (frame.height, frame.width) != (mask.height, mask.width):
        raise InputError(
            f"frame {frame.width}x{frame.height} does not match mask {mask.width}x{mask.height}"
        )
    gray = frame.data.astype(np.float64)
    rgb = np.repeat(gray[:, :, None], 3, axis=2)
    fg = mask.labels != 0
    labeled = mask.labels[fg]
    ids = np.unique(labeled)
    lut = np.array(
        [(palette or {}).get(int(i)) or label_color(int(i)) for i in ids], dtype=np.float64
    ).reshape(-1, 3)
    rgb[fg] = (1.0 - alpha) * gray[fg][:, None] + alpha * lut[np.searchsorted(ids, labeled)]
    return np.clip(np.rint(rgb), 0, 255).astype(np.uint8)
