"""Rasterization, coverage scoring, reports, and overlays.

A window's maps are rasterized together (``rasterize_maps``): every group
of every map is painted into a slot of packed crop stacks, whose rows hold
64 columns per little-endian ``uint64`` word (column ``c`` is bit
``c % 64`` of word ``c // 64``), so the disc dilation and the 3x3 opening
are word shifts, ORs and ANDs. Zeros shifted in at word and slot edges,
and the AND with each group's crop, stand for the background past the
crop, which is what the full-frame morphology reads there. Their masks
share one label buffer, so a window holds the memory of its |W| - 1 maps,
no more than a run that streams one window at a time keeps anyway; its
index temporaries are views of the per-thread buffers of ``flow.scratch``,
under names of their own, which grow and never shrink.
``render_overlays`` blends a window's frames through one label table,
cached per process, of the 256 byte labels: labels outside 0..255, which
no P5 mask of ``segment`` holds, are an InputError.

The headline metric is ground-truth coverage: the labeled fraction of the
ground-truth region, |segmented AND gt| / |gt|. It is one-sided (adding
labeled pixels never lowers it), so an IoU column is reported next to it
as a diagnostic; acceptance numbers use coverage only.
"""

import csv
import functools
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import InputError, MetricError, require_integers
from .flow import scratch
from .io import Frame
from .keypoints import SegmentationMap
from .pipeline import DEFAULT_DILATION_RADIUS, RunResult

_STACK_VOXELS = 1 << 22  # pixels per crop stack; more groups take more stacks
_FULL_WORD = ~np.uint64(0)  # a packed row word with all 64 columns set
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


def pixel_coords(x, y, width: int, height: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions rounded to the nearest pixel and clipped to the frame: (rows, cols)."""
    rows = np.clip(np.rint(y).astype(np.int64), 0, height - 1)
    cols = np.clip(np.rint(x).astype(np.int64), 0, width - 1)
    return rows, cols


def _or_shifted(dst: np.ndarray, src: np.ndarray, k: int) -> None:
    """``dst |= src`` moved ``k`` columns along its packed rows (k > 0
    toward higher columns, k < 0 toward lower ones). Bits carry across
    words; zeros enter at the ends of every row."""
    q, s = divmod(abs(k), 64)
    n = src.shape[-1] - q
    if n <= 0:
        return
    if k > 0:
        if s:
            dst[..., q:] |= src[..., :n] << np.uint64(s)
            dst[..., q + 1 :] |= src[..., : n - 1] >> np.uint64(64 - s)
        else:
            dst[..., q:] |= src[..., :n]
    elif s:
        dst[..., :n] |= src[..., q:] >> np.uint64(s)
        dst[..., : n - 1] |= src[..., q + 1 :] << np.uint64(64 - s)
    else:
        dst[..., :n] |= src[..., q:]


def _dilate_words(stack: np.ndarray, element: np.ndarray) -> np.ndarray:
    """OR of every slot of the packed ``stack`` (slots, rows, words) moved
    by each offset of a symmetric, row-convex ``element``; zeros enter at
    the slot edges."""
    r = element.shape[0] // 2
    half_widths = element[r:, r:].sum(axis=1) - 1  # per row offset 0..r
    wide = stack.copy()  # stack grown by k px to each side along a row
    out = np.zeros_like(stack)
    for k in range(r + 1):
        if k:
            _or_shifted(wide, stack, k)
            _or_shifted(wide, stack, -k)
        for d in np.flatnonzero(half_widths == k):
            out[:, d:] |= wide[:, : -d or None]
            out[:, : -d or None] |= wide[:, d:]
    return out


def _low_bits(counts: np.ndarray) -> np.ndarray:
    """Words whose lowest ``counts`` bits (0..64) are set."""
    low = (np.uint64(1) << np.minimum(counts, 63).astype(np.uint64)) - np.uint64(1)
    return np.where(counts >= 64, _FULL_WORD, low)


def rasterize_maps(maps, dilation_radius: int = DEFAULT_DILATION_RADIUS) -> list[LabelMask]:
    """``rasterize`` for every map of ``maps`` (a window's maps, which all
    have one size) in one pass; one mask per map, in order.

    Every group with members of every map takes one slot of a set of
    packed crop stacks (slots, rows, words): a row holds 64 columns per
    little-endian ``uint64`` word, column ``c`` in bit ``c % 64`` of word
    ``c // 64`` (the ``.view("<u8")`` of ``np.packbits(..., bitorder=
    "little")``). The disc dilation, the in-crop AND and the 3x3 opening
    are word shifts that carry across words, ORs and ANDs. Zeros enter
    past the last word of a row and past a slot's first and last rows, and
    the in-crop AND clears the columns and rows a slot holds past its crop,
    so the erosion reads background wherever it reads beyond the crop,
    exactly as the full-frame morphology reads background past the frame
    (see ``rasterize`` for why nothing else beyond the crop matters). Each
    stack holds at most ``_STACK_VOXELS`` pixels of slots, which also
    bounds the boolean stack members are painted into before packing.

    Coverage and the nearest-centroid contest then run on pixel indices
    offset by ``height * width`` per map, so the output holds the memory
    of ``len(maps)`` maps: |W| - 1 for a window. Members are read from the
    maps' groups, whose ``x``/``y`` are concatenated once per call; only a
    group that contests a pixel has its ``Group.centroid`` computed. The
    member- and pixel-sized index arrays are views of the calling
    thread's ``flow.scratch``, whose buffers grow and never shrink, so a
    run of windows reuses their memory; the masks returned are new.
    Raises InputError when the maps differ in size.
    """
    require_integers(dilation_radius=dilation_radius)
    dilation_radius = int(dilation_radius)  # a numpy integer radius as a Python int
    if dilation_radius < 0:
        raise InputError("dilation_radius must be >= 0")
    maps = list(maps)
    if not maps:
        return []
    shapes = {(m.width, m.height) for m in maps}
    if len(shapes) > 1:
        raise InputError(f"maps of one batch differ in size: {sorted(shapes)}")
    h, w = maps[0].height, maps[0].width
    size = h * w
    labels = np.zeros(len(maps) * size, dtype=np.int32)
    out = [LabelMask(labels[i * size : (i + 1) * size].reshape(h, w)) for i in range(len(maps))]

    # Every group with members, map by map, in map order.
    groups, bases = [], []
    for i, seg_map in enumerate(maps):
        kept = [g for g in seg_map.groups if g.size]
        groups.extend(kept)
        bases.extend([i * size] * len(kept))
    n_groups = len(groups)
    if not n_groups:
        return out
    counts = np.array([g.size for g in groups])
    ids = np.array([g.id for g in groups], dtype=np.int32)

    starts = np.concatenate(([0], np.cumsum(counts)))
    n_members = int(starts[-1])
    # each member's group: 1 at every group's first member after the first, summed
    member = scratch("rasterize.member", n_members, np.intp)
    member[:] = 0
    member[starts[1:-1]] = 1
    np.cumsum(member, out=member)
    # pixel_coords of the concatenated members, through the thread's buffers
    coords = scratch("rasterize.coords", n_members, np.float64)
    rows = scratch("rasterize.rows", n_members, np.int64)
    cols = scratch("rasterize.cols", n_members, np.int64)
    for dst, axis, limit in ((rows, "y", h), (cols, "x", w)):
        np.concatenate([getattr(g, axis) for g in groups], out=coords)
        np.rint(coords, out=coords)
        np.copyto(dst, coords, casting="unsafe")
        np.clip(dst, 0, limit - 1, out=dst)
    margin = dilation_radius + 2 if dilation_radius > 0 else 0
    top = np.maximum(np.minimum.reduceat(rows, starts[:-1]) - margin, 0)
    left = np.maximum(np.minimum.reduceat(cols, starts[:-1]) - margin, 0)
    crop_h = np.minimum(np.maximum.reduceat(rows, starts[:-1]) + margin + 1, h) - top
    crop_w = np.minimum(np.maximum.reduceat(cols, starts[:-1]) + margin + 1, w) - left
    origin = np.array(bases) + top * w + left  # flat index of each crop's corner
    slot_h, slot_w = int(crop_h.max()), int(crop_w.max())
    words = -(-slot_w // 64)
    per_stack = max(1, _STACK_VOXELS // (slot_h * words * 64))
    if dilation_radius > 0:
        disc = disc_element(dilation_radius)
        # per group: its crop's rows and its crop's columns, as words
        in_rows = np.where(np.arange(slot_h) < crop_h[:, None], _FULL_WORD, np.uint64(0))
        in_cols = _low_bits(np.clip(crop_w[:, None] - 64 * np.arange(words), 0, 64))

    # flat index of the first pixel of every slot row
    row_origin = (origin[:, None] + np.arange(slot_h) * w).ravel()
    pix, rows_of = [], []
    for first in range(0, n_groups, per_stack):
        end = min(first + per_stack, n_groups)
        m = slice(starts[first], starts[end])
        grp = member[m]
        painted = np.zeros((end - first) * slot_h * words * 64, dtype=bool)
        # each member's bit in the stack, built in place
        bit = np.subtract(grp, first, out=scratch("rasterize.bit", grp.size, grp.dtype))
        corner = scratch("rasterize.corner", grp.size, top.dtype)
        bit *= slot_h
        bit += rows[m]
        bit -= np.take(top, grp, out=corner, mode="clip")
        bit *= words * 64
        bit += cols[m]
        bit -= np.take(left, grp, out=corner, mode="clip")
        painted[bit] = True
        stack = np.packbits(painted, bitorder="little").view("<u8").reshape(-1, slot_h, words)
        del painted
        if dilation_radius > 0:
            stack = _dilate_words(stack, disc)
            stack &= in_rows[first:end, :, None]
            stack &= in_cols[first:end, None, :]
            core = stack.copy()  # 3x3 erosion: background past the slot
            for k in (1, -1):
                moved = np.zeros_like(stack)
                _or_shifted(moved, stack, k)
                core &= moved
            core[:, 1:-1] = core[:, :-2] & core[:, 1:-1] & core[:, 2:]
            core[:, [0, -1]] = 0
            stack = _dilate_words(core, np.ones((3, 3), dtype=bool))
        at = np.flatnonzero(np.unpackbits(stack.view(np.uint8), axis=-1, count=slot_w, bitorder="little"))
        row, col = np.divmod(at, slot_w, out=(None, at))  # at becomes the column
        row += first * slot_h
        origin = scratch("rasterize.origin", row.size, row_origin.dtype)
        col += np.take(row_origin, row, out=origin, mode="clip")
        pix.append(col)
        rows_of.append(row)
    total = sum(p.size for p in pix)
    pix = np.concatenate(pix, out=scratch("rasterize.pix", total, pix[0].dtype))
    rows_of = np.concatenate(rows_of, out=scratch("rasterize.rows_of", total, rows_of[0].dtype))
    painted_by = scratch("rasterize.painted_by", total, np.int32)
    # A group paints a pixel at most once. Painting each entry's slot row
    # into the labels leaves one row per pixel, whichever wins; an entry
    # that did not win marks its pixel -1 (no slot row), so the pixels
    # painted once are those left unmarked. Labels stay 0 off ``pix``.
    labels[pix] = rows_of
    lost = np.take(labels, pix, out=painted_by, mode="clip") != rows_of
    labels[pix[lost]] = -1
    once = np.take(labels, pix, out=painted_by, mode="clip") != -1
    labels[pix] = np.take(np.repeat(ids, slot_h), rows_of, out=painted_by, mode="clip")
    if not once.all():
        pix, owner = pix[~once], rows_of[~once] // slot_h
        contested = np.unique(owner)
        centroids = np.zeros((n_groups, 2))
        centroids[contested] = [groups[k].centroid for k in contested.tolist()]
        rows, cols = np.divmod(pix % size, w)
        d2 = (cols - centroids[owner, 0]) ** 2 + (rows - centroids[owner, 1]) ** 2
        order = np.lexsort((ids[owner], d2, pix))
        pix, owner = pix[order], owner[order]
        nearest = np.r_[True, pix[1:] != pix[:-1]]  # first entry of each pixel
        labels[pix[nearest]] = ids[owner[nearest]]
    return out


def rasterize(seg_map: SegmentationMap, dilation_radius: int = DEFAULT_DILATION_RADIUS) -> LabelMask:
    """Paint member pixels per group, grow by a disc, then open once (3x3).

    At radius 0 both the dilation and the opening are skipped, so the mask
    is exactly the member pixel set. Where grown groups overlap, the pixel
    goes to the group with the nearer centroid, ties to the lower id. A
    group without members paints nothing.

    Each group's morphology runs on its crop: the member bounding box grown
    by ``dilation_radius + 2`` on every side (no margin at radius 0) and
    clipped to the map. The result equals the same morphology over the
    whole map: the disc reaches at most ``r`` px from a member, the
    opening's erosion reads one px beyond that, and the opening never
    grows the set, so everything the morphology reads or writes lies
    within ``r + 1`` px of a member and inside the crop. Crops sit at the
    top-left of the slots of crop stacks; ANDing each slot with its crop
    after the dilation makes the erosion read background past a crop cut
    off by the frame edge, as past the frame, so the opening stays inside
    the crop. This is the one-map call of ``rasterize_maps``.
    """
    return rasterize_maps([seg_map], dilation_radius)[0]


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
    window_index: int  # 0: the frame belongs to no window
    accuracy: float
    iou: float
    step: int | None  # maps since the window's seed map (0); None outside a window

    @property
    def is_window_start(self) -> bool:
        return self.step == 0


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
    labelled: Iterable[tuple[int, int, np.ndarray]], ground_truth: Mapping[int, np.ndarray]
) -> AccuracyReport:
    """Score (frame_index, window_number, labels) items against per-frame
    ground truth. The caller gives each map its window, numbered from 1;
    window 0 is none, and counts toward no window mean. A map's step is its
    position among its window's maps, so the window's seed map is step 0
    and flagged as its start. Ground truth is resampled (nearest) to each
    mask's resolution when the dimensions differ."""
    rows = []
    per_window: dict[int, list[float]] = {}
    for frame_index, window, labels in labelled:
        if frame_index not in ground_truth:
            raise MetricError(f"missing ground truth for frame {frame_index}")
        gt = np.asarray(ground_truth[frame_index])
        if gt.shape != labels.shape:
            gt = resample_nearest(gt, labels.shape)
        acc, step = accuracy(labels, gt), None
        if window:
            scores = per_window.setdefault(window, [])
            step = len(scores)
            scores.append(acc)
        rows.append(AccuracyRow(frame_index, window, acc, iou(labels, gt), step))
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
    """Rasterize every emitted map of ``run``, one window at a time, and
    score it in its window of ``run.window_maps``, numbered from 1, whose
    seed map is step 0 (see ``score_frames``)."""
    labelled = (
        (frame_index, number, mask.labels)
        for number, window in enumerate(run.window_maps, 1)
        for (frame_index, _), mask in zip(
            window, rasterize_maps([seg_map for _, seg_map in window], dilation_radius)
        )
    )
    return score_frames(labelled, ground_truth)


def label_color(label_id: int) -> tuple[int, int, int]:
    """Deterministic saturated color per group id (golden-angle hue walk)."""
    hue = (label_id * _GOLDEN) % 1.0
    i = int(hue * 6.0)
    f = hue * 6.0 - i
    v, p, q, t = 255, 38, int(255 * (1.0 - 0.85 * f)), int(255 * (1.0 - 0.85 * (1.0 - f)))
    rgb = [(v, t, p), (q, v, p), (p, v, t), (p, q, v), (t, p, v), (v, p, q)][i % 6]
    return rgb


@functools.cache
def _byte_table() -> np.ndarray:
    """Row ``(label << 8) | gray`` holds the overlay RGB of a pixel of that
    gray under the byte ``label``: the gray passed through for label 0,
    else the rounded float blend of ``label_color(label)``, which depends
    on the id alone. Built once per process, read-only."""
    colors = np.array([label_color(i) for i in range(1, 256)], dtype=np.float64).reshape(-1, 1, 3)
    levels = np.arange(256)[:, None]
    table = np.empty((256, 256, 3), dtype=np.uint8)
    table[0] = levels
    table[1:] = np.clip(np.rint((1.0 - OVERLAY_ALPHA) * levels + OVERLAY_ALPHA * colors), 0, 255)
    table = table.reshape(-1, 3)
    table.flags.writeable = False
    return table


def render_overlays(frames, masks) -> list[np.ndarray]:
    """Blend each label's ``label_color`` at opacity ``OVERLAY_ALPHA`` over
    each grayscale frame of ``frames`` under the mask of ``masks`` at its
    position; background passes through. Frames and masks all have one
    size (a window's), and every label lies in 0..255, as in the P5 masks
    ``segment`` writes: any other label is an InputError that names it.

    Frames are 8-bit, so every pixel is one lookup, of row ``(label << 8)
    | gray``, in ``_byte_table()``. The lookups run frame by frame through
    one index buffer, so temporary memory is one frame's, not the window's.
    """
    frames, masks = list(frames), list(masks)
    if len(frames) != len(masks):
        raise InputError(f"{len(frames)} frames for {len(masks)} masks")
    for frame, mask in zip(frames, masks):
        if (frame.height, frame.width) != (mask.height, mask.width):
            raise InputError(
                f"frame {frame.width}x{frame.height} does not match mask {mask.width}x{mask.height}"
            )
        unsigned = mask.labels.view(np.uint32)  # a negative label is above 255 too
        if unsigned.max() > 255:
            raise InputError(f"label {mask.labels[unsigned > 255][0]} is outside 0..255")
    if not frames:
        return []
    shapes = {(mask.width, mask.height) for mask in masks}
    if len(shapes) > 1:
        raise InputError(f"masks of one batch differ in size: {sorted(shapes)}")
    table = _byte_table()
    rows = np.empty(masks[0].labels.shape, dtype=np.intp)  # one frame's table rows at a time
    out = []
    for frame, mask in zip(frames, masks):
        np.left_shift(mask.labels, 8, out=rows)
        rows |= frame.data
        out.append(table.take(rows, axis=0))
    return out


def render_overlay(frame: Frame, mask: LabelMask) -> np.ndarray:
    """Blend label colors over the grayscale frame; background passes
    through. The one-frame call of ``render_overlays``."""
    return render_overlays([frame], [mask])[0]
