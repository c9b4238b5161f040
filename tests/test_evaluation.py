import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from flowseg import (
    BlockSpec,
    Frame,
    InputError,
    LabelMask,
    MetricError,
    PipelineConfig,
    SceneSpec,
    accuracy,
    generate_scene,
    iou,
    preset_scene,
    rasterize,
    rasterize_maps,
    render_overlay,
    render_overlays,
    report,
    segment_video,
)
from flowseg import evaluation, pipeline
from flowseg.evaluation import (
    OVERLAY_ALPHA,
    disc_element,
    label_color,
    pixel_coords,
    resample_nearest,
    score_frames,
)
from flowseg.flow import scratch
from flowseg.keypoints import Group, SegmentationMap
from flowseg.pipeline import RunResult


def group_at(pixels, gid=1, bin_id=0):
    ys = np.array([p[0] for p in pixels], float)
    xs = np.array([p[1] for p in pixels], float)
    n = len(pixels)
    return Group(id=gid, bin=bin_id, x=xs, y=ys, vx=np.zeros(n), vy=np.zeros(n),
                 clamped=np.zeros(n, bool))


def seg_map(groups, width=32, height=32, frame_index=2):
    return SegmentationMap(frame_index=frame_index, width=width, height=height,
                           groups=groups)


# --- brute-force morphology oracle -------------------------------------------


def oracle_rasterize(groups, width, height, radius):
    """Set-based reimplementation: per group dilate by the disc, erode+dilate
    with the full 3x3 block (outside the frame counts as background), then
    resolve overlaps by centroid distance with lower id winning ties."""
    disc = [
        (dy, dx)
        for dy in range(-radius, radius + 1)
        for dx in range(-radius, radius + 1)
        if dx * dx + dy * dy <= radius * radius
    ]
    block = [(dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1)]
    shaped = []
    for g in groups:
        pixels = {
            (int(round(y)), int(round(x)))
            for y, x in zip(np.clip(g.y, 0, height - 1), np.clip(g.x, 0, width - 1))
        }
        if radius > 0:
            pixels = {
                (y + dy, x + dx)
                for (y, x) in pixels
                for dy, dx in disc
                if 0 <= y + dy < height and 0 <= x + dx < width
            }
            eroded = {
                (y, x)
                for (y, x) in pixels
                if all(
                    0 <= y + dy < height and 0 <= x + dx < width and (y + dy, x + dx) in pixels
                    for dy, dx in block
                )
            }
            pixels = {
                (y + dy, x + dx)
                for (y, x) in eroded
                for dy, dx in block
                if 0 <= y + dy < height and 0 <= x + dx < width
            }
        shaped.append(pixels)

    labels = np.zeros((height, width), np.int32)
    for y in range(height):
        for x in range(width):
            owners = [
                (g, pixels) for g, pixels in zip(groups, shaped) if (y, x) in pixels
            ]
            if not owners:
                continue
            best = None
            for g, _ in owners:
                cx, cy = g.centroid
                d2 = (x - cx) ** 2 + (y - cy) ** 2
                if best is None or d2 < best[0] or (d2 == best[0] and g.id < best[1]):
                    best = (d2, g.id)
            labels[y, x] = best[1]
    return labels


def test_radius_zero_is_identity_on_member_pixels():
    pixels = [(4, 4), (4, 5), (5, 4), (9, 9), (9, 10)]
    mask = rasterize(seg_map([group_at(pixels)]), dilation_radius=0)
    labeled = set(zip(*np.nonzero(mask.labels)))
    assert labeled == set(pixels)
    assert set(np.unique(mask.labels)) == {0, 1}


def test_single_pixel_radius_one_matches_pixel_oracle():
    # frozen from the set-based oracle: the radius-1 disc is the 5-px plus
    # shape, and the 3x3 opening erases it entirely
    g = group_at([(10, 10)])
    expected = oracle_rasterize([g], 32, 32, 1)
    assert expected.sum() == 0
    mask = rasterize(seg_map([g]), dilation_radius=1)
    assert np.array_equal(mask.labels, expected)


def test_two_groups_one_pixel_apart_radius_two():
    a = group_at([(10, c) for c in range(4, 10)], gid=1)
    b = group_at([(10, c) for c in range(11, 17)], gid=2)
    expected = oracle_rasterize([a, b], 24, 24, 2)
    mask = rasterize(seg_map([a, b], width=24, height=24), dilation_radius=2)
    assert np.array_equal(mask.labels, expected)
    assert {1, 2} <= set(np.unique(mask.labels))


@settings(max_examples=25)
@given(
    seed=st.integers(0, 2**32 - 1),
    radius=st.integers(0, 3),
    n_groups=st.integers(1, 3),
)
def test_rasterize_matches_oracle(seed, radius, n_groups):
    rng = np.random.default_rng(seed)
    groups = []
    for gid in range(1, n_groups + 1):
        count = int(rng.integers(1, 12))
        pixels = {(int(rng.integers(0, 20)), int(rng.integers(0, 20))) for _ in range(count)}
        groups.append(group_at(sorted(pixels), gid=gid))
    mask = rasterize(seg_map(groups, width=20, height=20), dilation_radius=radius)
    assert np.array_equal(mask.labels, oracle_rasterize(groups, 20, 20, radius))


# --- cropped morphology against the full-frame reference ----------------------


def reference_rasterize(seg_map, dilation_radius):
    """Full-frame rasterize: every group's morphology over the whole map.
    Groups are taken in id order, so argmin settles exact ties to the
    lower id."""
    h, w = seg_map.height, seg_map.width
    labels = np.zeros((h, w), dtype=np.int32)
    groups = sorted(seg_map.groups, key=lambda g: g.id)
    if not groups:
        return labels
    masks = []
    disc = disc_element(dilation_radius) if dilation_radius > 0 else None
    for g in groups:
        mask = np.zeros((h, w), dtype=bool)
        rows, cols = pixel_coords(g.x, g.y, w, h)
        mask[rows, cols] = True
        if disc is not None:
            mask = ndimage.binary_dilation(mask, structure=disc)
            mask = ndimage.binary_opening(mask, structure=np.ones((3, 3), dtype=bool))
        masks.append(mask)
    coverage = np.zeros((h, w), dtype=np.int32)
    for mask in masks:
        coverage += mask
    for g, mask in zip(groups, masks):
        labels[mask & (coverage == 1)] = g.id
    contested = coverage > 1
    if contested.any():
        rows, cols = np.nonzero(contested)
        dist = np.full((len(groups), rows.size), np.inf)
        for k, (g, mask) in enumerate(zip(groups, masks)):
            covering = mask[rows, cols]
            cx, cy = g.centroid
            d2 = (cols - cx) ** 2 + (rows - cy) ** 2
            dist[k, covering] = d2[covering]
        winner = np.argmin(dist, axis=0)
        ids = np.array([g.id for g in groups], dtype=np.int32)
        labels[rows, cols] = ids[winner]
    return labels


def block_group(top, left, height, width, gid):
    return group_at([(y, x) for y in range(top, top + height) for x in range(left, left + width)],
                    gid=gid)


def empty_group(gid):
    return group_at([], gid=gid)


# Each case builds groups for a (width, height, radius); the crop margin is
# radius + 2, so "short of an edge" cases place the member box from it.
CROP_CASES = {
    "touch_each_edge": lambda w, h, r: [
        block_group(0, w // 2 - 3, 4, 6, 1),
        block_group(h // 2 - 3, 0, 6, 4, 2),
        block_group(h // 2 - 3, w - 4, 6, 4, 3),
        block_group(h - 4, w // 2 - 3, 4, 6, 4),
    ],
    "touch_each_corner": lambda w, h, r: [
        block_group(0, 0, 5, 5, 1),
        block_group(0, w - 5, 5, 5, 2),
        block_group(h - 5, 0, 5, 5, 3),
        block_group(h - 5, w - 5, 5, 5, 4),
    ],
    "crop_ends_two_px_short_of_top_left": lambda w, h, r: [
        block_group(r + 4, r + 4, 4, 5, 1),
    ],
    "crop_ends_one_px_short_of_bottom_right": lambda w, h, r: [
        block_group(h - r - 7, w - r - 8, 4, 5, 1),
    ],
    "overlap_with_equidistant_contested_pixels": lambda w, h, r: [
        block_group(h // 2 - 3, w // 2 - 6, 7, 4, 1),
        block_group(h // 2 - 3, w // 2 + 3, 7, 4, 2),
        block_group(h // 2 + 5, w // 2 - 2, 3, 5, 3),
    ],
    # half-pixel steps round half to even, so every row and column is hit
    "members_out_of_frame_and_at_half_pixels": lambda w, h, r: [
        group_at([(y, x) for y in np.arange(5.5, 10) for x in np.arange(7.5, 12, 0.5)]
                 + [(-2.3, 10.0), (7.5, -0.6)], gid=1),
        group_at([(y, x) for y in np.arange(h - 7.5, h - 2, 0.5) for x in np.arange(w - 9.5, w - 4)]
                 + [(h + 4.0, w - 6.5), (h - 4.5, w + 1.7), (h - 0.5, w - 0.5)], gid=2),
    ],
    "empty_group_between_overlapping_groups": lambda w, h, r: [
        block_group(10, 10, 5, 5, 1),
        empty_group(2),
        block_group(10, 17, 5, 5, 3),
    ],
    # crops cut off by the right and bottom frame edges, smaller than the
    # block's, so they fill only part of their slot in the crop stack
    "small_groups_on_right_and_bottom_edges_beside_a_larger_crop": lambda w, h, r: [
        block_group(h // 2 - 4, w // 2 - 4, 8, 8, 1),
        group_at([(h // 2, w - 1), (h // 2 + 1, w - 1)], gid=2),
        group_at([(h - 1, w // 2)], gid=3),
    ],
}


@pytest.mark.parametrize("width,height", [(64, 48), (160, 120)])
@pytest.mark.parametrize("case", sorted(CROP_CASES))
def test_cropped_rasterize_equals_full_frame_reference(case, width, height):
    for radius in range(8):
        m = seg_map(CROP_CASES[case](width, height, radius), width=width, height=height)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            labels = rasterize(m, radius).labels
        with warnings.catch_warnings():
            # the reference takes the centroid of an empty group: nan, with a warning
            warnings.simplefilter("ignore", RuntimeWarning)
            expected = reference_rasterize(m, radius)
        assert np.array_equal(labels, expected), radius


def random_map(rng, width, height):
    """Up to 25 groups in shuffled id order: some empty, blobs of mixed
    spread on a half-pixel lattice, some members out of frame."""
    count = int(rng.integers(1, 26))
    groups = []
    for gid in rng.permutation(np.arange(1, count + 1)):
        n = 0 if rng.random() < 0.2 else int(rng.integers(1, 40))
        spread = rng.uniform(0.5, 6.0)
        cy, cx = rng.uniform(-3, height + 3), rng.uniform(-3, width + 3)
        ys = np.round((cy + rng.normal(0, spread, n)) * 2) / 2
        xs = np.round((cx + rng.normal(0, spread, n)) * 2) / 2
        groups.append(group_at(list(zip(ys, xs)), gid=int(gid)))
    return seg_map(groups, width=width, height=height)


# a small stack cap puts a few groups in each chunk, the default all of them
@pytest.mark.parametrize("stack_voxels", [2000, evaluation._STACK_VOXELS])
def test_rasterize_equals_full_frame_reference_on_random_maps(stack_voxels, monkeypatch):
    monkeypatch.setattr(evaluation, "_STACK_VOXELS", stack_voxels)
    rng = np.random.default_rng(20240531)
    for case in range(200):
        width, height = int(rng.integers(4, 72)), int(rng.integers(4, 56))
        m = random_map(rng, width, height)
        radius = case % 7
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # reference: empty centroid
            expected = reference_rasterize(m, radius)
        assert np.array_equal(rasterize(m, radius).labels, expected), (case, radius)


def window_batch(width, height, radius):
    """A window's worth of maps of one size: empty maps, groups on all four
    frame edges and corners, crops 70, 140 and ``width`` px wide (rows of
    2 to 4 words), contested pixels inside maps, and two maps whose groups
    cover the same pixels, so their pixel indices differ only by the map
    offset."""
    wide = [
        block_group(3, 5, 4, 70, 1),
        block_group(12, 2, 3, 140, 2),
        group_at([(height - 6, 0), (height - 6, width - 1)], gid=3),
    ]
    contested = CROP_CASES["overlap_with_equidistant_contested_pixels"](width, height, radius)
    batches = [
        [],
        CROP_CASES["touch_each_edge"](width, height, radius),
        wide,
        [empty_group(4)],
        contested,
        contested[::-1] + [block_group(height // 2 - 2, width // 2 - 4, 4, 8, 9)],
        CROP_CASES["touch_each_corner"](width, height, radius),
        CROP_CASES["members_out_of_frame_and_at_half_pixels"](width, height, radius),
    ]
    return [seg_map(groups, width=width, height=height, frame_index=i + 2)
            for i, groups in enumerate(batches)]


# 1 puts each group in a stack of its own, and 20000 three to seven of the
# 20 groups, so stacks begin and end inside maps; the default takes all
@pytest.mark.parametrize("stack_voxels", [1, 20000, evaluation._STACK_VOXELS])
def test_rasterize_maps_equals_full_frame_reference_map_by_map(stack_voxels, monkeypatch):
    monkeypatch.setattr(evaluation, "_STACK_VOXELS", stack_voxels)
    for radius in range(8):
        maps = window_batch(200, 60, radius)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            masks = rasterize_maps(maps, radius)
        assert len(masks) == len(maps)
        for i, (m, mask) in enumerate(zip(maps, masks)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # reference: empty centroid
                expected = reference_rasterize(m, radius)
            assert mask.labels.dtype == np.int32 and mask.labels.shape == expected.shape
            assert np.array_equal(mask.labels, expected), (radius, i)


def test_rasterize_maps_radius_of_a_word_and_more(monkeypatch):
    # disc shifts of 64 px and more move whole words, then carry bits
    width, height, radius = 130, 24, 70
    # lone pixels show a missed shift as a one-column gap in their disc
    maps = [
        seg_map(groups, width=width, height=height)
        for groups in (
            [block_group(8, 40, 8, 5, 1), group_at([(5, 100), (15, 110)], gid=2)],
            [],
            [group_at([(12, 10)], gid=5)],
            [group_at([(12, 120)], gid=6)],
        )
    ]
    expected = [reference_rasterize(m, radius) for m in maps]
    assert expected[2][:, 10 + 64].all() and expected[3][:, 120 - 64].all()
    for stack_voxels in (1, evaluation._STACK_VOXELS):
        monkeypatch.setattr(evaluation, "_STACK_VOXELS", stack_voxels)
        masks = rasterize_maps(maps, radius)
        assert all(np.array_equal(m.labels, e) for m, e in zip(masks, expected)), stack_voxels


def test_rasterize_maps_random_windows_match_one_map_calls(monkeypatch):
    monkeypatch.setattr(evaluation, "_STACK_VOXELS", 3000)
    rng = np.random.default_rng(20261018)
    for case in range(40):
        width, height = int(rng.integers(4, 150)), int(rng.integers(4, 40))
        maps = [random_map(rng, width, height) for _ in range(int(rng.integers(1, 6)))]
        radius = case % 8
        masks = rasterize_maps(maps, radius)
        for m, mask in zip(maps, masks):
            assert np.array_equal(mask.labels, rasterize_maps([m], radius)[0].labels), case


def test_rasterize_maps_rejects_maps_of_different_sizes():
    maps = [seg_map([group_at([(1, 1)])], width=32, height=32),
            seg_map([group_at([(1, 1)])], width=32, height=31)]
    with pytest.raises(InputError, match="differ in size"):
        rasterize_maps(maps, 3)
    with pytest.raises(InputError, match="dilation_radius"):
        rasterize_maps(maps[:1], -1)
    assert rasterize_maps([], 3) == []


def test_equidistant_tie_goes_to_lower_id_in_any_list_order():
    # column 12 lies 4.5 px from both centroids (x = 7.5 and 16.5)
    low = block_group(10, 6, 8, 4, 1)
    high = block_group(10, 15, 8, 4, 2)
    expected = oracle_rasterize([low, high], 32, 32, 3)
    assert (expected[:, 12] == 1).sum() > 0
    for groups in ([low, high], [high, low]):
        assert np.array_equal(rasterize(seg_map(groups), 3).labels, expected)


def test_rasterize_memory_bounded_for_many_frame_wide_groups():
    # 255 groups whose member boxes each span a 540x960 frame: unchunked,
    # their crops alone would take 255 frames of booleans
    h, w = 540, 960
    groups = [
        group_at([(0, 0), (h - 1, w - 1), (gid, 3 * gid)], gid=gid) for gid in range(1, 256)
    ]
    tracemalloc.start()
    try:
        labels = rasterize(seg_map(groups, width=w, height=h), 3).labels
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * h * w
    assert np.unique(labels).size == 256


def test_only_empty_groups_paint_nothing():
    m = seg_map([empty_group(1), empty_group(2)])
    for radius in (0, 3):
        assert not rasterize(m, radius).labels.any()


def crowd_spec(frames=10):
    """Twelve 40x40 blocks on a 4x3 grid of 80x80 cells, all eight
    directions present, each path inside its own cell (the shape of the
    benchmark's crowd workload, placed without a seed)."""
    directions = ((2, 0), (2, 2), (0, 2), (-2, 2), (-2, 0), (-2, -2), (0, -2), (2, -2))
    headings = (0, 5, 2, 7, 4, 1, 6, 3, 0, 2, 4, 6)
    blocks = []
    for cell, heading in enumerate(headings):
        vx, vy = directions[heading]
        x = (cell % 4) * 80 + 20 - vx * (frames - 1) // 2
        y = (cell // 4) * 80 + 20 - vy * (frames - 1) // 2
        blocks.append(BlockSpec(rect=(x, y, 40, 40), velocity=(float(vx), float(vy)),
                                texture_seed=cell + 1))
    return SceneSpec(320, 240, frames, tuple(blocks), background_seed=99)


@pytest.mark.parametrize("scene", ["crowd", "one-way"])
def test_cropped_rasterize_equals_full_frame_reference_on_scenes(scene, one_way_scene):
    if scene == "crowd":
        data = generate_scene(crowd_spec())
        assert not data.truncated
        frames, window = data.frames, 10
    else:
        frames, window = one_way_scene.frames, 4
    run = segment_video(frames, PipelineConfig(window_size=window, seed=1))
    assert len(run.maps) == 9
    if scene == "crowd":
        assert min(len(m.groups) for _, m in run.maps) >= 8
    for _, m in run.maps:
        for radius in range(8):
            assert np.array_equal(rasterize(m, radius).labels, reference_rasterize(m, radius))


def test_rasterize_maps_on_scene_windows_equals_full_frame_reference(one_way_scene):
    data = generate_scene(crowd_spec(frames=20))
    for frames, window in ((data.frames, 10), (one_way_scene.frames[:12], 4)):
        run = segment_video(frames, PipelineConfig(window_size=window, seed=1))
        for maps in run.window_maps:
            for radius in (0, 3, 5):
                masks = rasterize_maps([m for _, m in maps], radius)
                for (_, m), mask in zip(maps, masks):
                    assert np.array_equal(mask.labels, reference_rasterize(m, radius))


def test_rasterize_maps_reuses_no_memory_it_returns(one_way_scene):
    # rasterize_maps keeps member-sized working buffers per thread that
    # grow and never shrink; masks it returned stay as they were, and a
    # smaller batch after a larger one gives the masks of a fresh call
    data = generate_scene(crowd_spec(frames=20))
    windows = segment_video(data.frames, PipelineConfig(window_size=10, seed=1)).window_maps
    small = segment_video(one_way_scene.frames[:4], PipelineConfig(window_size=4, seed=1)).window_maps
    batches = [[m for _, m in maps] for maps in (*windows, *small)]
    expected = [[reference_rasterize(m, 3) for m in batch] for batch in batches]
    kept = []
    for batch, want in zip(batches, expected):
        masks = rasterize_maps(batch, 3)
        assert all(np.array_equal(mask.labels, w) for mask, w in zip(masks, want))
        kept.append(masks)
    for masks, want in zip(kept, expected):
        assert all(np.array_equal(mask.labels, w) for mask, w in zip(masks, want))


def in_fresh_thread(fn):
    """``fn()`` run in a new thread, one with no buffers; what it raises
    is raised here."""
    out = []

    def run():
        try:
            out.append(fn())
        except BaseException as exc:  # handed to the calling thread, which raises it
            out.append(exc)

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    if isinstance(out[0], BaseException):
        raise out[0]
    return out[0]


def test_a_float_radius_leaves_a_thread_rasterizing_as_a_fresh_one():
    # A float radius is an InputError, and the int call after it in that
    # thread gives the masks of a thread that made no float call.
    maps = window_batch(200, 60, 3)

    def float_then_int():
        with pytest.raises(InputError, match="dilation_radius"):
            rasterize_maps(maps, 3.0)
        return rasterize_maps(maps, 3)

    clean = in_fresh_thread(lambda: rasterize_maps(maps, 3))
    after = in_fresh_thread(float_then_int)
    assert len(after) == len(clean) == len(maps)
    for a, c in zip(after, clean):
        assert np.array_equal(a.labels, c.labels)


def test_a_thread_buffer_has_the_dtype_asked_for():
    # a buffer made for one dtype is never handed back for another
    def float_then_int():
        scratch("rasterize.corner", 8, np.float64)[:] = 0.5
        return scratch("rasterize.corner", 4, np.int64), scratch("rasterize.corner", 8, np.float64)

    ints, floats = in_fresh_thread(float_then_int)
    assert ints.dtype == np.int64 and ints.shape == (4,)
    assert floats.dtype == np.float64 and (floats == 0.5).all()


# --- the coverage metric -------------------------------------------------------


def test_accuracy_perfect():
    gt = np.zeros((8, 8), int)
    gt[2:5, 2:5] = 255
    assert accuracy(gt, gt) == 1.0


def test_accuracy_disjoint():
    seg = np.zeros((8, 8), int)
    gt = np.zeros((8, 8), int)
    seg[0:2, 0:2] = 1
    gt[5:7, 5:7] = 255
    assert accuracy(seg, gt) == 0.0


def test_accuracy_half_coverage():
    gt = np.zeros((10, 10), int)
    gt[0, :] = 255  # 10 px
    seg = np.zeros((10, 10), int)
    seg[0, :5] = 3  # covers 5 of them
    assert accuracy(seg, gt) == 0.5


def test_accuracy_empty_gt_rejected():
    with pytest.raises(MetricError):
        accuracy(np.ones((4, 4), int), np.zeros((4, 4), int))


def test_accuracy_dim_mismatch():
    with pytest.raises(InputError):
        accuracy(np.ones((4, 4), int), np.ones((4, 5), int))


@given(seed=st.integers(0, 2**32 - 1))
def test_accuracy_monotone_in_added_pixels(seed):
    rng = np.random.default_rng(seed)
    gt = (rng.random((12, 12)) < 0.4).astype(int)
    if gt.sum() == 0:
        gt[0, 0] = 1
    seg = (rng.random((12, 12)) < 0.3).astype(int)
    grown = seg.copy()
    grown[rng.integers(0, 12), rng.integers(0, 12)] = 1
    assert accuracy(grown, gt) >= accuracy(seg, gt)


@given(seed=st.integers(0, 2**32 - 1), h=st.integers(1, 64), w=st.integers(1, 64))
def test_accuracy_equals_pixel_counting(seed, h, w):
    rng = np.random.default_rng(seed)
    seg = rng.integers(0, 3, (h, w))
    gt = rng.integers(0, 2, (h, w)) * 255
    if gt.sum() == 0:
        gt[0, 0] = 255
    hit = sum(
        1 for y in range(h) for x in range(w) if seg[y, x] > 0 and gt[y, x] > 0
    )
    denom = sum(1 for y in range(h) for x in range(w) if gt[y, x] > 0)
    assert accuracy(seg, gt) == hit / denom


def test_iou_known_value():
    seg = np.zeros((4, 4), int)
    gt = np.zeros((4, 4), int)
    seg[0, :2] = 1  # 2 px
    gt[0, 1:3] = 255  # 2 px, overlap 1
    assert iou(seg, gt) == pytest.approx(1 / 3)


def test_resample_nearest_downscale():
    src = np.arange(16).reshape(4, 4)
    out = resample_nearest(src, (2, 2))
    assert out.shape == (2, 2)
    # center-aligned: target pixel centers land on source rows/cols 1 and 3
    assert np.array_equal(out, src[[1, 3]][:, [1, 3]])
    assert np.array_equal(resample_nearest(src, (4, 4)), src)


def test_disc_element_shapes():
    assert disc_element(0).tolist() == [[True]]
    assert disc_element(1).sum() == 5  # the plus shape
    assert disc_element(2).sum() == 13


# --- report ---------------------------------------------------------------------


def run_result_for(maps, window):
    last = max(fi for fi, _ in maps)
    count = (last + window - 1) // window
    windows = [(w * window + 1, (w + 1) * window) for w in range(count)]
    window_maps = [[m for m in maps if first <= m[0] <= last] for first, last in windows]
    return RunResult(window_maps=window_maps, timings=[], windows=windows, skipped_frames=[])


def test_report_all_perfect():
    pixels = [(y, x) for y in range(4, 8) for x in range(4, 8)]
    maps = []
    gt = {}
    for fi in (2, 3, 5, 6):
        maps.append((fi, seg_map([group_at(pixels)], width=16, height=16, frame_index=fi)))
        mask = np.zeros((16, 16), np.uint8)
        mask[4:8, 4:8] = 255
        gt[fi] = mask
    rep = report(run_result_for(maps, window=3), gt, dilation_radius=0)
    assert rep.mean_accuracy == 1.0
    assert all(r.accuracy == 1.0 for r in rep.rows)
    assert [r.is_window_start for r in rep.rows] == [True, False, True, False]
    assert [r.window_index for r in rep.rows] == [1, 1, 2, 2]
    assert [r.step for r in rep.rows] == [0, 1, 0, 1]


def test_report_alternating_half():
    pixels = [(0, x) for x in range(8)]  # 8 px row
    maps = []
    gt = {}
    for fi, cover in ((2, 1.0), (3, 0.5), (5, 1.0), (6, 0.5)):
        maps.append((fi, seg_map([group_at(pixels)], width=16, height=16, frame_index=fi)))
        mask = np.zeros((16, 16), np.uint8)
        width = 8 if cover == 1.0 else 16
        mask[0, :width] = 255
        gt[fi] = mask
    rep = report(run_result_for(maps, window=3), gt, dilation_radius=0)
    assert rep.mean_accuracy == pytest.approx(0.75)
    assert rep.window_means == {1: pytest.approx(0.75), 2: pytest.approx(0.75)}


def test_report_missing_frame_named():
    maps = [(2, seg_map([group_at([(1, 1)])], frame_index=2))]
    with pytest.raises(MetricError, match="frame 2"):
        report(run_result_for(maps, window=3), {}, dilation_radius=0)
    # a run with no windows has nothing to score
    empty = RunResult(window_maps=[], timings=[], windows=[], skipped_frames=[])
    with pytest.raises(MetricError, match="no maps to score"):
        report(empty, {}, dilation_radius=0)


def uneven_windows(source, w, first_frame):
    """Cut windows of 4, 5 and 4 frames, whatever ``w`` is."""
    frames = list(source)
    for number, (start, end) in enumerate(((0, 4), (4, 9), (9, 13)), 1):
        yield number, first_frame + start, frames[start:end]


def test_report_windows_come_from_the_run(monkeypatch):
    # every map is scored in the window the run cut, with its own seed
    # flag and step, not in the layout of the first window's length
    monkeypatch.setattr(pipeline, "_windows", uneven_windows)
    scene = generate_scene(preset_scene("two-way", frame_count=13))
    run = segment_video(scene.frames, PipelineConfig(window_size=4, seed=1))
    rep = report(run, dict(enumerate(scene.masks, start=1)))
    assert [r.frame_index for r in rep.rows] == [2, 3, 4, 6, 7, 8, 9, 11, 12, 13]
    assert [r.window_index for r in rep.rows] == [1, 1, 1, 2, 2, 2, 2, 3, 3, 3]
    assert [r.frame_index for r in rep.rows if r.is_window_start] == [2, 6, 11]
    assert [r.step for r in rep.rows] == [0, 1, 2, 0, 1, 2, 3, 0, 1, 2]
    assert sorted(rep.window_means) == [1, 2, 3]


def test_report_csv_roundtrip(tmp_path):
    pixels = [(2, 2)]
    maps = [(2, seg_map([group_at(pixels)], frame_index=2))]
    gt = {2: np.zeros((32, 32), np.uint8)}
    gt[2][2, 2] = 255
    rep = report(run_result_for(maps, window=3), gt, dilation_radius=0)
    out = tmp_path / "accuracy.csv"
    rep.write_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "frame_index,window_index,accuracy,iou,is_window_start"
    assert lines[1].startswith("2,1,1.000000,1.000000,1")


@pytest.mark.parametrize(
    "windows, steps",
    [
        ([0, 2, 2, 5, 5, 5], [None, 0, 1, 0, 1, 2]),
        ([1, 2, 1, 0, 2, 1], [0, 0, 1, None, 1, 2]),
    ],
    ids=["runs", "interleaved"],
)
def test_score_frames_takes_windows_from_the_caller(windows, steps):
    # windows of any length, numbered as the caller numbers them, their maps
    # in any order; a map's step counts its window's maps before it. Window 0
    # is no window: no step, no seed flag, no window mean
    mask = np.zeros((8, 8), np.uint8)
    mask[2:4, 2:4] = 1
    labelled = [(frame, window, mask) for frame, window in enumerate(windows, start=1)]
    rep = score_frames(labelled, {frame: mask for frame in range(1, 7)})
    assert [r.window_index for r in rep.rows] == windows
    assert [r.step for r in rep.rows] == steps
    assert [r.is_window_start for r in rep.rows] == [step == 0 for step in steps]
    assert rep.window_means == {w: 1.0 for w in windows if w}


# --- overlays --------------------------------------------------------------------


def test_overlay_empty_mask_passthrough():
    frame = Frame(np.arange(64, dtype=np.uint8).reshape(8, 8))
    rgb = render_overlay(frame, LabelMask(np.zeros((8, 8), np.int32)))
    assert np.array_equal(rgb, np.repeat(frame.data[:, :, None], 3, axis=2))


def test_overlay_full_frame_uniform_blend():
    frame = Frame(np.full((8, 8), 100, np.uint8))
    rgb = render_overlay(frame, LabelMask(np.full((8, 8), 2, np.int32)))
    assert (rgb.reshape(-1, 3) == rgb[0, 0]).all()
    assert not np.array_equal(rgb[0, 0], np.array([100, 100, 100]))


def test_overlay_deterministic():
    rng = np.random.default_rng(3)
    frame = Frame(rng.integers(0, 255, (16, 16), dtype=np.uint8))
    labels = LabelMask(rng.integers(0, 3, (16, 16)).astype(np.int32))
    a = render_overlay(frame, labels)
    b = render_overlay(frame, labels)
    assert np.array_equal(a, b)


def test_overlay_dim_mismatch():
    with pytest.raises(InputError):
        render_overlay(Frame(np.zeros((8, 8), np.uint8)), LabelMask(np.zeros((4, 4), np.int32)))


def reference_overlay(frame, mask):
    """One full-frame compare and three masked writes per label."""
    gray = frame.data.astype(np.float64)
    rgb = np.repeat(gray[:, :, None], 3, axis=2)
    for label_id in np.unique(mask.labels):
        if label_id == 0:
            continue
        color = label_color(int(label_id))
        where = mask.labels == label_id
        for c in range(3):
            channel = rgb[:, :, c]
            channel[where] = (1.0 - OVERLAY_ALPHA) * gray[where] + OVERLAY_ALPHA * color[c]
    return np.clip(np.rint(rgb), 0, 255).astype(np.uint8)


@pytest.mark.parametrize("seed", range(8))
def test_overlay_matches_per_label_reference(seed):
    rng = np.random.default_rng(seed)
    h, w = (120, 160) if seed % 2 else (37, 53)
    frame = Frame(rng.integers(0, 256, (h, w), dtype=np.uint8))
    ids = rng.choice(np.arange(1, 256), size=int(rng.integers(1, 41)), replace=False)
    labels = np.where(rng.random((h, w)) < 0.4, 0, rng.choice(ids, size=(h, w)))
    mask = LabelMask(labels.astype(np.int32))
    out = render_overlay(frame, mask)
    ref = reference_overlay(frame, mask)
    assert out.dtype == ref.dtype and out.shape == ref.shape
    assert out.tobytes() == ref.tobytes()


def test_render_overlays_equal_one_frame_calls():
    rng = np.random.default_rng(11)
    h, w = 30, 41
    frames = [Frame(rng.integers(0, 256, (h, w), dtype=np.uint8)) for _ in range(5)]
    masks = [LabelMask(np.zeros((h, w), np.int32))]  # an empty mask among labeled ones
    for ids in ([3, 7], [7, 9, 200], [2, 255], [5]):
        masks.append(LabelMask(np.where(rng.random((h, w)) < 0.5, 0, rng.choice(ids, (h, w)))))
    out = render_overlays(frames, masks)
    assert len(out) == len(frames)
    for frame, mask, rgb in zip(frames, masks, out):
        ref = render_overlay(frame, mask)
        assert rgb.dtype == ref.dtype and rgb.shape == ref.shape
        assert rgb.tobytes() == ref.tobytes()
        assert rgb.tobytes() == reference_overlay(frame, mask).tobytes()
    assert render_overlays([], []) == []
    with pytest.raises(InputError):
        render_overlays(frames[:2], masks[:1])
    with pytest.raises(InputError):
        render_overlays([frames[0], Frame(np.zeros((h, w + 1), np.uint8))],
                        [masks[0], LabelMask(np.zeros((h, w + 1), np.int32))])


@pytest.mark.parametrize("label", [256, -1, 2**31 - 1])
def test_a_label_outside_0_255_is_an_input_error_that_names_it(label):
    rng = np.random.default_rng(12)
    h, w = 24, 33
    frames = [Frame(rng.integers(0, 256, (h, w), dtype=np.uint8)) for _ in range(3)]
    masks = [LabelMask(np.where(rng.random((h, w)) < 0.5, 0, rng.choice(ids, (h, w))))
             for ids in ([3, 7], [7, label], [5, 255])]
    with pytest.raises(InputError, match=rf"label {label} is outside 0\.\.255"):
        render_overlays(frames, masks)
    with pytest.raises(InputError, match=rf"label {label} is outside 0\.\.255"):
        render_overlay(frames[1], masks[1])
    assert render_overlay(frames[2], masks[2]).tobytes() == reference_overlay(frames[2], masks[2]).tobytes()


@pytest.mark.parametrize(
    "ids",
    [[1, 2, 127, 128, 255], [-7, -1, 3], [256, 300, 4096, 70_000], [1, 2**31 - 1],
     [-(2**31), -5, 255, 2**31 - 1], list(range(1, 256))],
    ids=["bytes", "negative", "above-255", "largest", "mixed", "every-byte"],
)
def test_overlay_table_matches_reference_on_every_gray_level(ids):
    # Every gray level under every byte label of ids, and once as
    # background; a label outside 0..255 is an InputError that names it.
    byte_ids = [label_id for label_id in ids if 0 <= label_id <= 255]
    levels = np.arange(256, dtype=np.uint8)
    frame = Frame(np.tile(levels, (len(byte_ids) + 1, 1)))
    labels = np.zeros(frame.data.shape, np.int32)
    for row, label_id in enumerate(byte_ids):
        labels[row] = label_id
    mask = LabelMask(labels)
    out = render_overlay(frame, mask)
    ref = reference_overlay(frame, mask)
    assert out.dtype == ref.dtype == np.uint8 and out.shape == ref.shape
    assert out.tobytes() == ref.tobytes()
    assert np.array_equal(out[-1], np.repeat(levels[:, None], 3, axis=1))
    for label_id in set(ids) - set(byte_ids):
        labels[0] = label_id
        with pytest.raises(InputError, match=rf"label {label_id} is outside"):
            render_overlay(frame, LabelMask(labels))


@pytest.mark.parametrize("radius", [np.uint64(3), np.int8(3)], ids=["uint64", "int8"])
def test_a_numpy_integer_radius_gives_the_masks_of_an_int(radius):
    maps = window_batch(200, 60, 3)
    masks = rasterize_maps(maps, radius)
    assert len(masks) == len(maps)
    for mask, expected in zip(masks, rasterize_maps(maps, 3)):
        assert np.array_equal(mask.labels, expected.labels)


def test_masks_must_be_2d():
    with pytest.raises(InputError, match="label mask must be 2-D"):
        LabelMask(np.zeros(4, np.int32))
    with pytest.raises(InputError, match="mask must be 2-D"):
        accuracy(np.zeros(4), np.ones((2, 2)))


def test_iou_refuses_two_shapes_and_scores_two_empty_masks_one():
    with pytest.raises(InputError, match="mask dimensions differ"):
        iou(np.zeros((2, 3)), np.zeros((3, 2)))
    assert iou(np.zeros((4, 4)), np.zeros((4, 4))) == 1.0
