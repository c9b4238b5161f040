import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowseg import (
    FlowField,
    InputError,
    KeypointParams,
    QuantizedMap,
    detect_peaks,
    group_keypoints,
    segment_flow,
)
from flowseg.flow import compute_dense_flow
from flowseg.keypoints import NONE_BIN, Group, SegmentationMap, maps_identical
from flowseg.synth import generate_scene, preset_scene

TWO_PI = 2.0 * math.pi


def field_from(u, v, valid=None):
    return FlowField(u=np.asarray(u, np.float32), v=np.asarray(v, np.float32), valid=valid)


def zero_flow(shape):
    return FlowField(u=np.zeros(shape, np.float32), v=np.zeros(shape, np.float32))


# --- reference forms ----------------------------------------------------------
# segment_flow takes directions and bins on kept pixels only. These are the
# same stages on the whole field, in plain numpy;
# test_segment_flow_matches_stage_chain binds segment_flow to them bit for bit.


def magnitude_orientation(flow):
    """Speed and direction in [0, 2pi) of every flow vector, in float64;
    a zero vector's direction is 0."""
    u, v = flow.u.astype(np.float64), flow.v.astype(np.float64)
    mag = np.hypot(u, v)
    ori = np.mod(np.arctan2(v, u), TWO_PI)
    ori[ori >= TWO_PI] = 0.0  # mod can round to exactly 2pi
    ori[mag == 0.0] = 0.0
    return mag, ori


def quantize(flow, magnitude_threshold, bin_count):
    """Bin k, centred on direction k*2pi/b, for each valid pixel at least
    ``magnitude_threshold`` fast; NONE_BIN for every other pixel."""
    mag, ori = magnitude_orientation(flow)
    keep = flow.valid & (mag >= magnitude_threshold)
    bins = np.full(mag.shape, NONE_BIN, np.int16)
    bins[keep] = np.mod(np.floor(ori[keep] * (bin_count / TWO_PI) + 0.5), bin_count)
    return QuantizedMap(bins, bin_count, np.bincount(bins[keep], minlength=bin_count))


def flood_fill_groups(bins, peaks, min_size):
    """Independent oracle: plain BFS flood fill over 8-adjacency, equal bins,
    components ordered by their first pixel in raster order."""
    h, w = bins.shape
    seen = set()
    comps = []
    for r in range(h):
        for c in range(w):
            b = bins[r, c]
            if b not in peaks or (r, c) in seen:
                continue
            stack = [(r, c)]
            seen.add((r, c))
            comp = []
            while stack:
                rr, cc = stack.pop()
                comp.append((rr, cc))
                for dr in (-1, 0, 1):
                    for dc in (-1, 0, 1):
                        nr, nc = rr + dr, cc + dc
                        if (
                            0 <= nr < h
                            and 0 <= nc < w
                            and (nr, nc) not in seen
                            and bins[nr, nc] == b
                        ):
                            seen.add((nr, nc))
                            stack.append((nr, nc))
            comps.append((min(rr * w + cc for rr, cc in comp), int(b), frozenset(comp)))
    comps = [c for c in comps if len(c[2]) >= min_size]
    comps.sort(key=lambda c: c[0])
    return comps


# --- magnitude / orientation ---------------------------------------------


def test_three_four_five_triangle():
    mag, ori = magnitude_orientation(field_from([[3.0]], [[4.0]]))
    assert mag[0, 0] == pytest.approx(5.0)
    assert ori[0, 0] == pytest.approx(0.9273, abs=1e-4)


def test_zero_vector_convention():
    mag, ori = magnitude_orientation(field_from([[0.0]], [[0.0]]))
    assert mag[0, 0] == 0.0
    assert ori[0, 0] == 0.0


def test_negative_axis_full_quadrant():
    mag, ori = magnitude_orientation(field_from([[-1.0]], [[0.0]]))
    assert mag[0, 0] == pytest.approx(1.0)
    assert ori[0, 0] == pytest.approx(math.pi)


def test_invalid_pixels_have_zero_magnitude():
    flow = field_from([[2.0, 2.0]], [[1.0, 1.0]], valid=np.array([[True, False]]))
    mag, _ = magnitude_orientation(flow)
    assert mag[0, 1] == 0.0
    assert flow.valid[0, 0] and not flow.valid[0, 1]


@given(seed=st.integers(0, 2**32 - 1))
def test_mag_ori_ranges(seed):
    rng = np.random.default_rng(seed)
    mag, ori = magnitude_orientation(
        field_from(rng.standard_normal((6, 6)) * 5, rng.standard_normal((6, 6)) * 5)
    )
    assert (mag >= 0).all()
    assert (ori >= 0).all() and (ori < TWO_PI).all()


# --- quantization ----------------------------------------------------------


def ori_field(angle, mag=1.0):
    return field_from([[mag * math.cos(angle)]], [[mag * math.sin(angle)]])


def test_quantize_small_angle_bin_zero():
    q = quantize(ori_field(0.1), 0.4, 8)
    assert q.bins[0, 0] == 0


def test_quantize_below_threshold_none():
    q = quantize(ori_field(0.1, mag=0.3), 0.4, 8)
    assert q.bins[0, 0] == NONE_BIN
    assert q.histogram.sum() == 0


def test_quantize_bins_centered_on_directions():
    # angles within half a bin width of a compass direction map to that
    # direction's bin, so near-axis motion never splits across two bins
    q = quantize(ori_field(TWO_PI - 1e-6), 0.4, 8)
    assert q.bins[0, 0] == 0
    q = quantize(ori_field(7 * TWO_PI / 8), 0.4, 8)
    assert q.bins[0, 0] == 7
    q = quantize(ori_field(math.pi + 0.01), 0.4, 8)
    assert q.bins[0, 0] == 4
    q = quantize(ori_field(math.pi - 0.01), 0.4, 8)
    assert q.bins[0, 0] == 4


def test_quantize_excludes_invalid_even_at_zero_threshold():
    flow = field_from([[1.0, 1.0]], [[0.0, 0.0]], valid=np.array([[True, False]]))
    q = quantize(flow, 0.0, 8)
    assert q.bins[0, 0] == 0
    assert q.bins[0, 1] == NONE_BIN


def test_quantize_validation():
    with pytest.raises(InputError):
        KeypointParams(0.4, 1)
    with pytest.raises(InputError):
        KeypointParams(0.4, 32768)  # beyond the int16 bin map
    with pytest.raises(InputError):
        KeypointParams(-0.1, 8)
    for size in (0, -3):  # a group of no keypoints is no group
        with pytest.raises(InputError, match="min_group_size"):
            KeypointParams(min_group_size=size)


def test_nan_threshold_is_rejected():
    # NaN >= 0 is false: a NaN threshold keeps no pixel, so it must not
    # pass as an empty map
    with pytest.raises(InputError, match="magnitude_threshold"):
        KeypointParams(math.nan, 8)


@given(seed=st.integers(0, 2**32 - 1), bins=st.integers(2, 12))
def test_histogram_counts_kept_pixels(seed, bins):
    rng = np.random.default_rng(seed)
    q = quantize(field_from(rng.standard_normal((8, 8)), rng.standard_normal((8, 8))), 0.4, bins)
    assert q.histogram.sum() == np.count_nonzero(q.bins != NONE_BIN)
    assert q.histogram.shape == (bins,)


@given(
    seed=st.integers(0, 2**32 - 1),
    t1=st.floats(0.0, 2.0),
    t2=st.floats(0.0, 2.0),
)
def test_threshold_monotonicity(seed, t1, t2):
    lo, hi = sorted((t1, t2))
    rng = np.random.default_rng(seed)
    flow = field_from(rng.standard_normal((10, 10)), rng.standard_normal((10, 10)))
    kept_lo = np.count_nonzero(quantize(flow, lo, 8).bins != NONE_BIN)
    kept_hi = np.count_nonzero(quantize(flow, hi, 8).bins != NONE_BIN)
    assert kept_hi <= kept_lo


@given(seed=st.integers(0, 2**32 - 1), bins=st.integers(2, 12))
def test_rotation_covariance(seed, bins):
    rng = np.random.default_rng(seed)
    # angles kept away from bin boundaries so one exact-bin-width rotation
    # cannot flip a pixel across a boundary through rounding alone
    width = TWO_PI / bins
    base = rng.integers(0, bins, (6, 6)) * width
    jitter = rng.uniform(-0.4, 0.4, (6, 6)) * width
    angles = base + jitter
    mags = rng.uniform(1.0, 3.0, (6, 6))
    u, v = mags * np.cos(angles), mags * np.sin(angles)
    rot = np.exp(1j * width)
    rotated = (u + 1j * v) * rot
    q1 = quantize(field_from(u, v), 0.4, bins)
    q2 = quantize(field_from(rotated.real, rotated.imag), 0.4, bins)
    keep = q1.bins != NONE_BIN
    assert np.array_equal(q2.bins[keep], (q1.bins[keep] + 1) % bins)


# --- peak detection ---------------------------------------------------------


def test_two_isolated_maxima():
    assert detect_peaks(np.array([100, 0, 0, 0, 80, 0, 0, 0])) == {0, 4}


def test_empty_histogram():
    assert detect_peaks(np.zeros(8, int)) == set()


def test_single_peak_with_fraction_rule():
    # hand evaluation: 50 > 10 (left), 50 >= 10 (right), 50 >= 0.05 * 79
    assert detect_peaks(np.array([10, 50, 10, 0, 0, 0, 0, 9])) == {1}


def test_argmax_fallback_on_plateau():
    assert detect_peaks(np.array([5, 5, 5, 5])) == {0}


@given(hist=st.lists(st.integers(0, 1000), min_size=2, max_size=12))
def test_peaks_match_rule_restatement(hist):
    h = np.array(hist)
    total = h.sum()
    frac = 0.05
    expected = set()
    b = len(h)
    for i in range(b):
        if h[i] > h[(i - 1) % b] and h[i] >= h[(i + 1) % b] and h[i] >= frac * total:
            expected.add(i)
    if not expected and total > 0:
        expected = {int(np.argmax(h))}
    assert detect_peaks(h) == expected


# --- grouping ---------------------------------------------------------------


def quantized_from_bins(bins):
    bins = np.asarray(bins, np.int16)
    hist = np.bincount(bins[bins != NONE_BIN], minlength=8)
    return QuantizedMap(bins=bins, bin_count=8, histogram=hist)


def test_two_disjoint_blobs_two_groups():
    bins = np.full((40, 60), NONE_BIN, np.int16)
    bins[5:15, 5:15] = 2
    bins[5:15, 35:45] = 2
    seg = group_keypoints(quantized_from_bins(bins), {2}, zero_flow(bins.shape))
    assert [g.size for g in seg.groups] == [100, 100]
    assert [g.id for g in seg.groups] == [1, 2]
    assert all(g.bin == 2 for g in seg.groups)


def test_adjacent_pixels_different_bins_stay_separate():
    bins = np.full((4, 4), NONE_BIN, np.int16)
    bins[1, 1] = 0
    bins[1, 2] = 4
    seg = group_keypoints(quantized_from_bins(bins), {0, 4}, zero_flow(bins.shape), min_group_size=1)
    assert len(seg.groups) == 2
    assert {g.bin for g in seg.groups} == {0, 4}


def test_random_scatter_matches_flood_fill_oracle():
    rng = np.random.default_rng(17)
    bins = np.full((100, 100), NONE_BIN, np.int16)
    flat = rng.choice(100 * 100, size=200, replace=False)
    bins[np.unravel_index(flat, bins.shape)] = 3
    seg = group_keypoints(quantized_from_bins(bins), {3}, zero_flow(bins.shape), min_group_size=1)
    oracle = flood_fill_groups(bins, {3}, 1)
    assert len(seg.groups) == len(oracle)
    for g, (_, b, pixels) in zip(seg.groups, oracle):
        assert g.bin == b
        assert frozenset(zip(g.y.astype(int), g.x.astype(int))) == pixels


@settings(max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    h=st.integers(4, 32),
    w=st.integers(4, 32),
    density=st.floats(0.05, 0.9),
    min_size=st.integers(1, 6),
)
def test_grouping_matches_oracle_and_partitions(seed, h, w, density, min_size):
    rng = np.random.default_rng(seed)
    bins = np.where(
        rng.random((h, w)) < density, rng.integers(0, 4, (h, w)), NONE_BIN
    ).astype(np.int16)
    peaks = {0, 2}
    seg = group_keypoints(quantized_from_bins(bins), peaks, zero_flow(bins.shape), min_group_size=min_size)
    oracle = flood_fill_groups(bins, peaks, min_size)

    assert [g.id for g in seg.groups] == list(range(1, len(oracle) + 1))
    pixel_sets = []
    for g, (_, b, pixels) in zip(seg.groups, oracle):
        got = frozenset(zip(g.y.astype(int), g.x.astype(int)))
        assert g.bin == b
        assert got == pixels
        assert g.size >= min_size
        pixel_sets.append(got)
    # partition: no pixel in two groups, all group pixels share the bin
    all_pixels = [p for s in pixel_sets for p in s]
    assert len(all_pixels) == len(set(all_pixels))
    for g in seg.groups:
        assert np.all(bins[g.y.astype(int), g.x.astype(int)] == g.bin)


def test_group_velocities_sampled_from_flow():
    u = np.zeros((6, 6), np.float32)
    v = np.zeros((6, 6), np.float32)
    u[1:4, 1:4] = 2.0
    v[1:4, 1:4] = -1.0
    flow = FlowField(u=u, v=v)
    seg = segment_flow(flow, KeypointParams(magnitude_threshold=0.4, min_group_size=2))
    assert len(seg.groups) == 1
    g = seg.groups[0]
    assert g.mean_velocity == (2.0, -1.0)
    assert g.centroid == (2.0, 2.0)


def test_centroid_is_the_bits_of_ndarray_mean():
    # Sizes on both sides of the pairwise sum's 8-element unroll and
    # 128-element blocks; y is a strided view.
    rng = np.random.default_rng(5)
    for n in (1, 2, 7, 8, 9, 127, 128, 129, 1000, 4099):
        x, y = rng.uniform(0, 320, n), rng.normal(100, 50, 2 * n)[::2]
        g = Group(1, 0, x, y, np.zeros(n), np.zeros(n), np.zeros(n, bool))
        assert g.centroid == (float(x.mean()), float(y.mean()))
    empty = Group(1, 0, *(np.zeros(0) for _ in range(4)), np.zeros(0, bool))
    with pytest.warns(RuntimeWarning):
        assert np.isnan(empty.centroid).all()


def test_peaks_outside_bin_range_rejected():
    bins = np.full((4, 4), NONE_BIN, np.int16)
    with pytest.raises(InputError):
        group_keypoints(quantized_from_bins(bins), {9}, zero_flow(bins.shape))


def test_flow_of_another_shape_rejected():
    # member velocities are read at the bin map's rows and columns, which
    # are other pixels on a field of another shape
    bins = np.full((4, 6), NONE_BIN, np.int16)
    bins[1:3, 1:4] = 0
    with pytest.raises(InputError, match="flow shape"):
        group_keypoints(quantized_from_bins(bins), {0}, zero_flow((8, 10)), min_group_size=1)


# --- the whole chain ----------------------------------------------------------

# float32(0.4) is the magnitude of a float32 vector (0.4, 0) in float64.
AT_THRESHOLD = float(np.float32(0.4))


def edge_case_flow():
    """Blocks at 32 headings (every bin edge of 4, 8 and 16 bins) and at
    magnitudes 1, exactly ``AT_THRESHOLD`` and just below it, on a ground
    of zero and ``-0.0`` vectors; headings just below 2pi, including one
    whose ``mod`` rounds to 2pi; invalid pixels inside blocks; and specks
    of 1-5 pixels, smaller than the default ``min_group_size``."""
    u = np.zeros((44, 64), np.float32)
    v = np.zeros((44, 64), np.float32)
    u[:, ::3] = -0.0
    below = np.nextafter(np.float32(AT_THRESHOLD), np.float32(0.0))
    for k in range(32):
        top, left = 5 * (k // 8), 8 * (k % 8)
        mag = (1.0, AT_THRESHOLD, below)[k % 3]
        angle = k * TWO_PI / 32
        u[top : top + 4, left : left + 6] = mag * math.cos(angle)
        v[top : top + 4, left : left + 6] = mag * math.sin(angle)
    u[0:4, 0:3] = np.float32(AT_THRESHOLD)  # on the x axis: exact magnitude
    v[0:4, 0:3] = 0.0
    u[20:24, 0:12], v[20:24, 0:12] = 1.0, -1e-7  # just below 2pi
    u[20:24, 12:24], v[20:24, 12:24] = 1.0, -1e-30  # mod rounds to 2pi
    u[20:24, 24:36], v[20:24, 24:36] = 1.0, 1.0  # an edge of 4 bins
    rng = np.random.default_rng(3)
    for _ in range(40):
        r, c, n = rng.integers(26, 44), rng.integers(0, 60), rng.integers(1, 6)
        angle = rng.uniform(0.0, TWO_PI)
        u[r, c : c + n], v[r, c : c + n] = 2.0 * math.cos(angle), 2.0 * math.sin(angle)
    valid = np.ones(u.shape, bool)
    valid[::5, ::7] = False
    valid[30:34, 40:50] = False
    return FlowField(u=u, v=v, valid=valid)


@functools.cache
def chain_flow(name):
    if name == "edge-cases":
        return edge_case_flow()
    spec = preset_scene(name.removesuffix("-noisy"), 2)
    if name.endswith("-noisy"):
        spec = replace(spec, noise_level=6.0)
    a, b = generate_scene(spec).frames
    return compute_dense_flow(a, b)


@pytest.mark.parametrize("bin_count", [4, 8, 16])
@pytest.mark.parametrize("threshold", [0.0, 0.4, AT_THRESHOLD])
@pytest.mark.parametrize("name", ["one-way", "two-way", "two-way-noisy", "edge-cases"])
def test_segment_flow_matches_stage_chain(name, threshold, bin_count):
    flow = chain_flow(name)
    quantized = quantize(flow, threshold, bin_count)
    chain = group_keypoints(quantized, detect_peaks(quantized.histogram), flow)
    fused = segment_flow(flow, KeypointParams(threshold, bin_count))
    assert maps_identical(fused, chain)
    assert fused.groups


def test_maps_identical_is_false_on_frame_size_group_count_and_clamped():
    def group(clamped=False):
        pts = np.arange(3.0)
        return Group(1, 0, pts, pts, pts, pts, np.full(3, clamped))

    def seg_map(groups, frame_index=2, width=8):
        return SegmentationMap(frame_index, width, 8, groups)

    base = seg_map([group()])
    assert maps_identical(base, seg_map([group()]))
    assert not maps_identical(base, seg_map([group()], frame_index=3))
    assert not maps_identical(base, seg_map([group()], width=9))
    assert not maps_identical(base, seg_map([group(), group()]))
    assert not maps_identical(base, seg_map([group(clamped=True)]))
