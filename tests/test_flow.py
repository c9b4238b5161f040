import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import ndimage

from flowseg import (
    BlockSpec,
    FlowParams,
    Frame,
    InputError,
    SceneSpec,
    compute_dense_flow,
    generate_scene,
    noise_texture,
    preset_scene,
)
from flowseg import flow as flow_module

SHIFTS = [(1, 0), (0, 1), (2, 2), (-3, 1)]


def shifted_pair(shift, seed=3, shape=(96, 128)):
    tex = noise_texture(shape[0], shape[1], seed)
    a = Frame(tex)
    b = Frame(np.roll(tex, (shift[1], shift[0]), axis=(0, 1)))
    return a, b


def test_identical_frames_zero_flow():
    tex = noise_texture(64, 64, seed=9)
    flow = compute_dense_flow(Frame(tex), Frame(tex), FlowParams(downscale=1))
    mags = np.hypot(flow.u, flow.v)[flow.valid]
    assert mags.size > 0
    assert np.median(np.hypot(flow.u, flow.v)) == 0.0
    assert (mags < 0.1).all()


def test_constant_frame_all_invalid():
    flat = Frame(np.full((32, 32), 131, np.uint8))
    flow = compute_dense_flow(flat, flat, FlowParams(downscale=1))
    assert not flow.valid.any()
    assert (flow.u == 0).all() and (flow.v == 0).all()


@pytest.mark.parametrize("shift", SHIFTS)
def test_shift_recovery(shift):
    a, b = shifted_pair(shift)
    flow = compute_dense_flow(a, b, FlowParams(downscale=1))
    assert flow.valid.mean() > 0.9
    assert abs(np.median(flow.u[flow.valid]) - shift[0]) <= 0.5
    assert abs(np.median(flow.v[flow.valid]) - shift[1]) <= 0.5


def test_shift_two_px_right_median_band():
    a, b = shifted_pair((2, 0))
    flow = compute_dense_flow(a, b, FlowParams(downscale=1))
    assert 1.5 <= np.median(flow.u[flow.valid]) <= 2.5
    assert -0.5 <= np.median(flow.v[flow.valid]) <= 0.5


@pytest.mark.parametrize("shift", SHIFTS)
def test_downscale_consistency(shift):
    a, b = shifted_pair(shift)
    flow = compute_dense_flow(a, b, FlowParams(downscale=2))
    assert flow.width == a.width // 2 and flow.height == a.height // 2
    assert abs(2 * np.median(flow.u[flow.valid]) - shift[0]) <= 1.0
    assert abs(2 * np.median(flow.v[flow.valid]) - shift[1]) <= 1.0


def test_textureless_patch_invalid():
    tex = noise_texture(64, 64, seed=4).copy()
    tex[16:48, 16:48] = 90  # flat interior patch
    flow = compute_dense_flow(Frame(tex), Frame(tex), FlowParams(downscale=1))
    assert not flow.valid[28:36, 28:36].any()
    assert flow.valid[:8, :8].all()


def test_dimension_mismatch():
    with pytest.raises(InputError):
        compute_dense_flow(
            Frame(np.zeros((32, 32), np.uint8)),
            Frame(np.zeros((32, 34), np.uint8)),
            FlowParams(),
        )


def test_not_divisible_by_downscale():
    frame = Frame(np.zeros((33, 32), np.uint8))
    with pytest.raises(InputError):
        compute_dense_flow(frame, frame, FlowParams(downscale=2))


def test_below_minimum_pyramid_size():
    frame = Frame(noise_texture(8, 8, seed=1))
    with pytest.raises(InputError):
        compute_dense_flow(frame, frame, FlowParams(downscale=2))


def test_determinism():
    a, b = shifted_pair((2, 2))
    params = FlowParams(downscale=1)
    f1 = compute_dense_flow(a, b, params)
    f2 = compute_dense_flow(a, b, params)
    assert np.array_equal(f1.u, f2.u)
    assert np.array_equal(f1.v, f2.v)
    assert np.array_equal(f1.valid, f2.valid)


# the id is the one this case has had since the list also held the
# pyramid, window and iteration fields, which are constants now
@pytest.mark.parametrize("kwargs", [{"downscale": 0}], ids=["kwargs3"])
def test_param_validation(kwargs):
    with pytest.raises(InputError):
        FlowParams(**kwargs)


def scipy_median(field):
    return ndimage.median_filter(field, size=7, mode="nearest")


def median_input(kind, shape, seed):
    if kind == "constant":
        return np.full(shape, 3.25)
    field = np.random.default_rng(seed).normal(size=shape)
    return np.round(field * 2.0) / 2.0 if kind == "ties" else field


@pytest.mark.parametrize("kind", ["normal", "ties", "constant"])
# (16, 23), (17, 23) and (33, 7): one band exactly, one band and one row,
# and a last band of one row on a field as narrow as the window.
@pytest.mark.parametrize("shape", [(8, 8), (8, 161), (37, 53), (120, 160), (16, 23), (17, 23), (33, 7)])
def test_median_matches_scipy(shape, kind):
    field = median_input(kind, shape, seed=shape[0] * shape[1])
    assert np.array_equal(flow_module._median(field), scipy_median(field).astype(np.float32))


def test_median_memory_bounded():
    field = np.random.default_rng(5).normal(size=(540, 960))
    tracemalloc.start()
    try:
        flow_module._median(field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * field.nbytes


def flow_pairs():
    one_way = generate_scene(preset_scene("one-way", 2)).frames
    two_way = generate_scene(preset_scene("two-way", 2)).frames
    noisy = generate_scene(replace(preset_scene("two-way", 2), noise_level=6.0)).frames
    return {"one-way": one_way, "two-way": two_way, "two-way-noisy": noisy}


@pytest.mark.parametrize("downscale", [1, 2])
def test_flow_unchanged_by_partition_median(downscale, monkeypatch):
    params = FlowParams(downscale=downscale)
    for name, (a, b) in flow_pairs().items():
        fast = compute_dense_flow(a, b, params)
        with monkeypatch.context() as patch:
            patch.setattr(flow_module, "_median", scipy_median)
            reference = compute_dense_flow(a, b, params)
        assert np.array_equal(fast.u, reference.u), name
        assert np.array_equal(fast.v, reference.v), name
        assert np.array_equal(fast.valid, reference.valid), name


# The general-purpose forms that four pieces of flow replaced with cheaper
# routes to the same bits; each test below compares bit patterns with one.


def into(out, result):
    """``result``, copied into ``out`` when a caller passes one, as flow's
    buffer-writing helpers do."""
    if out is None:
        return result
    out[...] = result
    return out


def reference_upsample(field, shape, out=None):
    return into(out, ndimage.map_coordinates(field, np.indices(shape) / 2.0, order=1, mode="nearest"))


def reference_block_mean(img, factor, out=None):
    img = img.astype(np.float64)
    if factor == 1:
        return into(out, img)
    h, w = img.shape
    return into(out, img.reshape(h // factor, factor, w // factor, factor).mean(axis=(1, 3)))


def reference_window_sum(stack, radius, output=None):
    size = 2 * radius + 1
    return into(output, np.stack(
        [ndimage.uniform_filter(img, size=size, mode="nearest") * (size * size) for img in stack]
    ))


def reference_median(field):
    """The float32 partition median: the element at index 24 of each
    edge-padded 7x7 window."""
    field = np.asarray(field, dtype=np.float32)
    windows = np.lib.stride_tricks.sliding_window_view(np.pad(field, 3, mode="edge"), (7, 7))
    return np.partition(windows.reshape(*field.shape, 49), 24, axis=-1)[..., 24]


def same_bits(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and np.array_equal(x.view(np.int64), y.view(np.int64))


@pytest.mark.parametrize("kind", ["normal", "halves", "negative-zero"])
@pytest.mark.parametrize("shape", [(16, 20), (15, 21), (17, 16), (53, 37), (120, 160)])
def test_upsample_matches_map_coordinates(shape, kind):
    coarse = ((shape[0] + 1) // 2, (shape[1] + 1) // 2)
    field = np.random.default_rng(shape[0] * shape[1]).normal(size=coarse) * 3.0
    if kind == "halves":
        field = np.round(field * 2.0) / 2.0
    elif kind == "negative-zero":
        field = np.full(coarse, -0.0)
    assert same_bits(flow_module._upsample(field, shape), reference_upsample(field, shape))


@pytest.mark.parametrize("factor", [1, 2, 3, 4, 5])
def test_block_mean_matches_reshape_mean(factor):
    img = np.random.default_rng(factor).integers(0, 256, size=(120, 180)).astype(np.uint8)
    assert same_bits(flow_module._block_mean(img, factor), reference_block_mean(img, factor))


def test_block_mean_sums_without_overflow_at_downscale_17():
    # An all-255 frame gives the largest block sums, 255 * 17**2 at this
    # factor: past what 16 bits hold.
    for img in (np.full((34, 51), 255, np.uint8),
                np.random.default_rng(17).integers(0, 256, size=(34, 51)).astype(np.uint8)):
        assert same_bits(flow_module._block_mean(img, 17), reference_block_mean(img, 17))


@pytest.mark.parametrize("d, dtype", [(1, np.uint16), (2, np.uint16), (16, np.uint16), (17, np.uint32)])
def test_block_sums_are_exact_in_the_narrowest_type_that_holds_them(d, dtype):
    # 255 * 16**2 fits uint16, 255 * 17**2 does not; the all-255 frame has the largest sums
    for img in (np.full((2 * d, 3 * d), 255, np.uint8),
                np.random.default_rng(d).integers(0, 256, (2, 2 * d, 3 * d), dtype=np.uint8)):
        sums = flow_module.block_sums(img, d)
        assert sums.dtype == dtype
        expected = img.reshape(*img.shape[:-2], 2, d, 3, d).sum(axis=(-3, -1), dtype=np.int64)
        assert np.array_equal(sums, expected)
        for frame, alone in zip(img.reshape(-1, 2 * d, 3 * d), sums.reshape(-1, 2, 3)):
            assert np.array_equal(flow_module.block_sums(frame, d), alone)


@pytest.mark.parametrize("radius", [1, 4])
@pytest.mark.parametrize("shape", [(120, 160), (37, 53), (8, 9)])
def test_stacked_window_sum_matches_one_call_per_image(shape, radius):
    stack = np.random.default_rng(radius).normal(size=(5, *shape))
    assert same_bits(flow_module._window_sum(stack, radius), reference_window_sum(stack, radius))


@pytest.mark.parametrize("kind", ["normal", "ties", "constant"])
@pytest.mark.parametrize("shape", [(8, 8), (8, 161), (37, 53), (120, 160)])
def test_median_matches_float_partition_bits(shape, kind):
    # + 0.0 turns the -0.0 that rounding leaves into 0.0: the keys order
    # the two zeros, a float partition does not.
    field = median_input(kind, shape, seed=shape[0] + shape[1]) + 0.0
    fast = flow_module._median(field)
    assert np.array_equal(fast.view(np.int32), reference_median(field).view(np.int32))


@pytest.mark.parametrize("negatives, expect_negative", [(25, True), (24, False)])
def test_median_orders_negative_zero_below_zero(negatives, expect_negative):
    # The centre pixel's 7x7 window is the whole field, sorted -0.0 first.
    field = np.zeros(49)
    field[:negatives] = -0.0
    median = flow_module._median(field.reshape(7, 7))[3, 3]
    assert median == 0.0 and bool(np.signbit(median)) is expect_negative


def odd_pyramid_pair():
    """106x74 frames: the pyramid at downscale 1 is 106x74, 53x37, 27x19."""
    blocks = (BlockSpec(rect=(20, 30, 30, 40), velocity=(2.0, 1.0), texture_seed=5),)
    return generate_scene(SceneSpec(74, 106, 2, blocks, background_seed=3)).frames


@pytest.mark.parametrize("downscale", [1, 2])
def test_flow_unchanged_by_exact_forms(downscale, monkeypatch):
    params = FlowParams(downscale=downscale)
    pairs = {**flow_pairs(), "odd-pyramid": odd_pyramid_pair()}
    for name, (a, b) in pairs.items():
        fast = compute_dense_flow(a, b, params)
        with monkeypatch.context() as patch:
            patch.setattr(flow_module, "_median", reference_median)
            patch.setattr(flow_module, "_upsample", reference_upsample)
            patch.setattr(flow_module, "_block_mean", reference_block_mean)
            patch.setattr(flow_module, "_window_sum", reference_window_sum)
            reference = compute_dense_flow(a, b, params)
        assert np.array_equal(fast.u.view(np.int32), reference.u.view(np.int32)), name
        assert np.array_equal(fast.v.view(np.int32), reference.v.view(np.int32)), name
        assert np.array_equal(fast.valid, reference.valid), name


# The refine loop's workspace forms: a bilinear gather in place of
# map_coordinates for the warps and a gradient written into buffers in
# place of np.gradient. Each is compared bit for bit with the call it
# replaced, then the whole flow with every reference patched back in.

GATHER_SHAPES = [(120, 160), (60, 80), (30, 40), (53, 37), (27, 19)]


def displacements(kind, shape, rng):
    """(dy, dx) of one warp: ``kind`` is zero, integer, half, normal-<sigma>
    or far (uniform up to 1e6 px, with both extremes present)."""
    size = (2, *shape)
    if kind == "zero":
        return np.zeros(size)
    if kind == "integer":
        return rng.integers(-5, 6, size=size).astype(np.float64)
    if kind == "half":
        return rng.integers(-10, 11, size=size) / 2.0
    if kind == "far":
        d = rng.uniform(-1e6, 1e6, size=size)
        d[:, 0, 0], d[:, -1, -1] = 1e6, -1e6
        return d
    return rng.normal(scale=float(kind.split("-")[1]), size=size)


@pytest.mark.parametrize("kind", ["zero", "integer", "half", "normal-0.5", "normal-3", "normal-30", "far"])
@pytest.mark.parametrize("shape", GATHER_SHAPES)
def test_gather_matches_map_coordinates(shape, kind):
    rng = np.random.default_rng(shape[0] * shape[1])
    # A strided view, as the decimated pyramid levels are, with negative
    # values so that corner products can be -0.0.
    img = rng.normal(size=(2 * shape[0], 2 * shape[1]))[::2, ::2] * 50.0
    grid = np.indices(shape, dtype=np.float64)
    gather = flow_module._Gather(img, shape)
    out = np.empty(shape)
    # A first call with other points checks that no buffer carries over.
    gather(*(grid + displacements("normal-3", shape, rng)), out)
    rows, cols = grid + displacements(kind, shape, rng)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        gather(rows, cols, out)
    expected = ndimage.map_coordinates(img, [rows, cols], order=1, mode="nearest")
    assert same_bits(out, expected)


def test_gather_sums_onto_positive_zero():
    # At integer points of an all -0.0 image every corner product is -0.0;
    # scipy's sum starts from 0.0, so the sample is 0.0.
    shape = (27, 19)
    img = np.full(shape, -0.0)
    rows, cols = np.indices(shape, dtype=np.float64)
    out = np.empty(shape)
    flow_module._Gather(img, shape)(rows, cols, out)
    expected = ndimage.map_coordinates(img, [rows, cols], order=1, mode="nearest")
    assert same_bits(out, expected) and not np.signbit(out).any()


@pytest.mark.parametrize("shape", [*GATHER_SHAPES, (8, 9)])
def test_gradient_matches_numpy(shape):
    f = np.random.default_rng(shape[0] + shape[1]).normal(size=shape) * 50.0
    gy, gx = np.full((2, *shape), np.nan)
    flow_module._gradient(f, gy, gx)
    ry, rx = np.gradient(f)
    assert same_bits(gy, ry) and same_bits(gx, rx)


def reference_refine(a, b, u, v, radius, iterations, grid):
    """The allocating constant-tensor refine loop: np.gradient of the first
    frame and its window-summed tensor once, then map_coordinates warps and
    np.stack of fresh products."""
    iy, ix = np.gradient(a)
    sxx, sxy, syy = flow_module._window_sum(np.stack([ix * ix, ix * iy, iy * iy]), radius)
    det = sxx * syy - sxy * sxy
    ok = det > flow_module._DET_EPS
    safe = np.where(ok, det, 1.0)
    for _ in range(iterations):
        bw = ndimage.map_coordinates(b, [grid[0] + v, grid[1] + u], order=1, mode="nearest")
        it = bw - a
        sxt, syt = flow_module._window_sum(np.stack([ix * it, iy * it]), radius)
        du = np.where(ok, (sxy * syt - syy * sxt) / safe, 0.0)
        dv = np.where(ok, (sxy * sxt - sxx * syt) / safe, 0.0)
        u = u + du
        v = v + dv
    return u, v, (sxx, sxy, syy)


def test_refine_matches_reference_where_det_is_small():
    # The right half's texture is too faint for the solve (det below
    # _DET_EPS), so there the update must be 0.0 although its numerator
    # is not.
    rng = np.random.default_rng(7)
    shape = (53, 37)
    a = rng.normal(size=shape) * np.where(np.arange(shape[1]) < 18, 50.0, 1e-3)
    b = np.roll(a, 1, axis=1)
    u, v = rng.normal(size=(2, *shape)) * 0.5
    before = u.copy(), v.copy()
    grid = np.indices(shape, dtype=np.float64)
    fast = flow_module._refine(a, b, u, v, 2, 3, grid)
    reference = reference_refine(a, b, u, v, 2, 3, grid)
    assert same_bits(fast[0], reference[0]) and same_bits(fast[1], reference[1])
    assert all(same_bits(x, y) for x, y in zip(fast[2], reference[2]))
    assert same_bits(u, before[0]) and same_bits(v, before[1])


def reference_texture_test(sxx, sxy, syy, radius):
    disc = np.sqrt(np.maximum((sxx - syy) ** 2 + 4.0 * sxy * sxy, 0.0))
    lam_min = 0.5 * (sxx + syy - disc)
    window_px = (2 * radius + 1) ** 2
    return lam_min >= flow_module.TEXTURE_EIGEN_FLOOR * window_px


def reference_textured(img, radius):
    """The texture mask of ``img`` from scratch: np.gradient, the window-summed
    tensor and the eigenvalue test."""
    iy, ix = np.gradient(img)
    tensor = flow_module._window_sum(np.stack([ix * ix, ix * iy, iy * iy]), radius)
    return reference_texture_test(*tensor, radius)


@pytest.mark.parametrize(
    "downscale, shape",
    [
        (1, {}),
        (2, {}),
        (1, {"PYRAMID_LEVELS": 4, "WINDOW_RADIUS": 3, "ITERATIONS": 3}),
    ],
    ids=["downscale-1", "downscale-2", "levels-4-radius-3-iterations-3"],
)
def test_flow_unchanged_by_refine_workspace(downscale, shape, monkeypatch):
    # ``shape`` patches the estimator's constants, which compute_dense_flow
    # reads at call time, so the exact forms also meet their references at
    # another depth, radius and iteration count
    params = FlowParams(downscale=downscale)
    pairs = {**flow_pairs(), "odd-pyramid": odd_pyramid_pair()}
    for name, (a, b) in pairs.items():
        with monkeypatch.context() as patch:
            for constant, value in shape.items():
                patch.setattr(flow_module, constant, value)
            fast = compute_dense_flow(a, b, params)
            patch.setattr(flow_module, "_refine", reference_refine)
            patch.setattr(flow_module, "_textured", reference_texture_test)
            patch.setattr(flow_module, "_median", reference_median)
            patch.setattr(flow_module, "_upsample", reference_upsample)
            patch.setattr(flow_module, "_block_mean", reference_block_mean)
            patch.setattr(flow_module, "_window_sum", reference_window_sum)
            reference = compute_dense_flow(a, b, params)
        if shape:  # the patched shape took effect
            assert not np.array_equal(fast.u, compute_dense_flow(a, b, params).u), name
        assert np.array_equal(fast.u.view(np.int32), reference.u.view(np.int32)), name
        assert np.array_equal(fast.v.view(np.int32), reference.v.view(np.int32)), name
        assert np.array_equal(fast.valid, reference.valid), name


def contrast_ramp_pair():
    """96x128 noise whose contrast rises from 2 % at the left edge to 30 % at
    the right, then shifted 1 px: the texture floor cuts through it."""
    tex = noise_texture(96, 128, 3).astype(np.float64)
    a = np.rint(128 + (tex - 128) * np.linspace(0.02, 0.3, 128)).astype(np.uint8)
    return Frame(a), Frame(np.roll(a, 1, axis=1))


@pytest.mark.parametrize("downscale", [1, 2])
def test_valid_is_the_texture_test_of_the_finest_level(downscale):
    # the mask comes from the tensor that refine builds on the finest level:
    # it must keep the bits of the eigenvalue test on that level from scratch
    pairs = {**flow_pairs(), "odd-pyramid": odd_pyramid_pair(), "contrast-ramp": contrast_ramp_pair()}
    for name, (a, b) in pairs.items():
        flow = compute_dense_flow(a, b, FlowParams(downscale=downscale))
        level0 = reference_block_mean(a.data, downscale)
        assert np.array_equal(flow.valid, reference_textured(level0, flow_module.WINDOW_RADIUS)), name


def lone_block_flow(velocity, texture_seed=11):
    """The one-way block moving at ``velocity``: flow of its first frame
    pair at downscale 2, and the ground truth's block mean at that scale."""
    base = preset_scene("one-way", 2)
    spec = replace(base, blocks=(replace(base.blocks[0], velocity=velocity, texture_seed=texture_seed),))
    scene = generate_scene(spec)
    flow = compute_dense_flow(*scene.frames[:2], FlowParams(downscale=2))
    truth = scene.flows[0]
    return flow, (reference_block_mean(truth.u, 2) / 2, reference_block_mean(truth.v, 2) / 2)


@pytest.mark.parametrize("texture_seed", [11, 12, 13])
def test_flow_converges_inside_a_translating_block(texture_seed):
    # 2 px/frame is an exact 1 px shift at downscale 2; 6 flow px (12 frame
    # px) inside the 80x120 block no boundary is in reach of the window or
    # the median. The 4-iteration mean-gradient loop read 0.067-0.085 and
    # 0.056-0.073 here.
    flow, _ = lone_block_flow((2.0, 0.0), texture_seed)
    x, y, w, h = preset_scene("one-way").blocks[0].rect
    inner = slice(y // 2 + 6, (y + h) // 2 - 6), slice(x // 2 + 6, (x + w) // 2 - 6)
    assert np.abs(flow.u[inner] - 1.0).mean() <= 0.05
    assert np.abs(flow.v[inner]).mean() <= 0.04


# The first pair's end-point error over valid pixels, at 2, 4, 6 and 8
# px/frame along each axis a direction moves on, of the 4-iteration
# mean-gradient loop, truncated to three decimals: flow must do better.
LONE_BLOCK_EPE = {
    (1, 0): (0.049, 0.089, 0.137, 0.201),
    (1, 1): (0.066, 0.129, 0.218, 0.416),
    (0, -1): (0.043, 0.082, 0.128, 0.159),
}


@pytest.mark.parametrize("direction", list(LONE_BLOCK_EPE), ids=["0deg", "45deg", "-90deg"])
def test_lone_block_epe_below_the_mean_gradient_loop(direction):
    for speed, bound in zip((2, 4, 6, 8), LONE_BLOCK_EPE[direction]):
        flow, (tu, tv) = lone_block_flow((float(speed * direction[0]), float(speed * direction[1])))
        epe = np.hypot(flow.u - tu, flow.v - tv)[flow.valid].mean()
        assert epe <= bound, (speed, epe)


# Flow keeps its working buffers per thread and reuses them across calls;
# only the returned FlowField is new. These check what that must not change.


def run_in_fresh_thread(fn):
    """``fn()`` on a new thread, whose flow buffers start empty."""
    import threading

    result = []
    thread = threading.Thread(target=lambda: result.append(fn()))
    thread.start()
    thread.join()
    return result[0]


def flow_bits(flow):
    return flow.u.tobytes(), flow.v.tobytes(), flow.valid.tobytes()


def size_pairs():
    small = generate_scene(replace(preset_scene("two-way", 2), width=64, height=48,
                                   blocks=(BlockSpec((8, 8, 24, 20), (2.0, 1.0), 11),))).frames
    return {"64x48": small, "320x240": flow_pairs()["two-way-noisy"]}


def test_returned_flow_is_not_changed_by_later_calls():
    pairs = flow_pairs()
    first = compute_dense_flow(*pairs["one-way"])
    kept = flow_bits(first)
    second = compute_dense_flow(*pairs["two-way-noisy"])
    assert flow_bits(first) == kept
    for a in (first.u, first.v, first.valid):
        for b in (second.u, second.v, second.valid):
            assert not np.shares_memory(a, b)


@pytest.mark.parametrize("downscale", [1, 2])
def test_alternating_frame_sizes_give_the_bits_of_fresh_calls(downscale):
    params = FlowParams(downscale=downscale)
    pairs = size_pairs()
    fresh = {name: run_in_fresh_thread(lambda p=pair: flow_bits(compute_dense_flow(*p, params)))
             for name, pair in pairs.items()}
    for name in ("64x48", "320x240", "64x48", "320x240"):
        assert flow_bits(compute_dense_flow(*pairs[name], params)) == fresh[name], name


@pytest.mark.parametrize("downscale", [1, 2])
def test_pyramid_levels_in_buffers_give_the_bits_of_allocated_levels(downscale, monkeypatch):
    # each level is smoothed into a buffer of its own: a buffer shared by
    # two levels would be written while it is read
    params = FlowParams(downscale=downscale)
    pairs = flow_pairs()
    fast = {name: flow_bits(compute_dense_flow(*pair, params)) for name, pair in pairs.items()}
    monkeypatch.setattr(flow_module, "_decimate",
                        lambda img, output=None: ndimage.gaussian_filter(img, 1.0, mode="nearest")[::2, ::2])
    for name, pair in pairs.items():
        assert flow_bits(compute_dense_flow(*pair, params)) == fast[name], name


def test_threads_at_once_give_the_serial_bits():
    # More threads than cores, switching often, each on a pair of its own
    # (two frame sizes among them): every result has the serial bits.
    import sys
    import threading

    pairs = {**flow_pairs(), **size_pairs()}
    names = ["one-way", "two-way-noisy", "64x48", "two-way"]
    serial = {name: flow_bits(compute_dense_flow(*pairs[name])) for name in names}
    start = threading.Barrier(len(names))
    results = {name: [] for name in names}

    def work(name):
        start.wait()
        for _ in range(3):
            results[name].append(flow_bits(compute_dense_flow(*pairs[name])))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(name,)) for name in names]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for name in names:
        assert results[name] == [serial[name]] * 3, name


def test_a_thread_holds_one_frame_sizes_buffers():
    # A thread keeps its largest need: after a 320x240 call, calls on
    # 64x48 and 320x240 frames neither replace a stored array nor add
    # bytes, and the thread holds no more than one that ran 320x240 alone.
    pairs = size_pairs()

    def held():
        return dict(flow_module._local.buffers)

    def large_alone():
        compute_dense_flow(*pairs["320x240"])
        return sum(b.nbytes for b in held().values())

    def alternating():
        compute_dense_flow(*pairs["320x240"])
        before = held()
        for name in ("64x48", "320x240", "64x48", "320x240"):
            compute_dense_flow(*pairs[name])
        return before, held()

    before, after = run_in_fresh_thread(alternating)
    assert before.keys() == after.keys()
    assert all(after[key] is before[key] for key in before)
    assert sum(b.nbytes for b in after.values()) <= run_in_fresh_thread(large_alone)


def test_a_scratch_view_keeps_its_contents_while_another_name_grows():
    def fill_then_grow():
        kept = flow_module.scratch("test.kept", (4, 5))
        kept[...] = np.arange(20).reshape(4, 5)
        for n in (10, 1000, 100_000):
            flow_module.scratch("test.other", n).fill(-1.0)
        return kept, flow_module.scratch("test.kept", (4, 5))

    kept, again = run_in_fresh_thread(fill_then_grow)
    assert np.array_equal(kept, np.arange(20).reshape(4, 5))
    assert np.shares_memory(kept, again) and np.array_equal(again, kept)
