import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import ndimage

from flowseg import (
    BlockSpec,
    InputError,
    KeypointParams,
    LangevinParams,
    PipelineConfig,
    SceneSpec,
    ar1_stationary_variance,
    bench_compare,
    generate_scene,
    noise_texture,
    ou_statistics,
    preset_scene,
    segment_flow,
)
from flowseg.config import dump, format_config, load, parse_config_text
from flowseg.io import FlowField
from flowseg.synth import PRESETS


def one_block_spec(velocity=(2.0, 0.0), frames=8):
    return SceneSpec(
        width=64, height=48, frame_count=frames,
        blocks=(BlockSpec(rect=(4, 10, 16, 12), velocity=velocity, texture_seed=3),),
        background_seed=1,
    )


def test_masks_translate_with_block():
    scene = generate_scene(one_block_spec())
    for t, mask in enumerate(scene.masks):
        expected = np.zeros((48, 64), np.uint8)
        x0 = 4 + 2 * t
        expected[10:22, x0 : x0 + 16] = 1
        assert np.array_equal(mask, expected)


def test_gt_flow_is_block_velocity_inside():
    scene = generate_scene(one_block_spec())
    for t, flow in enumerate(scene.flows):
        inside = scene.masks[t] > 0
        assert (flow.u[inside] == 2.0).all()
        assert (flow.v[inside] == 0.0).all()
        assert (flow.u[~inside] == 0.0).all()


def test_opposite_blocks_quantize_to_opposite_bins():
    spec = SceneSpec(
        width=64, height=48, frame_count=4,
        blocks=(
            BlockSpec(rect=(4, 4, 12, 12), velocity=(2.0, 0.0), texture_seed=1),
            BlockSpec(rect=(44, 30, 12, 12), velocity=(-2.0, 0.0), texture_seed=2),
        ),
        background_seed=5,
    )
    scene = generate_scene(spec)
    seg = segment_flow(scene.flows[0], KeypointParams(0.4, 8))
    assert [g.bin for g in seg.groups] == [0, 4]
    # every moving pixel is a member: no pixel falls in another bin
    assert sum(g.size for g in seg.groups) == np.count_nonzero(scene.masks[0])


def test_zero_velocity_gives_empty_masks():
    scene = generate_scene(one_block_spec(velocity=(0.0, 0.0)))
    assert all((mask == 0).all() for mask in scene.masks)
    assert all((f.u == 0).all() and (f.v == 0).all() for f in scene.flows)


def test_block_exit_reported_and_truncated():
    scene = generate_scene(one_block_spec(velocity=(8.0, 0.0), frames=10))
    assert scene.truncated
    last = scene.masks[-1]
    assert last.sum() == 0 or last[:, -1].any() or True  # mask clipped, never errors
    for mask in scene.masks:
        assert mask.shape == (48, 64)


def test_frames_deterministic():
    a = generate_scene(one_block_spec())
    b = generate_scene(one_block_spec())
    for fa, fb in zip(a.frames, b.frames):
        assert np.array_equal(fa.data, fb.data)


def test_noise_level_changes_frames_deterministically():
    spec = one_block_spec()
    noisy_spec = SceneSpec(
        width=spec.width, height=spec.height, frame_count=spec.frame_count,
        blocks=spec.blocks, background_seed=spec.background_seed, noise_level=5.0,
    )
    clean = generate_scene(spec)
    noisy1 = generate_scene(noisy_spec)
    noisy2 = generate_scene(noisy_spec)
    assert not np.array_equal(clean.frames[0].data, noisy1.frames[0].data)
    assert np.array_equal(noisy1.frames[0].data, noisy2.frames[0].data)


def test_spec_validation():
    with pytest.raises(InputError):
        SceneSpec(width=64, height=48, frame_count=4,
                  blocks=(BlockSpec(rect=(60, 0, 16, 12), velocity=(0, 0)),))
    with pytest.raises(InputError):
        SceneSpec(width=4, height=4, frame_count=4, blocks=())
    with pytest.raises(InputError):
        one_block_spec(frames=0)
    for noise_level in (math.nan, math.inf):
        with pytest.raises(InputError, match="noise_level"):
            replace(one_block_spec(), noise_level=noise_level)
    with pytest.raises(InputError, match="background_seed=-1"):
        replace(one_block_spec(), background_seed=-1)
    with pytest.raises(InputError, match="texture seed -5"):
        SceneSpec(width=64, height=48, frame_count=4,
                  blocks=(BlockSpec(rect=(4, 10, 16, 12), velocity=(1, 0), texture_seed=-5),))
    with pytest.raises(InputError, match="whole pixels"):
        SceneSpec(width=64, height=48, frame_count=4,
                  blocks=(BlockSpec(rect=(4.7, 4, 16, 16), velocity=(1, 0)),))


THREE_BLOCKS = SceneSpec(
    width=64, height=48, frame_count=4, noise_level=6.0,
    blocks=(
        BlockSpec(rect=(2, 2, 8, 8), velocity=(1.0, 0.0), texture_seed=7),
        BlockSpec(rect=(20, 2, 8, 8), velocity=(0.0, 1.0), texture_seed=2),
        BlockSpec(rect=(40, 20, 8, 8), velocity=(0.0, 0.0), texture_seed=9),
    ),
)


@pytest.mark.parametrize("spec", [*PRESETS.values(), THREE_BLOCKS], ids=[*PRESETS, "three-blocks"])
def test_spec_config_roundtrip(spec):
    assert load(SceneSpec, parse_config_text(format_config(dump(spec)))) == spec


def test_spec_config_block_defaults():
    # a block with no seed key takes its number (block 2), one with no velocity key (0, 0) (block 3)
    lines = format_config(dump(THREE_BLOCKS)).splitlines()
    text = "\n".join(line for line in lines if not line.startswith(("block2_seed", "block3_velocity")))
    assert load(SceneSpec, parse_config_text(text)) == THREE_BLOCKS


def test_unknown_preset():
    with pytest.raises(InputError):
        preset_scene("three-way")


def test_texture_determinism_and_contrast():
    a = noise_texture(32, 32, seed=4)
    b = noise_texture(32, 32, seed=4)
    assert np.array_equal(a, b)
    assert a.min() == 0 and a.max() == 255


# --- reference forms -------------------------------------------------------------
# generate_scene draws its noise into one buffer, makes its flows float32 from
# the start and noise_texture normalises in place; these are the plain forms
# those replaced, and each test below compares bytes and bit patterns with one.


def reference_noise_texture(height, width, seed):
    rng = np.random.default_rng(seed)
    img = ndimage.gaussian_filter(rng.random((height, width)), 1.0, mode="wrap")
    lo, hi = img.min(), img.max()
    if hi > lo:
        img = (img - lo) / (hi - lo)
    return np.rint(img * 255).astype(np.uint8)


def reference_scene(spec):
    """(frames, masks, flows, truncated) of ``spec``: noise from
    ``normal(0.0, noise_level)``, flows made in float64."""
    background = reference_noise_texture(spec.height, spec.width, spec.background_seed)
    textures = [reference_noise_texture(b.rect[3], b.rect[2], b.texture_seed) for b in spec.blocks]
    frames, masks, truncated, placements = [], [], [], []
    for t in range(spec.frame_count):
        img = background.copy()
        mask = np.zeros((spec.height, spec.width), dtype=np.uint8)
        frame_placement = []
        for number, (blk, tex) in enumerate(zip(spec.blocks, textures), start=1):
            x0 = int(round(blk.rect[0] + blk.velocity[0] * t))
            y0 = int(round(blk.rect[1] + blk.velocity[1] * t))
            bw, bh = blk.rect[2], blk.rect[3]
            xs, ys = max(x0, 0), max(y0, 0)
            xe, ye = min(x0 + bw, spec.width), min(y0 + bh, spec.height)
            if xs >= xe or ys >= ye:
                truncated.append((t + 1, number))
                frame_placement.append(None)
                continue
            if (xe - xs, ye - ys) != (bw, bh):
                truncated.append((t + 1, number))
            img[ys:ye, xs:xe] = tex[ys - y0 : ye - y0, xs - x0 : xe - x0]
            moving = blk.velocity[0] != 0 or blk.velocity[1] != 0
            if moving:
                mask[ys:ye, xs:xe] = number
            frame_placement.append((xs, ys, xe, ye) if moving else None)
        if spec.noise_level > 0:
            rng = np.random.default_rng((spec.background_seed, 7919, t))
            noisy = img.astype(np.float64) + rng.normal(0.0, spec.noise_level, img.shape)
            img = np.clip(np.rint(noisy), 0, 255).astype(np.uint8)
        frames.append(img)
        masks.append(mask)
        placements.append(frame_placement)
    flows = []
    for t in range(spec.frame_count - 1):
        u = np.zeros((spec.height, spec.width), dtype=np.float64)
        v = np.zeros((spec.height, spec.width), dtype=np.float64)
        for blk, placed in zip(spec.blocks, placements[t]):
            if placed is None:
                continue
            xs, ys, xe, ye = placed
            u[ys:ye, xs:xe] = blk.velocity[0]
            v[ys:ye, xs:xe] = blk.velocity[1]
        flows.append(FlowField(u=u, v=v))
    return frames, masks, flows, truncated


REFERENCE_SCENES = {
    "one-way": preset_scene("one-way"),
    "two-way": preset_scene("two-way"),
    "static": preset_scene("static"),
    "two-way-noise-6": replace(preset_scene("two-way"), noise_level=6.0),
    "two-way-noise-0.3": replace(preset_scene("two-way"), noise_level=0.3),
    # block 1 leaves the frame on the right; block 2 stands still
    "clipped-and-still": SceneSpec(
        width=64, height=48, frame_count=8,
        blocks=(
            BlockSpec(rect=(40, 4, 16, 12), velocity=(5.0, 0.0), texture_seed=3),
            BlockSpec(rect=(8, 28, 12, 12), velocity=(0.0, 0.0), texture_seed=4),
        ),
        background_seed=2, noise_level=6.0,
    ),
    "sub-pixel": one_block_spec(velocity=(1.5, 0.5)),
    # components that float32 rounds: the flow bits show where it rounds
    "inexact-velocity": one_block_spec(velocity=(0.7, -1 / 3)),
}


@pytest.mark.parametrize("name", REFERENCE_SCENES)
def test_scene_matches_reference_form(name):
    spec = REFERENCE_SCENES[name]
    frames, masks, flows, truncated = reference_scene(spec)
    scene = generate_scene(spec)
    assert scene.truncated == truncated
    assert (name == "clipped-and-still") == bool(truncated)
    assert [f.data.tobytes() for f in scene.frames] == [f.tobytes() for f in frames]
    assert [m.tobytes() for m in scene.masks] == [m.tobytes() for m in masks]
    assert len(scene.flows) == len(flows)
    for got, want in zip(scene.flows, flows):
        assert got.u.dtype == got.v.dtype == np.float32
        assert got.u.tobytes() == want.u.tobytes() and got.v.tobytes() == want.v.tobytes()
        assert got.valid.all()


@pytest.mark.parametrize("shape", [(1, 1), (3, 7), (32, 32), (60, 80)])
@pytest.mark.parametrize("seed", [0, 4, 2**31 - 2])
def test_noise_texture_matches_reference_form(shape, seed):
    got = noise_texture(*shape, seed=seed)
    assert got.dtype == np.uint8
    assert got.tobytes() == reference_noise_texture(*shape, seed).tobytes()


# --- velocity-process statistics oracle ------------------------------------------


def test_stationary_variance_matches_ar1_closed_form():
    # re-derivation: v' = a*v + c*xi with a = 1 - gamma, c = xi_d,
    # so Var = c^2 / (1 - a^2) = 0.01 / 0.96 at the default operating point
    params = LangevinParams(confinement_stiffness=0.0)
    expected = 0.1**2 / (1.0 - 0.2**2)
    assert ar1_stationary_variance(0.8, 0.1) == pytest.approx(expected)
    stats = ou_statistics(params, steps=20_000, particles=4, seed=3)
    assert stats.variance == pytest.approx(expected, rel=0.05)
    assert abs(stats.autocorr_lag1 - 0.2) < 0.05


def test_zero_noise_zero_variance():
    params = LangevinParams(xi_d_x=0.0, xi_d_y=0.0, confinement_stiffness=0.0)
    stats = ou_statistics(params, steps=200, particles=8, seed=0)
    assert stats.variance == 0.0


def test_undamped_variance_grows_linearly():
    # with gamma = 0 the velocity is a random walk: Var after n steps is
    # xi_d^2 * n
    params = LangevinParams(gamma_x=0.0, gamma_y=0.0, xi_d_x=0.1, xi_d_y=0.1,
                            confinement_stiffness=0.0)
    for steps in (400, 800):
        stats = ou_statistics(params, steps=steps, particles=3000, seed=9)
        expected = 0.01 * steps
        assert stats.final_ensemble_variance == pytest.approx(expected, rel=0.15)


def test_undamped_closed_form_is_infinite():
    assert ar1_stationary_variance(0.0, 0.1) == math.inf


def test_ou_statistics_validation():
    with pytest.raises(InputError):
        ou_statistics(LangevinParams(), steps=0)
    with pytest.raises(InputError):
        ou_statistics(LangevinParams(), steps=10, particles=0)


# --- benchmark -------------------------------------------------------------------


@pytest.fixture(scope="module")
def bench_scene():
    return generate_scene(
        SceneSpec(
            width=64, height=64, frame_count=16,
            blocks=(BlockSpec(rect=(6, 20, 16, 24), velocity=(2.0, 0.0), texture_seed=2),),
            background_seed=1,
        )
    )


def test_bench_report_shape(bench_scene, tmp_path):
    cfg = PipelineConfig(window_size=4, seed=1)
    rep = bench_compare(bench_scene.frames, bench_scene.masks, cfg,
                        window_sizes=(4, 5, 6), repeats=1)
    assert [r.window_size for r in rep.rows] == [4, 5, 6]
    assert all(r.ms_per_frame_baseline > 0 and r.ms_per_frame_proposed > 0 for r in rep.rows)
    assert all(0.0 <= r.mean_accuracy <= 1.0 for r in rep.rows)
    out = tmp_path / "bench.csv"
    rep.write_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "window_size,mean_accuracy,ms_per_frame_proposed,ms_per_frame_baseline,speedup"
    assert len(lines) == 4
    assert "repeats per measurement: 1" in rep.table()


def test_bench_baseline_flow_time_dominates(bench_scene):
    # structural: the pipeline computes flow once per window, the baseline
    # once per frame pair, so its flow bill per frame is strictly larger
    from time import perf_counter

    from flowseg import compute_dense_flow, segment_video
    from flowseg.pipeline import PHASE_FLOW

    cfg = PipelineConfig(window_size=4, seed=1)
    run = segment_video(bench_scene.frames, cfg)
    flow_ms = sum(t.milliseconds for t in run.timings if t.phase == PHASE_FLOW)
    proposed_flow_ms = flow_ms / (len(run.window_maps) * 4)
    t0 = perf_counter()
    for a, b in zip(bench_scene.frames[:-1], bench_scene.frames[1:]):
        compute_dense_flow(a, b, cfg.flow)
    baseline_flow_ms = (perf_counter() - t0) * 1e3 / (len(bench_scene.frames) - 1)
    assert baseline_flow_ms >= proposed_flow_ms


def test_bench_requires_enough_frames(bench_scene):
    cfg = PipelineConfig(window_size=4, seed=1)
    with pytest.raises(InputError):
        bench_compare(bench_scene.frames[:10], bench_scene.masks[:10], cfg,
                      window_sizes=(6,), repeats=1)


def test_bench_divides_by_the_frames_in_whole_windows(bench_scene, monkeypatch):
    # every timed region reads as 1 s; of 16 frames, |W| = 5 runs 15 and |W| = 7 runs 14
    import flowseg.synth

    clock = itertools.count()
    monkeypatch.setattr(flowseg.synth, "perf_counter", lambda: next(clock))
    rep = bench_compare(bench_scene.frames, bench_scene.masks, PipelineConfig(window_size=4, seed=1),
                        window_sizes=(5, 7), repeats=1)
    assert [r.ms_per_frame_proposed for r in rep.rows] == [pytest.approx(1000 / 15), pytest.approx(1000 / 14)]
    assert rep.rows[0].ms_per_frame_baseline == pytest.approx(1000 / 15)


def test_bench_mixed_sizes_names_frame_before_any_flow(monkeypatch):
    # every frame is checked against the first, numbered from 1, before the
    # baseline computes any flow
    import flowseg.pipeline
    import flowseg.synth
    from flowseg import Frame

    def no_flow(*args, **kwargs):
        raise AssertionError("computed flow before checking the frame sizes")

    monkeypatch.setattr(flowseg.synth, "compute_dense_flow", no_flow)
    monkeypatch.setattr(flowseg.pipeline, "compute_dense_flow", no_flow)
    frames = [Frame(np.full((62 if n == 9 else 64, 64), n, np.uint8)) for n in range(1, 13)]
    masks = [np.zeros(f.data.shape, np.uint8) for f in frames]
    with pytest.raises(InputError, match=r"^inconsistent frame dimensions: frame 9 is \(64, 62\), "
                                         r"frame 1 is \(64, 64\)$"):
        bench_compare(frames, masks, PipelineConfig(window_size=3), window_sizes=(3,), repeats=1)


# --- flows built on read -----------------------------------------------------------


def test_scene_builds_no_flow_until_one_is_read(monkeypatch):
    import flowseg.synth

    built = []

    def counted(*args, **kwargs):
        built.append(1)
        return FlowField(*args, **kwargs)

    monkeypatch.setattr(flowseg.synth, "FlowField", counted)
    spec = REFERENCE_SCENES["two-way"]
    scene = generate_scene(spec)
    assert built == []
    assert len(scene.flows) == spec.frame_count - 1
    assert built == []
    scene.flows[3]
    assert len(built) == 1
    assert sum(1 for _ in scene.flows) == spec.frame_count - 1
    assert len(built) == spec.frame_count


def test_scene_flows_take_negative_indices_and_stop_at_the_end():
    spec = REFERENCE_SCENES["clipped-and-still"]
    _, _, flows, _ = reference_scene(spec)
    scene = generate_scene(spec)
    n = spec.frame_count - 1
    for t in (-1, -n, n - 1, 0):
        assert scene.flows[t].u.tobytes() == flows[t].u.tobytes()
        assert scene.flows[t].v.tobytes() == flows[t].v.tobytes()
    for t in (n, n + 5, -n - 1):
        with pytest.raises(IndexError):
            scene.flows[t]
    assert len(list(scene.flows)) == n


def test_one_frame_scene_has_no_flows():
    scene = generate_scene(one_block_spec(frames=1))
    assert len(scene.flows) == 0 and list(scene.flows) == []
    with pytest.raises(IndexError):
        scene.flows[0]


@pytest.mark.parametrize("name", ["clipped-and-still", "two-way-noise-6"])
def test_iter_scene_yields_each_frame_with_its_clipped_blocks(name):
    from flowseg import iter_scene

    spec = REFERENCE_SCENES[name]
    frames, masks, _, truncated = reference_scene(spec)
    items = list(iter_scene(spec))
    assert [f.data.tobytes() for f, _, _ in items] == [f.tobytes() for f in frames]
    assert [m.tobytes() for _, m, _ in items] == [m.tobytes() for m in masks]
    assert [e for _, _, clipped in items for e in clipped] == truncated
    assert all(t == i for i, (_, _, clipped) in enumerate(items, start=1) for t, _ in clipped)


def test_spec_refuses_an_empty_rect_and_a_non_finite_velocity():
    for rect in ((4, 10, 0, 12), (4, 10, 16, 0)):
        with pytest.raises(InputError, match="block 1: empty rect"):
            SceneSpec(width=64, height=48, frame_count=4, blocks=(BlockSpec(rect=rect, velocity=(1, 0)),))
    for velocity in ((math.nan, 0.0), (0.0, math.inf)):
        with pytest.raises(InputError, match="block 1: non-finite velocity"):
            SceneSpec(width=64, height=48, frame_count=4,
                      blocks=(BlockSpec(rect=(4, 10, 16, 12), velocity=velocity),))


def test_bench_refuses_no_window_sizes_and_repeats_below_one(bench_scene):
    cfg = PipelineConfig(window_size=4, seed=1)
    with pytest.raises(InputError, match="window_sizes must be nonempty"):
        bench_compare(bench_scene.frames, bench_scene.masks, cfg, window_sizes=(), repeats=1)
    with pytest.raises(InputError, match="repeats must be >= 1"):
        bench_compare(bench_scene.frames, bench_scene.masks, cfg, window_sizes=(4,), repeats=0)
