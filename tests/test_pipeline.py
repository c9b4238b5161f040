import logging
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowseg.pipeline
from flowseg import (
    BlockSpec,
    ConfigError,
    Frame,
    InputError,
    KeypointParams,
    LangevinParams,
    PipelineConfig,
    SceneSpec,
    SourceError,
    generate_scene,
    maps_identical,
    segment_video,
    stream_windows,
)
from flowseg.config import format_config, parse_config_text
from flowseg.flow import FlowParams
from flowseg.pipeline import PHASE_FLOW, PHASE_KEYPOINT, PHASE_LANGEVIN, PHASE_SKIPPED

SMALL_SPEC = SceneSpec(
    width=64, height=64, frame_count=24,
    blocks=(BlockSpec(rect=(6, 20, 16, 24), velocity=(2.0, 0.0), texture_seed=2),),
    background_seed=1,
)


@pytest.fixture(scope="module")
def small_frames():
    return generate_scene(SMALL_SPEC).frames


def small_config(window_size=4, seed=3, **kwargs):
    return PipelineConfig(window_size=window_size, seed=seed, **kwargs)


def expected_map_count(total, window):
    # direct count from the windowed loop: every full window yields one
    # seeded map plus window-2 propagated maps
    count = 0
    start = 0
    while start + window <= total:
        count += 1 + (window - 2)
        start += window
    return count


def test_twelve_frames_window_four(small_frames):
    run = segment_video(small_frames[:12], small_config())
    assert len(run.maps) == 9
    assert run.windows == [(1, 4), (5, 8), (9, 12)]
    assert [fi for fi, _ in run.maps] == [2, 3, 4, 6, 7, 8, 10, 11, 12]
    assert run.skipped_frames == []


def test_single_window_boundary(small_frames):
    run = segment_video(small_frames[:4], small_config())
    assert len(run.windows) == 1
    assert len(run.maps) == 3


def test_static_video_zero_groups(small_frames):
    frames = [small_frames[0]] * 8
    run = segment_video(frames, small_config())
    assert len(run.maps) == 6
    assert all(len(m.groups) == 0 for _, m in run.maps)


@settings(max_examples=25)
@given(total=st.integers(3, 16), window=st.integers(3, 6))
def test_map_count_law(small_frames, total, window):
    cfg = small_config(window_size=window)
    if total < window:
        with pytest.raises(InputError):
            segment_video(small_frames[:total], cfg)
    else:
        run = segment_video(small_frames[:total], cfg)
        assert len(run.maps) == expected_map_count(total, window)
        assert len(run.maps) == (total // window) * (window - 1)


def test_too_few_frames(small_frames):
    with pytest.raises(InputError):
        segment_video(small_frames[:3], small_config(window_size=4))


def test_inconsistent_dims(small_frames):
    bad = small_frames[:3] + [Frame(np.zeros((32, 64), np.uint8))]
    with pytest.raises(InputError):
        segment_video(bad, small_config())


def test_timing_rows_one_per_frame(small_frames):
    run = segment_video(small_frames[:12], small_config())
    assert len(run.timings) == 12
    phases = sorted(t.phase for t in run.timings)
    assert phases.count(PHASE_FLOW) == 3
    assert phases.count(PHASE_KEYPOINT) == 3
    assert phases.count(PHASE_LANGEVIN) == 6
    assert {t.frame_index for t in run.timings} == set(range(1, 13))


@pytest.mark.parametrize("window_size", [3, 4, 7])
def test_one_propagation_call_per_window(small_frames, monkeypatch, window_size):
    calls = []
    propagate = flowseg.pipeline.propagate_map

    def counted(seg_map, forces, params, noise, steps, *args, **kwargs):
        calls.append((seg_map.frame_index, steps, args, kwargs))
        return propagate(seg_map, forces, params, noise, steps, *args, **kwargs)

    monkeypatch.setattr(flowseg.pipeline, "propagate_map", counted)
    run = segment_video(small_frames[: 3 * window_size], small_config(window_size=window_size))
    assert calls == [(n * window_size + 2, window_size - 2, (), {}) for n in range(3)]
    for first, last in run.windows:
        rows = [t for t in run.timings if t.phase == PHASE_LANGEVIN and first <= t.frame_index <= last]
        assert [t.frame_index for t in rows] == list(range(first + 2, last + 1))
        assert len({t.milliseconds for t in rows}) == 1


def test_leftover_frames_skipped(small_frames):
    run = segment_video(small_frames[:14], small_config())
    assert run.skipped_frames == [13, 14]
    skipped_rows = [t for t in run.timings if t.phase == PHASE_SKIPPED]
    assert [t.frame_index for t in skipped_rows] == [13, 14]
    assert len(run.timings) == 14


def noiseless(window_size=4):
    return small_config(
        window_size=window_size,
        langevin=LangevinParams(xi_d_x=0.0, xi_d_y=0.0),
    )


def test_window_permutation_permutes_outputs(small_frames):
    # with the random force disabled, each window's maps depend only on its
    # own frames, so swapping whole windows swaps the outputs
    cfg = noiseless()
    frames = small_frames[:8]
    swapped = small_frames[4:8] + small_frames[0:4]
    run_a = segment_video(frames, cfg)
    run_b = segment_video(swapped, cfg)

    def strip_index(maps):
        return [
            [(g.bin, g.x.tolist(), g.vx.tolist(), g.y.tolist()) for g in m.groups]
            for _, m in maps
        ]

    assert strip_index(run_a.maps[:3]) == strip_index(run_b.maps[3:])
    assert strip_index(run_a.maps[3:]) == strip_index(run_b.maps[:3])


def test_maps_derive_from_first_two_frames_only(small_frames):
    frames = list(small_frames[:8])
    run_a = segment_video(frames, small_config())
    # frames past the first two of a window are never consulted: corrupting
    # frame 3 leaves every map bitwise unchanged
    corrupted = list(frames)
    corrupted[2] = Frame(np.roll(frames[2].data, 11, axis=0))
    run_b = segment_video(corrupted, small_config())
    assert all(
        maps_identical(a[1], b[1]) for a, b in zip(run_a.maps, run_b.maps)
    )
    # while the two seed frames do matter
    reseeded = list(frames)
    reseeded[1] = Frame(np.roll(frames[1].data, 11, axis=0))
    run_c = segment_video(reseeded, small_config())
    assert not maps_identical(run_a.maps[0][1], run_c.maps[0][1])


def test_streaming_matches_batch(small_frames):
    cfg = small_config()
    frames = small_frames[:14]
    run = segment_video(frames, cfg)
    streamed = list(stream_windows(iter(frames), cfg))
    assert [w for w, _ in streamed] == [1, 2, 3]
    flat = [m for _, maps in streamed for m in maps]
    assert len(flat) == len(run.maps)
    for (fi_a, map_a), (fi_b, map_b) in zip(run.maps, flat):
        assert fi_a == fi_b
        assert maps_identical(map_a, map_b)


def test_streaming_logs_phase_timings(small_frames, caplog):
    cfg = small_config()
    frames = small_frames[:9]
    with caplog.at_level(logging.DEBUG, logger="flowseg.pipeline"):
        list(stream_windows(iter(frames), cfg))
    rows = [
        re.fullmatch(r"window (\d+) frame (\d+) (\w+) \d+\.\d{3} ms", r.getMessage())
        for r in caplog.records
        if r.name == "flowseg.pipeline" and r.levelno == logging.DEBUG
    ]
    assert all(rows)
    logged = [(int(m[1]), int(m[2]), m[3]) for m in rows]
    assert logged == [
        (1, 1, PHASE_FLOW), (1, 2, PHASE_KEYPOINT), (1, 3, PHASE_LANGEVIN), (1, 4, PHASE_LANGEVIN),
        (2, 5, PHASE_FLOW), (2, 6, PHASE_KEYPOINT), (2, 7, PHASE_LANGEVIN), (2, 8, PHASE_LANGEVIN),
    ]
    batch = segment_video(frames, cfg).timings
    assert [(f, p) for _, f, p in logged] == [
        (t.frame_index, t.phase) for t in batch if t.phase != PHASE_SKIPPED
    ]


def test_streaming_empty_source():
    with pytest.raises(InputError, match="need at least window_size=4 frames, got 0"):
        list(stream_windows(iter([]), small_config()))


@pytest.mark.parametrize("jobs", [1, 3])
def test_a_source_shorter_than_one_window_is_an_input_error_on_every_path(small_frames, jobs):
    cfg = small_config(window_size=4)
    message = "need at least window_size=4 frames, got 3"
    with pytest.raises(InputError, match=message):
        segment_video(small_frames[:3], cfg, jobs=jobs)
    with pytest.raises(InputError, match=message):
        list(flowseg.pipeline.run_windows(iter(small_frames[:3]), cfg, jobs))
    with pytest.raises(InputError, match=message):
        list(stream_windows(iter(small_frames[:3]), cfg))
    # one whole window and leftovers is no error
    assert segment_video(small_frames[:7], cfg, jobs=jobs).skipped_frames == [5, 6, 7]


@pytest.mark.parametrize("jobs", [0, -1])
def test_run_windows_rejects_jobs_below_one(small_frames, jobs):
    with pytest.raises(InputError, match=f"jobs must be >= 1, got {jobs}"):
        list(flowseg.pipeline.run_windows(iter(small_frames[:8]), small_config(), jobs))
    with pytest.raises(InputError, match="jobs must be >= 1"):
        segment_video(small_frames[:8], small_config(), jobs=jobs)


BLOCK = BlockSpec(rect=(6, 20, 16, 24), velocity=(2.0, 0.0), texture_seed=2)
FLOAT_SETTINGS = {  # id: (the setting named in the error, a call that gives it a float)
    "FlowParams.downscale": ("downscale", lambda: FlowParams(downscale=2.0)),
    "KeypointParams.bin_count": ("bin_count", lambda: KeypointParams(bin_count=8.0)),
    "KeypointParams.min_group_size": ("min_group_size", lambda: KeypointParams(min_group_size=10.0)),
    "PipelineConfig.window_size": ("window_size", lambda: PipelineConfig(window_size=4.0)),
    "PipelineConfig.seed": ("seed", lambda: PipelineConfig(window_size=4, seed=1.5)),
    "PipelineConfig.dilation_radius":
        ("dilation_radius", lambda: PipelineConfig(window_size=4, dilation_radius=3.0)),
    "rasterize_maps.dilation_radius": ("dilation_radius", lambda: flowseg.evaluation.rasterize_maps([], 3.0)),
    "SceneSpec.width": ("width", lambda: SceneSpec(64.0, 64, 4, (BLOCK,))),
    "SceneSpec.height": ("height", lambda: SceneSpec(64, 64.0, 4, (BLOCK,))),
    "SceneSpec.frame_count": ("frame_count", lambda: SceneSpec(64, 64, 4.0, (BLOCK,))),
    "SceneSpec.background_seed": ("background_seed", lambda: SceneSpec(64, 64, 4, (BLOCK,), 1.0)),
    "BlockSpec.texture_seed": ("block 1 texture_seed", lambda: SceneSpec(
        64, 64, 4, (BlockSpec((6, 20, 16, 24), (2.0, 0.0), 2.0),))),
}


@pytest.mark.parametrize("name, build", FLOAT_SETTINGS.values(), ids=FLOAT_SETTINGS)
def test_an_integer_setting_given_a_float_is_an_input_error(name, build):
    with pytest.raises(InputError, match=f"{name} must be an integer, got "):
        build()


def test_a_float_integer_setting_is_a_config_error_from_a_config():
    with pytest.raises(ConfigError, match="seed must be an integer"):
        PipelineConfig.from_config(parse_config_text("window_size = 4\n"), seed_override=1.5)
    with pytest.raises(ConfigError, match="window_size must be an integer"):
        PipelineConfig.from_config(parse_config_text(""), window_size=4.0)
    # integers of any integer type still construct
    assert PipelineConfig(window_size=np.int64(4), seed=np.int32(2)).window_size == 4


def test_streaming_source_failure_mid_window(small_frames):
    def failing():
        for i, frame in enumerate(small_frames[:12], start=1):
            if i == 7:
                raise RuntimeError("camera unplugged")
            yield frame

    emitted = []
    with pytest.raises(SourceError) as exc_info:
        for window, maps in stream_windows(failing(), small_config()):
            emitted.append(window)
    assert emitted == [1]
    assert exc_info.value.last_window == 1


@pytest.mark.parametrize("jobs", [1, 3])
@pytest.mark.parametrize("fault, error", [("raise", SourceError), ("resize", InputError)])
def test_run_windows_yields_the_windows_cut_before_a_source_failure(small_frames, jobs, fault, error):
    def failing():
        for i, frame in enumerate(small_frames[:12], start=1):
            if i == 9 and fault == "raise":
                raise RuntimeError("camera unplugged")
            yield Frame(frame.data[:32]) if i == 9 else frame

    emitted = []
    with pytest.raises(error) as exc_info:
        for number, *_ in flowseg.pipeline.run_windows(failing(), small_config(), jobs):
            emitted.append(number)
    assert emitted == [1, 2]
    if fault == "raise":
        assert exc_info.value.last_window == 2


def test_streaming_leftover_clean_stop(small_frames):
    out = list(stream_windows(iter(small_frames[:6]), small_config()))
    assert len(out) == 1


def test_jobs_do_not_change_results(small_frames):
    cfg = small_config()
    run_a = segment_video(small_frames[:16], cfg, jobs=1)
    run_b = segment_video(small_frames[:16], cfg, jobs=3)
    assert len(run_a.maps) == len(run_b.maps)
    for (fi_a, map_a), (fi_b, map_b) in zip(run_a.maps, run_b.maps):
        assert fi_a == fi_b
        assert maps_identical(map_a, map_b)


@settings(max_examples=20)
@given(total=st.integers(3, 20), window=st.integers(3, 6), seed=st.integers(0, 2**63))
def test_batch_streaming_and_jobs_agree(small_frames, total, window, seed):
    cfg = small_config(window_size=window, seed=seed)
    frames = small_frames[:total]
    if total < window:  # every path refuses a source shorter than one window
        for run in (lambda: list(stream_windows(iter(frames), cfg)), lambda: segment_video(frames, cfg),
                    lambda: segment_video(frames, cfg, jobs=3)):
            with pytest.raises(InputError, match="need at least"):
                run()
        return
    streamed = [m for _, maps in stream_windows(iter(frames), cfg) for m in maps]
    batch = segment_video(frames, cfg).maps
    threaded = segment_video(frames, cfg, jobs=3).maps
    assert len(batch) == len(streamed) == len(threaded) == (total // window) * (window - 1)
    for (fa, a), (fb, b), (fc, c) in zip(batch, streamed, threaded):
        assert fa == fb == fc
        assert maps_identical(a, b) and maps_identical(a, c)


def test_odd_frame_size_in_leftover_tail_rejected(small_frames):
    frames = small_frames[:8] + [Frame(np.zeros((32, 64), np.uint8))]
    with pytest.raises(InputError):
        segment_video(frames, small_config())
    with pytest.raises(InputError):
        list(stream_windows(iter(frames), small_config()))


def test_window_size_validation():
    with pytest.raises(InputError):
        PipelineConfig(window_size=2)


CONFIG_TEXT = """
# pipeline settings
window_size = 4
seed = 11
magnitude_threshold = 0.5
flow_downscale = 1
xi_d_x = 0
xi_d_y = 0
"""


def test_config_parsing_defaults_and_overrides():
    cfg = PipelineConfig.from_config(parse_config_text(CONFIG_TEXT))
    assert cfg.window_size == 4
    assert cfg.seed == 11
    assert cfg.keypoint.magnitude_threshold == 0.5
    assert cfg.flow.downscale == 1
    assert cfg.keypoint.bin_count == 8  # default
    assert cfg.langevin.gamma_x == 0.8  # default
    assert cfg.langevin.xi_d_x == cfg.langevin.xi_d_y == 0.0
    assert cfg.force_drift_confine  # default


def test_config_missing_required_key():
    with pytest.raises(ConfigError, match="window_size"):
        PipelineConfig.from_config(parse_config_text("seed = 1"))


def test_config_unknown_key_with_line():
    parsed = parse_config_text("window_size = 4\nwindoow_size = 5\n")
    PipelineConfig.from_config(parsed)
    with pytest.raises(ConfigError, match="line 2"):
        parsed.reject_unknown()


def test_config_parse_error_line_number():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config_text("a = 1\nb = 2\nnot an assignment\n")


def test_config_bad_value_type():
    with pytest.raises(ConfigError, match="window_size"):
        PipelineConfig.from_config(parse_config_text("window_size = four"))


def test_manifest_roundtrip():
    cfg = PipelineConfig(
        window_size=5, seed=9, flow=FlowParams(downscale=1),
        keypoint=KeypointParams(bin_count=12, min_group_size=4),
        langevin=LangevinParams(xi_d_y=0.25),
    )
    back = PipelineConfig.from_config(parse_config_text(format_config(cfg.to_dict())))
    assert back.to_dict() == cfg.to_dict()
    assert back.keypoint == cfg.keypoint


def test_config_comment_starts_at_line_start_or_after_whitespace():
    parsed = parse_config_text("# a comment\na = x#y\nb = x #y\nc = x\t#y\nd = #y\n")
    assert [parsed.get_str(k) for k in "abcd"] == ["x#y", "x", "x", ""]


@pytest.mark.parametrize("value", ["a#b", "", "a=b", "runs/a#b/frames"])
def test_format_config_values_parse_back(value):
    assert parse_config_text(format_config({"k": value}, header="a # header")).get_str("k") == value


@pytest.mark.parametrize("value", ["a #b", "a\t#b", "#b", " a", "a ", "a\nb", "a\rb", "a\u2028b"])
def test_format_config_rejects_a_value_that_would_not_parse_back(value):
    with pytest.raises(ConfigError, match="'k'"):
        format_config({"k": value})


def test_config_keys_are_the_stage_settings_in_field_order():
    # the keypoint section's keys carry no prefix, so manifests keep their keys and order
    assert list(PipelineConfig(window_size=4).to_dict()) == [
        "window_size", "seed", "flow_downscale",
        "magnitude_threshold", "bin_count", "min_group_size",
        "gamma_x", "gamma_y", "xi_d_x", "xi_d_y", "confinement_stiffness",
        "force_drift_confine", "dilation_radius", "write_overlays",
    ]


def test_seed_changes_propagated_maps(small_frames):
    run_a = segment_video(small_frames[:4], small_config(seed=1))
    run_b = segment_video(small_frames[:4], small_config(seed=2))
    assert maps_identical(run_a.maps[0][1], run_b.maps[0][1])  # seeded map is flow-only
    assert not maps_identical(run_a.maps[1][1], run_b.maps[1][1])


def test_undamped_noise_free_members_keep_their_seed_vx(small_frames):
    # the drift is estimated from the params that run: with gamma = 0 it is
    # 0, so every member's vx on every propagated map is its seed vx
    langevin = LangevinParams(gamma_x=0.0, gamma_y=0.0, xi_d_x=0.0, xi_d_y=0.0)
    run = segment_video(small_frames[:16], small_config(window_size=8, langevin=langevin))
    for window in run.window_maps:
        (_, seed), *propagated = window
        assert seed.groups
        for _, seg_map in propagated:
            assert [g.vx.tobytes() for g in seg_map.groups] == [g.vx.tobytes() for g in seed.groups]


def test_drift_confine_off_lets_damping_decay_the_seed_velocity(small_frames):
    # with the drift and confinement off and no noise, damping alone acts:
    # every member's velocity shrinks by (1 - gamma) each propagated step
    langevin = LangevinParams(gamma_x=0.3, gamma_y=0.3, xi_d_x=0.0, xi_d_y=0.0)
    cfg = small_config(window_size=6, langevin=langevin, force_drift_confine=False)
    run = segment_video(small_frames[:12], cfg)
    for window in run.window_maps:
        (_, seed), *propagated = window
        assert seed.groups
        for step, (_, seg_map) in enumerate(propagated, start=1):
            for g, g0 in zip(seg_map.groups, seed.groups, strict=True):
                np.testing.assert_allclose(g.vx, g0.vx * 0.7**step, rtol=1e-12, atol=1e-15)
                np.testing.assert_allclose(g.vy, g0.vy * 0.7**step, rtol=1e-12, atol=1e-15)
    # the switch acts: with the drift on the same run gives other maps
    drift_on = segment_video(small_frames[:12], small_config(window_size=6, langevin=langevin))
    assert not maps_identical(run.window_maps[0][-1][1], drift_on.window_maps[0][-1][1])


@pytest.mark.parametrize("seed", [-1, 2**64], ids=["-1", "2**64"])
def test_a_seed_outside_64_bits_is_an_input_error_or_a_config_error(seed):
    with pytest.raises(InputError, match=r"seed .* is outside 0\.\.2\*\*64 - 1"):
        PipelineConfig(window_size=4, seed=seed)
    with pytest.raises(ConfigError, match=r"outside 0\.\.2\*\*64 - 1"):
        PipelineConfig.from_config(parse_config_text("window_size = 4\n"), seed_override=seed)
    with pytest.raises(ConfigError, match=r"outside 0\.\.2\*\*64 - 1"):
        PipelineConfig.from_config(parse_config_text(f"window_size = 4\nseed = {seed}\n"))
    assert PipelineConfig(window_size=4, seed=2**64 - 1).seed == 2**64 - 1
