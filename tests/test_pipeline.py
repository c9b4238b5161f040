import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowseg import (
    BlockSpec,
    ConfigError,
    Frame,
    InputError,
    LangevinParams,
    PipelineConfig,
    SceneSpec,
    SourceError,
    generate_scene,
    maps_identical,
    segment_video,
    stream_windows,
)
from flowseg.config import parse_config_text
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


def test_streaming_empty_source():
    assert list(stream_windows(iter([]), small_config())) == []


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
    streamed = [m for _, maps in stream_windows(iter(frames), cfg) for m in maps]
    if total < window:
        assert streamed == []
        with pytest.raises(InputError):
            segment_video(frames, cfg)
        return
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
force_disturbance = false
"""


def test_config_parsing_defaults_and_overrides():
    cfg = PipelineConfig.from_config(parse_config_text(CONFIG_TEXT))
    assert cfg.window_size == 4
    assert cfg.seed == 11
    assert cfg.magnitude_threshold == 0.5
    assert cfg.flow.downscale == 1
    assert cfg.flow.pyramid_levels == 3  # default
    assert cfg.langevin.gamma_x == 0.8  # default
    assert not cfg.ablation.disturbance


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
        langevin=LangevinParams(xi_d_y=0.25),
    )
    back = PipelineConfig.from_config(parse_config_text(cfg.manifest_text()))
    assert back.to_dict() == cfg.to_dict()


def test_seed_changes_propagated_maps(small_frames):
    run_a = segment_video(small_frames[:4], small_config(seed=1))
    run_b = segment_video(small_frames[:4], small_config(seed=2))
    assert maps_identical(run_a.maps[0][1], run_b.maps[0][1])  # seeded map is flow-only
    assert not maps_identical(run_a.maps[1][1], run_b.maps[1][1])
