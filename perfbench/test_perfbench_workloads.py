"""Checks on the benchmark's input generator and its tracer."""

import math

import flowseg.flow
import flowseg.pipeline
import numpy as np
import pytest
import scipy.ndimage

from flowseg.flow import FlowParams
from flowseg.keypoints import DEFAULT_MAGNITUDE_THRESHOLD

from spans import Tracer
from workloads import WORKLOADS, build_video, clip_specs

NAMES = sorted(WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_same_video(name):
    workload = WORKLOADS[name]
    assert clip_specs(workload, 7) == clip_specs(workload, 7)
    assert clip_specs(workload, 7) != clip_specs(workload, 8)
    first = build_video(clip_specs(workload, 7)[:2], workload.window)
    again = build_video(clip_specs(workload, 7)[:2], workload.window)
    assert all(np.array_equal(a.data, b.data) for a, b in zip(first.frames, again.frames))
    assert all(np.array_equal(a, b) for a, b in zip(first.masks, again.masks))


@pytest.mark.parametrize("name", NAMES)
def test_blocks_stay_inside_the_frame_and_move_above_threshold(name):
    workload = WORKLOADS[name]
    downscale = FlowParams().downscale
    for seed in range(25):
        for spec in clip_specs(workload, seed):
            for block in spec.blocks:
                speed = math.hypot(*block.velocity)
                assert speed >= 0.8
                assert speed / downscale > DEFAULT_MAGNITUDE_THRESHOLD
                x, y, w, h = block.rect
                for t in (0, spec.frame_count - 1):
                    x0 = round(x + block.velocity[0] * t)
                    y0 = round(y + block.velocity[1] * t)
                    assert 0 <= x0 and x0 + w <= spec.width
                    assert 0 <= y0 and y0 + h <= spec.height


@pytest.mark.parametrize("name", NAMES)
def test_clips_are_whole_windows_and_only_window_starts_keep_flow(name):
    workload = WORKLOADS[name]
    assert workload.clip_length % workload.window == 0
    specs = clip_specs(workload, 3)
    assert [s.frame_count for s in specs] == [workload.clip_length] * workload.clips
    video = build_video(specs[:2], workload.window)
    assert len(video.flows) == len(video.frames) - 1
    kept = [i for i, flow in enumerate(video.flows) if flow is not None]
    assert kept == list(range(0, len(video.frames) - 1, workload.window))
    assert video.flows[workload.clip_length - 1] is None
    assert all(mask.any() for mask in video.masks)


def test_tracer_skips_missing_targets_and_restores_the_rest(monkeypatch):
    original = flowseg.pipeline.compute_dense_flow
    monkeypatch.delattr(flowseg.flow, "_textured")
    tracer = Tracer()
    with tracer.hooked():
        assert flowseg.pipeline.compute_dense_flow is not original
        assert flowseg.flow.ndimage.median_filter is not scipy.ndimage.median_filter
    assert tracer.absent == ["flow.texture"]
    assert flowseg.pipeline.compute_dense_flow is original
    assert flowseg.flow.ndimage is scipy.ndimage
