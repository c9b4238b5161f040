"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with -s to see them) and enforcing its runtime budget.
"""

import os
from contextlib import contextmanager
from time import perf_counter

import numpy as np
import pytest

from flowseg import (
    BlockSpec,
    Group,
    GroupForces,
    InputError,
    LangevinParams,
    NoiseSource,
    PipelineConfig,
    SceneSpec,
    SegmentationMap,
    accuracy,
    bench_compare,
    generate_scene,
    group_keypoints,
    ou_statistics,
    preset_scene,
    propagate_map,
    rasterize,
    read_flow_file,
    read_frame,
    segment_video,
    write_flow_file,
    write_frame,
)
from flowseg.cli import main
from flowseg.evaluation import resample_nearest
from flowseg.io import FlowField, Frame

from test_keypoints import flood_fill_groups, quantized_from_bins, zero_flow


@contextmanager
def criterion(number, label, runtime_limit):
    t0 = perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {label}")
        raise
    elapsed = perf_counter() - t0
    assert elapsed < runtime_limit, (
        f"criterion {number} runtime {elapsed:.1f}s exceeds {runtime_limit}s"
    )
    print(f"[PASS] criterion {number}: {label} ({elapsed:.1f}s / {runtime_limit:.0f}s)")


@pytest.fixture(scope="module")
def grid_scene():
    return generate_scene(
        SceneSpec(
            width=64, height=64, frame_count=40,
            blocks=(BlockSpec(rect=(4, 20, 16, 24), velocity=(1.0, 0.0), texture_seed=2),),
            background_seed=1,
        )
    )


@pytest.fixture(scope="module")
def sweep_scene():
    return generate_scene(preset_scene("one-way", frame_count=100))


def test_criterion_1_integrator_correctness():
    with criterion(1, "noise-free decay ratio and drift fixed point", 1.0):
        params = LangevinParams(xi_d_x=0.0, xi_d_y=0.0, confinement_stiffness=0.0)
        ratio = 1.0 - params.gamma_x

        def vx_track(vx, forces, steps):
            # one particle at the origin: a one-member group through propagate_map
            one = Group(id=1, bin=0, x=np.zeros(1), y=np.zeros(1), vx=np.array([vx]),
                        vy=np.zeros(1), clamped=np.zeros(1, bool))
            seg = SegmentationMap(frame_index=1, width=1000, height=1000, groups=[one])
            maps = propagate_map(seg, {1: forces}, params, NoiseSource(0), steps)
            return [m.groups[0].vx[0] for m in maps]

        zero = GroupForces(drift_x=0.0, confine_y=0.0, anchor_y=0.0)
        prev = 3.7
        for vx in vx_track(prev, zero, 60):
            assert vx == pytest.approx(prev * ratio, rel=5e-15)
            prev = vx

        # drift fixed point v = F / gamma is stationary under the update
        forces = GroupForces(drift_x=0.8 * 2.5, confine_y=0.0, anchor_y=0.0)
        assert vx_track(2.5, forces, 100)[-1] == pytest.approx(2.5, rel=1e-12)


def test_criterion_2_stochastic_correctness():
    with criterion(2, "stationary velocity variance matches the AR(1) form", 10.0):
        # independent derivation: v' = a v + c N(0,1), a = 1 - gamma = 0.2,
        # c = xi_d = 0.1, stationary variance c^2/(1-a^2) = 0.01/0.96
        expected = 0.1**2 / (1.0 - (1.0 - 0.8) ** 2)
        params = LangevinParams(confinement_stiffness=0.0)
        stats = ou_statistics(params, steps=100_000, particles=1, seed=11)
        assert stats.variance == pytest.approx(expected, rel=0.05)


def test_criterion_3_pipeline_structure(grid_scene):
    with criterion(3, "map-count law over the (T, |W|) grid", 60.0):
        frames = grid_scene.frames
        for window in range(3, 9):
            cfg = PipelineConfig(window_size=window, seed=1)
            for total in range(4, 41):
                if total < window:
                    with pytest.raises(InputError):
                        segment_video(frames[:total], cfg)
                    continue
                run = segment_video(frames[:total], cfg)
                # direct count from the windowed loop
                expected = 0
                start = 0
                while start + window <= total:
                    expected += window - 1
                    start += window
                assert len(run.maps) == expected
                assert expected == (total // window) * (window - 1)


def _frame_scores(scene, run, dilation_radius=3):
    for frame_index, seg_map in run.maps:
        mask = rasterize(seg_map, dilation_radius)
        gt = resample_nearest(scene.masks[frame_index - 1], mask.labels.shape)
        yield frame_index, seg_map, mask, gt


def test_criterion_4_end_to_end_segmentation():
    with criterion(4, "one-way and two-way scene segmentation quality", 30.0):
        one_way = generate_scene(preset_scene("one-way"))
        assert one_way.spec.frame_count == 12
        run = segment_video(one_way.frames, PipelineConfig(window_size=4, seed=7))
        assert len(run.maps) == 9
        for frame_index, seg_map, mask, gt in _frame_scores(one_way, run):
            assert accuracy(mask, gt) >= 0.85, f"frame {frame_index}"
            assert seg_map.groups and seg_map.groups[0].bin == 0

        two_way = generate_scene(preset_scene("two-way"))
        run = segment_video(two_way.frames, PipelineConfig(window_size=4, seed=7))
        for frame_index, seg_map, mask, gt in _frame_scores(two_way, run):
            assert len(seg_map.groups) == 2, f"frame {frame_index}"
            assert {g.bin for g in seg_map.groups} == {0, 4}
            for block in np.unique(gt[gt > 0]):
                block_gt = (gt == block).astype(np.uint8)
                assert accuracy(mask, block_gt) >= 0.80, f"frame {frame_index} block {block}"


def test_criterion_5_speed_and_window_sweep(sweep_scene):
    with criterion(5, "2x speedup at |W| in 4..6 and non-increasing sweep", 120.0):
        cfg = PipelineConfig(window_size=4, seed=1)
        report = bench_compare(
            sweep_scene.frames, sweep_scene.masks, cfg,
            window_sizes=tuple(range(3, 11)), repeats=2,
        )
        by_window = {row.window_size: row for row in report.rows}
        for window in (4, 5, 6):
            row = by_window[window]
            assert row.ms_per_frame_proposed <= 0.5 * row.ms_per_frame_baseline, (
                f"|W|={window}: {row.ms_per_frame_proposed:.1f}ms vs "
                f"baseline {row.ms_per_frame_baseline:.1f}ms"
            )
        sweep = [by_window[w].mean_accuracy for w in range(4, 11)]
        assert all(a >= b for a, b in zip(sweep, sweep[1:])), sweep


def test_criterion_6_metric_oracle():
    with criterion(6, "coverage metric equals brute-force counting", 5.0):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            h = int(rng.integers(1, 65))
            w = int(rng.integers(1, 65))
            seg = rng.integers(0, 3, (h, w))
            gt = (rng.random((h, w)) < 0.3).astype(np.uint8) * 255
            if not gt.any():
                gt[rng.integers(0, h), rng.integers(0, w)] = 255
            hits = 0
            total = 0
            for y in range(h):
                for x in range(w):
                    if gt[y, x] > 0:
                        total += 1
                        if seg[y, x] > 0:
                            hits += 1
            assert accuracy(seg, gt) == hits / total


def test_criterion_7_format_fidelity(tmp_path):
    with criterion(7, "bit-exact file roundtrips and flood-fill equivalence", 5.0):
        rng = np.random.default_rng(7)
        flow_path = tmp_path / "roundtrip.flo"
        for _ in range(200):
            h = int(rng.integers(1, 12))
            w = int(rng.integers(1, 12))
            field = FlowField(
                u=(rng.standard_normal((h, w)) * 40).astype(np.float32),
                v=(rng.standard_normal((h, w)) * 40).astype(np.float32),
            )
            write_flow_file(field, flow_path)
            back = read_flow_file(flow_path)
            assert np.array_equal(back.u.view(np.uint32), field.u.view(np.uint32))
            assert np.array_equal(back.v.view(np.uint32), field.v.view(np.uint32))

        frame_path = tmp_path / "roundtrip.pgm"
        for _ in range(50):
            h = int(rng.integers(1, 32))
            w = int(rng.integers(1, 32))
            frame = Frame(rng.integers(0, 256, (h, w), dtype=np.uint8))
            write_frame(frame, frame_path)
            assert np.array_equal(read_frame(frame_path).data, frame.data)

        for _ in range(200):
            h = int(rng.integers(4, 33))
            w = int(rng.integers(4, 33))
            bins = np.where(
                rng.random((h, w)) < 0.5, rng.integers(0, 3, (h, w)), -1
            ).astype(np.int16)
            peaks = {0, 1}
            seg = group_keypoints(quantized_from_bins(bins), peaks, zero_flow(bins.shape), min_group_size=2)
            oracle = flood_fill_groups(bins, peaks, 2)
            assert len(seg.groups) == len(oracle)
            for g, (_, bin_id, pixels) in zip(seg.groups, oracle):
                assert g.bin == bin_id
                assert frozenset(zip(g.y.astype(int), g.x.astype(int))) == pixels


SCENE_SPEC = """
width = 64
height = 64
frames = 12
background_seed = 1
block1_rect = 6, 20, 16, 24
block1_velocity = 2, 0
block1_seed = 2
"""

PIPELINE_CONFIG = "window_size = 4\nseed = 7\n"


def test_criterion_8_cli_determinism(tmp_path):
    with criterion(8, "byte-identical segment runs, including --jobs 2", 60.0):
        trees = {}
        for name, jobs in (("a", "1"), ("b", "2"), ("c", "2")):
            root = tmp_path / name
            root.mkdir()
            (root / "scene.cfg").write_text(SCENE_SPEC)
            (root / "pipeline.cfg").write_text(PIPELINE_CONFIG)
            cwd = os.getcwd()
            os.chdir(root)  # relative paths keep manifests byte-comparable
            try:
                assert main(["synth", "--spec", "scene.cfg", "--out", "scene"]) == 0
                assert main(
                    ["segment", "--in", "scene/frames", "--config", "pipeline.cfg",
                     "--out", "out", "--jobs", jobs]
                ) == 0
            finally:
                os.chdir(cwd)
            tree = {}
            for path in sorted((root / "out").iterdir()):
                if path.name == "timings.csv":
                    continue  # wall-clock measurements are not reproducible
                tree[path.name] = path.read_bytes()
            trees[name] = tree
        assert trees["a"].keys() == trees["b"].keys() == trees["c"].keys()
        for name in trees["a"]:
            assert trees["a"][name] == trees["b"][name] == trees["c"][name], name
