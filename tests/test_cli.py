import csv
import dataclasses
import json
import logging
import re
import threading
import tracemalloc

import numpy as np
import pytest

import flowseg.cli
import flowseg.evaluation
import flowseg.flow
import flowseg.pipeline
import flowseg.synth
from flowseg import (
    Frame,
    Group,
    LangevinParams,
    PipelineConfig,
    SegmentationMap,
    generate_scene,
    preset_scene,
    read_flow_file,
    read_frame,
    report,
    segment_video,
    write_frame,
)
from flowseg.cli import main
from flowseg.config import parse_config_file, parse_config_text

SCENE_SPEC = """
width = 64
height = 64
frames = 12
background_seed = 1
block1_rect = 6, 20, 16, 24
block1_velocity = 2, 0
block1_seed = 2
"""

PIPELINE_CONFIG = """
window_size = 4
flow_downscale = 2
"""


@pytest.fixture()
def scene_dir(tmp_path):
    spec = tmp_path / "scene.cfg"
    spec.write_text(SCENE_SPEC)
    out = tmp_path / "scene"
    assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 0
    return out


def run_segment(tmp_path, scene_dir, out_name="run", extra=()):
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text(PIPELINE_CONFIG)
    out = tmp_path / out_name
    code = main(
        ["segment", "--in", str(scene_dir / "frames"), "--config", str(cfg),
         "--out", str(out), "--seed", "7", *extra]
    )
    return code, out


def test_synth_writes_frames_and_gt(scene_dir):
    frames = sorted((scene_dir / "frames").glob("*.pgm"))
    gts = sorted((scene_dir / "gt").glob("*.pgm"))
    assert len(frames) == 12 and len(gts) == 12
    assert frames[0].name == "frame_000001.pgm"
    assert gts[0].name == "gt_000001.pgm"
    assert (scene_dir / "manifest.txt").exists()


def test_synth_preset_and_flow(tmp_path):
    out = tmp_path / "preset"
    assert main(["synth", "--preset", "two-way", "--frames", "4",
                 "--out", str(out), "--write-flow"]) == 0
    assert len(list((out / "frames").glob("*.pgm"))) == 4
    assert len(list((out / "flow").glob("*.flo"))) == 3


def test_synth_memory_does_not_grow_with_the_scene(tmp_path):
    # synth writes each frame and mask as the scene yields them and builds
    # no flow without --write-flow
    def peak_bytes(count):
        tracemalloc.start()
        try:
            assert main(["synth", "--preset", "one-way", "--frames", str(count),
                         "--out", str(tmp_path / f"scene{count}")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak_bytes(200) - peak_bytes(20) < 2**20
    assert len(list((tmp_path / "scene200" / "frames").glob("*.pgm"))) == 200
    assert not (tmp_path / "scene200" / "flow").exists()


def test_synth_write_flow_writes_each_pairs_ground_truth(tmp_path):
    out = tmp_path / "scene"
    assert main(["synth", "--preset", "two-way", "--frames", "5", "--out", str(out), "--write-flow"]) == 0
    scene = generate_scene(preset_scene("two-way", frame_count=5))
    written = sorted((out / "flow").glob("*.flo"))
    assert [p.name for p in written] == [f"flow_{i:06d}.flo" for i in range(1, 5)]
    for path, flow in zip(written, scene.flows):
        got = read_flow_file(path)
        assert got.u.tobytes() == flow.u.tobytes() and got.v.tobytes() == flow.v.tobytes()
    for i, frame in enumerate(scene.frames, start=1):
        assert read_frame(out / "frames" / f"frame_{i:06d}.pgm").data.tobytes() == frame.data.tobytes()


def test_synth_frames_overrides_a_spec(tmp_path):
    # --frames sets the count of a spec's scene as of a preset's, and the
    # manifest records the count written
    spec = tmp_path / "scene.cfg"
    spec.write_text(SCENE_SPEC)
    out = tmp_path / "scene"
    assert main(["synth", "--spec", str(spec), "--frames", "3", "--out", str(out)]) == 0
    assert len(list((out / "frames").glob("*.pgm"))) == 3
    assert len(list((out / "gt").glob("*.pgm"))) == 3
    assert "frames = 3\n" in (out / "manifest.txt").read_text()


def grid_spec(blocks: int) -> str:
    """A 64x64 scene of ``blocks`` moving 2x2 blocks, one per 4x4 cell."""
    lines = ["width = 64", "height = 64", "frames = 2"]
    for i in range(blocks):
        lines += [f"block{i + 1}_rect = {4 * (i % 16)}, {4 * (i // 16)}, 2, 2", f"block{i + 1}_velocity = 1, 0"]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("blocks, code", [(255, 0), (256, 2)])
def test_synth_numbers_at_most_255_blocks(tmp_path, capsys, blocks, code):
    spec = tmp_path / "grid.cfg"
    spec.write_text(grid_spec(blocks))
    out = tmp_path / "scene"
    assert main(["synth", "--spec", str(spec), "--out", str(out)]) == code
    if code:
        assert "config error: 256 blocks" in capsys.readouterr().err
        assert not out.exists()
    else:
        gt = flowseg.cli.read_frame(out / "gt" / "gt_000001.pgm").data
        assert set(np.unique(gt).tolist()) == set(range(256))


@pytest.mark.parametrize(
    "line, negative, message",
    [
        ("background_seed = 1", "background_seed = -1", "background_seed=-1 must be >= 0"),
        ("block1_seed = 2", "block1_seed = -5", "block 1: texture seed -5 must be >= 0"),
    ],
    ids=["background", "block"],
)
def test_synth_negative_seed_is_a_config_error_before_any_write(tmp_path, capsys, line, negative, message):
    spec = tmp_path / "scene.cfg"
    spec.write_text(SCENE_SPEC.replace(line, negative))
    out = tmp_path / "scene"
    assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_synth_fractional_rect_is_a_config_error_before_any_write(tmp_path, capsys):
    spec = tmp_path / "scene.cfg"
    spec.write_text(SCENE_SPEC.replace("block1_rect = 6, 20, 16, 24", "block1_rect = 4.7, 4, 16, 16"))
    out = tmp_path / "scene"
    assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "key 'block1_rect': expected integer 'x, y, w, h' quad, got '4.7, 4, 16, 16'" in err
    assert not out.exists()


def test_synth_gt_holds_block_numbers_and_eval_scores_them_as_binary(tmp_path, capsys):
    spec = tmp_path / "two.cfg"
    spec.write_text(SCENE_SPEC + "block2_rect = 40, 4, 16, 12\nblock2_velocity = -2, 0\n")
    scene = tmp_path / "scene"
    assert main(["synth", "--spec", str(spec), "--out", str(scene)]) == 0
    gt = scene / "gt"
    assert set(np.unique(flowseg.cli.read_frame(gt / "gt_000001.pgm").data).tolist()) == {0, 1, 2}
    binary = tmp_path / "gt255"
    binary.mkdir()
    for path in sorted(gt.glob("*.pgm")):
        labels = flowseg.cli.read_frame(path).data
        write_frame(Frame(np.where(labels > 0, 255, 0).astype(np.uint8)), binary / path.name)

    code, run = run_segment(tmp_path, scene)
    assert code == 0
    for name, truth in (("labelled.csv", gt), ("binary.csv", binary)):
        assert main(["eval", "--pred", str(run), "--gt", str(truth), "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "labelled.csv").read_text() == (tmp_path / "binary.csv").read_text()


def test_segment_outputs(tmp_path, scene_dir, capsys):
    code, out = run_segment(tmp_path, scene_dir)
    assert code == 0
    masks = sorted(out.glob("mask_*.pgm"))
    overlays = sorted(out.glob("overlay_*.ppm"))
    assert [p.name for p in masks] == [
        f"mask_{i:06d}.pgm" for i in (2, 3, 4, 6, 7, 8, 10, 11, 12)
    ]
    assert len(overlays) == 9
    timing_lines = (out / "timings.csv").read_text().splitlines()
    assert timing_lines[0] == "frame_index,phase,milliseconds"
    assert len(timing_lines) == 13  # header + one row per input frame
    manifest = (out / "manifest.txt").read_text()
    assert "window_size = 4" in manifest and "seed = 7" in manifest
    assert manifest.endswith("first_frame = 1\n")
    groups = (out / "groups.jsonl").read_text().splitlines()
    assert len(groups) == 12
    assert groups[:2] == [
        '{"frame": 2, "id": 1, "bin": 0, "centroid": [7.7105, 15.5263], "members": 114}',
        '{"frame": 3, "id": 1, "bin": 0, "centroid": [8.3659, 15.4960], "members": 114}',
    ]


def test_segment_rerun_from_manifest(tmp_path, scene_dir):
    code, out = run_segment(tmp_path, scene_dir)
    assert code == 0
    rerun_out = tmp_path / "rerun"
    manifest = (out / "manifest.txt").read_text().replace(str(out), str(rerun_out))
    manifest_path = tmp_path / "manifest_copy.cfg"
    manifest_path.write_text(manifest)
    assert main(["segment", "--config", str(manifest_path)]) == 0
    for mask in out.glob("mask_*.pgm"):
        assert (rerun_out / mask.name).read_bytes() == mask.read_bytes()


def test_segment_reruns_from_its_manifest_under_a_path_with_a_hash(tmp_path, scene_dir):
    # "#" starts a comment only at a line's start or after whitespace
    base = tmp_path / "a#b"
    frames = base / "frames"
    frames.mkdir(parents=True)
    for path in (scene_dir / "frames").iterdir():
        (frames / path.name).write_bytes(path.read_bytes())
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text(PIPELINE_CONFIG)
    out = base / "run"
    assert main(["segment", "--in", str(frames), "--config", str(cfg), "--out", str(out)]) == 0
    manifest = parse_config_file(out / "manifest.txt")
    assert (manifest.get_str("input_dir"), manifest.get_str("output_dir")) == (str(frames), str(out))
    masks = {p.name: p.read_bytes() for p in out.glob("mask_*.pgm")}
    assert len(masks) == 9
    assert main(["segment", "--config", str(out / "manifest.txt")]) == 0
    assert {p.name: p.read_bytes() for p in out.glob("mask_*.pgm")} == masks


@pytest.mark.parametrize("out_name", ["b #c", "b\t#c", "trail ", "line\nbreak"])
def test_segment_out_path_a_manifest_cannot_hold_is_a_config_error_before_any_read(
    tmp_path, scene_dir, monkeypatch, capsys, out_name
):
    def no_call(*args, **kwargs):
        raise AssertionError("called although the manifest cannot be written")

    monkeypatch.setattr(flowseg.cli, "read_frame", no_call)
    code, out = run_segment(tmp_path, scene_dir, out_name=out_name)
    assert code == 2
    assert "output_dir" in capsys.readouterr().err
    assert not out.exists()


def test_segment_deterministic_outputs(tmp_path, scene_dir):
    _, out_a = run_segment(tmp_path, scene_dir, "run_a")
    _, out_b = run_segment(tmp_path, scene_dir, "run_b", extra=("--jobs", "2"))
    files_a = sorted(p.name for p in out_a.iterdir())
    files_b = sorted(p.name for p in out_b.iterdir())
    assert files_a == files_b
    for name in files_a:
        if name == "timings.csv":  # wall-clock measurements differ by nature
            continue
        if name == "manifest.txt":  # embeds the output path
            continue
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_overlay_base_matches_the_rounded_float_block_mean_on_every_block_sum(d):
    # block b of a 1-row strip of d x d blocks sums to b, for b in 0..255 * d**2
    n = d * d
    q, r = np.divmod(np.arange(255 * n + 1), n)
    blocks = q[:, None, None] + (np.arange(n).reshape(d, d) < r[:, None, None])
    img = blocks.astype(np.uint8).transpose(1, 0, 2).reshape(d, -1)
    assert flowseg.flow._block_mean(img, d).ravel().tolist() == (np.arange(255 * n + 1) / n).tolist()
    base = flowseg.cli._overlay_base(Frame(img), d).data
    assert base.dtype == np.uint8 and base.shape == (1, 255 * n + 1)
    assert base.tobytes() == np.rint(flowseg.flow._block_mean(img, d)).astype(np.uint8).tobytes()


@pytest.mark.parametrize("d", [16, 17])
def test_overlay_base_sums_in_a_type_that_holds_the_block(d):
    # 255 * 16**2 fits uint16, 255 * 17**2 does not
    img = np.random.default_rng(d).integers(200, 256, (2 * d, 3 * d), dtype=np.uint8)
    base = flowseg.cli._overlay_base(Frame(img), d).data
    assert base.tobytes() == np.rint(flowseg.flow._block_mean(img, d)).astype(np.uint8).tobytes()


@pytest.mark.parametrize("radius", [0, 3])
def test_segment_window_batches_equal_one_map_calls(tmp_path, scene_dir, monkeypatch, radius):
    # 12 frames at |W| = 6: two windows of five maps each
    cfg = tmp_path / "two_windows.cfg"
    cfg.write_text(f"window_size = 6\nflow_downscale = 2\ndilation_radius = {radius}\n")

    def segment(out):
        argv = ["segment", "--in", str(scene_dir / "frames"), "--config", str(cfg), "--out", str(out)]
        assert main(argv) == 0
        return out

    batch_sizes = []
    window_call = flowseg.cli.rasterize_maps

    def counted(maps, r):
        batch_sizes.append(len(maps))
        return window_call(maps, r)

    monkeypatch.setattr(flowseg.cli, "rasterize_maps", counted)
    batched = segment(tmp_path / "batched")
    monkeypatch.undo()
    assert batch_sizes == [5, 5]

    monkeypatch.setattr(flowseg.cli, "rasterize_maps",
                        lambda maps, r: [window_call([m], r)[0] for m in maps])
    monkeypatch.setattr(flowseg.cli, "render_overlays", lambda frames, masks: [
        flowseg.evaluation.render_overlays([f], [m])[0] for f, m in zip(frames, masks)])
    # and the overlay bases as the rounded float64 block mean the flow takes
    monkeypatch.setattr(flowseg.cli, "_overlay_base", lambda frame, d: Frame(
        np.rint(flowseg.flow._block_mean(frame.data, d)).astype(np.uint8)))
    single = segment(tmp_path / "single")

    names = sorted(p.name for p in batched.iterdir() if p.suffix in (".pgm", ".ppm", ".jsonl"))
    assert len(names) == 10 + 10 + 1
    assert names == sorted(p.name for p in single.iterdir() if p.suffix in (".pgm", ".ppm", ".jsonl"))
    for name in names:
        assert (batched / name).read_bytes() == (single / name).read_bytes(), name


def test_segment_missing_required_key(tmp_path, scene_dir, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("seed = 1\n")
    code = main(["segment", "--in", str(scene_dir / "frames"), "--config", str(cfg),
                 "--out", str(tmp_path / "x")])
    assert code == 2
    assert "window_size" in capsys.readouterr().err


def test_segment_malformed_config_line(tmp_path, scene_dir, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("window_size = 4\nwhat is this\n")
    code = main(["segment", "--in", str(scene_dir / "frames"), "--config", str(cfg),
                 "--out", str(tmp_path / "x")])
    assert code == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, text, line",
    [
        ("segment", PIPELINE_CONFIG + "window_size = 5\n", 4),
        ("segment", PIPELINE_CONFIG + "= 5\n", 4),
        ("segment", PIPELINE_CONFIG + "write_overlays = maybe\n", 4),
        ("synth", SCENE_SPEC.replace("block1_velocity = 2, 0", "block1_velocity = 1, 2, 3"), 7),
    ],
    ids=["duplicate-key", "empty-key", "bool-maybe", "synth-velocity-triple"],
)
def test_config_fault_is_a_config_error_naming_its_line(tmp_path, scene_dir, capsys, command, text, line):
    cfg = tmp_path / "fault.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    argv = {
        "segment": ["segment", "--in", str(scene_dir / "frames"), "--config", str(cfg), "--out", str(out)],
        "synth": ["synth", "--spec", str(cfg), "--out", str(out)],
    }[command]
    assert main(argv) == 2
    assert f"config error: line {line}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "numbers, message",
    [(None, "input directory not found"), ((), "no numbered .pgm frames"),
     ((1, 2, 3, 5, 6), "not consecutive")],
    ids=["missing-dir", "no-numbered-frames", "gap-in-numbers"],
)
def test_segment_frame_dir_fault_is_an_input_error(tmp_path, scene_dir, capsys, numbers, message):
    frames = tmp_path / "frames"
    if numbers is not None:
        frames.mkdir()
        (frames / "readme.pgm").write_bytes((scene_dir / "frames" / "frame_000001.pgm").read_bytes())
        for n in numbers:
            src = scene_dir / "frames" / f"frame_{n:06d}.pgm"
            (frames / src.name).write_bytes(src.read_bytes())
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text(PIPELINE_CONFIG)
    out = tmp_path / "out"
    assert main(["segment", "--in", str(frames), "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and message in err
    assert not out.exists()


def test_segment_unknown_key(tmp_path, scene_dir, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("window_size = 4\nwindoow_size = 5\n")
    code = main(["segment", "--in", str(scene_dir / "frames"), "--config", str(cfg),
                 "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert "windoow_size" in err and "line 2" in err


@pytest.mark.parametrize(
    "config, flags",
    [("", ["--jobs", "-2"]), ("", ["--jobs", "0"]), ("jobs = 0\n", [])],
    ids=["flag-negative", "flag-zero", "config-zero"],
)
def test_segment_rejects_jobs_below_one(tmp_path, scene_dir, capsys, config, flags):
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text(PIPELINE_CONFIG + config)
    out = tmp_path / "x"
    code = main(["segment", "--in", str(scene_dir / "frames"), "--config", str(cfg),
                 "--out", str(out), *flags])
    assert code == 2
    assert "jobs" in capsys.readouterr().err
    assert not out.exists()


def test_segment_insufficient_frames(tmp_path, scene_dir, capsys):
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text("window_size = 12\nflow_downscale = 2\n")
    short = tmp_path / "short"
    short.mkdir()
    for p in sorted((scene_dir / "frames").glob("*.pgm"))[:3]:
        (short / p.name).write_bytes(p.read_bytes())
    code = main(["segment", "--in", str(short), "--config", str(cfg),
                 "--out", str(tmp_path / "x")])
    assert code == 3


@pytest.mark.parametrize("jobs", [1, 3])
def test_segment_mixed_sizes_names_frames_by_their_numbers(tmp_path, capsys, jobs):
    frames = tmp_path / "frames"
    frames.mkdir()
    for number in range(101, 109):
        height = 62 if number == 103 else 60
        write_frame(Frame(np.full((height, 80), number, np.uint8)), frames / f"frame_{number:06d}.pgm")
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text(PIPELINE_CONFIG)
    out = tmp_path / "out"
    code = main(["segment", "--in", str(frames), "--config", str(cfg), "--out", str(out),
                 "--jobs", str(jobs)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("input error: ")
    assert "frame source failed" not in err
    assert "frame 103 is (80, 62), frame 101 is (80, 60)" in err
    assert not out.exists()


@pytest.mark.parametrize("jobs", [1, 3])
def test_segment_numbers_outputs_as_the_input_files(tmp_path, scene_dir, jobs):
    # 12 frames at |W| = 5: two windows and two leftover frames, numbered
    # from 1 and, copied, from 101
    shifted = tmp_path / "shifted"
    shifted.mkdir()
    for number, p in enumerate(sorted((scene_dir / "frames").glob("*.pgm")), start=101):
        (shifted / f"frame_{number:06d}.pgm").write_bytes(p.read_bytes())
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text("window_size = 5\nflow_downscale = 2\n")

    def segment(frames, name):
        out = tmp_path / name
        assert main(["segment", "--in", str(frames), "--config", str(cfg), "--out", str(out),
                     "--jobs", str(jobs)]) == 0
        return out

    def shift(name):  # mask_000002.pgm -> mask_000102.pgm
        return re.sub(r"\d{6}", lambda m: f"{int(m[0]) + 100:06d}", name)

    run, run_101 = segment(scene_dir / "frames", "run"), segment(shifted, "run_101")
    images = sorted(p.name for p in run.iterdir() if p.suffix in (".pgm", ".ppm"))
    assert len(images) == 2 * 4 * 2  # two windows of four maps, a mask and an overlay each
    assert sorted(p.name for p in run_101.iterdir()) == sorted(shift(p.name) for p in run.iterdir())
    for name in images:
        assert (run / name).read_bytes() == (run_101 / shift(name)).read_bytes(), name

    def groups(out):
        return [json.loads(line) for line in (out / "groups.jsonl").read_text().splitlines()]

    assert groups(run_101) == [{**row, "frame": row["frame"] + 100} for row in groups(run)]

    def frames_and_phases(out):
        return [row[:2] for row in csv.reader((out / "timings.csv").read_text().splitlines()[1:])]

    assert frames_and_phases(run_101) == [[str(int(f) + 100), phase] for f, phase in frames_and_phases(run)]
    assert frames_and_phases(run_101)[-2:] == [["111", "skipped"], ["112", "skipped"]]


def groups_at(count):
    return [
        Group(id=i, bin=0, x=np.array([float(i % 64)]), y=np.array([float(i // 64)]),
              vx=np.zeros(1), vy=np.zeros(1), clamped=np.zeros(1, bool))
        for i in range(1, count + 1)
    ]


def test_segment_too_many_groups_writes_nothing(tmp_path, scene_dir, monkeypatch, capsys):
    def run_with_256_groups(source, cfg, jobs=1, first_frame=1):
        frames = list(source)
        yield 1, 1, frames[:4], [(i, SegmentationMap(i, 32, 32, groups_at(3))) for i in (2, 3, 4)], []
        yield 2, 5, frames[4:8], [(i, SegmentationMap(i, 32, 32, groups_at(256))) for i in (6, 7, 8)], []

    monkeypatch.setattr(flowseg.cli, "run_windows", run_with_256_groups)
    out = tmp_path / "out"
    out.mkdir()
    code, _ = run_segment(tmp_path, scene_dir, out_name="out")
    assert code == 3
    assert "more than 255 groups" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def uneven_windows(source, w, first_frame):
    """Cut windows of 5 and 4 frames, whatever ``w`` is."""
    frames = list(source)
    yield 1, first_frame, frames[:5]
    yield 2, first_frame + 5, frames[5:9]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_window_bounds_come_from_the_windows_cut(tmp_path, scene_dir, monkeypatch, jobs):
    # each window's steps, map numbers, bounds and the skipped frames follow
    # the frames the window holds, not window_size
    monkeypatch.setattr(flowseg.pipeline, "_windows", uneven_windows)
    frames = [flowseg.cli.read_frame(p) for p in sorted((scene_dir / "frames").glob("*.pgm"))]
    run = segment_video(frames, PipelineConfig(window_size=4), jobs=int(jobs))
    assert [(number, m.frame_index) for number, m in run.maps] == [(n, n) for n in (2, 3, 4, 5, 7, 8, 9)]
    assert [[fi for fi, _ in maps] for maps in run.window_maps] == [[2, 3, 4, 5], [7, 8, 9]]
    assert [t.frame_index for t in run.timings if t.phase == "flow"] == [1, 6]
    assert [t.frame_index for t in run.timings if t.phase == "skipped"] == [10, 11, 12]

    code, out = run_segment(tmp_path, scene_dir, extra=("--jobs", jobs))
    assert code == 0
    assert sorted(p.name for p in out.glob("mask_*.pgm")) == [f"mask_{n:06d}.pgm" for n in (2, 3, 4, 5, 7, 8, 9)]
    rows = list(csv.reader((out / "timings.csv").read_text().splitlines()[1:]))
    assert [row[0] for row in rows if row[1] == "skipped"] == ["10", "11", "12"]
    assert [row[0] for row in rows if row[1] == "langevin"] == ["3", "4", "5", "8", "9"]


def crowd_window_2(tmp_path, scene_dir, monkeypatch):
    """Give window 2's seed map 256 groups."""
    process = flowseg.pipeline._process_window

    def crowded(number, first_frame, frames, cfg):
        maps, timings = process(number, first_frame, frames, cfg)
        if number == 2:
            frame_index, seg_map = maps[0]
            maps[0] = (frame_index, SegmentationMap(frame_index, seg_map.width, seg_map.height, groups_at(256)))
        return maps, timings

    monkeypatch.setattr(flowseg.pipeline, "_process_window", crowded)
    return scene_dir


def truncate_frame_9(tmp_path, scene_dir, monkeypatch):
    frames = tmp_path / "bad" / "frames"
    frames.mkdir(parents=True)
    for p in (scene_dir / "frames").glob("*.pgm"):
        (frames / p.name).write_bytes(p.read_bytes())
    (frames / "frame_000009.pgm").write_bytes(b"P5\n64 64\n255\n" + bytes(100))
    return tmp_path / "bad"


@pytest.mark.parametrize("jobs", [1, 3])
@pytest.mark.parametrize(
    "fault, message",
    [(crowd_window_2, "more than 255 groups"), (truncate_frame_9, "frame_000009.pgm: truncated raster")],
    ids=["groups-in-window-2", "truncated-frame-in-window-3"],
)
def test_segment_failure_mid_stream_leaves_out_as_it_was(
    tmp_path, scene_dir, monkeypatch, capsys, jobs, fault, message
):
    source = fault(tmp_path, scene_dir, monkeypatch)
    out = tmp_path / "out"
    out.mkdir()
    (out / "mask_000002.pgm").write_bytes(b"from an earlier run")
    beside_out = {p.name for p in tmp_path.iterdir()} | {"pipeline.cfg"}
    threads = threading.active_count()
    code, _ = run_segment(tmp_path, source, out_name="out", extra=("--jobs", str(jobs)))
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("input error: ")
    assert message in err
    assert [p.name for p in out.iterdir()] == ["mask_000002.pgm"]
    assert (out / "mask_000002.pgm").read_bytes() == b"from an earlier run"
    assert {p.name for p in tmp_path.iterdir()} == beside_out  # no staging directory left
    assert threading.active_count() == threads


def test_segment_bad_frame_is_named(tmp_path, scene_dir, monkeypatch, capsys):
    source = truncate_frame_9(tmp_path, scene_dir, monkeypatch)
    code, out = run_segment(tmp_path, source)
    assert code == 3
    assert "frame_000009.pgm" in capsys.readouterr().err
    assert not out.exists()


def test_segment_memory_does_not_grow_with_the_video(tmp_path):
    # The one-way preset's 40 frames, tiled to 400 so that motion goes on
    # throughout; the block leaves a 400-frame preset after ~140 frames.
    clip = generate_scene(preset_scene("one-way", frame_count=40)).frames
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text("window_size = 10\nwrite_overlays = false\n")

    def peak_bytes(count):
        frames = tmp_path / f"frames{count}"
        frames.mkdir(exist_ok=True)
        for i in range(count):
            write_frame(clip[i % len(clip)], frames / f"frame_{i + 1:06d}.pgm")
        tracemalloc.start()
        try:
            assert main(["segment", "--in", str(frames), "--config", str(cfg),
                         "--out", str(tmp_path / f"out{count}")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # Flow and rasterization keep per-thread working buffers that the first
    # run in a thread makes and every later run reuses. The first run pays
    # for them once, within a bound; the runs after it must not grow with
    # the video.
    first = peak_bytes(40)
    steady = peak_bytes(40)
    assert first - steady < 16 * 2**20
    assert peak_bytes(400) - steady < 2 * 2**20


def test_segment_out_path_that_is_a_file(tmp_path, scene_dir, capsys):
    out = tmp_path / "taken"
    out.write_text("not a directory")
    code, _ = run_segment(tmp_path, scene_dir, out_name="taken")
    assert code == 3
    assert "input error" in capsys.readouterr().err
    assert out.read_text() == "not a directory"


def test_segment_out_path_that_is_a_file_fails_before_any_window(tmp_path, scene_dir, monkeypatch, capsys):
    def no_call(*args, **kwargs):
        raise AssertionError("called although --out names a file")

    monkeypatch.setattr(flowseg.cli, "run_windows", no_call)
    monkeypatch.setattr(flowseg.cli, "read_frame", no_call)
    (tmp_path / "taken").write_text("not a directory")
    code, _ = run_segment(tmp_path, scene_dir, out_name="taken")
    assert code == 3
    assert "is not a directory" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", [1, 3])
def test_segment_out_holds_one_run(tmp_path, jobs):
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text("window_size = 5\nflow_downscale = 2\n")
    out = tmp_path / "run"
    out.mkdir()
    (out / "notes.txt").write_text("kept")
    for preset, frames in (("one-way", 40), ("two-way", 20)):
        scene = tmp_path / preset
        assert main(["synth", "--preset", preset, "--frames", str(frames), "--out", str(scene)]) == 0
        assert main(["segment", "--in", str(scene / "frames"), "--config", str(cfg),
                     "--out", str(out), "--jobs", str(jobs)]) == 0
    second_run = [i for i in range(1, 21) if i % 5 != 1]  # 16 frames: all but each window's first
    assert sorted(p.name for p in out.glob("mask_*.pgm")) == [f"mask_{i:06d}.pgm" for i in second_run]
    assert sorted(p.name for p in out.glob("overlay_*.ppm")) == [f"overlay_{i:06d}.ppm" for i in second_run]
    assert (out / "notes.txt").read_text() == "kept"


def test_segment_config_that_is_a_directory(tmp_path, scene_dir, capsys):
    code = main(["segment", "--in", str(scene_dir / "frames"), "--config", str(tmp_path),
                 "--out", str(tmp_path / "x")])
    assert code == 3
    assert "input error" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["segment", "eval"])
def test_duplicate_frame_numbers_name_both_files(tmp_path, scene_dir, capsys, command):
    kind, prefix = ("frames", "frame") if command == "segment" else ("gt", "gt")
    directory = tmp_path / kind
    directory.mkdir()
    for p in (scene_dir / kind).glob("*.pgm"):
        (directory / p.name).write_bytes(p.read_bytes())
    (directory / f"{prefix}_1.pgm").write_bytes((directory / f"{prefix}_000002.pgm").read_bytes())
    if command == "segment":
        code, out = run_segment(tmp_path, tmp_path)
        assert not out.exists()
    else:
        code = main(["eval", "--pred", str(scene_dir / "gt"), "--gt", str(directory)])
    assert code == 3
    err = capsys.readouterr().err
    assert f"{prefix}_000001.pgm and {prefix}_1.pgm" in err


def test_segment_seed_flag_overrides_config_seed(tmp_path, scene_dir):
    cfg = tmp_path / "seeded.cfg"
    cfg.write_text("window_size = 4\nseed = 3\n")
    out = tmp_path / "flagged"
    assert main(["segment", "--in", str(scene_dir / "frames"), "--config", str(cfg),
                 "--out", str(out), "--seed", "7"]) == 0
    assert "seed = 7" in (out / "manifest.txt").read_text()


def test_seed_is_flag_then_config_then_zero(tmp_path, scene_dir, monkeypatch):
    # The environment is no source: --seed overrides the config's seed key,
    # and without either the seed is 0.
    monkeypatch.setenv("LANGFLOW_SEED", "99")
    for name, config, flags, seed in [
        ("default", PIPELINE_CONFIG, [], 0),
        ("config", PIPELINE_CONFIG + "seed = 5\n", [], 5),
        ("flag", PIPELINE_CONFIG, ["--seed", "7"], 7),
    ]:
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(config)
        out = tmp_path / name
        assert main(["segment", "--in", str(scene_dir / "frames"), "--config", str(cfg),
                     "--out", str(out), *flags]) == 0
        manifest = parse_config_text((out / "manifest.txt").read_text())
        assert manifest.get_int("seed") == seed, name


@pytest.mark.parametrize(
    "command, key, text",
    [
        ("segment", "xi_d_y", PIPELINE_CONFIG + "xi_d_y = nan\n"),
        ("segment", "confinement_stiffness", PIPELINE_CONFIG + "confinement_stiffness = inf\n"),
        ("segment", "magnitude_threshold", PIPELINE_CONFIG + "magnitude_threshold = -inf\n"),
        ("synth", "noise_level", SCENE_SPEC + "noise_level = nan\n"),
        ("synth", "block1_velocity", SCENE_SPEC.replace("block1_velocity = 2, 0", "block1_velocity = 2, inf")),
    ],
    ids=["xi_d_y-nan", "confinement_stiffness-inf", "magnitude_threshold-minus-inf", "noise_level-nan",
         "block1_velocity-inf"],
)
def test_non_finite_config_number_is_a_config_error(tmp_path, scene_dir, capsys, command, key, text):
    cfg = tmp_path / "non_finite.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    if command == "segment":
        argv = ["segment", "--in", str(scene_dir / "frames"), "--config", str(cfg), "--out", str(out)]
    else:
        argv = ["synth", "--spec", str(cfg), "--out", str(out)]
    assert main(argv) == 2
    assert f"key '{key}': expected" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "key",
    ["dt = 0.5", "sqrt_dt_noise = true", "flow_pyramid_levels = 3", "flow_window_radius = 4",
     "flow_iterations = 4", "peak_min_fraction = 0.05", "jobs = 2",
     "force_external = false", "force_disturbance = false"],
)
def test_time_step_keys_are_unknown(tmp_path, scene_dir, capsys, key):
    # one Langevin step is one frame, so there is no time step to set; the
    # flow estimator's shape and the peak floor are constants, not settings;
    # --jobs alone sets the window parallelism; damping and disturbance are
    # turned off through their coefficients (gamma, xi_d), not switches
    cfg = tmp_path / "time_step.cfg"
    cfg.write_text(f"{PIPELINE_CONFIG}{key}\n")
    out = tmp_path / "out"
    code = main(["segment", "--in", str(scene_dir / "frames"), "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert f"unknown key '{key.split()[0]}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, text",
    [
        ("segment", "window_size = 2\n"),
        ("segment", PIPELINE_CONFIG.replace("flow_downscale = 2", "flow_downscale = 0")),
        ("segment", PIPELINE_CONFIG + "gamma_x = 2\n"),
        ("segment", PIPELINE_CONFIG + "dilation_radius = -1\n"),
        ("segment", PIPELINE_CONFIG + "bin_count = 1\n"),
        ("segment", PIPELINE_CONFIG + "bin_count = 40000\n"),
        ("segment", PIPELINE_CONFIG + "magnitude_threshold = -1\n"),
        ("bench", PIPELINE_CONFIG + "bin_count = 1\n"),
        ("synth", SCENE_SPEC.replace("width = 64", "width = 4")),
        ("segment", PIPELINE_CONFIG + "min_group_size = 0\n"),
        ("segment", PIPELINE_CONFIG + "min_group_size = -3\n"),
    ],
    ids=["window_size", "flow_downscale", "gamma_x", "dilation_radius", "bin_count",
         "bin_count-above-int16", "magnitude_threshold", "bench-bin_count", "synth-width",
         "min_group_size-zero", "min_group_size-negative"],
)
def test_out_of_range_setting_is_a_config_error_before_any_read(
    tmp_path, scene_dir, monkeypatch, capsys, command, text
):
    def no_read(*args, **kwargs):
        raise AssertionError("read a frame although the config is out of range")

    monkeypatch.setattr(flowseg.cli, "read_frame", no_read)
    cfg = tmp_path / "out_of_range.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    frames, gt = str(scene_dir / "frames"), str(scene_dir / "gt")
    argv = {
        "segment": ["segment", "--in", frames, "--config", str(cfg), "--out", str(out)],
        "bench": ["bench", "--config", str(cfg), "--frames", frames, "--gt", gt, "--w", "4",
                  "--repeats", "1", "--out", str(out)],
        "synth": ["synth", "--spec", str(cfg), "--out", str(out)],
    }[command]
    assert main(argv) == 2
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


def test_eval_perfect_match(tmp_path, scene_dir, capsys):
    argv = ["eval", "--pred", str(scene_dir / "gt"), "--gt", str(scene_dir / "gt"),
            "--out", str(tmp_path / "report.csv")]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "mean accuracy: 1.0000" in out
    lines = (tmp_path / "report.csv").read_text().splitlines()
    assert lines[0] == "frame_index,window_index,accuracy,iou,is_window_start"
    assert len(lines) == 13
    # windows come from the run's manifest: eval has no --window-size
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--window-size", "4"])
    assert exc.value.code == 2


def test_eval_scores_a_run_as_report_does(tmp_path):
    # the library's report of a run and eval of the files segment writes
    # for it give the same CSV bytes
    assert main(["synth", "--preset", "two-way", "--frames", "12", "--out", str(tmp_path / "scene")]) == 0
    code, out = run_segment(tmp_path, tmp_path / "scene")
    assert code == 0
    assert main(["eval", "--pred", str(out), "--gt", str(tmp_path / "scene" / "gt"),
                 "--out", str(tmp_path / "eval.csv")]) == 0
    frames, gt = ([read_frame(p) for p in sorted((tmp_path / "scene" / kind).glob("*.pgm"))]
                  for kind in ("frames", "gt"))
    run = segment_video(frames, PipelineConfig.from_config(parse_config_file(out / "manifest.txt")))
    report(run, {n: mask.data for n, mask in enumerate(gt, start=1)}).write_csv(tmp_path / "report.csv")
    assert (tmp_path / "report.csv").read_bytes() == (tmp_path / "eval.csv").read_bytes()


def test_eval_pipeline_output_scores_high(tmp_path, scene_dir, capsys):
    code, out = run_segment(tmp_path, scene_dir)
    assert code == 0
    assert main(["eval", "--pred", str(out), "--gt", str(scene_dir / "gt"),
                 "--out", str(tmp_path / "report.csv")]) == 0
    stdout = capsys.readouterr().out
    mean = float([l for l in stdout.splitlines() if "mean accuracy" in l][0].split()[-1])
    assert mean > 0.9
    assert "window 1:" in stdout  # window size recovered from the manifest


def test_eval_windows_start_at_first_frame(tmp_path, scene_dir):
    # frames numbered 100..111 with |W| = 4: windows are 100-103, 104-107
    # and 108-111, and the first emitted map of each is at 101, 105, 109
    renumbered = tmp_path / "renumbered"
    for kind, prefix in (("frames", "frame"), ("gt", "gt")):
        (renumbered / kind).mkdir(parents=True)
        for i, p in enumerate(sorted((scene_dir / kind).glob("*.pgm")), start=100):
            (renumbered / kind / f"{prefix}_{i:06d}.pgm").write_bytes(p.read_bytes())
    code, out = run_segment(tmp_path, renumbered)
    assert code == 0
    assert "first_frame = 100" in (out / "manifest.txt").read_text()
    report = tmp_path / "report.csv"
    assert main(["eval", "--pred", str(out), "--gt", str(renumbered / "gt"), "--out", str(report)]) == 0
    rows = [line.split(",") for line in report.read_text().splitlines()[1:]]
    assert [(int(r[0]), int(r[1]), int(r[4])) for r in rows] == [
        (101, 1, 1), (102, 1, 0), (103, 1, 0),
        (105, 2, 1), (106, 2, 0), (107, 2, 0),
        (109, 3, 1), (110, 3, 0), (111, 3, 0),
    ]


def test_eval_rejects_an_unparseable_manifest(tmp_path, scene_dir, capsys):
    # A manifest that does parse would give windows of 4 frames; one bad
    # key must not silently drop them all.
    pred = tmp_path / "pred"
    pred.mkdir()
    for p in (scene_dir / "gt").glob("*.pgm"):
        (pred / p.name).write_bytes(p.read_bytes())
    manifest = pred / "manifest.txt"
    manifest.write_text("window_size = 4\nfirst_frame = one\n")
    assert main(["eval", "--pred", str(pred), "--gt", str(scene_dir / "gt")]) == 2
    err = capsys.readouterr().err
    assert str(manifest) in err and "first_frame" in err
    manifest.write_text("window_size = 4\nfirst_frame = 1\n")
    assert main(["eval", "--pred", str(pred), "--gt", str(scene_dir / "gt")]) == 0
    assert "window 1:" in capsys.readouterr().out


@pytest.mark.parametrize("window_size", ["-3", "0"])
def test_eval_rejects_window_size_below_one(tmp_path, scene_dir, capsys, monkeypatch, window_size):
    # a manifest window size below 1 is a config error that names the
    # manifest, found before any mask is read
    def no_read(*args, **kwargs):
        raise AssertionError("read a mask although the manifest is out of range")

    pred = tmp_path / "pred"
    pred.mkdir()
    for p in (scene_dir / "gt").glob("*.pgm"):
        (pred / p.name).write_bytes(p.read_bytes())
    manifest = pred / "manifest.txt"
    manifest.write_text(f"window_size = {window_size}\nfirst_frame = 1\n")
    monkeypatch.setattr(flowseg.cli, "read_frame", no_read)
    assert main(["eval", "--pred", str(pred), "--gt", str(scene_dir / "gt")]) == 2
    captured = capsys.readouterr()
    assert str(manifest) in captured.err and "window_size must be >= 1" in captured.err
    assert "window -1" not in captured.out


def test_eval_empty_pred_dir(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    gt = tmp_path / "gt"
    gt.mkdir()
    assert main(["eval", "--pred", str(empty), "--gt", str(gt)]) == 3


def test_eval_missing_gt_frames_listed(tmp_path, scene_dir, capsys):
    gt = tmp_path / "gt_partial"
    gt.mkdir()
    files = sorted((scene_dir / "gt").glob("*.pgm"))
    for p in files[:3]:
        (gt / p.name).write_bytes(p.read_bytes())
    code = main(["eval", "--pred", str(scene_dir / "gt"), "--gt", str(gt)])
    assert code == 3
    assert "4" in capsys.readouterr().err


def test_eval_against_empty_ground_truth_is_a_metric_error(tmp_path, scene_dir, capsys):
    gt = tmp_path / "gt_empty"
    gt.mkdir()
    for p in (scene_dir / "gt").glob("*.pgm"):
        write_frame(Frame(np.zeros((64, 64), np.uint8)), gt / p.name)
    code = main(["eval", "--pred", str(scene_dir / "gt"), "--gt", str(gt)])
    assert code == 4
    assert "metric error: ground truth mask is empty" in capsys.readouterr().err


def test_eval_half_coverage(tmp_path, capsys):
    pred_dir = tmp_path / "pred"
    gt_dir = tmp_path / "gt"
    pred_dir.mkdir()
    gt_dir.mkdir()
    for i in (1, 2):
        gt = np.zeros((32, 32), np.uint8)
        gt[10:20, 10:30] = 255
        pred = np.zeros((32, 32), np.uint8)
        pred[10:20, 10:20] = 255
        write_frame(Frame(gt), gt_dir / f"gt_{i:06d}.pgm")
        write_frame(Frame(pred), pred_dir / f"mask_{i:06d}.pgm")
    report = tmp_path / "report.csv"
    assert main(["eval", "--pred", str(pred_dir), "--gt", str(gt_dir), "--out", str(report)]) == 0
    assert capsys.readouterr().out == "frames scored: 2\nmean accuracy: 0.5000\n"
    # without a manifest no frame belongs to a window
    assert report.read_text().splitlines()[1:] == [
        "1,0,0.500000,0.500000,0", "2,0,0.500000,0.500000,0"
    ]


def test_main_parses_with_one_parser_per_process(tmp_path, scene_dir, monkeypatch, capsys):
    assert flowseg.cli.build_parser() is flowseg.cli.build_parser()
    bad = tmp_path / "w2.cfg"
    bad.write_text("window_size = 2\n")
    argv = ["segment", "--in", str(scene_dir / "frames"), "--config", str(bad), "--out", str(tmp_path / "w2")]
    assert main(argv) == 2
    code, out = run_segment(tmp_path, scene_dir)
    assert code == 0
    assert len(list(out.glob("mask_*.pgm"))) == 9
    # the subcommand's function is looked up per call, so a patched one runs
    monkeypatch.setattr(flowseg.cli, "cmd_ou_check", lambda args: 7)
    assert main(["ou-check"]) == 7


def test_verbose_applies_to_each_in_process_call(tmp_path, scene_dir, caplog):
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text(PIPELINE_CONFIG)

    def timing_lines(*flags, out):
        caplog.clear()
        argv = [*flags, "segment", "--in", str(scene_dir / "frames"), "--config", str(cfg), "--out", str(out)]
        assert main(argv) == 0
        return [r for r in caplog.records
                if r.name == "flowseg.pipeline" and r.levelno == logging.DEBUG and r.getMessage().endswith(" ms")]

    flowseg_logger, root = logging.getLogger("flowseg"), logging.getLogger()
    level, root_level, root_handlers = flowseg_logger.level, root.level, list(root.handlers)
    try:
        assert timing_lines(out=tmp_path / "a") == []
        assert len(timing_lines("-v", "-v", out=tmp_path / "b")) == 12  # one per frame
        assert timing_lines(out=tmp_path / "c") == []
        assert (root.level, root.handlers) == (root_level, root_handlers)  # the caller's to set
    finally:
        flowseg_logger.setLevel(level)


def test_ou_check_passes_at_defaults(capsys):
    assert main(["ou-check", "--steps", "20000", "--seed", "5"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "measured variance : 0.010303",
        "expected variance : 0.010417",
        "relative error    : 1.0916% (tolerance 5.0%)",
        "measured mean     : -0.000852",
        "lag-1 autocorr    : +0.1900 (expected +0.2000)",
    ]


def test_ou_check_has_no_time_step_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ou-check", "--dt", "0.5"])
    assert exc.value.code == 2


def test_ou_check_fails_with_tight_tolerance(capsys):
    assert main(["ou-check", "--steps", "20000", "--seed", "5",
                 "--tolerance", "1e-7"]) == 4


def test_ou_check_rejects_gamma_without_stationary_variance(capsys, monkeypatch):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated a check that cannot be made")

    monkeypatch.setattr(flowseg.cli, "ou_statistics", no_simulation)
    assert main(["ou-check", "--gamma", "0"]) == 2
    assert "stationary variance" in capsys.readouterr().err


def test_ou_check_fails_on_nan_error(capsys, monkeypatch):
    real = flowseg.cli.ou_statistics

    def nan_variance(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), variance=float("nan"))

    monkeypatch.setattr(flowseg.cli, "ou_statistics", nan_variance)
    assert main(["ou-check", "--steps", "100", "--seed", "5", "--tolerance", "1e9"]) == 4
    assert "FAIL" in capsys.readouterr().out


def test_bench_three_rows(tmp_path, scene_dir, capsys):
    out_csv = tmp_path / "bench.csv"
    code = main(["bench", "--w", "4..6", "--frames", str(scene_dir / "frames"),
                 "--gt", str(scene_dir / "gt"), "--repeats", "1",
                 "--out", str(out_csv), "--seed", "1"])
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert len(lines) == 4
    assert lines[1].startswith("4,")
    table = capsys.readouterr().out
    assert "speedup" in table


def test_bench_sweeps_the_synthetic_scene(tmp_path, capsys):
    out_csv = tmp_path / "sweep.csv"
    code = main(["bench", "--scene-frames", "12", "--w", "3..4", "--repeats", "1",
                 "--seed", "1", "--out", str(out_csv)])
    assert code == 0
    assert "speedup" in capsys.readouterr().out
    rows = list(csv.DictReader(out_csv.open()))
    assert [r["window_size"] for r in rows] == ["3", "4"]
    assert all(0.5 < float(r["mean_accuracy"]) <= 1.0 for r in rows)

    # coefficients select a force subset: disturbance off scores as the
    # library's run with xi_d = 0 does
    cfg = tmp_path / "forces.cfg"
    cfg.write_text("window_size = 4\nxi_d_x = 0\nxi_d_y = 0\n")
    assert main(["bench", "--config", str(cfg), "--scene-frames", "12", "--w", "4", "--repeats", "1",
                 "--seed", "1", "--out", str(out_csv)]) == 0
    [row] = csv.DictReader(out_csv.open())
    scene = generate_scene(preset_scene("one-way", frame_count=12))
    run_cfg = PipelineConfig(window_size=4, seed=1, langevin=LangevinParams(xi_d_x=0.0, xi_d_y=0.0))
    expected = report(segment_video(scene.frames, run_cfg), dict(enumerate(scene.masks, start=1)))
    assert row["mean_accuracy"] == f"{expected.mean_accuracy:.6f}"


def test_bench_config_may_omit_window_size(tmp_path, scene_dir):
    # --w sets the window size: a forces-only config runs as the same
    # config with a window_size key does, and a run manifest works too
    code, run = run_segment(tmp_path, scene_dir)
    assert code == 0
    rows = {}
    for name, text in (("forces", "xi_d_x = 0\nxi_d_y = 0\n"),
                       ("forces-w", "window_size = 6\nxi_d_x = 0\nxi_d_y = 0\n")):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text)
        out_csv = tmp_path / f"{name}.csv"
        assert main(["bench", "--config", str(cfg), "--scene-frames", "12", "--w", "4", "--repeats", "1",
                     "--seed", "1", "--out", str(out_csv)]) == 0
        [row] = csv.DictReader(out_csv.open())
        rows[name] = (row["window_size"], row["mean_accuracy"])
    assert rows["forces"] == rows["forces-w"]
    assert main(["bench", "--config", str(run / "manifest.txt"), "--scene-frames", "12", "--w", "4",
                 "--repeats", "1"]) == 0


def test_bench_window_list_syntax(tmp_path, scene_dir):
    code = main(["bench", "--w", "4,6", "--frames", str(scene_dir / "frames"),
                 "--gt", str(scene_dir / "gt"), "--repeats", "1", "--seed", "1"])
    assert code == 0


@pytest.mark.parametrize("window_sizes, config", [("2", False), ("2..4", True)], ids=["flag", "config"])
def test_bench_window_below_3_is_a_config_error_before_any_flow(
    tmp_path, monkeypatch, capsys, window_sizes, config
):
    def no_flow(*args, **kwargs):
        raise AssertionError("computed flow for a window size that cannot run")

    monkeypatch.setattr(flowseg.synth, "compute_dense_flow", no_flow)
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(PIPELINE_CONFIG)
    argv = ["bench", "--w", window_sizes, "--repeats", "1", "--scene-frames", "8"]
    assert main(argv + (["--config", str(cfg)] if config else [])) == 2
    assert "config error: window size 2 is below 3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        "bench --repeats 0 --w 3 --scene-frames 8",
        "bench --scene-frames 0 --w 3 --repeats 1",
        "bench --scene-frames 10 --w 3..10 --repeats 1",
        "ou-check --steps 0",
        "ou-check --particles 0",
        "ou-check --gamma 2",
        "ou-check --xid nan",
        "ou-check --tolerance -1",
        "ou-check --tolerance nan",
        "synth --preset one-way --frames 0 --out {tmp}/out",
    ],
    ids=["bench-repeats", "bench-scene-frames", "bench-scene-frames-below-2w", "ou-check-steps",
         "ou-check-particles", "ou-check-gamma", "ou-check-xid", "ou-check-tolerance",
         "ou-check-tolerance-nan", "synth-frames"],
)
def test_out_of_range_flag_is_a_config_error_before_any_work(tmp_path, monkeypatch, capsys, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("started work although a flag is out of range")

    for name in ("generate_scene", "ou_statistics", "read_frame"):
        monkeypatch.setattr(flowseg.cli, name, no_work)
    assert main(argv.format(tmp=tmp_path).split()) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (tmp_path / "out").exists()


def test_bench_bad_range(capsys):
    assert main(["bench", "--w", "4..x", "--repeats", "1"]) == 2


def test_bench_empty_range_is_a_config_error(capsys):
    assert main(["bench", "--w", "5..3", "--repeats", "1"]) == 2
    assert "empty window range" in capsys.readouterr().err


def test_bench_duplicate_sizes_run_once(tmp_path, scene_dir):
    out_csv = tmp_path / "bench.csv"
    code = main(["bench", "--w", "4,4", "--frames", str(scene_dir / "frames"),
                 "--gt", str(scene_dir / "gt"), "--repeats", "1", "--out", str(out_csv), "--seed", "1"])
    assert code == 0
    rows = out_csv.read_text().splitlines()[1:]
    assert len(rows) == 1 and rows[0].startswith("4,")


def test_bench_frames_without_gt_is_a_config_error_before_any_read(tmp_path, scene_dir, capsys):
    (scene_dir / "frames" / "frame_000005.pgm").write_bytes(b"P5\n64 64\n255\n")
    code = main(["bench", "--w", "3", "--frames", str(scene_dir / "frames"), "--repeats", "1"])
    assert code == 2
    assert "--gt is required" in capsys.readouterr().err


def test_bench_missing_gt_frame_is_an_input_error(tmp_path, scene_dir, capsys):
    (scene_dir / "gt" / "gt_000005.pgm").unlink()
    code = main(["bench", "--w", "3", "--frames", str(scene_dir / "frames"),
                 "--gt", str(scene_dir / "gt"), "--repeats", "1", "--seed", "1"])
    assert code == 3
    assert "ground truth missing for frames: [5]" in capsys.readouterr().err


def test_bench_mixed_sizes_names_frames_by_number_before_any_flow(tmp_path, monkeypatch, capsys):
    frames, gt = tmp_path / "frames", tmp_path / "gt"
    frames.mkdir()
    gt.mkdir()
    for number in range(1, 13):
        height = 62 if number == 9 else 64
        write_frame(Frame(np.full((height, 64), number, np.uint8)), frames / f"frame_{number:06d}.pgm")
        write_frame(Frame(np.zeros((height, 64), np.uint8)), gt / f"gt_{number:06d}.pgm")

    def no_flow(*args, **kwargs):
        raise AssertionError("computed flow before checking the frame sizes")

    monkeypatch.setattr(flowseg.synth, "compute_dense_flow", no_flow)
    monkeypatch.setattr(flowseg.pipeline, "compute_dense_flow", no_flow)
    code = main(["bench", "--w", "3", "--frames", str(frames), "--gt", str(gt), "--repeats", "1"])
    assert code == 3
    err = capsys.readouterr().err
    assert err == "input error: inconsistent frame dimensions: frame 9 is (64, 62), frame 1 is (64, 64)\n"


@pytest.mark.parametrize(
    "argv",
    [
        "segment --in {frames} --config {cfg} --out {tmp}/out --seed -1",
        "segment --in {frames} --config {cfg} --out {tmp}/out --seed 18446744073709551616",
        "bench --w 3 --scene-frames 8 --repeats 1 --out {tmp}/out --seed -1",
        "bench --config {cfg} --frames {frames} --gt {gt} --w 4 --repeats 1 --out {tmp}/out "
        "--seed 18446744073709551616",
        "ou-check --steps 10 --seed -1",
        "ou-check --steps 10 --seed 18446744073709551616",
    ],
    ids=["segment-minus-1", "segment-2**64", "bench-minus-1", "bench-config-2**64",
         "ou-check-minus-1", "ou-check-2**64"],
)
def test_seed_outside_64_bits_is_a_config_error_before_any_work(tmp_path, scene_dir, monkeypatch, capsys, argv):
    # the noise generator's key holds 64 bits: no other seed runs, so none
    # is written to a manifest as if it had
    def no_work(*args, **kwargs):
        raise AssertionError("started work although the seed is out of range")

    for name in ("generate_scene", "ou_statistics", "read_frame"):
        monkeypatch.setattr(flowseg.cli, name, no_work)
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text(PIPELINE_CONFIG)
    argv = argv.format(tmp=tmp_path, cfg=cfg, frames=scene_dir / "frames", gt=scene_dir / "gt")
    assert main(argv.split()) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: seed ") and "outside 0..2**64 - 1" in err
    assert not (tmp_path / "out").exists()


def test_largest_seed_runs_and_is_written_to_the_manifest(tmp_path, scene_dir):
    code, out = run_segment(tmp_path, scene_dir, extra=["--seed", str(2**64 - 1)])
    assert code == 0
    assert parse_config_file(out / "manifest.txt").get_int("seed") == 2**64 - 1


def test_bench_bad_window_list(capsys):
    assert main(["bench", "--w", "4,x", "--repeats", "1"]) == 2
    assert "bad window list '4,x'" in capsys.readouterr().err


@pytest.mark.parametrize("missing", ["--in", "--out"])
def test_segment_without_an_input_or_output_directory_is_a_config_error(
    tmp_path, scene_dir, monkeypatch, capsys, missing
):
    # neither defaults to the working directory, which stays empty
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text(PIPELINE_CONFIG)
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    flags = {"--in": str(scene_dir / "frames"), "--out": str(tmp_path / "out")}
    del flags[missing]
    assert main(["segment", "--config", str(cfg), *[x for pair in flags.items() for x in pair]]) == 2
    assert f"no {'input' if missing == '--in' else 'output'} directory" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert not any(cwd.iterdir())
