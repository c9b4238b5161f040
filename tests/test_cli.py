import csv
import dataclasses

import numpy as np
import pytest

import flowseg.cli
from flowseg import Frame, Group, SegmentationMap, write_frame
from flowseg.cli import main
from flowseg.pipeline import RunResult

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
        '{"frame": 2, "id": 1, "bin": 0, "centroid": [7.4336, 15.2832], "members": 113}',
        '{"frame": 3, "id": 1, "bin": 0, "centroid": [8.1022, 15.1601], "members": 113}',
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


def test_segment_mixed_sizes_names_frames_by_their_numbers(tmp_path, capsys):
    frames = tmp_path / "frames"
    frames.mkdir()
    for number in range(101, 109):
        height = 62 if number == 103 else 60
        write_frame(Frame(np.full((height, 80), number, np.uint8)), frames / f"frame_{number:06d}.pgm")
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text(PIPELINE_CONFIG)
    out = tmp_path / "out"
    code = main(["segment", "--in", str(frames), "--config", str(cfg), "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert "frame 103 is (80, 62), frame 101 is (80, 60)" in err
    assert not out.exists()


def test_segment_too_many_groups_writes_nothing(tmp_path, scene_dir, monkeypatch, capsys):
    def run_with_256_groups(frames, cfg, jobs=1):
        groups = [
            Group(id=i, bin=0, x=np.array([float(i % 64)]), y=np.array([float(i // 64)]),
                  vx=np.zeros(1), vy=np.zeros(1), clamped=np.zeros(1, bool))
            for i in range(1, 257)
        ]
        maps = [(2, SegmentationMap(2, 32, 32, groups[:3])), (3, SegmentationMap(3, 32, 32, groups))]
        return RunResult(maps=maps, timings=[], windows=[(1, 4)], skipped_frames=[])

    monkeypatch.setattr(flowseg.cli, "segment_video", run_with_256_groups)
    out = tmp_path / "out"
    out.mkdir()
    code, _ = run_segment(tmp_path, scene_dir, out_name="out")
    assert code == 3
    assert "more than 255 groups" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_segment_out_path_that_is_a_file(tmp_path, scene_dir, capsys):
    out = tmp_path / "taken"
    out.write_text("not a directory")
    code, _ = run_segment(tmp_path, scene_dir, out_name="taken")
    assert code == 3
    assert "input error" in capsys.readouterr().err
    assert out.read_text() == "not a directory"


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


def test_segment_env_seed_fallback(tmp_path, scene_dir, monkeypatch):
    monkeypatch.setenv("LANGFLOW_SEED", "99")
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text(PIPELINE_CONFIG)
    out = tmp_path / "envrun"
    assert main(["segment", "--in", str(scene_dir / "frames"), "--config", str(cfg),
                 "--out", str(out)]) == 0
    assert "seed = 99" in (out / "manifest.txt").read_text()


def test_eval_perfect_match(tmp_path, scene_dir, capsys):
    code = main(["eval", "--pred", str(scene_dir / "gt"), "--gt", str(scene_dir / "gt"),
                 "--out", str(tmp_path / "report.csv"), "--window-size", "4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "mean accuracy: 1.0000" in out
    lines = (tmp_path / "report.csv").read_text().splitlines()
    assert lines[0] == "frame_index,window_index,accuracy,iou,is_window_start"
    assert len(lines) == 13


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


@pytest.mark.parametrize("window_size", ["-3", "0"])
def test_eval_rejects_window_size_below_one(tmp_path, scene_dir, capsys, window_size):
    code = main(["eval", "--pred", str(scene_dir / "gt"), "--gt", str(scene_dir / "gt"),
                 "--window-size", window_size])
    assert code == 2
    captured = capsys.readouterr()
    assert "window size" in captured.err
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
    # without a manifest or --window-size no frame belongs to a window
    assert report.read_text().splitlines()[1:] == [
        "1,0,0.500000,0.500000,0", "2,0,0.500000,0.500000,0"
    ]


def test_ou_check_passes_at_defaults(capsys):
    assert main(["ou-check", "--steps", "20000", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "measured variance" in out and "0.010" in out


def test_ou_check_fails_with_tight_tolerance(capsys):
    assert main(["ou-check", "--steps", "20000", "--seed", "5",
                 "--tolerance", "1e-7"]) == 4


def test_ou_check_rejects_gamma_without_stationary_variance(capsys, monkeypatch):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated a check that cannot be made")

    monkeypatch.setattr(flowseg.cli, "ou_statistics", no_simulation)
    assert main(["ou-check", "--gamma", "0"]) == 3
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


def test_bench_window_list_syntax(tmp_path, scene_dir):
    code = main(["bench", "--w", "4,6", "--frames", str(scene_dir / "frames"),
                 "--gt", str(scene_dir / "gt"), "--repeats", "1", "--seed", "1"])
    assert code == 0


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
