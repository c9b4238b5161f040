"""Command-line interface.

Subcommands: segment, eval, synth, bench, ou-check. Exit codes are a
stable contract: 0 success, 2 config error, 3 input error (filesystem
errors included, such as an ``--out`` path that is a file), 4 metric or
tolerance failure.

``bench`` is the paper's window-size trade-off sweep: larger windows run
dense flow on fewer frames (faster) but propagate the groups further from
their seed frames (less accurate). On a 100-frame synthetic scene:

    flowseg bench --scene-frames 100 --w 3..10 --repeats 5 --seed 1 --out sweep.csv
"""

import argparse
import csv
import logging
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import synth
from .config import parse_config_file
from .errors import ConfigError, FlowSegError, InputError, MetricError
from .evaluation import rasterize, render_overlay, score_frames
from .flow import _block_mean
from .io import Frame, read_frame, write_flow_file, write_frame, write_ppm
from .keypoints import member_arrays
from .pipeline import PipelineConfig, segment_video
from .synth import SceneSpec, ar1_stationary_variance, generate_scene, ou_statistics
from .dynamics import LangevinParams

log = logging.getLogger("flowseg")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INPUT = 3
EXIT_METRIC = 4

SEED_ENV_VAR = "LANGFLOW_SEED"

# Manifest keys that locate or schedule a run, or record its input's frame
# numbering, but do not change its maps; they are no pipeline settings.
RUN_KEYS = ("input_dir", "output_dir", "jobs", "first_frame")

_NUMBER_RE = re.compile(r"(\d+)(?!.*\d)")


def _numbered_pgms(path: Path, kind: str) -> list[tuple[int, Path]]:
    """The ``.pgm`` files of ``path`` whose stem holds a number, as
    ``(number, path)`` pairs sorted by the stem's last number. Two files
    with one number (``gt_1.pgm`` and ``gt_001.pgm``) are an input error
    that names both."""
    if not path.is_dir():
        raise InputError(f"{kind} directory not found: {path}")
    numbered: dict[int, Path] = {}
    for p in sorted(path.glob("*.pgm")):
        match = _NUMBER_RE.search(p.stem)
        if match is None:
            continue
        number = int(match.group(1))
        if number in numbered:
            raise InputError(
                f"{numbered[number].name} and {p.name} in {path} both have number {number}"
            )
        numbered[number] = p
    return sorted(numbered.items())


def _read_frames_dir(path: Path) -> tuple[list[Frame], int]:
    """Load all .pgm frames sorted by their trailing number.

    Numbers must be strictly consecutive; the first number anchors the
    1-based frame indexing of every output file. Every frame must have the
    first frame's size; an error names both frames by their numbers.
    """
    numbered = _numbered_pgms(path, "input")
    if not numbered:
        raise InputError(f"no numbered .pgm frames in {path}")
    numbers = [n for n, _ in numbered]
    if numbers != list(range(numbers[0], numbers[0] + len(numbers))):
        raise InputError(f"frame numbers in {path} are not consecutive: {numbers}")
    frames = []
    for number, p in numbered:
        frame = read_frame(p)
        if frames and frame.data.shape != frames[0].data.shape:
            raise InputError(
                f"inconsistent frame dimensions: frame {number} is {(frame.width, frame.height)}, "
                f"frame {numbers[0]} is {(frames[0].width, frames[0].height)}"
            )
        frames.append(frame)
    return frames, numbers[0]


def _read_masks_dir(path: Path) -> dict[int, np.ndarray]:
    return {number: read_frame(p).data for number, p in _numbered_pgms(path, "mask")}


def _resolve_seed(flag_seed: int | None, cfg) -> int:
    if flag_seed is not None:
        return flag_seed
    if cfg is not None and "seed" in cfg:
        return cfg.get_int("seed")
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"{SEED_ENV_VAR}={env!r} is not an integer") from None
    return 0


def _parse_window_range(text: str) -> tuple[int, ...]:
    """Window sizes of ``4..6`` or ``4,6,8``, each once, in the order given."""
    if ".." in text:
        lo, _, hi = text.partition("..")
        try:
            sizes = range(int(lo), int(hi) + 1)
        except ValueError:
            raise ConfigError(f"bad window range {text!r} (use e.g. 4..6)") from None
        if not sizes:
            raise ConfigError(f"empty window range {text!r} (use e.g. 4..6)")
        return tuple(sizes)
    try:
        return tuple(dict.fromkeys(int(p) for p in text.split(",")))
    except ValueError:
        raise ConfigError(f"bad window list {text!r} (use e.g. 4,5,6)") from None


def _load_pipeline_config(path, flag_seed: int | None) -> tuple[PipelineConfig, dict]:
    """The pipeline settings of a config file or run manifest, and its run
    keys (``RUN_KEYS``: strings or None, except ``jobs``, an int that
    defaults to 1); any other key is a config error."""
    cfg_dict = parse_config_file(path)
    run_keys = {key: cfg_dict.get_str(key, None) for key in RUN_KEYS}
    run_keys["jobs"] = cfg_dict.get_int("jobs", 1)
    seed = _resolve_seed(flag_seed, cfg_dict)
    cfg = PipelineConfig.from_config(cfg_dict, seed_override=seed)
    cfg_dict.reject_unknown()
    return cfg, run_keys


def cmd_segment(args) -> int:
    cfg, run_keys = _load_pipeline_config(args.config, args.seed)

    in_dir = Path(args.input or run_keys["input_dir"] or "")
    out_dir = Path(args.output or run_keys["output_dir"] or "")
    if not str(in_dir):
        raise ConfigError("no input directory (use --in or an input_dir config key)")
    if not str(out_dir):
        raise ConfigError("no output directory (use --out or an output_dir config key)")
    jobs = args.jobs if args.jobs is not None else run_keys["jobs"]
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")

    frames, first_number = _read_frames_dir(in_dir)
    result = segment_video(frames, cfg, jobs=jobs)
    offset = first_number - 1
    # Checked before any file is written, so a failed run leaves no output.
    for frame_index, seg_map in result.maps:
        if any(g.id > 255 for g in seg_map.groups):
            raise InputError(
                f"frame {frame_index + offset}: more than 255 groups cannot be stored in a P5 mask"
            )
    out_dir.mkdir(parents=True, exist_ok=True)

    # jobs is an execution detail, not part of the result-determining
    # config, so it stays out of the manifest
    manifest = cfg.manifest_text(
        extra={"input_dir": str(in_dir), "output_dir": str(out_dir), "first_frame": first_number},
        header="flowseg segment run manifest (re-runnable as --config)",
    )
    (out_dir / "manifest.txt").write_text(manifest)

    with open(out_dir / "groups.jsonl", "w") as groups_fh:
        for frame_index, seg_map in result.maps:
            file_number = frame_index + offset
            mask = rasterize(seg_map, cfg.dilation_radius)
            write_frame(Frame(mask.labels.astype(np.uint8)), out_dir / f"mask_{file_number:06d}.pgm")
            if cfg.write_overlays:
                small = Frame(
                    np.rint(
                        _block_mean(
                            frames[frame_index - 1].data.astype(np.float64),
                            cfg.flow.downscale,
                        )
                    ).astype(np.uint8)
                )
                rgb = render_overlay(small, mask)
                write_ppm(rgb, out_dir / f"overlay_{file_number:06d}.ppm")
            members = member_arrays(seg_map)  # the arrays rasterize read
            for g, (cx, cy) in zip(members.groups, members.centroids.tolist()):
                groups_fh.write(
                    '{"frame": %d, "id": %d, "bin": %d, "centroid": [%.4f, %.4f], "members": %d}\n'
                    % (file_number, g.id, g.bin, cx, cy, g.size)
                )

    with open(out_dir / "timings.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frame_index", "phase", "milliseconds"])
        for t in sorted(result.timings, key=lambda t: t.frame_index):
            writer.writerow([t.frame_index + offset, t.phase, f"{t.milliseconds:.3f}"])

    print(
        f"processed {len(result.windows)} window(s), wrote {len(result.maps)} mask(s) "
        f"to {out_dir} (seed {cfg.seed})"
    )
    if result.skipped_frames:
        print(f"skipped {len(result.skipped_frames)} leftover frame(s)")
    return EXIT_OK


def cmd_eval(args) -> int:
    pred_dir = Path(args.pred)
    gt_dir = Path(args.gt)
    preds = _read_masks_dir(pred_dir)
    if not preds:
        raise InputError(f"no prediction masks in {pred_dir}")
    gts = _read_masks_dir(gt_dir)
    missing = sorted(set(preds) - set(gts))
    if missing:
        raise InputError(f"ground truth missing for frames: {missing}")

    window_size, first_frame = args.window_size, 1
    manifest_path = pred_dir / "manifest.txt"
    if manifest_path.exists():
        try:
            manifest = parse_config_file(manifest_path)
            first_frame = manifest.get_int("first_frame", 1)
            if window_size is None:
                window_size = manifest.get_int("window_size", None)
        except ConfigError:
            pass
    if window_size is not None and window_size < 1:
        raise ConfigError(f"window size must be >= 1, got {window_size}")

    report = score_frames(sorted(preds.items()), gts, window_size, first_frame)
    if args.out:
        report.write_csv(args.out)
    print(f"frames scored: {len(report.rows)}")
    print(report.summary())
    return EXIT_OK


def cmd_synth(args) -> int:
    if args.spec:
        cfg = parse_config_file(args.spec)
        spec = SceneSpec.from_config(cfg)
        cfg.reject_unknown()
    else:
        spec = synth.preset_scene(args.preset, frame_count=args.frames)
    scene = generate_scene(spec)

    out_dir = Path(args.out)
    frames_dir = out_dir / "frames"
    gt_dir = out_dir / "gt"
    frames_dir.mkdir(parents=True, exist_ok=True)
    gt_dir.mkdir(parents=True, exist_ok=True)
    for i, frame in enumerate(scene.frames, start=1):
        write_frame(frame, frames_dir / f"frame_{i:06d}.pgm")
    for i, mask in enumerate(scene.masks, start=1):
        binary = np.where(mask > 0, 255, 0).astype(np.uint8)
        write_frame(Frame(binary), gt_dir / f"gt_{i:06d}.pgm")
    if args.write_flow:
        flow_dir = out_dir / "flow"
        flow_dir.mkdir(parents=True, exist_ok=True)
        for i, flow in enumerate(scene.flows, start=1):
            write_flow_file(flow, flow_dir / f"flow_{i:06d}.flo")
    from .config import format_config

    (out_dir / "manifest.txt").write_text(
        format_config(spec.to_dict(), header="flowseg synth scene manifest")
    )
    print(f"wrote {len(scene.frames)} frame(s) + ground truth to {out_dir}")
    if scene.truncated:
        print(f"{len(scene.truncated)} block placement(s) clipped at frame boundary")
    return EXIT_OK


def cmd_bench(args) -> int:
    window_sizes = _parse_window_range(args.window_sizes)
    if args.config:
        cfg, _ = _load_pipeline_config(args.config, args.seed)
        cfg.window_size = min(window_sizes)
    else:
        cfg = PipelineConfig(window_size=min(window_sizes), seed=_resolve_seed(args.seed, None))

    if args.frames:
        frames, first = _read_frames_dir(Path(args.frames))
        if not args.gt:
            raise ConfigError("--gt is required when --frames is given")
        gt_map = _read_masks_dir(Path(args.gt))
        masks = [gt_map[first + i] for i in range(len(frames))]
    else:
        scene = generate_scene(synth.preset_scene("one-way", frame_count=args.scene_frames))
        frames, masks = scene.frames, scene.masks

    report = synth.bench_compare(
        frames, masks, cfg, window_sizes=window_sizes, repeats=args.repeats
    )
    print(report.table())
    if args.out:
        report.write_csv(args.out)
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_ou_check(args) -> int:
    params = LangevinParams(
        gamma_x=args.gamma, gamma_y=args.gamma,
        xi_d_x=args.xid, xi_d_y=args.xid, dt=args.dt,
        confinement_stiffness=0.0,
    )
    expected = ar1_stationary_variance(args.gamma, args.xid, args.dt)
    if not np.isfinite(expected):
        raise InputError(
            f"gamma*dt = {args.gamma * args.dt:g} leaves the velocity with no stationary "
            "variance to check (need 0 < gamma*dt < 2)"
        )
    seed = args.seed if args.seed is not None else _resolve_seed(None, None)
    stats = ou_statistics(params, steps=args.steps, particles=args.particles, seed=seed)
    rel = abs(stats.variance - expected) / expected if expected > 0 else abs(stats.variance)
    print(f"measured variance : {stats.variance:.6f}")
    print(f"expected variance : {expected:.6f}")
    print(f"relative error    : {rel:.4%} (tolerance {args.tolerance:.1%})")
    print(f"measured mean     : {stats.mean:+.6f}")
    print(f"lag-1 autocorr    : {stats.autocorr_lag1:+.4f} (expected {1 - args.gamma * args.dt:+.4f})")
    if not rel <= args.tolerance:  # a NaN error fails too
        print("FAIL: variance outside tolerance")
        return EXIT_METRIC
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowseg",
        description="Windowed segmentation of dominant linear motion flows in video.",
    )
    parser.add_argument("-v", "--verbose", action="count", default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("segment", help="run the windowed pipeline over a frame directory")
    p.add_argument("--in", dest="input", help="directory of numbered P5 frames")
    p.add_argument("--config", required=True, help="pipeline config file")
    p.add_argument("--out", dest="output", help="output directory")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--jobs", type=int, default=None, help="window-level parallelism")
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("eval", help="score prediction masks against ground truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--out", help="accuracy CSV path")
    p.add_argument("--window-size", type=int, default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", help="generate a synthetic scene with ground truth")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", choices=sorted(synth.PRESETS))
    group.add_argument("--spec", help="scene spec config file")
    p.add_argument("--out", required=True)
    p.add_argument("--frames", type=int, default=None, help="override preset frame count")
    p.add_argument("--write-flow", action="store_true", help="also write ground-truth .flo files")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser(
        "bench",
        help="the paper's window-size trade-off sweep against the per-pair recompute baseline",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        description="The paper's window-size trade-off sweep: accuracy and ms/frame per window\n"
        "size against the per-pair recompute baseline. On a 100-frame synthetic scene:\n\n"
        "  flowseg bench --scene-frames 100 --w 3..10 --repeats 5 --seed 1 --out sweep.csv",
    )
    p.add_argument("--w", dest="window_sizes", default="3..10", help="e.g. 4..6 or 4,6,8")
    p.add_argument("--config", default=None)
    p.add_argument("--frames", help="frame directory (default: internal synthetic scene)")
    p.add_argument("--gt", help="ground-truth directory for --frames")
    p.add_argument("--scene-frames", type=int, default=40)
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("ou-check", help="verify the stochastic update's stationary variance")
    p.add_argument("--gamma", type=float, default=0.8)
    p.add_argument("--xid", type=float, default=0.1)
    p.add_argument("--dt", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=100_000)
    p.add_argument("--particles", type=int, default=1)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tolerance", type=float, default=0.05)
    p.set_defaults(func=cmd_ou_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    level = logging.WARNING - 10 * min(args.verbose, 2)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InputError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MetricError as exc:
        print(f"metric error: {exc}", file=sys.stderr)
        return EXIT_METRIC
    except FlowSegError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
