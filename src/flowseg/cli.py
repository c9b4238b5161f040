"""Command-line interface.

Subcommands: segment, eval, synth, bench, ou-check. Exit codes are a
stable contract: 0 success, 2 config error, 3 input error (a file that
breaks its format, a frame source that fails mid-run, and filesystem
errors such as an ``--out`` path that is a file), 4 metric or tolerance
failure. A number in a config file, scene spec or manifest must be finite
and in range: NaN, an infinity or a setting out of range (such as
``window_size = 2``, ``bin_count = 1`` or ``min_group_size = 0``) is a
config error, found before any frame is read. So is a flag out of range
(a count such as ``--repeats`` below 1, a ``bench --w`` size below 3, a
``bench --scene-frames`` below twice the largest ``--w``, an ``ou-check
--gamma`` outside (0, 2), or a ``--xid`` or ``--tolerance`` that is not a
finite number >= 0), found before any work.

``main`` may be called in-process: it builds its parser once per
process, and each call's ``-v`` count sets the ``flowseg`` logger's level
(WARNING, then INFO, then DEBUG) for that call. The root logger's level
and handlers are the caller's; ``main`` adds a handler only to a root
logger that has none.

The seed of ``segment`` and ``bench`` is ``--seed`` if given, else the
config's ``seed`` key, else 0; ``ou-check`` takes ``--seed`` or 0. A seed
outside 0..2**64 - 1 is a config error, found before any frame is read.

``segment`` streams through ``pipeline.run_windows`` (at most ``--jobs``
windows in flight, 1 by default) and writes each window's files as it
arrives, so memory holds a few windows, not the video. Output files carry
the numbers of the input files: the pipeline numbers frames from the first
one. Files are staged beside ``--out`` and moved in after the last window,
so a failed run leaves ``--out`` as it was. ``--out`` holds one run: the
``mask_*.pgm`` and ``overlay_*.ppm`` files that the run did not write are
deleted once its files are moved in, and other files are left alone. An
``--out`` that names a file is an input error before any frame is read.
The run's ``manifest.txt`` re-runs it as ``--config``, so an ``--in`` or
``--out`` path that a manifest cannot hold as written (a line break, a
``#`` after whitespace, or whitespace at either end) is a config error
before any frame is read; a ``#`` elsewhere, as in ``runs/a#b``, is fine.

``synth`` writes each frame and its ground-truth mask ``gt_*.pgm`` as the
scene yields them, so memory holds one frame whatever the length; masks
hold block numbers (0 is background, so a scene holds at most 255
blocks). Its ``manifest.txt`` re-runs the scene as ``--spec``. Only
``synth --write-flow`` builds ground-truth flows, one pair at a time;
``bench`` reads none. ``eval`` counts every non-zero pixel as
ground truth, so 0/255 masks score the same. It reads a run's windows
from its manifest (``window_size`` frames each from ``first_frame``) and
has no ``--window-size``; with no manifest, no frame is in a window.

``bench`` is the paper's window-size trade-off sweep: larger windows run
dense flow on fewer frames (faster) but propagate the groups further from
their seed frames (less accurate). On a 100-frame synthetic scene:

    flowseg bench --scene-frames 100 --w 3..10 --repeats 5 --seed 1 --out sweep.csv

``--w`` sets ``bench``'s window sizes, so its ``--config`` may omit
``window_size`` (a run manifest that has it works too). A config turns
the damping off with ``gamma_x = gamma_y = 0``, the disturbance with
``xi_d_x = xi_d_y = 0`` and the estimated drift and confinement with
``force_drift_confine = false``, so this loop scores each of the 8 subsets
of the three force families (with none, particles move ballistically):

    for g in 0.8 0; do for d in true false; do for n in 0.1,0.5 0,0; do
      printf 'gamma_x = %s\ngamma_y = %s\nforce_drift_confine = %s\nxi_d_x = %s\nxi_d_y = %s\n' \
        $g $g $d "${n%,*}" "${n#*,}" > forces.cfg
      flowseg bench --config forces.cfg --w 4 --scene-frames 40 --repeats 1 --seed 1
    done; done; done
"""

import argparse
import csv
import functools
import logging
import re
import sys
import tempfile
from contextlib import closing
from dataclasses import replace
from pathlib import Path
from typing import Iterator

import numpy as np

from . import synth
from .config import dump, format_config, load, parse_config_file, parse_config_text
from .errors import ConfigError, InputError, MetricError
from .evaluation import rasterize_maps, render_overlays, score_frames
from .evaluation import rasterize, render_overlay  # noqa: F401  (perfbench traces these names)
from .flow import block_sums
from .io import Frame, read_frame, write_flow_file, write_frame, write_ppm
from .pipeline import PHASE_SKIPPED, PipelineConfig, run_windows
from .pipeline import segment_video  # noqa: F401  (perfbench traces these names)
from .synth import (
    SceneFlows, SceneSpec, ar1_stationary_variance, generate_scene, iter_scene, ou_statistics,
)
from .dynamics import LangevinParams, require_seed

log = logging.getLogger("flowseg")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INPUT = 3
EXIT_METRIC = 4

# Manifest keys that locate a run or record its input's frame numbering,
# but do not change its maps; they are no pipeline settings.
RUN_KEYS = ("input_dir", "output_dir", "first_frame")

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


def _read_frames_dir(path: Path) -> tuple[Iterator[Frame], int, int]:
    """A lazy iterator over the .pgm frames of ``path`` sorted by their
    trailing number, the first number and the count.

    Numbers must be strictly consecutive (checked before any frame is read),
    so the pipeline, given the first number, numbers every frame as its
    file is numbered; the pipeline (and ``bench``) check the frame sizes.
    """
    numbered = _numbered_pgms(path, "input")
    if not numbered:
        raise InputError(f"no numbered .pgm frames in {path}")
    numbers = [n for n, _ in numbered]
    if numbers != list(range(numbers[0], numbers[0] + len(numbers))):
        raise InputError(f"frame numbers in {path} are not consecutive: {numbers}")
    return (read_frame(p) for _, p in numbered), numbers[0], len(numbers)


def _read_masks_dir(path: Path) -> dict[int, np.ndarray]:
    return {number: read_frame(p).data for number, p in _numbered_pgms(path, "mask")}


def _read_ground_truth(path: Path, numbers) -> dict[int, np.ndarray]:
    """The ground-truth masks of ``path`` for the frame ``numbers``; any
    number without a mask is an input error that lists them all."""
    masks = _read_masks_dir(path)
    missing = [n for n in numbers if n not in masks]
    if missing:
        raise InputError(f"ground truth missing for frames: {missing}")
    return masks


def _parse_window_range(text: str) -> tuple[int, ...]:
    """Window sizes of ``4..6`` or ``4,6,8``, each once, in the order given;
    a size below 3 is a config error."""
    if ".." in text:
        lo, _, hi = text.partition("..")
        try:
            sizes = tuple(range(int(lo), int(hi) + 1))
        except ValueError:
            raise ConfigError(f"bad window range {text!r} (use e.g. 4..6)") from None
        if not sizes:
            raise ConfigError(f"empty window range {text!r} (use e.g. 4..6)")
    else:
        try:
            sizes = tuple(dict.fromkeys(int(p) for p in text.split(",")))
        except ValueError:
            raise ConfigError(f"bad window list {text!r} (use e.g. 4,5,6)") from None
    if min(sizes) < 3:
        raise ConfigError(f"window size {min(sizes)} is below 3 (2 seed frames + 1 propagated)")
    return sizes


def _at_least_one(**counts: int | None) -> None:
    """A ConfigError naming the first of ``counts`` that is given and below 1."""
    for name, value in counts.items():
        if value is not None and value < 1:
            raise ConfigError(f"{name} must be >= 1, got {value}")


def _load_pipeline_config(
    path, flag_seed: int | None, window_size: int | None = None
) -> tuple[PipelineConfig, dict]:
    """The pipeline settings of a config file or run manifest, and its run
    keys (``RUN_KEYS``, strings or None); any other key is a config error.
    A ``window_size`` given here lets the file omit that key."""
    cfg_dict = parse_config_file(path)
    run_keys = {key: cfg_dict.get_str(key, None) for key in RUN_KEYS}
    cfg = PipelineConfig.from_config(cfg_dict, seed_override=flag_seed, window_size=window_size)
    cfg_dict.reject_unknown()
    return cfg, run_keys


def cmd_segment(args) -> int:
    cfg, run_keys = _load_pipeline_config(args.config, args.seed)

    # Path("") is the working directory, so the names are checked as strings
    in_dir = args.input or run_keys["input_dir"]
    out_dir = args.output or run_keys["output_dir"]
    if not in_dir:
        raise ConfigError("no input directory (use --in or an input_dir config key)")
    if not out_dir:
        raise ConfigError("no output directory (use --out or an output_dir config key)")
    in_dir, out_dir = Path(in_dir), Path(out_dir)
    _at_least_one(jobs=args.jobs)
    if out_dir.exists() and not out_dir.is_dir():
        raise InputError(f"output path is not a directory: {out_dir}")

    frames, first_number, count = _read_frames_dir(in_dir)
    w = cfg.window_size
    if count < w:
        raise InputError(f"need at least window_size={w} frames, got {count}")
    run = {"input_dir": str(in_dir), "output_dir": str(out_dir), "first_frame": first_number}
    manifest = format_config(
        {**dump(cfg), **run},
        header="flowseg segment run manifest (re-runnable as --config)",
    )

    out_dir.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f".{out_dir.name}.", dir=out_dir.parent) as staging_dir:
        staging = Path(staging_dir)
        (staging / "manifest.txt").write_text(manifest)
        windows = masks = 0  # windows are numbered from 1: the last number is the count
        with (
            open(staging / "groups.jsonl", "w") as groups_fh,
            open(staging / "timings.csv", "w", newline="") as timings_fh,
            closing(run_windows(frames, cfg, args.jobs, first_number)) as results,
        ):
            timings = csv.writer(timings_fh)
            timings.writerow(["frame_index", "phase", "milliseconds"])
            for windows, first, window_frames, maps, window_timings in results:
                _write_window(staging, first, window_frames, maps, cfg, groups_fh)
                masks += len(maps)
                end = first + len(window_frames)  # the first frame after the last window
                timings.writerows([t.frame_index, t.phase, f"{t.milliseconds:.3f}"] for t in window_timings)
            skipped = range(end, first_number + count)
            timings.writerows([frame, PHASE_SKIPPED, "0.000"] for frame in skipped)
        out_dir.mkdir(parents=True, exist_ok=True)
        written = {path.name for path in staging.iterdir()}
        for name in written:
            (staging / name).replace(out_dir / name)
        # --out holds one run: delete an earlier run's masks and overlays
        for path in [*out_dir.glob("mask_*.pgm"), *out_dir.glob("overlay_*.ppm")]:
            if path.name not in written:
                path.unlink()

    print(f"processed {windows} window(s), wrote {masks} mask(s) to {out_dir} (seed {cfg.seed})")
    if skipped:
        print(f"skipped {len(skipped)} leftover frame(s)")
    return EXIT_OK


@functools.cache
def _rounded_means(d: int) -> np.ndarray:
    """``rint(s / d**2)`` as bytes for every sum ``s`` of ``d**2`` 8-bit
    pixels, 0..255 * d**2: the rounded block mean, with the bits of the
    float64 block mean the flow takes (an exact sum divided by d**2)."""
    n = d * d
    table = np.rint(np.arange(255 * n + 1) / n).astype(np.uint8)
    table.flags.writeable = False
    return table


def _overlay_base(frame: Frame, d: int) -> Frame:
    """The 8-bit frame an overlay is drawn on: the rounded mean of each
    ``d`` x ``d`` block of ``frame``, whose sides are multiples of ``d``.
    Its block sums are flow's (``block_sums``, the sums the pyramid base
    divides by d**2), rounded through ``_rounded_means``."""
    return Frame(_rounded_means(d).take(block_sums(frame.data, d)))


def _write_window(out_dir: Path, first: int, frames: list[Frame], maps, cfg: PipelineConfig, groups_fh):
    """Write each map's mask, its groups, and its overlay on its frame, the
    one of its number among ``frames``, the window's frames from ``first``."""
    for frame_index, seg_map in maps:
        if any(g.id > 255 for g in seg_map.groups):
            raise InputError(f"frame {frame_index}: more than 255 groups cannot be stored in a P5 mask")
    masks = rasterize_maps([seg_map for _, seg_map in maps], cfg.dilation_radius)
    overlays = [None] * len(maps)
    if cfg.write_overlays:
        bases = [_overlay_base(frames[frame_index - first], cfg.flow.downscale) for frame_index, _ in maps]
        overlays = render_overlays(bases, masks)
    for (frame_index, seg_map), mask, rgb in zip(maps, masks, overlays):
        write_frame(Frame(mask.labels.astype(np.uint8)), out_dir / f"mask_{frame_index:06d}.pgm")
        if rgb is not None:
            write_ppm(rgb, out_dir / f"overlay_{frame_index:06d}.ppm")
        for g in seg_map.groups:
            cx, cy = g.centroid
            groups_fh.write(
                '{"frame": %d, "id": %d, "bin": %d, "centroid": [%.4f, %.4f], "members": %d}\n'
                % (frame_index, g.id, g.bin, cx, cy, g.size)
            )


def cmd_eval(args) -> int:
    pred_dir = Path(args.pred)
    window_size, first_frame = None, 1
    manifest_path = pred_dir / "manifest.txt"
    if manifest_path.exists():
        try:
            manifest = parse_config_file(manifest_path)
            first_frame = manifest.get_int("first_frame", 1)
            window_size = manifest.get_int("window_size", None)
            _at_least_one(window_size=window_size)
        except ConfigError as exc:
            raise ConfigError(f"run manifest {manifest_path}: {exc}") from None

    preds = _read_masks_dir(pred_dir)
    if not preds:
        raise InputError(f"no prediction masks in {pred_dir}")
    gts = _read_ground_truth(Path(args.gt), sorted(preds))

    # Fallback: a run on disk has no per-window record, so its windows are cut
    # again from its manifest; with none, or before first_frame, a frame is in window 0.
    window = {n: (n - first_frame) // window_size + 1 if window_size and n >= first_frame else 0
              for n in preds}
    report = score_frames(((n, window[n], mask) for n, mask in sorted(preds.items())), gts)
    if args.out:
        report.write_csv(args.out)
    print(f"frames scored: {len(report.rows)}")
    print(report.summary())
    return EXIT_OK


def cmd_synth(args) -> int:
    _at_least_one(frames=args.frames)
    if args.spec:
        cfg = parse_config_file(args.spec)
        spec = load(SceneSpec, cfg)
        cfg.reject_unknown()
    else:
        spec = synth.preset_scene(args.preset)
    if args.frames is not None:
        spec = replace(spec, frame_count=args.frames)

    out_dir = Path(args.out)
    frames_dir = out_dir / "frames"
    gt_dir = out_dir / "gt"
    frames_dir.mkdir(parents=True, exist_ok=True)
    gt_dir.mkdir(parents=True, exist_ok=True)
    clipped = 0
    for i, (frame, mask, events) in enumerate(iter_scene(spec), start=1):
        write_frame(frame, frames_dir / f"frame_{i:06d}.pgm")
        write_frame(Frame(mask), gt_dir / f"gt_{i:06d}.pgm")
        clipped += len(events)
    if args.write_flow:
        flow_dir = out_dir / "flow"
        flow_dir.mkdir(parents=True, exist_ok=True)
        for i, flow in enumerate(SceneFlows(spec), start=1):
            write_flow_file(flow, flow_dir / f"flow_{i:06d}.flo")
    (out_dir / "manifest.txt").write_text(
        format_config(dump(spec), header="flowseg synth scene manifest")
    )
    print(f"wrote {spec.frame_count} frame(s) + ground truth to {out_dir}")
    if clipped:
        print(f"{clipped} block placement(s) clipped at frame boundary")
    return EXIT_OK


def cmd_bench(args) -> int:
    window_sizes = _parse_window_range(args.window_sizes)
    _at_least_one(repeats=args.repeats)
    w = min(window_sizes)
    if args.config:
        cfg = replace(_load_pipeline_config(args.config, args.seed, window_size=w)[0], window_size=w)
    else:
        cfg = PipelineConfig.from_config(parse_config_text(""), seed_override=args.seed, window_size=w)

    if args.frames:
        if not args.gt:
            raise ConfigError("--gt is required when --frames is given")
        frame_iter, first, count = _read_frames_dir(Path(args.frames))
        numbers = range(first, first + count)
        gt_map = _read_ground_truth(Path(args.gt), numbers)
        frames, masks = list(frame_iter), [gt_map[n] for n in numbers]
    else:
        first = 1
        need = 2 * max(window_sizes)
        if args.scene_frames < need:
            raise ConfigError(f"--scene-frames {args.scene_frames} is below 2*max(window) = {need}")
        scene = generate_scene(synth.preset_scene("one-way", frame_count=args.scene_frames))
        frames, masks = scene.frames, scene.masks

    report = synth.bench_compare(
        frames, masks, cfg, window_sizes=window_sizes, repeats=args.repeats, first_frame=first
    )
    print(report.table())
    if args.out:
        report.write_csv(args.out)
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_ou_check(args) -> int:
    _at_least_one(steps=args.steps, particles=args.particles)
    if not (args.tolerance >= 0 and np.isfinite(args.tolerance)):
        raise ConfigError(f"tolerance must be a finite number >= 0, got {args.tolerance}")
    try:
        require_seed(args.seed)
        params = LangevinParams(
            gamma_x=args.gamma, gamma_y=args.gamma,
            xi_d_x=args.xid, xi_d_y=args.xid, confinement_stiffness=0.0,
        )
    except InputError as exc:
        raise ConfigError(str(exc)) from None
    expected = ar1_stationary_variance(args.gamma, args.xid)
    if not np.isfinite(expected):
        raise ConfigError(
            f"gamma = {args.gamma:g} leaves the velocity with no stationary "
            "variance to check (need 0 < gamma < 2)"
        )
    stats = ou_statistics(params, steps=args.steps, particles=args.particles, seed=args.seed)
    rel = abs(stats.variance - expected) / expected if expected > 0 else abs(stats.variance)
    print(f"measured variance : {stats.variance:.6f}")
    print(f"expected variance : {expected:.6f}")
    print(f"relative error    : {rel:.4%} (tolerance {args.tolerance:.1%})")
    print(f"measured mean     : {stats.mean:+.6f}")
    print(f"lag-1 autocorr    : {stats.autocorr_lag1:+.4f} (expected {1 - args.gamma:+.4f})")
    if not rel <= args.tolerance:  # a NaN error fails too
        print("FAIL: variance outside tolerance")
        return EXIT_METRIC
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``flowseg`` parser, built once per process and shared by every
    caller, so none may change it; ``main`` runs the ``cmd_*`` function
    named by the subcommand, looked up on each call."""
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
    p.add_argument("--jobs", type=int, default=1, help="window-level parallelism")

    p = sub.add_parser("eval", help="score prediction masks against ground truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--out", help="accuracy CSV path")

    p = sub.add_parser("synth", help="generate a synthetic scene with ground truth")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", choices=sorted(synth.PRESETS))
    group.add_argument("--spec", help="scene spec config file")
    p.add_argument("--out", required=True)
    p.add_argument("--frames", type=int, default=None, help="override the preset's or spec's frame count")
    p.add_argument("--write-flow", action="store_true", help="also write ground-truth .flo files")

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

    p = sub.add_parser("ou-check", help="verify the stochastic update's stationary variance")
    p.add_argument("--gamma", type=float, default=0.8)
    p.add_argument("--xid", type=float, default=0.1)
    p.add_argument("--steps", type=int, default=100_000)
    p.add_argument("--particles", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=0.05)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # -v sets the flowseg logger's level on every call; the root logger's
    # level and handlers are the caller's, and get a handler only if none
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    log.setLevel(logging.WARNING - 10 * min(args.verbose, 2))
    command = globals()[f"cmd_{args.command.replace('-', '_')}"]
    try:
        return command(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InputError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MetricError as exc:
        print(f"metric error: {exc}", file=sys.stderr)
        return EXIT_METRIC


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
