"""Measurement loop, output checks and metrics for one workload run.

Every sample runs in a closed loop on one thread: the next starts when the
previous one has finished and been checked. A sample is one clip of the
workload's video, and samples cycle through the clips. The clock covers one
in-process ``flowseg segment`` call for the CLI workloads and one full drain
of ``stream_windows`` for the streaming workload. Checks and scoring run
outside the clock.
"""

import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy
from scipy import ndimage

from flowseg import cli
from flowseg.errors import FlowSegError
from flowseg.evaluation import accuracy, iou, rasterize, resample_nearest
from flowseg.flow import compute_dense_flow
from flowseg.io import read_frame, write_frame
from flowseg.keypoints import maps_identical
from flowseg.pipeline import PipelineConfig, segment_video, stream_windows

from spans import NullTracer, SpanStats, Tracer
from workloads import WORKLOADS, build_video, clip_specs

SETUP_REPEATS = 5
MIN_CYCLES = 3
# Seed of the propagation noise. The benchmark seed feeds only the input
# generator, so a result can be rechecked on inputs not seen before.
PIPELINE_SEED = 0


class Checks:
    """Counts attempted and failed operations; prints why each failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)
        return ok


def score(labels_by_frame, video, window: int) -> dict:
    """Mean coverage and IoU of every emitted map, and the mean coverage
    lost between each window's seed map and its last map.

    ``labels_by_frame`` holds (1-based video frame, label array) pairs.
    Raises MetricError when a ground-truth mask is empty.
    """
    coverage, jaccard = {}, {}
    for frame_index, labels in labels_by_frame:
        gt = resample_nearest(video.masks[frame_index - 1], labels.shape)
        coverage[frame_index] = accuracy(labels, gt)
        jaccard[frame_index] = iou(labels, gt)
    drops = [
        coverage[first + 1] - coverage[first + window - 1]
        for first in range(1, len(video.frames) + 1, window)
    ]
    return {
        "coverage": float(np.mean(list(coverage.values()))),
        "iou": float(np.mean(list(jaccard.values()))),
        "coverage_drop": float(np.mean(drops)),
    }


def batch_maps(video, cfg: PipelineConfig) -> list[list]:
    """``segment_video`` maps of each clip, run on that clip alone."""
    return [segment_video(video.clip(c), cfg).maps for c in range(len(video.specs))]


class CliPath:
    """``flowseg segment`` over one clip's PGM directory, called in-process."""

    def __init__(self, workload, work: Path, cfg: PipelineConfig, frames_dir: Path):
        self.workload = workload
        self.windows_per_clip = workload.clip_length // workload.window
        self.maps_per_clip = self.windows_per_clip * (workload.window - 1)
        self.out_dir = work / "out"
        config = work / "segment.cfg"
        config.write_text(
            f"window_size = {workload.window}\nseed = {cfg.seed}\n"
            f"dilation_radius = {cfg.dilation_radius}\nwrite_overlays = true\n"
        )
        self.argv = [
            ["segment", "--in", str(frames_dir / f"clip{c:03d}"), "--config", str(config),
             "--out", str(self.out_dir), "--jobs", "1"]
            for c in range(workload.clips)
        ]
        self.digests: dict[int, str] = {}

    def sample(self, clip: int, tracer, checks: Checks):
        """One timed call; returns (call ms, [window latencies ms])."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        with redirect_stdout(io.StringIO()), tracer.span("cli"):
            start = perf_counter()
            code = cli.main(self.argv[clip])
            elapsed_ms = (perf_counter() - start) * 1e3
        self._check(clip, code, checks)
        # A window's maps reach a CLI user only when the whole call returns.
        return elapsed_ms, [elapsed_ms] * self.windows_per_clip

    def _check(self, clip: int, code: int, checks: Checks) -> None:
        if not checks.record(code == cli.EXIT_OK, f"clip {clip}: segment exited with {code}"):
            return
        masks = sorted(self.out_dir.glob("mask_*.pgm"))
        overlays = sorted(self.out_dir.glob("overlay_*.ppm"))
        if not checks.record(
            len(masks) == len(overlays) == self.maps_per_clip,
            f"clip {clip}: {len(masks)} masks and {len(overlays)} overlays, "
            f"expected {self.maps_per_clip} each",
        ):
            return
        digest = hashlib.sha256()
        for path in masks + [self.out_dir / "groups.jsonl"]:
            digest.update(path.name.encode() + path.read_bytes())
        first = self.digests.setdefault(clip, digest.hexdigest())
        checks.record(digest.hexdigest() == first, f"clip {clip}: output differs from its first call's")

    def warm_up(self, checks: Checks) -> list:
        """One untimed call per clip, which records each clip's output
        digest; returns (video frame, labels) of every mask written."""
        labels = []
        for clip in range(self.workload.clips):
            self.sample(clip, NullTracer(), checks)
            offset = clip * self.workload.clip_length
            labels.extend(
                (offset + int(path.stem.split("_")[1]), read_frame(path).data)
                for path in sorted(self.out_dir.glob("mask_*.pgm"))
            )
        return labels


class StreamPath:
    """``stream_windows`` drained over one clip's frames held in memory."""

    def __init__(self, workload, video, cfg: PipelineConfig):
        self.workload, self.video, self.cfg = workload, video, cfg
        self.windows_per_clip = workload.clip_length // workload.window
        self.reference: list[list] = []
        self.digests: dict[int, str] = {}

    def warm_up(self, checks: Checks) -> list:
        """Batch maps of every clip, which every drain must match; returns
        (video frame, labels) of them rasterized, and records a digest of
        each clip's masks and group members."""
        self.reference = batch_maps(self.video, self.cfg)
        labels = []
        for clip, maps in enumerate(self.reference):
            checks.record(
                len(maps) == self.windows_per_clip * (self.workload.window - 1),
                f"clip {clip}: segment_video gave {len(maps)} maps",
            )
            digest = hashlib.sha256()
            for frame_index, seg_map in maps:
                mask = rasterize(seg_map, self.cfg.dilation_radius).labels
                digest.update(mask.astype(np.uint8).tobytes())
                for g in seg_map.groups:
                    digest.update(np.array([g.id, g.bin, g.size]).tobytes() + g.x.tobytes() + g.y.tobytes())
                labels.append((clip * self.workload.clip_length + frame_index, mask))
            self.digests[clip] = digest.hexdigest()
        return labels

    def sample(self, clip: int, tracer, checks: Checks):
        """One timed drain; returns (drain ms, [window latencies ms])."""
        emitted, latencies = [], []
        gen = stream_windows(iter(self.video.clip(clip)), self.cfg)
        with tracer.span("sample"):
            start = perf_counter()
            while True:
                with tracer.span("pipeline"):
                    asked = perf_counter()
                    item = next(gen, None)
                    got = perf_counter()
                if item is None:
                    break
                latencies.append((got - asked) * 1e3)
                emitted.append(item)
            elapsed_ms = (perf_counter() - start) * 1e3
        self._check(clip, emitted, checks)
        return elapsed_ms, latencies

    def _check(self, clip: int, emitted, checks: Checks) -> None:
        checks.record(
            len(emitted) == self.windows_per_clip,
            f"clip {clip}: {len(emitted)} windows, expected {self.windows_per_clip}",
        )
        streamed = [m for _, maps in emitted for m in maps]
        expected = self.reference[clip]
        checks.record(
            len(streamed) == len(expected)
            and all(fa == fb and maps_identical(a, b) for (fa, a), (fb, b) in zip(streamed, expected)),
            f"clip {clip}: streamed maps differ from segment_video's",
        )


# The reference kernel's time at the host's fast speed on the machine where
# the benchmark was written: scaled times read as milliseconds at that speed.
REFERENCE_MS = 16.0
_REFERENCE_INPUT = np.random.default_rng(0).random((120, 160))


def speed_scale() -> float:
    """REFERENCE_MS over the time a fixed kernel takes now.

    The host's speed drifts between fast and slow phases lasting seconds to
    over a minute, and a whole run can fall in a slow one. The kernel, a
    7x7 scipy median filter (flow's costliest stage) plus a short Python
    loop, runs just before each timed sample and set-up; multiplying their
    wall time by this factor cancels the drift. It is independent of
    flowseg, so a change to flowseg moves the scaled time as it moves the
    wall time.
    """
    start = perf_counter()
    ndimage.median_filter(_REFERENCE_INPUT, size=7)
    total = 0
    for i in range(20_000):
        total += i
    return REFERENCE_MS / ((perf_counter() - start) * 1e3)


class Fastest:
    """Each clip's fastest scaled sample time and each window's fastest
    scaled latency, plus each clip's fastest wall time.

    An input's fastest repeat is its least-disturbed time; medians and
    percentiles are then taken over the distinct clips and windows, so every
    input's content counts once.
    """

    def __init__(self, clips: int):
        self.sample_ms = [float("inf")] * clips
        self.wall_ms = [float("inf")] * clips
        self.window_ms: list[list[float] | None] = [None] * clips
        self.samples = 0

    def add(self, clip: int, scale: float, sample_ms: float, window_ms: list[float]) -> None:
        self.samples += 1
        self.wall_ms[clip] = min(self.wall_ms[clip], sample_ms)
        self.sample_ms[clip] = min(self.sample_ms[clip], sample_ms * scale)
        scaled = [ms * scale for ms in window_ms]
        best = self.window_ms[clip]
        self.window_ms[clip] = scaled if best is None else list(map(min, best, scaled))

    def median_sample_ms(self) -> float:
        return statistics.median(self.sample_ms)

    def median_wall_ms(self) -> float:
        return statistics.median(self.wall_ms)

    def window_percentile(self, q: float) -> float:
        return float(np.percentile([ms for clip in self.window_ms for ms in clip], q))


def setup(workload, seed: int, work: Path):
    """Generate the video (and, for the CLI, write one PGM directory per
    clip) SETUP_REPEATS times; return the median scaled and wall times and
    the last result."""
    scaled, wall = [], []
    for i in range(SETUP_REPEATS):
        frames_dir = work / f"frames{i}"
        scale = speed_scale()
        start = perf_counter()
        video = build_video(clip_specs(workload, seed), workload.window)
        if workload.via == "cli":
            for c in range(workload.clips):
                clip_dir = frames_dir / f"clip{c:03d}"
                clip_dir.mkdir(parents=True)
                for number, frame in enumerate(video.clip(c), start=1):
                    write_frame(frame, clip_dir / f"frame_{number:06d}.pgm")
        wall.append(perf_counter() - start)
        scaled.append(wall[-1] * scale)
        if i:
            shutil.rmtree(work / f"frames{i - 1}", ignore_errors=True)
    return statistics.median(scaled), statistics.median(wall), video, frames_dir


def _block_mean(field: np.ndarray, factor: int) -> np.ndarray:
    h, w = field.shape
    return field.reshape(h // factor, factor, w // factor, factor).mean(axis=(1, 3))


def flow_accuracy(video, cfg: PipelineConfig, window: int) -> dict:
    """End-point error of each window's seeding flow against the exact
    flow, over valid pixels, at the flow's resolution and in its px/frame."""
    d = cfg.flow.downscale
    errors, valid, pixels = 0.0, 0, 0
    for first in range(0, len(video.frames) - 1, window):
        truth = video.flows[first]
        if truth is None:  # no exact flow: the pair crosses a clip boundary
            continue
        flow = compute_dense_flow(video.frames[first], video.frames[first + 1], cfg.flow)
        du = flow.u - _block_mean(truth.u.astype(np.float64), d) / d
        dv = flow.v - _block_mean(truth.v.astype(np.float64), d) / d
        errors += float(np.hypot(du, dv)[flow.valid].sum())
        valid += int(flow.valid.sum())
        pixels += flow.valid.size
    return {"flow.epe": errors / max(valid, 1), "flow.valid_frac": valid / max(pixels, 1)}


def map_counts(clip_maps: list[list], window: int) -> dict:
    """Group, member, particle-step and clamping counts of a batch run."""
    maps = [(f, m) for clip in clip_maps for f, m in clip]
    seeds = [m for f, m in maps if (f - 1) % window == 1]
    propagated = [m for f, m in maps if (f - 1) % window != 1]
    lasts = [m for f, m in maps if f % window == 0]
    seed_groups = [g for m in seeds for g in m.groups]
    particles = sum(g.size for m in lasts for g in m.groups)
    clamped = sum(int(g.clamped.sum()) for m in lasts for g in m.groups)
    return {
        "keypoint.groups": len(seed_groups) / len(seeds),
        "keypoint.members": float(np.mean([g.size for g in seed_groups])) if seed_groups else 0.0,
        "langevin.particle_steps": sum(g.size for m in propagated for g in m.groups),
        "langevin.clamped_frac": clamped / particles if particles else 0.0,
        "rasterize.groups_per_map": float(np.mean([len(m.groups) for _, m in maps])),
    }


def layer_metrics(stats: SpanStats, traced_frames: int, video_frames: int) -> dict:
    """Per-call medians, per-video counts and per-frame self times."""
    per_video = video_frames / traced_frames
    metrics = {
        "flow.calls": stats.count("flow") * per_video,
        "flow.ms": stats.median_ms("flow"),
        "flow.pyramid.ms": stats.median_child_ms("flow", "flow.pyramid"),
        "flow.refine.ms": stats.median_child_ms("flow", "flow.refine"),
        "flow.median.ms": stats.median_child_ms("flow", "flow.median"),
        "flow.texture.ms": stats.median_child_ms("flow", "flow.texture"),
        "keypoint.ms": stats.median_ms("keypoint"),
        "langevin.ms": stats.median_ms("langevin"),
        "rasterize.ms": stats.median_ms("rasterize"),
        "overlay.ms": stats.median_ms("overlay"),
        "io.read_frame.ms": stats.median_ms("io.read_frame"),
        "io.write_frame.ms": stats.median_ms("io.write_frame"),
        "io.write_ppm.ms": stats.median_ms("io.write_ppm"),
        "io.bytes_read": stats.work("io.read_frame") * per_video,
        "io.bytes_written": (stats.work("io.write_frame") + stats.work("io.write_ppm")) * per_video,
        "pipeline.self_ms": stats.self_ms("pipeline") / traced_frames,
        "cli.self_ms": stats.self_ms("cli") / traced_frames,
    }
    steps = stats.work("langevin")
    metrics["langevin.ns_per_particle_step"] = stats.total_ms("langevin") * 1e6 / steps if steps else 0.0
    layer_self = stats.layer_self_ms()
    total = sum(layer_self.values())
    for layer, self_ms in layer_self.items():
        metrics[f"{layer}.self_share"] = self_ms / total
    return metrics


def machine_info() -> dict:
    root = Path(__file__).resolve().parent.parent
    # Stop git at the checkout, so a checkout that is no repository reads
    # as "unknown" instead of as some enclosing repository's commit.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True,
            text=True, timeout=30,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    source = hashlib.sha256()
    for path in sorted((root / "src" / "flowseg").glob("*.py")):
        source.update(path.name.encode() + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


def run_workload(name: str, seed: int, seconds: float, traced: bool, runs_dir: Path) -> int:
    if name not in WORKLOADS:
        print(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[name]
    work = runs_dir / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run(workload, seed, seconds, traced, work, runs_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(workload, seed, seconds, traced, work, runs_dir) -> int:
    setup_s, setup_wall_s, video, frames_dir = setup(workload, seed, work)
    cfg = PipelineConfig(window_size=workload.window, seed=PIPELINE_SEED)
    checks = Checks()
    path = (CliPath(workload, work, cfg, frames_dir) if workload.via == "cli"
            else StreamPath(workload, video, cfg))
    # The untimed warm-up also fills caches before the clock starts.
    labels = path.warm_up(checks)
    try:
        scores = score(labels, video, workload.window)
    except FlowSegError:
        traceback.print_exc()
        checks.record(False, "scoring the warm-up output raised")
        scores = dict.fromkeys(("coverage", "iou", "coverage_drop"), 0.0)

    off, tracer = NullTracer(), Tracer()
    # In the traced run every clip runs twice in a row, untraced then
    # traced, so both halves see the same inputs. The loop stops only after
    # a whole cycle, so every clip has as many repeats as the others.
    untraced, traced_times = Fastest(workload.clips), Fastest(workload.clips)
    cycle = 2 * workload.clips if traced else workload.clips
    start = perf_counter()
    i = 0
    while i % cycle or i < MIN_CYCLES * cycle or perf_counter() - start < seconds:
        clip = (i // 2 if traced else i) % workload.clips
        scale = speed_scale()
        if traced and i % 2:
            with tracer.hooked():
                traced_times.add(clip, scale, *path.sample(clip, tracer, checks))
        else:
            untraced.add(clip, scale, *path.sample(clip, off, checks))
        i += 1

    frames = workload.clip_length
    ms_per_frame = untraced.median_sample_ms() / frames
    info = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "video_frames": len(video.frames), "clips": workload.clips, "frames_per_sample": frames,
        "samples": untraced.samples, "traced_samples": traced_times.samples,
        "windows": len(video.frames) // workload.window,
        "error_rate": checks.failed / checks.attempted,
        "wall_ms_per_frame": untraced.median_wall_ms() / frames,
        "wall_setup_s": setup_wall_s,
        "output_sha256": hashlib.sha256("".join(path.digests[c] for c in sorted(path.digests)).encode()).hexdigest(),
        **machine_info(),
    }
    if traced:
        traced_frames = traced_times.samples * frames
        metrics = layer_metrics(SpanStats(tracer.spans), traced_frames, len(video.frames))
        metrics["pipeline.windows"] = info["windows"]
        clip_maps = path.reference if workload.via == "stream" else batch_maps(video, cfg)
        metrics.update(map_counts(clip_maps, workload.window))
        metrics.update(flow_accuracy(video, cfg, workload.window))
        metrics["langevin.coverage_drop"] = scores["coverage_drop"]
        metrics["trace.overhead_frac"] = traced_times.median_sample_ms() / untraced.median_sample_ms() - 1.0
        info["absent_spans"] = tracer.absent
        spans_path = runs_dir / f"spans-{workload.name}-seed{seed}.jsonl"
        tracer.write(spans_path)
        info["spans_file"] = str(spans_path.relative_to(runs_dir.parent))
    else:
        metrics = {
            "ms_per_frame": ms_per_frame,
            "window_ms.p50": untraced.window_percentile(50),
            "window_ms.p90": untraced.window_percentile(90),
            "coverage": scores["coverage"],
            "iou": scores["iou"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": setup_s,
        }

    declared = json.loads((runs_dir.parent / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if traced else "end_to_end"]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}")
    for key, value in metrics.items():
        print(f"{key:32s} {value:>14.6g} {units[key]}")
    print("info " + json.dumps(info))
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0
