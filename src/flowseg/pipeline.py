"""Windowed segmentation pipeline.

One loop, ``_windows``, cuts a frame source into consecutive windows of
``window_size`` frames, checking every frame against the first frame's
size. Per window: dense flow on the first two frames seeds a segmentation
map, group forces are estimated from it, and the remaining frames are
covered by stochastic propagation instead of further flow computation,
yielding window_size - 1 maps per window. ``segment_video`` collects the
windows of an in-memory sequence (optionally on a thread pool);
``stream_windows`` yields them one at a time. Leftover frames that do not
fill a whole window are skipped (and reported).

Frames and windows are numbered 1-based in all public outputs.
"""

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, field, fields
from time import perf_counter
from typing import Iterable, Iterator, Sequence

from .config import ConfigDict, format_config
from .dynamics import ForceAblation, LangevinParams, NoiseSource, estimate_group_forces, propagate_map
from .errors import InputError, SourceError
from .flow import FlowParams, compute_dense_flow
from .io import Frame
from .keypoints import (
    DEFAULT_BIN_COUNT,
    DEFAULT_MAGNITUDE_THRESHOLD,
    DEFAULT_MIN_GROUP_SIZE,
    DEFAULT_PEAK_MIN_FRACTION,
    SegmentationMap,
    segment_flow,
)

log = logging.getLogger(__name__)

PHASE_FLOW = "flow"
PHASE_KEYPOINT = "keypoint"
PHASE_LANGEVIN = "langevin"
PHASE_SKIPPED = "skipped"

# Config key prefix of each nested parameter section of PipelineConfig;
# every other field is a top-level key under its own name.
SECTION_PREFIXES = {"flow": "flow_", "langevin": "", "ablation": "force_"}
_GETTERS = {int: ConfigDict.get_int, float: ConfigDict.get_float, bool: ConfigDict.get_bool}


@dataclass
class PipelineConfig:
    window_size: int
    seed: int = 0
    flow: FlowParams = field(default_factory=FlowParams)
    magnitude_threshold: float = DEFAULT_MAGNITUDE_THRESHOLD
    bin_count: int = DEFAULT_BIN_COUNT
    peak_min_fraction: float = DEFAULT_PEAK_MIN_FRACTION
    min_group_size: int = DEFAULT_MIN_GROUP_SIZE
    langevin: LangevinParams = field(default_factory=LangevinParams)
    ablation: ForceAblation = field(default_factory=ForceAblation)
    dilation_radius: int = 3
    write_overlays: bool = True

    def __post_init__(self):
        if self.window_size < 3:
            raise InputError("window_size must be >= 3 (2 seed frames + 1 propagated)")
        if self.dilation_radius < 0:
            raise InputError("dilation_radius must be >= 0")

    @classmethod
    def from_config(cls, cfg: ConfigDict, seed_override: int | None = None) -> "PipelineConfig":
        kwargs = _config_kwargs(cls, cfg)
        if seed_override is not None:
            kwargs["seed"] = seed_override
        return cls(**kwargs)

    def to_dict(self) -> dict:
        values = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in SECTION_PREFIXES:
                prefix = SECTION_PREFIXES[f.name]
                values.update({prefix + g.name: getattr(value, g.name) for g in fields(value)})
            else:
                values[f.name] = value
        return values

    def manifest_text(self, extra: dict | None = None, header: str | None = None) -> str:
        return format_config({**self.to_dict(), **(extra or {})}, header=header)


def _config_kwargs(cls, cfg: ConfigDict, prefix: str = "") -> dict:
    """Constructor arguments of dataclass ``cls`` for the keys present in
    ``cfg``; absent keys fall back to the dataclass defaults, and a field
    without a default is a required key."""
    kwargs = {}
    for f in fields(cls):
        if f.name in SECTION_PREFIXES:
            kwargs[f.name] = f.type(**_config_kwargs(f.type, cfg, SECTION_PREFIXES[f.name]))
        elif prefix + f.name in cfg or f.default is MISSING:
            kwargs[f.name] = _GETTERS[f.type](cfg, prefix + f.name)
    return kwargs


@dataclass(frozen=True)
class PhaseTiming:
    frame_index: int
    phase: str
    milliseconds: float


@dataclass
class RunResult:
    maps: list[tuple[int, SegmentationMap]]
    timings: list[PhaseTiming]
    windows: list[tuple[int, int]]  # inclusive 1-based (first, last) frame per window
    skipped_frames: list[int]

    def phase_ms(self, phase: str) -> float:
        return sum(t.milliseconds for t in self.timings if t.phase == phase)


def _process_window(
    window_number: int, window_frames: Sequence[Frame], cfg: PipelineConfig
) -> tuple[list[tuple[int, SegmentationMap]], list[PhaseTiming]]:
    timings = []
    first_frame = (window_number - 1) * cfg.window_size + 1

    t0 = perf_counter()
    flow = compute_dense_flow(window_frames[0], window_frames[1], cfg.flow)
    timings.append(PhaseTiming(first_frame, PHASE_FLOW, (perf_counter() - t0) * 1e3))

    t0 = perf_counter()
    seg = segment_flow(
        flow,
        magnitude_threshold=cfg.magnitude_threshold,
        bin_count=cfg.bin_count,
        peak_min_fraction=cfg.peak_min_fraction,
        min_group_size=cfg.min_group_size,
        frame_index=first_frame + 1,
    )
    params = cfg.ablation.apply_params(cfg.langevin)
    forces = {
        g.id: cfg.ablation.apply_forces(estimate_group_forces(g, cfg.langevin))
        for g in seg.groups
    }
    timings.append(PhaseTiming(first_frame + 1, PHASE_KEYPOINT, (perf_counter() - t0) * 1e3))

    maps = [(first_frame + 1, seg)]
    noise = NoiseSource(cfg.seed, stream=window_number)
    current = seg
    for k in range(cfg.window_size - 2):
        t0 = perf_counter()
        current = propagate_map(current, forces, params, noise, steps=1, step_offset=k)[0]
        frame = first_frame + 2 + k
        timings.append(PhaseTiming(frame, PHASE_LANGEVIN, (perf_counter() - t0) * 1e3))
        maps.append((frame, current))
    return maps, timings


def _windows(source: Iterable[Frame], w: int) -> Iterator[tuple[int, list[Frame]]]:
    """Yield (window_number, frames) for each whole window of ``source``.

    Every frame, leftovers included, must have the first frame's size. A
    failing source raises SourceError naming the last window yielded.
    """
    it = iter(source)
    buffered: list[Frame] = []
    number = 0
    dims = None
    while True:
        try:
            frame = next(it)
        except StopIteration:
            break
        except Exception as exc:
            raise SourceError(
                f"frame source failed inside window {number + 1}: {exc}", last_window=number
            ) from exc
        if dims is None:
            dims = (frame.width, frame.height)
        elif (frame.width, frame.height) != dims:
            raise InputError(
                f"inconsistent frame dimensions: frame {number * w + len(buffered) + 1} is "
                f"{(frame.width, frame.height)}, frame 1 is {dims}"
            )
        buffered.append(frame)
        if len(buffered) == w:
            number += 1
            yield number, buffered
            buffered = []
    if buffered:
        first = number * w + 1
        log.info(
            "skipping %d leftover frame(s) %s (pad the input to a multiple of %d)",
            len(buffered), list(range(first, first + len(buffered))), w,
        )


def segment_video(frames: Sequence[Frame], cfg: PipelineConfig, jobs: int = 1) -> RunResult:
    """Run the full windowed pipeline over an in-memory frame sequence."""
    total = len(frames)
    w = cfg.window_size
    if total < w:
        raise InputError(f"need at least window_size={w} frames, got {total}")
    windows = list(_windows(frames, w))

    def run(window: tuple[int, list[Frame]]):
        return _process_window(*window, cfg)

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            per_window = list(pool.map(run, windows))
    else:
        per_window = [run(window) for window in windows]

    maps: list[tuple[int, SegmentationMap]] = []
    timings: list[PhaseTiming] = []
    for window_maps, window_timings in per_window:
        maps.extend(window_maps)
        timings.extend(window_timings)
    skipped = list(range(len(windows) * w + 1, total + 1))
    timings.extend(PhaseTiming(frame, PHASE_SKIPPED, 0.0) for frame in skipped)
    bounds = [((n - 1) * w + 1, n * w) for n, _ in windows]
    return RunResult(maps=maps, timings=timings, windows=bounds, skipped_frames=skipped)


def stream_windows(
    source: Iterable[Frame], cfg: PipelineConfig
) -> Iterator[tuple[int, list[tuple[int, SegmentationMap]]]]:
    """Incrementally yield (window_number, maps) keeping at most one window
    of frames in memory. Matches segment_video output exactly."""
    for number, window in _windows(source, cfg.window_size):
        yield number, _process_window(number, window, cfg)[0]
