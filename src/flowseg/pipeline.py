"""Windowed segmentation pipeline.

One loop, ``_windows``, cuts a frame source into consecutive windows of
``window_size`` frames, numbers them and checks every frame against the
first frame's size. Per window: dense flow on the first two frames seeds
a segmentation map, group forces are estimated from it, and one
``propagate_map`` call covers the remaining window_size - 2 frames by
stochastic propagation instead of further flow computation, yielding
window_size - 1 maps per window. Leftover frames that do not fill a whole
window are skipped: logged, and reported only as ``skipped`` timing rows.
A source that ends before its first whole window is an ``InputError`` on
every path.

``run_windows`` is the one run path. It yields each window's number, first
frame number, frames, maps and timings in order, reading the source only
as far as the windows it runs, on the caller's thread or on a pool of at
most ``jobs`` windows in flight. Every fault of the source, a frame of
another size included, is an ``InputError``. ``segment_video`` collects
its windows into a ``RunResult``, ``stream_windows`` yields their maps,
and ``flowseg segment`` writes each window's files as it arrives. Each
takes a window's bounds from its first frame number and its length, and
scoring (``evaluation.report``) takes each map's window from the
``RunResult`` it reads, not from window_size.
Per-phase timings are logged at DEBUG.

Timings hold one row per frame. The flow row times the window's flow call
and the keypoint row its segmentation and force estimation. A propagated
frame's langevin row is not a measurement of that frame: it is the
window's propagation time divided by window_size - 2, the mean time per
step, so every langevin row of a window holds the same value.

Windows, and so their noise streams, are numbered from 1. Maps, timings,
errors and the leftover-frames log number frames from ``run_windows``'
``first_frame``: 1, or the first file number for ``flowseg segment``.
"""

import logging
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Iterable, Iterator, Sequence

from .config import ConfigDict, load
from .dynamics import LangevinParams, NoiseSource, estimate_group_forces, propagate_map, require_seed
from .errors import InputError, SourceError, require_integers
from .flow import FlowParams, compute_dense_flow
from .io import Frame
from .keypoints import KeypointParams, SegmentationMap, segment_flow

log = logging.getLogger(__name__)

PHASE_FLOW = "flow"
PHASE_KEYPOINT = "keypoint"
PHASE_LANGEVIN = "langevin"
PHASE_SKIPPED = "skipped"

DEFAULT_DILATION_RADIUS = 3


@dataclass
class PipelineConfig:
    """The settings of a run. It composes the three stages' settings,
    ``FlowParams``, ``KeypointParams`` and ``LangevinParams``, which check
    themselves, and checks only its own fields. A force family is turned
    off through its coefficients in ``langevin`` (gamma for the damping,
    xi_d for the disturbance), and each window's group forces are estimated
    from the params it propagates with. ``force_drift_confine = False``
    turns off the one family that no coefficient sets: it zeroes the
    estimated drift and confinement baseline and the confinement stiffness."""

    window_size: int
    seed: int = 0
    flow: FlowParams = field(default_factory=FlowParams, metadata={"prefix": "flow_"})
    keypoint: KeypointParams = field(default_factory=KeypointParams)
    langevin: LangevinParams = field(default_factory=LangevinParams)
    force_drift_confine: bool = True
    dilation_radius: int = DEFAULT_DILATION_RADIUS
    write_overlays: bool = True

    def __post_init__(self):
        require_integers(window_size=self.window_size, seed=self.seed, dilation_radius=self.dilation_radius)
        require_seed(self.seed)
        if self.window_size < 3:
            raise InputError("window_size must be >= 3 (2 seed frames + 1 propagated)")
        if self.dilation_radius < 0:
            raise InputError("dilation_radius must be >= 0")

    @classmethod
    def from_config(
        cls, cfg: ConfigDict, seed_override: int | None = None, window_size: int | None = None
    ) -> "PipelineConfig":
        """The settings of ``cfg``; one out of range is a ConfigError. A
        ``window_size`` given here is the default of that key, which ``cfg``
        may then omit; a ``seed_override`` replaces the ``seed`` key."""
        defaults = {} if window_size is None else {"window_size": window_size}
        overrides = {} if seed_override is None else {"seed": seed_override}
        return load(cls, cfg, defaults, **overrides)


@dataclass(frozen=True)
class PhaseTiming:
    frame_index: int
    phase: str
    milliseconds: float


@dataclass
class RunResult:
    """A run's (frame_index, map) pairs, one list per window in window
    order, and its timings: one row per frame, the leftover frames after
    the last window as ``skipped`` rows."""

    window_maps: list[list[tuple[int, SegmentationMap]]]
    timings: list[PhaseTiming]

    @property
    def maps(self) -> list[tuple[int, SegmentationMap]]:
        """Every window's (frame_index, map) pairs, in frame order."""
        return [item for window in self.window_maps for item in window]


def _process_window(
    window_number: int, first_frame: int, window_frames: Sequence[Frame], cfg: PipelineConfig
) -> tuple[list[tuple[int, SegmentationMap]], list[PhaseTiming]]:
    timings = []

    t0 = perf_counter()
    flow = compute_dense_flow(window_frames[0], window_frames[1], cfg.flow)
    timings.append(PhaseTiming(first_frame, PHASE_FLOW, (perf_counter() - t0) * 1e3))

    t0 = perf_counter()
    seg = segment_flow(flow, cfg.keypoint, first_frame + 1)
    params = cfg.langevin
    forces = {g.id: estimate_group_forces(g, params) for g in seg.groups}
    if not cfg.force_drift_confine:  # the estimate reads only gamma, which this keeps
        params = replace(params, confinement_stiffness=0.0)
        forces = {i: replace(f, drift_x=0.0, confine_y=0.0) for i, f in forces.items()}
    timings.append(PhaseTiming(first_frame + 1, PHASE_KEYPOINT, (perf_counter() - t0) * 1e3))

    steps = len(window_frames) - 2
    t0 = perf_counter()
    propagated = propagate_map(seg, forces, params, NoiseSource(cfg.seed, stream=window_number), steps)
    step_ms = (perf_counter() - t0) * 1e3 / steps
    frames = range(first_frame + 2, first_frame + len(window_frames))
    timings.extend(PhaseTiming(frame, PHASE_LANGEVIN, step_ms) for frame in frames)
    maps = [(first_frame + 1, seg), *zip(frames, propagated)]
    for t in timings:
        log.debug("window %d frame %d %s %.3f ms", window_number, t.frame_index, t.phase, t.milliseconds)
    return maps, timings


def check_frame_size(frame: Frame, number: int, dims: tuple[int, int], first_frame: int) -> None:
    """Raise an InputError naming frame ``number`` unless its (width, height)
    is ``dims``, the size of frame ``first_frame``."""
    if (frame.width, frame.height) != dims:
        raise InputError(
            f"inconsistent frame dimensions: frame {number} is "
            f"{(frame.width, frame.height)}, frame {first_frame} is {dims}"
        )


def _windows(
    source: Iterable[Frame], w: int, first_frame: int
) -> Iterator[tuple[int, int, list[Frame]]]:
    """Yield (window_number, first frame number, frames) for each whole
    window of ``source``, whose first frame is number ``first_frame``.

    Every frame, leftovers included, must have the first frame's size; an
    InputError names both by their numbers. A source that ends before its
    first whole window is an InputError, and a failing source raises
    SourceError naming the last window yielded.
    """
    it = iter(source)
    buffered: list[Frame] = []
    number, start = 0, first_frame  # windows yielded, number of the next window's first frame
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
        check_frame_size(frame, start + len(buffered), dims, first_frame)
        buffered.append(frame)
        if len(buffered) == w:
            number += 1
            yield number, start, buffered
            start += w
            buffered = []
    if not number:
        raise InputError(f"need at least window_size={w} frames, got {len(buffered)}")
    if buffered:
        log.info(
            "skipping %d leftover frame(s) %s (pad the input to a multiple of %d)",
            len(buffered), list(range(start, start + len(buffered))), w,
        )


def run_windows(
    source: Iterable[Frame], cfg: PipelineConfig, jobs: int = 1, first_frame: int = 1
) -> Iterator[tuple[int, int, list[Frame], list[tuple[int, SegmentationMap]], list[PhaseTiming]]]:
    """Yield (window_number, first frame number, frames, maps, timings) for
    each whole window of ``source``, in window order. The source's first
    frame is number ``first_frame``; maps and timings carry frame numbers
    counted from it.

    With one job each window runs on the caller's thread when it is asked
    for. Otherwise windows run on a thread pool, at most ``jobs`` in flight
    beyond the one being yielded; closing the generator cancels the queued
    ones and waits for the running ones. Either way, a source that fails
    (an InputError: SourceError, a frame of another size, or too few
    frames) raises after every window cut before it has been yielded.
    ``jobs`` below 1 is an InputError."""
    if jobs < 1:
        raise InputError(f"jobs must be >= 1, got {jobs}")
    windows = _windows(source, cfg.window_size, first_frame)
    if jobs == 1:
        for number, first, frames in windows:
            yield number, first, frames, *_process_window(number, first, frames, cfg)
        return
    pool = ThreadPoolExecutor(max_workers=jobs)
    pending: deque = deque()
    failure = None
    try:
        while True:
            try:
                number, first, frames = next(windows)
            except StopIteration:
                break
            except InputError as exc:  # raised once the windows before it are out
                failure = exc
                break
            future = pool.submit(_process_window, number, first, frames, cfg)
            pending.append((number, first, frames, future))
            if len(pending) > jobs:
                *window, future = pending.popleft()
                yield *window, *future.result()
        while pending:
            *window, future = pending.popleft()
            yield *window, *future.result()
        if failure is not None:
            raise failure
    finally:
        pool.shutdown(cancel_futures=True)


def segment_video(frames: Sequence[Frame], cfg: PipelineConfig, jobs: int = 1) -> RunResult:
    """Run the windowed pipeline over an in-memory frame sequence and
    collect every window's maps and timings."""
    result = RunResult(window_maps=[], timings=[])
    for _, first, window_frames, maps, timings in run_windows(frames, cfg, jobs):
        result.window_maps.append(maps)
        result.timings.extend(timings)
        end = first + len(window_frames)  # the first frame after the last window
    result.timings.extend(PhaseTiming(frame, PHASE_SKIPPED, 0.0) for frame in range(end, len(frames) + 1))
    return result


def stream_windows(
    source: Iterable[Frame], cfg: PipelineConfig
) -> Iterator[tuple[int, list[tuple[int, SegmentationMap]]]]:
    """Incrementally yield (window_number, maps) keeping at most one window
    of frames in memory. Matches segment_video output exactly."""
    for number, _, _, maps, _ in run_windows(source, cfg):
        yield number, maps
