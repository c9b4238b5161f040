"""Synthetic scenes, the statistics harness, and the benchmark.

Scenes are textured rectangular blocks translating rigidly over a static
textured background: the strongest verifiable stand-in for structured
flows, since block pixels move with a known constant velocity and the
ground truth (masks and flow) is exact by construction. Blocks with zero
velocity are background for ground-truth purposes (nothing moves above
the magnitude threshold). With sensor noise of level s, a frame is
clip(rint(frame + s * z), 0, 255) for standard normal draws z seeded per
frame; the ground-truth flows are float32, as every FlowField is.

``iter_scene`` yields a scene frame by frame, so a caller that writes each
frame as it comes holds one frame at a time; ``generate_scene`` collects
it. A scene's ground-truth flows are built when read: ``SceneData.flows``
is a read-only sequence that makes pair t's ``FlowField`` from the spec
each time that item is read, and keeps none of them.
"""

import csv
import logging
import operator
import statistics
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np
from scipy import ndimage

from .config import ConfigDict
from .dynamics import LangevinParams, NoiseSource, _step_arrays
from .errors import ConfigError, InputError, require_integers
from .evaluation import report
from .flow import compute_dense_flow
from .io import FlowField, Frame
from .keypoints import segment_flow
from .pipeline import PipelineConfig, check_frame_size, segment_video

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class BlockSpec:
    rect: tuple[int, int, int, int]  # x, y, w, h at t = 0
    velocity: tuple[float, float]  # px/frame
    texture_seed: int = 1


@dataclass(frozen=True)
class SceneSpec:
    width: int
    height: int
    frame_count: int
    blocks: tuple[BlockSpec, ...]
    background_seed: int = 0
    noise_level: float = 0.0

    def __post_init__(self):
        require_integers(width=self.width, height=self.height, frame_count=self.frame_count,
                         background_seed=self.background_seed)
        if self.width < 8 or self.height < 8:
            raise InputError("scene must be at least 8x8")
        if self.frame_count < 1:
            raise InputError("frame_count must be >= 1")
        if not (self.noise_level >= 0 and np.isfinite(self.noise_level)):
            raise InputError(f"noise_level={self.noise_level} must be finite and >= 0")
        if self.background_seed < 0:
            raise InputError(f"background_seed={self.background_seed} must be >= 0")
        if len(self.blocks) > 255:
            raise InputError(f"{len(self.blocks)} blocks: masks are uint8, so a scene holds at most 255")
        for i, blk in enumerate(self.blocks):
            if not all(isinstance(c, (int, np.integer)) for c in blk.rect):
                raise InputError(f"block {i + 1}: rect {blk.rect} must be whole pixels")
            x, y, w, h = blk.rect
            if w < 1 or h < 1:
                raise InputError(f"block {i + 1}: empty rect")
            if x < 0 or y < 0 or x + w > self.width or y + h > self.height:
                raise InputError(f"block {i + 1}: rect {blk.rect} outside frame at t=0")
            if not all(np.isfinite(blk.velocity)):
                raise InputError(f"block {i + 1}: non-finite velocity")
            require_integers(**{f"block {i + 1} texture_seed": blk.texture_seed})
            if blk.texture_seed < 0:
                raise InputError(f"block {i + 1}: texture seed {blk.texture_seed} must be >= 0")

    @classmethod
    def from_config(cls, cfg: ConfigDict) -> "SceneSpec":
        """The scene of ``cfg``; a setting out of range is a ConfigError."""
        blocks = []
        i = 1
        while f"block{i}_rect" in cfg:
            rect = cfg.get_quad(f"block{i}_rect")
            vx, vy = cfg.get_pair(f"block{i}_velocity", (0.0, 0.0))
            seed = cfg.get_int(f"block{i}_seed", i)
            blocks.append(BlockSpec(rect=rect, velocity=(vx, vy), texture_seed=seed))
            i += 1
        try:
            return cls(
                width=cfg.get_int("width"),
                height=cfg.get_int("height"),
                frame_count=cfg.get_int("frames"),
                blocks=tuple(blocks),
                background_seed=cfg.get_int("background_seed", 0),
                noise_level=cfg.get_float("noise_level", 0.0),
            )
        except InputError as exc:
            raise ConfigError(str(exc)) from None

    def to_dict(self) -> dict:
        out = {
            "width": self.width,
            "height": self.height,
            "frames": self.frame_count,
            "background_seed": self.background_seed,
            "noise_level": self.noise_level,
        }
        for i, blk in enumerate(self.blocks, start=1):
            out[f"block{i}_rect"] = blk.rect
            out[f"block{i}_velocity"] = blk.velocity
            out[f"block{i}_seed"] = blk.texture_seed
        return out


def _placements(spec: SceneSpec, t: int):
    """Where each block of ``spec`` sits in frame ``t``, in block order:
    ``(number, block, (x0, y0), (xs, ys, xe, ye))``. The block is pasted
    with its top-left at (x0, y0) = round(rect + velocity * t) and shows
    over rows ys:ye and columns xs:xe, its rect clipped to the frame; that
    span is empty (xs >= xe or ys >= ye) once the block has left."""
    for number, blk in enumerate(spec.blocks, start=1):
        x0 = int(round(blk.rect[0] + blk.velocity[0] * t))
        y0 = int(round(blk.rect[1] + blk.velocity[1] * t))
        xs, ys = max(x0, 0), max(y0, 0)
        xe, ye = min(x0 + blk.rect[2], spec.width), min(y0 + blk.rect[3], spec.height)
        yield number, blk, (x0, y0), (xs, ys, xe, ye)


def _moving(blk: BlockSpec) -> bool:
    return blk.velocity[0] != 0 or blk.velocity[1] != 0


class SceneFlows(Sequence):
    """The ground-truth flows of a scene, one per consecutive frame pair,
    as a read-only sequence. Reading item t builds the float32 flow of
    frame pair (t, t + 1) afresh: each moving block's velocity where it
    shows in frame t, a later block over an earlier one, and 0 elsewhere.
    The sequence keeps none of them."""

    def __init__(self, spec: SceneSpec):
        self.spec = spec

    def __len__(self) -> int:
        return self.spec.frame_count - 1

    def __getitem__(self, t) -> FlowField:
        t, n = operator.index(t), len(self)
        if not -n <= t < n:
            raise IndexError(f"flow index {t} out of range for {n} frame pair(s)")
        spec = self.spec
        # u and v share one zeroed buffer: a flow that a caller drops frees one block
        u, v = np.zeros((2, spec.height, spec.width), dtype=np.float32)
        for _, blk, _, (xs, ys, xe, ye) in _placements(spec, t % n):
            if xs < xe and ys < ye and _moving(blk):
                u[ys:ye, xs:xe] = blk.velocity[0]
                v[ys:ye, xs:xe] = blk.velocity[1]
        return FlowField(u=u, v=v)


@dataclass
class SceneData:
    """A scene's frames, ground-truth masks and clipped placements; its
    ground-truth flows are built when read (see ``SceneFlows``)."""

    spec: SceneSpec
    frames: list[Frame]
    masks: list[np.ndarray]  # uint8, 0 background, block number elsewhere
    truncated: list[tuple[int, int]]  # (frame number, block number) clipped events

    @property
    def flows(self) -> SceneFlows:
        """Ground-truth flow per consecutive frame pair, built on read."""
        return SceneFlows(self.spec)


def noise_texture(height: int, width: int, seed: int) -> np.ndarray:
    """High-contrast seeded texture; a one-pixel Gaussian smoothing keeps
    gradients usable under bilinear interpolation."""
    rng = np.random.default_rng(seed)
    img = ndimage.gaussian_filter(rng.random((height, width)), 1.0, mode="wrap")
    lo, hi = img.min(), img.max()
    if hi > lo:
        img -= lo
        img /= hi - lo
    img *= 255
    return np.rint(img, out=img).astype(np.uint8)


def iter_scene(spec: SceneSpec) -> Iterator[tuple[Frame, np.ndarray, list[tuple[int, int]]]]:
    """Each frame of ``spec`` in order, as ``(frame, mask, clipped)``. Each
    block is pasted at round(rect + velocity * t) over the background; the
    mask holds each moving block's number where it shows, and ``clipped``
    lists ``(frame number, block number)`` for each block the frame edge
    clips in this frame. With ``noise_level`` s > 0 frame t is then
    clip(rint(frame + s * z), 0, 255), z standard normal draws from the
    generator seeded (background_seed, 7919, t). Once the last frame is
    out, a warning counts the clipped placements, if any."""
    background = noise_texture(spec.height, spec.width, spec.background_seed)
    textures = [
        noise_texture(blk.rect[3], blk.rect[2], blk.texture_seed) for blk in spec.blocks
    ]
    noise = np.empty((spec.height, spec.width)) if spec.noise_level > 0 else None
    clipped_count = 0

    for t in range(spec.frame_count):
        img = background.copy()
        mask = np.zeros((spec.height, spec.width), dtype=np.uint8)
        clipped = []
        for number, blk, (x0, y0), (xs, ys, xe, ye) in _placements(spec, t):
            if (xe - xs, ye - ys) != (blk.rect[2], blk.rect[3]):
                clipped.append((t + 1, number))
            if xs >= xe or ys >= ye:
                continue
            img[ys:ye, xs:xe] = textures[number - 1][ys - y0 : ye - y0, xs - x0 : xe - x0]
            if _moving(blk):
                mask[ys:ye, xs:xe] = number
        if noise is not None:
            # the bytes of rng.normal(0.0, s, shape), which draws 0.0 + s * z from this stream
            np.random.default_rng((spec.background_seed, 7919, t)).standard_normal(out=noise)
            noise *= spec.noise_level
            noise += img
            np.rint(noise, out=noise)
            img = np.clip(noise, 0, 255, out=noise).astype(np.uint8)
        clipped_count += len(clipped)
        yield Frame(img), mask, clipped

    if clipped_count:
        log.warning("%d block placement(s) clipped at the frame boundary", clipped_count)


def generate_scene(spec: SceneSpec) -> SceneData:
    """The frames and ground-truth masks of ``spec`` (see ``iter_scene``),
    collected; its float32 ground-truth flows are built when read."""
    frames, masks, truncated = [], [], []
    for frame, mask, clipped in iter_scene(spec):
        frames.append(frame)
        masks.append(mask)
        truncated.extend(clipped)
    return SceneData(spec=spec, frames=frames, masks=masks, truncated=truncated)


PRESETS = {
    # Tall block: transverse extent well beyond the mask dilation margin,
    # so propagation horizon effects are measurable rather than hidden.
    "one-way": SceneSpec(
        width=320, height=240, frame_count=12,
        blocks=(BlockSpec(rect=(40, 60, 80, 120), velocity=(2.0, 0.0), texture_seed=11),),
        background_seed=5,
    ),
    "two-way": SceneSpec(
        width=320, height=240, frame_count=12,
        blocks=(
            BlockSpec(rect=(30, 40, 80, 60), velocity=(2.0, 0.0), texture_seed=11),
            BlockSpec(rect=(210, 140, 80, 60), velocity=(-2.0, 0.0), texture_seed=23),
        ),
        background_seed=5,
    ),
    "static": SceneSpec(
        width=320, height=240, frame_count=12,
        blocks=(BlockSpec(rect=(100, 80, 80, 60), velocity=(0.0, 0.0), texture_seed=11),),
        background_seed=5,
    ),
}


def preset_scene(name: str, frame_count: int | None = None) -> SceneSpec:
    if name not in PRESETS:
        raise InputError(f"unknown preset '{name}' (choose from {sorted(PRESETS)})")
    spec = PRESETS[name]
    if frame_count is not None:
        spec = replace(spec, frame_count=frame_count)
    return spec


@dataclass(frozen=True)
class OuStats:
    mean: float
    variance: float
    autocorr_lag1: float
    final_ensemble_variance: float


def ar1_stationary_variance(gamma: float, xi_d: float) -> float:
    """Stationary variance of v' = (1 - gamma)*v + xi_d*N(0,1)."""
    a = 1.0 - gamma
    if a * a >= 1.0:
        return float("inf")
    return xi_d**2 / (1.0 - a * a)


def ou_statistics(params: LangevinParams, steps: int, particles: int = 1, seed: int = 0) -> OuStats:
    """Monte-Carlo statistics of the x-velocity process under zero drift.

    Drives the same update rule the propagator uses, through the same
    counter-based noise source. For stationary statistics use steps on the
    order of 1e4 or more. The first steps // 10 steps are a burn-in left
    out of the statistics (none when the process is undamped and has no
    stationary state to relax to).
    """
    if steps < 1:
        raise InputError("steps must be >= 1")
    if particles < 1:
        raise InputError("particles must be >= 1")
    noise = NoiseSource(seed, stream=0)
    vx = np.zeros(particles)
    x = np.zeros(particles)
    y = np.zeros(particles)
    vy = np.zeros(particles)
    trajectory = np.empty((steps, particles))
    for s in range(steps):
        xi = noise.normals(s, particles)
        x, y, vx, vy = _step_arrays(x, y, vx, vy, 0.0, 0.0, 0.0, params, xi)
        trajectory[s] = vx
    start = steps // 10 if params.gamma_x > 0 else 0
    pooled = trajectory[start:]
    flat = pooled.ravel()
    if flat.size >= 2 and np.var(flat) > 0:
        lag = pooled[:-1].ravel()
        lead = pooled[1:].ravel()
        autocorr = float(np.corrcoef(lag, lead)[0, 1])
    else:
        autocorr = 0.0
    final_var = float(np.var(trajectory[-1])) if particles > 1 else float("nan")
    return OuStats(
        mean=float(flat.mean()),
        variance=float(np.var(flat)),
        autocorr_lag1=autocorr,
        final_ensemble_variance=final_var,
    )


@dataclass(frozen=True)
class BenchRow:
    window_size: int
    mean_accuracy: float
    ms_per_frame_proposed: float
    ms_per_frame_baseline: float
    speedup: float


@dataclass
class BenchReport:
    rows: list[BenchRow]
    repeats: int

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["window_size", "mean_accuracy", "ms_per_frame_proposed",
                 "ms_per_frame_baseline", "speedup"]
            )
            for row in self.rows:
                writer.writerow(
                    [row.window_size, f"{row.mean_accuracy:.6f}",
                     f"{row.ms_per_frame_proposed:.3f}",
                     f"{row.ms_per_frame_baseline:.3f}", f"{row.speedup:.3f}"]
                )

    def table(self) -> str:
        lines = [
            f"repeats per measurement: {self.repeats} (median)",
            f"{'|W|':>4} {'accuracy':>9} {'ms/frame':>9} {'baseline':>9} {'speedup':>8}",
        ]
        for r in self.rows:
            lines.append(
                f"{r.window_size:>4} {r.mean_accuracy:>9.4f} "
                f"{r.ms_per_frame_proposed:>9.2f} {r.ms_per_frame_baseline:>9.2f} "
                f"{r.speedup:>8.2f}x"
            )
        return "\n".join(lines)


def _baseline_per_pair(frames, cfg: PipelineConfig, repeats: int) -> float:
    """Recompute dense flow + grouping on every consecutive frame pair."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        for a, b in zip(frames[:-1], frames[1:]):
            segment_flow(compute_dense_flow(a, b, cfg.flow), cfg.keypoint)
        times.append((perf_counter() - t0) * 1e3)
    return statistics.median(times) / (len(frames) - 1)


def bench_compare(
    frames,
    ground_truth_masks,
    cfg: PipelineConfig,
    window_sizes: tuple[int, ...] = tuple(range(3, 11)),
    repeats: int = 5,
    first_frame: int = 1,
) -> BenchReport:
    """Time the windowed pipeline against the per-pair recompute baseline
    and sweep accuracy over window sizes.

    The measured region runs single-threaded; each measurement is the
    median of ``repeats`` runs. Every frame must have the first frame's
    size; an InputError names the first that differs, numbering frames
    from ``first_frame``, before any flow runs.
    """
    total = len(frames)
    if not window_sizes:
        raise InputError("window_sizes must be nonempty")
    if total < 2 * max(window_sizes):
        raise InputError(
            f"need at least 2*max(window) = {2 * max(window_sizes)} frames, got {total}"
        )
    if repeats < 1:
        raise InputError("repeats must be >= 1")
    dims = (frames[0].width, frames[0].height)
    for number, frame in enumerate(frames, start=first_frame):
        check_frame_size(frame, number, dims, first_frame)

    baseline_ms = _baseline_per_pair(frames, cfg, repeats)
    ground_truth = dict(enumerate(ground_truth_masks, start=1))

    rows = []
    for w in sorted(window_sizes):
        cfg_w = replace(cfg, window_size=w)
        times = []
        run = None
        for _ in range(repeats):
            t0 = perf_counter()
            run = segment_video(frames, cfg_w, jobs=1)
            times.append((perf_counter() - t0) * 1e3)
        assert run is not None
        processed = sum(last - first + 1 for first, last in run.windows)
        proposed_ms = statistics.median(times) / processed
        rows.append(
            BenchRow(
                window_size=w,
                mean_accuracy=report(run, ground_truth, cfg.dilation_radius).mean_accuracy,
                ms_per_frame_proposed=proposed_ms,
                ms_per_frame_baseline=baseline_ms,
                speedup=baseline_ms / proposed_ms,
            )
        )
    return BenchReport(rows=rows, repeats=repeats)
