"""Synthetic scenes, the statistics harness, and the benchmark.

Scenes are textured rectangular blocks translating rigidly over a static
textured background: the strongest verifiable stand-in for structured
flows, since block pixels move with a known constant velocity and the
ground truth (masks and flow) is exact by construction. Blocks with zero
velocity are background for ground-truth purposes (nothing moves above
the magnitude threshold).
"""

import csv
import logging
import statistics
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np
from scipy import ndimage

from .config import ConfigDict
from .dynamics import LangevinParams, NoiseSource, _step_arrays, GroupForces
from .errors import InputError
from .evaluation import report
from .flow import compute_dense_flow
from .io import FlowField, Frame
from .keypoints import segment_flow
from .pipeline import PipelineConfig, segment_video

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
        if self.width < 8 or self.height < 8:
            raise InputError("scene must be at least 8x8")
        if self.frame_count < 1:
            raise InputError("frame_count must be >= 1")
        if self.noise_level < 0:
            raise InputError("noise_level must be >= 0")
        for i, blk in enumerate(self.blocks):
            x, y, w, h = blk.rect
            if w < 1 or h < 1:
                raise InputError(f"block {i + 1}: empty rect")
            if x < 0 or y < 0 or x + w > self.width or y + h > self.height:
                raise InputError(f"block {i + 1}: rect {blk.rect} outside frame at t=0")
            if not all(np.isfinite(blk.velocity)):
                raise InputError(f"block {i + 1}: non-finite velocity")

    @classmethod
    def from_config(cls, cfg: ConfigDict) -> "SceneSpec":
        blocks = []
        i = 1
        while f"block{i}_rect" in cfg:
            rect = tuple(int(v) for v in cfg.get_quad(f"block{i}_rect"))
            vx, vy = cfg.get_pair(f"block{i}_velocity", (0.0, 0.0))
            seed = cfg.get_int(f"block{i}_seed", i)
            blocks.append(BlockSpec(rect=rect, velocity=(vx, vy), texture_seed=seed))
            i += 1
        return cls(
            width=cfg.get_int("width"),
            height=cfg.get_int("height"),
            frame_count=cfg.get_int("frames"),
            blocks=tuple(blocks),
            background_seed=cfg.get_int("background_seed", 0),
            noise_level=cfg.get_float("noise_level", 0.0),
        )

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


@dataclass
class SceneData:
    spec: SceneSpec
    frames: list[Frame]
    masks: list[np.ndarray]  # uint8, 0 background, block number elsewhere
    flows: list[FlowField]  # ground-truth flow per consecutive frame pair
    truncated: list[tuple[int, int]]  # (frame number, block number) clipped events


def noise_texture(height: int, width: int, seed: int, smoothing: float = 1.0) -> np.ndarray:
    """High-contrast seeded texture; mild smoothing keeps gradients usable
    under bilinear interpolation."""
    rng = np.random.default_rng(seed)
    img = rng.random((height, width))
    if smoothing > 0:
        img = ndimage.gaussian_filter(img, smoothing, mode="wrap")
    lo, hi = img.min(), img.max()
    if hi > lo:
        img = (img - lo) / (hi - lo)
    return np.rint(img * 255).astype(np.uint8)


def generate_scene(spec: SceneSpec) -> SceneData:
    background = noise_texture(spec.height, spec.width, spec.background_seed)
    textures = [
        noise_texture(blk.rect[3], blk.rect[2], blk.texture_seed) for blk in spec.blocks
    ]

    frames: list[Frame] = []
    masks: list[np.ndarray] = []
    truncated: list[tuple[int, int]] = []
    placements: list[list[tuple[int, int, int, int] | None]] = []  # per frame, per block

    for t in range(spec.frame_count):
        img = background.copy()
        mask = np.zeros((spec.height, spec.width), dtype=np.uint8)
        frame_placement: list[tuple[int, int, int, int] | None] = []
        for number, (blk, tex) in enumerate(zip(spec.blocks, textures), start=1):
            x0 = int(round(blk.rect[0] + blk.velocity[0] * t))
            y0 = int(round(blk.rect[1] + blk.velocity[1] * t))
            bw, bh = blk.rect[2], blk.rect[3]
            xs, ys = max(x0, 0), max(y0, 0)
            xe, ye = min(x0 + bw, spec.width), min(y0 + bh, spec.height)
            if xs >= xe or ys >= ye:
                truncated.append((t + 1, number))
                frame_placement.append(None)
                continue
            if (xe - xs, ye - ys) != (bw, bh):
                truncated.append((t + 1, number))
            img[ys:ye, xs:xe] = tex[ys - y0 : ye - y0, xs - x0 : xe - x0]
            moving = blk.velocity[0] != 0 or blk.velocity[1] != 0
            if moving:
                mask[ys:ye, xs:xe] = number
            frame_placement.append((xs, ys, xe, ye) if moving else None)
        if spec.noise_level > 0:
            rng = np.random.default_rng((spec.background_seed, 7919, t))
            noisy = img.astype(np.float64) + rng.normal(0.0, spec.noise_level, img.shape)
            img = np.clip(np.rint(noisy), 0, 255).astype(np.uint8)
        frames.append(Frame(img))
        masks.append(mask)
        placements.append(frame_placement)

    flows: list[FlowField] = []
    for t in range(spec.frame_count - 1):
        u = np.zeros((spec.height, spec.width), dtype=np.float64)
        v = np.zeros((spec.height, spec.width), dtype=np.float64)
        for blk, placed in zip(spec.blocks, placements[t]):
            if placed is None:
                continue
            xs, ys, xe, ye = placed
            u[ys:ye, xs:xe] = blk.velocity[0]
            v[ys:ye, xs:xe] = blk.velocity[1]
        flows.append(FlowField(u=u, v=v))

    if truncated:
        log.warning("%d block placement(s) clipped at the frame boundary", len(truncated))
    return SceneData(spec=spec, frames=frames, masks=masks, flows=flows, truncated=truncated)


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


def ar1_stationary_variance(gamma: float, xi_d: float, dt: float = 1.0) -> float:
    """Stationary variance of v' = (1 - gamma*dt)*v + (xi_d*dt)*N(0,1)."""
    a = 1.0 - gamma * dt
    if a * a >= 1.0:
        return float("inf")
    return (xi_d * dt) ** 2 / (1.0 - a * a)


def ou_statistics(
    params: LangevinParams,
    steps: int,
    particles: int = 1,
    seed: int = 0,
    burn_in: int | None = None,
) -> OuStats:
    """Monte-Carlo statistics of the x-velocity process under zero drift.

    Drives the same update rule the propagator uses, through the same
    counter-based noise source. For stationary statistics use steps on the
    order of 1e4 or more. ``burn_in`` defaults to steps // 10 (0 when the
    process is undamped and has no stationary state to relax to).
    """
    if steps < 1:
        raise InputError("steps must be >= 1")
    if particles < 1:
        raise InputError("particles must be >= 1")
    noise = NoiseSource(seed, stream=0)
    forces = GroupForces(drift_x=0.0, confine_y=0.0, anchor_y=0.0)
    vx = np.zeros(particles)
    x = np.zeros(particles)
    y = np.zeros(particles)
    vy = np.zeros(particles)
    trajectory = np.empty((steps, particles))
    for s in range(steps):
        xi = noise.normals(s, particles)
        x, y, vx, vy = _step_arrays(x, y, vx, vy, forces, params, xi)
        trajectory[s] = vx
    if burn_in is None:
        burn_in = steps // 10 if params.gamma_x * params.dt > 0 else 0
    pooled = trajectory[burn_in:]
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
            flow = compute_dense_flow(a, b, cfg.flow)
            segment_flow(
                flow,
                magnitude_threshold=cfg.magnitude_threshold,
                bin_count=cfg.bin_count,
                peak_min_fraction=cfg.peak_min_fraction,
                min_group_size=cfg.min_group_size,
            )
        times.append((perf_counter() - t0) * 1e3)
    return statistics.median(times) / (len(frames) - 1)


def bench_compare(
    frames,
    ground_truth_masks,
    cfg: PipelineConfig,
    window_sizes: tuple[int, ...] = tuple(range(3, 11)),
    repeats: int = 5,
) -> BenchReport:
    """Time the windowed pipeline against the per-pair recompute baseline
    and sweep accuracy over window sizes.

    The measured region runs single-threaded; each measurement is the
    median of ``repeats`` runs.
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
        processed = len(run.windows) * w
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
