"""Stochastic propagation of keypoint groups.

Each group member is treated as a particle whose velocity obeys a damped
Langevin-type update and whose position integrates that velocity:

    vx' = vx - gamma_x*vx*dt + drift_x*dt + xi_d_x*N(0,1)*dt
    vy' = vy - gamma_y*vy*dt - (k_y*(y - anchor_y) - confine_y)*dt
             + xi_d_y*N(0,1)*dt
    x'  = x + vx'*dt
    y'  = y + vy'*dt

The drift force pushes the group along its dominant axis; the harmonic
term k_y*(y - anchor_y) realizes the transverse confinement that keeps
members near the group's centroid row; the random term models internal
disturbances. Note the noise amplitude is multiplied by dt (the tuned
amplitude values presuppose that scaling); set ``sqrt_dt_noise`` for the
diffusion-consistent sqrt(dt) variant.

All state is float64. Noise comes from a counter-based generator keyed by
(seed, stream, step), with particle i of a step consuming the i-th draw
pair of that step's block, so trajectories are bit-reproducible no matter
how work is scheduled.
"""

from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .errors import InputError
from .keypoints import Group, SegmentationMap

DEFAULT_GAMMA = 0.8
DEFAULT_XI_D_X = 0.1
DEFAULT_XI_D_Y = 0.5
DEFAULT_CONFINEMENT_STIFFNESS = 0.05

_U64 = (1 << 64) - 1


@dataclass(frozen=True)
class LangevinParams:
    """Force coefficients for the per-particle update.

    The damping coefficients must satisfy 0 <= gamma < 2/dt so the
    noise-free velocity recursion is stable.
    """

    gamma_x: float = DEFAULT_GAMMA
    gamma_y: float = DEFAULT_GAMMA
    xi_d_x: float = DEFAULT_XI_D_X
    xi_d_y: float = DEFAULT_XI_D_Y
    dt: float = 1.0
    confinement_stiffness: float = DEFAULT_CONFINEMENT_STIFFNESS
    sqrt_dt_noise: bool = False

    def __post_init__(self):
        if not self.dt > 0:
            raise InputError("dt must be positive")
        for name in ("gamma_x", "gamma_y"):
            g = getattr(self, name)
            if not 0.0 <= g < 2.0 / self.dt:
                raise InputError(f"{name}={g} outside stable range [0, 2/dt)")
        for name in ("xi_d_x", "xi_d_y", "confinement_stiffness"):
            if getattr(self, name) < 0:
                raise InputError(f"{name} must be >= 0")

    @property
    def noise_scale(self) -> float:
        return np.sqrt(self.dt) if self.sqrt_dt_noise else self.dt


@dataclass(frozen=True)
class GroupForces:
    """Group-level driving terms: constant x-drift, baseline y-force, and
    the y-anchor the confinement pulls toward."""

    drift_x: float
    confine_y: float
    anchor_y: float

    def __post_init__(self):
        for name in ("drift_x", "confine_y", "anchor_y"):
            if not np.isfinite(getattr(self, name)):
                raise InputError(f"{name} must be finite")


@dataclass(frozen=True)
class ParticleState:
    x: float
    y: float
    vx: float
    vy: float
    group_id: int = 0
    bin: int = 0


class NoiseSource:
    """Deterministic standard-normal source addressed by (stream, step).

    Each (stream, step) pair owns a disjoint counter block of a Philox
    generator keyed by the 64-bit seed, so identical seeds reproduce
    identical draws and distinct windows/steps never share randomness.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed) & _U64
        self.stream = int(stream)

    def normals(self, step: int, count: int) -> np.ndarray:
        """The first ``count`` draw pairs of the (stream, step) block."""
        bitgen = np.random.Philox(
            counter=[0, 0, self.stream & _U64, int(step) & _U64],
            key=[self.seed, 0],
        )
        return np.random.Generator(bitgen).standard_normal((count, 2))


def estimate_group_forces(group: Group, params: LangevinParams) -> GroupForces:
    """Estimate the drift and confinement baseline for one group.

    Flow exists only for a window's first frame pair, so the forces are the
    steady-state values gamma * mean velocity: they make the observed group
    velocity a fixed point of the noise-free update. The confinement
    anchor is the group's centroid row.
    """
    if group.size == 0:
        raise InputError("cannot estimate forces for an empty group")
    mvx, mvy = group.mean_velocity
    return GroupForces(
        drift_x=params.gamma_x * mvx,
        confine_y=params.gamma_y * mvy,
        anchor_y=group.centroid[1],
    )


def _step_arrays(x, y, vx, vy, forces: GroupForces, params: LangevinParams, xi):
    dt = params.dt
    amp_x = params.xi_d_x * params.noise_scale
    amp_y = params.xi_d_y * params.noise_scale
    vx_new = vx - params.gamma_x * vx * dt + forces.drift_x * dt + amp_x * xi[..., 0]
    restoring = params.confinement_stiffness * (y - forces.anchor_y) - forces.confine_y
    vy_new = vy - params.gamma_y * vy * dt - restoring * dt + amp_y * xi[..., 1]
    x_new = x + vx_new * dt
    y_new = y + vy_new * dt
    return x_new, y_new, vx_new, vy_new


def step_particle(
    state: ParticleState,
    forces: GroupForces,
    params: LangevinParams,
    noise: NoiseSource | tuple[float, float] | None = None,
    step: int = 0,
    index: int = 0,
) -> ParticleState:
    """Advance one particle one step.

    ``noise`` may be a NoiseSource (the particle consumes draw pair
    ``index`` of block ``step``, matching what propagate_map assigns it),
    an explicit (xi_x, xi_y) pair, or None for zero noise.
    """
    if noise is None:
        xi = np.zeros(2)
    elif isinstance(noise, NoiseSource):
        xi = noise.normals(step, index + 1)[index]
    else:
        xi = np.asarray(noise, dtype=np.float64)
    x, y, vx, vy = _step_arrays(
        state.x, state.y, state.vx, state.vy, forces, params, xi
    )
    return ParticleState(
        x=float(x), y=float(y), vx=float(vx), vy=float(vy),
        group_id=state.group_id, bin=state.bin,
    )


def propagate_map(
    seg_map: SegmentationMap,
    forces: Mapping[int, GroupForces],
    params: LangevinParams,
    noise: NoiseSource,
    steps: int,
    step_offset: int = 0,
) -> list[SegmentationMap]:
    """Propagate every member of every group ``steps`` times.

    Returns one map per step with frame_index advancing by one each time.
    Group ids, bins, and membership persist. Particles leaving the frame
    are clamped to its bounds and flagged. Noise block ``step_offset + s``
    feeds step s, with particles ordered group by group.
    """
    if steps < 0:
        raise InputError("steps must be >= 0")
    width, height = seg_map.width, seg_map.height
    out: list[SegmentationMap] = []
    groups = seg_map.groups
    for s in range(steps):
        total = sum(g.size for g in groups)
        xi = noise.normals(step_offset + s, total)
        pos = 0
        new_groups = []
        for g in groups:
            block = xi[pos : pos + g.size]
            pos += g.size
            x, y, vx, vy = _step_arrays(g.x, g.y, g.vx, g.vy, forces[g.id], params, block)
            cx = np.clip(x, 0.0, width - 1.0)
            cy = np.clip(y, 0.0, height - 1.0)
            clamped = g.clamped | (cx != x) | (cy != y)
            new_groups.append(
                Group(id=g.id, bin=g.bin, x=cx, y=cy, vx=vx, vy=vy, clamped=clamped)
            )
        groups = new_groups
        out.append(
            SegmentationMap(
                frame_index=seg_map.frame_index + s + 1,
                width=width,
                height=height,
                groups=groups,
            )
        )
    return out


@dataclass(frozen=True)
class ForceAblation:
    """Enable/disable the three force families.

    external -> the damping terms; drift_confine -> drift, confinement
    baseline and stiffness; disturbance -> the random terms. At least one
    family must stay enabled.
    """

    external: bool = True
    drift_confine: bool = True
    disturbance: bool = True

    def __post_init__(self):
        if not (self.external or self.drift_confine or self.disturbance):
            raise InputError("all force terms disabled: no dynamics left")

    def apply_params(self, params: LangevinParams) -> LangevinParams:
        out = params
        if not self.external:
            out = replace(out, gamma_x=0.0, gamma_y=0.0)
        if not self.drift_confine:
            out = replace(out, confinement_stiffness=0.0)
        if not self.disturbance:
            out = replace(out, xi_d_x=0.0, xi_d_y=0.0)
        return out

    def apply_forces(self, forces: GroupForces) -> GroupForces:
        if self.drift_confine:
            return forces
        return replace(forces, drift_x=0.0, confine_y=0.0)
