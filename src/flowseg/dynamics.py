"""Stochastic propagation of keypoint groups.

Each group member is treated as a particle whose velocity obeys a damped
Langevin-type update and whose position integrates that velocity. One
update is one frame: flow gives velocities in px/frame, and each step's
map is labelled one frame later, so the update carries no time step:

    vx' = vx - gamma_x*vx + drift_x + xi_d_x*N(0,1)
    vy' = vy - gamma_y*vy - (k_y*(y - anchor_y) - confine_y) + xi_d_y*N(0,1)
    x'  = x + vx'
    y'  = y + vy'

The drift force pushes the group along its dominant axis; the harmonic
term k_y*(y - anchor_y) realizes the transverse confinement that keeps
members near the group's centroid row; the random term models internal
disturbances. A force family is turned off through its coefficients:
gamma = 0 drops the damping, xi_d = 0 the disturbance. The drift and
confinement baseline is no coefficient: ``estimate_group_forces`` derives
it from the params a propagation runs with, so with gamma_x = 0 the drift
is 0 and, without noise, each member keeps its seed vx.

``propagate_map`` is the one particle update: it steps every member of a
map together, as flat arrays, for any number of steps, and the pipeline
makes one call per window. A single particle is a one-member group.

All state is float64. Noise comes from a counter-based generator keyed by
(seed, stream, step), with particle i of a step consuming the i-th draw
pair of that step's block, so trajectories are bit-reproducible no matter
how work is scheduled.
"""

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import InputError, require_integers
from .keypoints import Group, SegmentationMap, split_groups

DEFAULT_GAMMA = 0.8
DEFAULT_XI_D_X = 0.1
DEFAULT_XI_D_Y = 0.5
DEFAULT_CONFINEMENT_STIFFNESS = 0.05

_U64 = (1 << 64) - 1


@dataclass(frozen=True)
class LangevinParams:
    """Force coefficients for the per-particle update.

    The damping coefficients must satisfy 0 <= gamma < 2 so the
    noise-free velocity recursion is stable. Every coefficient must be
    finite.
    """

    gamma_x: float = DEFAULT_GAMMA
    gamma_y: float = DEFAULT_GAMMA
    xi_d_x: float = DEFAULT_XI_D_X
    xi_d_y: float = DEFAULT_XI_D_Y
    confinement_stiffness: float = DEFAULT_CONFINEMENT_STIFFNESS

    def __post_init__(self):
        for name in ("gamma_x", "gamma_y"):
            g = getattr(self, name)
            if not 0.0 <= g < 2.0:
                raise InputError(f"{name}={g} outside stable range [0, 2)")
        for name in ("xi_d_x", "xi_d_y", "confinement_stiffness"):
            value = getattr(self, name)
            if not (value >= 0 and np.isfinite(value)):
                raise InputError(f"{name}={value} must be finite and >= 0")


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


def require_seed(seed) -> int:
    """``seed`` as an int; an InputError unless it is an integer in 0..2**64 - 1."""
    require_integers(seed=seed)
    if not 0 <= int(seed) <= _U64:
        raise InputError(f"seed {seed} is outside 0..2**64 - 1")
    return int(seed)


class NoiseSource:
    """Deterministic standard-normal source addressed by (stream, step).

    Each (stream, step) pair owns a disjoint counter block of a Philox
    generator keyed by the seed (a ``uint64``, so 0..2**64 - 1), so distinct
    seeds draw distinct noise, identical seeds reproduce identical draws,
    and distinct windows/steps never share randomness.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed = require_seed(seed)
        self.stream = int(stream)

    def normals(self, step: int, count: int) -> np.ndarray:
        """The first ``count`` draw pairs of the (stream, step) block."""
        bitgen = np.random.Philox(
            counter=[0, 0, self.stream & _U64, int(step) & _U64],
            key=np.array([self.seed, 0], dtype=np.uint64),
        )
        return np.random.Generator(bitgen).standard_normal((count, 2))


def estimate_group_forces(group: Group, params: LangevinParams) -> GroupForces:
    """Estimate the drift and confinement baseline for one group.

    Flow exists only for a window's first frame pair, so the forces are the
    steady-state values gamma * mean velocity: they make the observed group
    velocity a fixed point of the noise-free update run with ``params``,
    which must be the params that propagation uses. The confinement
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


def _step_arrays(x, y, vx, vy, drift_x, confine_y, anchor_y, params: LangevinParams, xi):
    """One update of the particle arrays; the force terms are scalars or
    per-particle arrays (a group's ``GroupForces`` repeated over its members)."""
    vx_new = vx - params.gamma_x * vx + drift_x + params.xi_d_x * xi[..., 0]
    restoring = params.confinement_stiffness * (y - anchor_y) - confine_y
    vy_new = vy - params.gamma_y * vy - restoring + params.xi_d_y * xi[..., 1]
    return x + vx_new, y + vy_new, vx_new, vy_new


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

    The map's groups are concatenated once, into flat float64 arrays
    (``clamped`` bool), and all members take each step together; the
    per-particle force arrays are built once per call, not once per step.
    Each returned map's groups hold slices of that step's flat arrays.
    """
    if steps < 0:
        raise InputError("steps must be >= 0")
    if steps == 0:
        return []
    width, height = seg_map.width, seg_map.height
    groups = seg_map.groups

    def cat(name, dtype, casting="same_kind"):
        arrays = [getattr(g, name) for g in groups] + [np.empty(0, dtype)]
        return np.concatenate(arrays, dtype=dtype, casting=casting)

    x, y, vx, vy = (cat(name, np.float64) for name in ("x", "y", "vx", "vy"))
    clamped = cat("clamped", bool, "unsafe")
    starts = np.cumsum([0] + [g.size for g in groups])
    sizes = np.diff(starts)
    table = np.array(
        [(f.drift_x, f.confine_y, f.anchor_y) for f in (forces[g.id] for g in groups)],
        dtype=np.float64,
    ).reshape(-1, 3)
    drift_x, confine_y, anchor_y = np.repeat(table.T, sizes, axis=1)
    ids, bins = [g.id for g in groups], [g.bin for g in groups]
    out: list[SegmentationMap] = []
    for s in range(steps):
        xi = noise.normals(step_offset + s, x.size)
        x, y, vx, vy = _step_arrays(x, y, vx, vy, drift_x, confine_y, anchor_y, params, xi)
        cx = np.clip(x, 0.0, width - 1.0)
        cy = np.clip(y, 0.0, height - 1.0)
        clamped = clamped | (cx != x) | (cy != y)
        x, y = cx, cy
        step_groups = split_groups(ids, bins, starts, x, y, vx, vy, clamped)
        out.append(SegmentationMap(seg_map.frame_index + s + 1, width, height, step_groups))
    return out
