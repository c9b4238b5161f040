import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from flowseg import (
    GroupForces,
    InputError,
    LangevinParams,
    NoiseSource,
    estimate_group_forces,
    maps_identical,
    propagate_map,
)
from flowseg.evaluation import rasterize_maps
from flowseg.keypoints import Group, SegmentationMap


def make_group(x, y, vx, vy, gid=1, bin_id=0):
    n = len(x)
    return Group(
        id=gid,
        bin=bin_id,
        x=np.asarray(x, float),
        y=np.asarray(y, float),
        vx=np.asarray(vx, float),
        vy=np.asarray(vy, float),
        clamped=np.zeros(n, bool),
    )


def square_group(vx=2.0, vy=0.0):
    xs = [10.0, 14.0, 10.0, 14.0]
    ys = [10.0, 10.0, 14.0, 14.0]
    return make_group(xs, ys, [vx] * 4, [vy] * 4)


def seg_map_of(groups, width=64, height=64, frame_index=2):
    return SegmentationMap(frame_index=frame_index, width=width, height=height, groups=groups)


ZERO_FORCES = GroupForces(drift_x=0.0, confine_y=0.0, anchor_y=0.0)


def track(x, y, vx, vy, forces, params, steps, noise=None):
    """One particle's (x, y, vx, vy) after each of ``steps`` steps, as rows:
    a one-member group sent through propagate_map, in a frame so large
    that it must never clamp it. No ``noise`` means NoiseSource(0)."""
    group = make_group([x], [y], [vx], [vy])
    maps = propagate_map(seg_map_of([group], width=10_000, height=10_000), {1: forces}, params,
                         noise or NoiseSource(0), steps)
    assert not maps[-1].groups[0].clamped[0]
    return np.array([[m.groups[0].x[0], m.groups[0].y[0], m.groups[0].vx[0], m.groups[0].vy[0]]
                     for m in maps])


# --- parameter validation ----------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"gamma_x": -0.1},
        {"gamma_x": 2.0},
        {"gamma_y": 2.5},
        {"xi_d_x": -1.0},
        {"confinement_stiffness": -0.5},
        {"xi_d_y": math.nan},
        {"xi_d_x": math.inf},
        {"confinement_stiffness": math.inf},
    ],
)
def test_params_validation(kwargs):
    with pytest.raises(InputError):
        LangevinParams(**kwargs)


# --- one particle: a one-member group -------------------------------------------


def test_free_particle():
    params = LangevinParams(gamma_x=0.0, gamma_y=0.0, xi_d_x=0.0, xi_d_y=0.0,
                            confinement_stiffness=0.0)
    x, y, vx, vy = track(5.0, 3.0, 1.0, 0.0, ZERO_FORCES, params, steps=1)[0]
    assert (vx, vy) == (1.0, 0.0)
    assert (x, y) == (6.0, 3.0)


def test_drift_fixed_point():
    # substituting vx = F / gamma into the velocity update leaves it unchanged
    params = LangevinParams(xi_d_x=0.0, xi_d_y=0.0, confinement_stiffness=0.0)
    forces = GroupForces(drift_x=0.8, confine_y=0.0, anchor_y=0.0)
    x, _, vx, _ = track(0.0, 0.0, 1.0, 0.0, forces, params, steps=50)[-1]
    assert vx == pytest.approx(1.0, rel=1e-12)
    assert x == pytest.approx(50.0, rel=1e-12)


def test_velocity_decay_single_step():
    params = LangevinParams(xi_d_x=0.0, xi_d_y=0.0, confinement_stiffness=0.0)
    vx = track(0, 0, 1.0, 0.0, ZERO_FORCES, params, steps=1)[0, 2]
    assert vx == pytest.approx(0.2, rel=1e-12)


def test_velocity_decay_geometric_exact():
    # with gamma a power of two the per-step ratio is exactly representable
    params = LangevinParams(gamma_x=0.5, gamma_y=0.5, xi_d_x=0.0, xi_d_y=0.0,
                            confinement_stiffness=0.0)
    v = 3.0
    for vx in track(0, 0, v, 0.0, ZERO_FORCES, params, steps=20)[:, 2]:
        v = v * 0.5
        assert vx == v


def test_velocity_relaxation_ratio_machine_precision():
    params = LangevinParams(xi_d_x=0.0, xi_d_y=0.0, confinement_stiffness=0.0)
    ratio = 1.0 - params.gamma_x
    prev = 3.7
    for vx in track(0, 0, prev, 0.0, ZERO_FORCES, params, steps=40)[:, 2]:
        assert vx == pytest.approx(prev * ratio, rel=5e-15)
        prev = vx


# --- force estimation ----------------------------------------------------------


def test_steady_state_fallback():
    g = square_group(vx=2.0, vy=0.0)
    forces = estimate_group_forces(g, LangevinParams())
    # fixed point of the noise-free update: 0 = -gamma*v + F  =>  F = gamma*v
    assert forces.drift_x == pytest.approx(0.8 * 2.0)
    assert forces.confine_y == 0.0
    assert forces.anchor_y == 12.0


def test_stationary_group_zero_forces():
    g = square_group(vx=0.0, vy=0.0)
    forces = estimate_group_forces(g, LangevinParams())
    assert forces.drift_x == 0.0 and forces.confine_y == 0.0


def test_empty_group_rejected():
    g = make_group([], [], [], [])
    with pytest.raises(InputError):
        estimate_group_forces(g, LangevinParams())


# --- propagation ----------------------------------------------------------------


def test_zero_steps_empty_list():
    seg = seg_map_of([square_group()])
    out = propagate_map(seg, {1: ZERO_FORCES}, LangevinParams(), NoiseSource(0), steps=0)
    assert out == []


def test_negative_steps_rejected():
    seg = seg_map_of([square_group()])
    with pytest.raises(InputError):
        propagate_map(seg, {1: ZERO_FORCES}, LangevinParams(), NoiseSource(0), steps=-1)


def test_drift_fixed_point_centroid_track():
    # group at its drift fixed point translates 2 px/frame; the confinement
    # keeps the centroid row put
    g = square_group(vx=2.0, vy=0.0)
    params = LangevinParams(xi_d_x=0.0, xi_d_y=0.0)
    forces = estimate_group_forces(g, params)
    maps = propagate_map(seg_map_of([g]), {1: forces}, params, NoiseSource(3), steps=3)
    assert [m.frame_index for m in maps] == [3, 4, 5]
    for k, m in enumerate(maps, start=1):
        cx, cy = m.groups[0].centroid
        assert cx == pytest.approx(12.0 + 2.0 * k, abs=1e-9)
        assert cy == pytest.approx(12.0, abs=1e-9)


def test_group_rigidity_without_confinement():
    g = square_group(vx=2.0, vy=0.0)
    params = LangevinParams(xi_d_x=0.0, xi_d_y=0.0, confinement_stiffness=0.0)
    forces = estimate_group_forces(g, params)
    maps = propagate_map(seg_map_of([g]), {1: forces}, params, NoiseSource(3), steps=5)
    ref = np.hypot(g.x[:, None] - g.x[None, :], g.y[:, None] - g.y[None, :])
    for m in maps:
        got = np.hypot(
            m.groups[0].x[:, None] - m.groups[0].x[None, :],
            m.groups[0].y[:, None] - m.groups[0].y[None, :],
        )
        assert np.array_equal(got, ref)


def test_propagation_deterministic_and_stream_sensitive():
    g = square_group()
    seg = seg_map_of([g])
    params = LangevinParams()
    forces = {1: estimate_group_forces(g, params)}
    a = propagate_map(seg, forces, params, NoiseSource(9, stream=1), steps=4)
    b = propagate_map(seg, forces, params, NoiseSource(9, stream=1), steps=4)
    c = propagate_map(seg, forces, params, NoiseSource(9, stream=2), steps=4)
    assert all(maps_identical(x, y) for x, y in zip(a, b))
    assert not maps_identical(a[0], c[0])


def test_membership_ids_bins_persist_and_clamping():
    g = make_group([1.0], [1.0], [-5.0], [0.0], gid=7, bin_id=4)
    params = LangevinParams(xi_d_x=0.0, xi_d_y=0.0, confinement_stiffness=0.0)
    forces = {7: GroupForces(drift_x=-4.0, confine_y=0.0, anchor_y=1.0)}
    maps = propagate_map(seg_map_of([g], width=16, height=16), forces, params,
                         NoiseSource(0), steps=2)
    out = maps[-1].groups[0]
    assert out.id == 7 and out.bin == 4 and out.size == 1
    assert out.x[0] == 0.0  # clamped at the left frame edge
    assert out.clamped[0]


def test_noise_mean_stays_put_without_damping():
    # random-force mean is zero: ensemble mean of vx moves less than 3 SE
    n, steps, xi_d = 10_000, 25, 0.1
    rng = np.random.default_rng(5)
    g = make_group(rng.uniform(10, 50, n), rng.uniform(10, 50, n),
                   np.full(n, 1.0), np.zeros(n))
    params = LangevinParams(gamma_x=0.0, gamma_y=0.0, xi_d_x=xi_d, xi_d_y=xi_d,
                            confinement_stiffness=0.0)
    maps = propagate_map(seg_map_of([g], width=4000, height=4000), {1: ZERO_FORCES},
                         params, NoiseSource(13), steps=steps)
    mean_vx = maps[-1].groups[0].vx.mean()
    se = xi_d * np.sqrt(steps) / np.sqrt(n)
    assert abs(mean_vx - 1.0) <= 3 * se


def test_confinement_monotone_at_defaults():
    params = LangevinParams(xi_d_x=0.0, xi_d_y=0.0)
    forces = GroupForces(drift_x=0.0, confine_y=0.0, anchor_y=0.0)
    deviations = [10.0, *track(0.0, 10.0, 0.0, 0.0, forces, params, steps=200)[:, 1]]
    assert all(b <= a for a, b in zip(deviations, deviations[1:]))
    assert all(d >= 0 for d in deviations)
    assert deviations[-1] < 0.1 * deviations[0]


# Monotone (overshoot-free) approach from rest needs the damped spring to be
# at least critically damped: real eigenvalues of the update map,
# (gamma + k)^2 >= 4*k. Underdamped parameters oscillate through
# the anchor even though they still converge. The tested region, with a 5%
# margin, is gamma in [0.05, 0.95], k in [0.05, 1] * gamma and
# (gamma + k)^2 >= 4.2*k. For a given gamma the last condition holds for
# k up to the smaller root of (gamma + k)^2 = 4.2*k, so k is drawn from
# [0.05*gamma, min(gamma, that root)], which is nonempty from
# gamma = 4.2*0.05/1.05^2 on.
_K_MARGIN = 4.2


def _overdamped_k_max(g):
    b = _K_MARGIN - 2.0 * g
    return min(g, (b - math.sqrt(b * b - 4.0 * g * g)) / 2.0)


@st.composite
def overdamped_gamma_k(draw):
    g = draw(st.floats(_K_MARGIN * 0.05 / 1.05**2, 0.95))
    # max() absorbs rounding where the interval shrinks to one point
    return g, draw(st.floats(0.05 * g, max(0.05 * g, _overdamped_k_max(g))))


@settings(max_examples=30)
@given(gamma_k=overdamped_gamma_k(), d0=st.floats(0.5, 50.0))
def test_confinement_monotone_in_overdamped_region(gamma_k, d0):
    gamma, k = gamma_k
    assert (gamma + k) ** 2 >= 4.0 * k
    params = LangevinParams(gamma_x=gamma, gamma_y=gamma, xi_d_x=0.0,
                            xi_d_y=0.0, confinement_stiffness=k)
    # The anchor sits inside the frame, so a deviation that rounds below
    # zero is reported rather than clamped away.
    anchor = 100.0
    forces = GroupForces(drift_x=0.0, confine_y=0.0, anchor_y=anchor)
    prev = d0
    for y in track(0.0, anchor + d0, 0.0, 0.0, forces, params, steps=100)[:, 1]:
        assert y - anchor <= prev + 1e-12
        assert y - anchor >= -1e-12
        prev = y - anchor
    assert prev < d0


# --- noise source ----------------------------------------------------------------


def test_noise_reproducibility_and_separation():
    a = NoiseSource(42).normals(step=3, count=5)
    b = NoiseSource(42).normals(step=3, count=5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, NoiseSource(43).normals(3, 5))
    assert not np.array_equal(a, NoiseSource(42).normals(4, 5))
    assert not np.array_equal(a, NoiseSource(42, stream=1).normals(3, 5))


def test_noise_prefix_stability():
    full = NoiseSource(7).normals(step=0, count=100)
    head = NoiseSource(7).normals(step=0, count=10)
    assert np.array_equal(full[:10], head)


def test_noise_is_standard_normal():
    draws = NoiseSource(1234).normals(step=0, count=4000).ravel()
    assert abs(draws.mean()) < 0.05
    assert abs(draws.std() - 1.0) < 0.05
    # Shapiro-style sanity check on a subsample
    assert stats.shapiro(draws[:2000]).pvalue > 1e-3


# --- ablation: force families off through their coefficients --------------------


def test_ablation_disable_disturbance_only():
    # xi_d = 0 leaves no noise: any two noise streams give the same maps
    params = LangevinParams(xi_d_x=0.0, xi_d_y=0.0)
    seg = random_map(5, 6)
    forces = forces_for(seg, params)
    a = propagate_map(seg, forces, params, NoiseSource(1), steps=3)
    b = propagate_map(seg, forces, params, NoiseSource(2, stream=9), steps=3)
    assert_maps_equal(a, b)
    assert not maps_identical(a[-1], propagate_map(seg, forces, LangevinParams(), NoiseSource(1), 3)[-1])


def test_ablation_identity_when_all_enabled():
    # every force on, no noise: a group moving at its mean velocity keeps it,
    # the fixed point the estimated forces make
    params = LangevinParams(xi_d_x=0.0, xi_d_y=0.0)
    group = make_group([100.0, 104.0], [50.0, 50.0], [2.5, 2.5], [0.0, 0.0])
    forces = estimate_group_forces(group, params)
    rows = track(100.0, 50.0, 2.5, 0.0, forces, params, steps=5)
    assert rows[:, 2].tolist() == [2.5] * 5 and rows[:, 3].tolist() == [0.0] * 5


def test_all_forces_off_is_ballistic_motion():
    # no damping, no noise and no drift: each particle keeps its velocity
    params = LangevinParams(gamma_x=0.0, gamma_y=0.0, xi_d_x=0.0, xi_d_y=0.0,
                            confinement_stiffness=0.0)
    forces = estimate_group_forces(square_group(vx=1.5, vy=-0.5), params)
    assert forces.drift_x == 0.0 and forces.confine_y == 0.0
    rows = track(5000.0, 5000.0, 1.5, -0.5, forces, params, steps=4)
    assert rows[:, 2].tolist() == [1.5] * 4 and rows[:, 3].tolist() == [-0.5] * 4
    assert rows[-1, 0] == 5006.0 and rows[-1, 1] == 4998.0


def test_ablation_disturbance_only_is_velocity_random_walk():
    params = LangevinParams(gamma_x=0.0, gamma_y=0.0, confinement_stiffness=0.0)
    forces = estimate_group_forces(make_group([5000.0], [5000.0], [0.0], [0.0]), params)
    assert forces.drift_x == 0.0
    # the particle consumes draw pair 0 of noise blocks 0..9
    vx = track(5000.0, 5000.0, 0.0, 0.0, forces, params, steps=10, noise=NoiseSource(3))[-1, 2]
    # velocity equals the plain sum of scaled noise draws
    expected = sum(NoiseSource(3).normals(s, 1)[0, 0] * params.xi_d_x for s in range(10))
    assert vx == pytest.approx(expected, rel=1e-12)


# --- one particle array per map ---------------------------------------------------


def reference_propagate(seg_map, forces, params, noise, steps, step_offset=0):
    """The per-group loop: each group takes its own update, with its scalar
    forces, on its slice of the step's noise block."""
    width, height = seg_map.width, seg_map.height
    out = []
    groups = seg_map.groups
    for s in range(steps):
        total = sum(g.size for g in groups)
        xi = noise.normals(step_offset + s, total)
        pos = 0
        new_groups = []
        for g in groups:
            block = xi[pos : pos + g.size]
            pos += g.size
            f = forces[g.id]
            vx = g.vx - params.gamma_x * g.vx + f.drift_x + params.xi_d_x * block[..., 0]
            restoring = params.confinement_stiffness * (g.y - f.anchor_y) - f.confine_y
            vy = g.vy - params.gamma_y * g.vy - restoring + params.xi_d_y * block[..., 1]
            x = g.x + vx
            y = g.y + vy
            cx = np.clip(x, 0.0, width - 1.0)
            cy = np.clip(y, 0.0, height - 1.0)
            clamped = g.clamped | (cx != x) | (cy != y)
            new_groups.append(Group(id=g.id, bin=g.bin, x=cx, y=cy, vx=vx, vy=vy, clamped=clamped))
        groups = new_groups
        out.append(SegmentationMap(seg_map.frame_index + s + 1, width, height, groups))
    return out


def random_map(seed, n_groups, width=48, height=40, max_size=30):
    """Groups of 1..max_size members at random places and speeds, ids shuffled."""
    rng = np.random.default_rng(seed)
    ids = rng.permutation(np.arange(1, 3 * n_groups + 1))[:n_groups]
    groups = []
    for gid in ids:
        n = int(rng.integers(1, max_size + 1)) if rng.random() < 0.8 else 1
        groups.append(make_group(
            rng.uniform(0, width - 1, n), rng.uniform(0, height - 1, n),
            rng.normal(0, 3, n), rng.normal(0, 3, n), gid=int(gid), bin_id=int(rng.integers(0, 8)),
        ))
    return seg_map_of(groups, width=width, height=height)


def edge_map(width=20, height=16):
    """One group pushed out through each of the four edges, plus a
    single-member group in the middle."""
    v = 6.0
    groups = [
        make_group([0.5, 1.0, 2.0], [5.0, 6.0, 7.0], [-v] * 3, [0.0] * 3, gid=1),
        make_group([width - 1.5, width - 2.0], [8.0, 9.0], [v] * 2, [0.0] * 2, gid=2),
        make_group([4.0, 5.0, 6.0, 7.0], [0.5] * 4, [0.0] * 4, [-v] * 4, gid=3),
        make_group([9.0], [height - 1.5], [0.0], [v], gid=4),
        make_group([10.0], [8.0], [0.1], [-0.1], gid=5),
    ]
    return seg_map_of(groups, width=width, height=height)


def forces_for(seg, params, drift_confine=True):
    """The forces the pipeline estimates; ``drift_confine=False`` zeroes the
    drift and confinement baseline, as ``force_drift_confine = false`` does."""
    forces = {g.id: estimate_group_forces(g, params) for g in seg.groups}
    if drift_confine:
        return forces
    return {i: dataclasses.replace(f, drift_x=0.0, confine_y=0.0) for i, f in forces.items()}


PARAM_SETS = [
    LangevinParams(),
    LangevinParams(gamma_x=0.3, gamma_y=1.1, xi_d_x=0.7, xi_d_y=0.2, confinement_stiffness=0.2),
    LangevinParams(gamma_x=1.2, gamma_y=0.4),
]
# force subsets: the coefficients that turn damping and disturbance off, and
# whether the estimated drift and confinement stay on
NO_DAMPING = {"gamma_x": 0.0, "gamma_y": 0.0}
NO_NOISE = {"xi_d_x": 0.0, "xi_d_y": 0.0}
NO_STIFFNESS = {"confinement_stiffness": 0.0}
ABLATIONS = [
    ({}, True),
    (NO_DAMPING, True),
    (NO_STIFFNESS, False),  # drift/confine off, damping on
    (NO_NOISE, True),
    ({**NO_DAMPING, **NO_STIFFNESS}, False),  # disturbance only
    ({**NO_DAMPING, **NO_NOISE, **NO_STIFFNESS}, False),  # all off: ballistic
]


def assert_maps_equal(got, ref):
    assert len(got) == len(ref)
    for a, b in zip(got, ref):
        assert maps_identical(a, b)
        for ga, gb in zip(a.groups, b.groups):
            for fa, fb in ((ga.x, gb.x), (ga.y, gb.y), (ga.vx, gb.vx), (ga.vy, gb.vy)):
                assert fa.dtype == fb.dtype == np.float64 and fa.tobytes() == fb.tobytes()
            assert ga.clamped.dtype == np.bool_


@pytest.mark.parametrize("steps", [0, 1, 2, 3])
@pytest.mark.parametrize("params", PARAM_SETS)
@pytest.mark.parametrize("ablation", ABLATIONS)
def test_propagate_matches_per_group_reference(steps, params, ablation):
    # the forces come from the params that run, as the pipeline takes them
    overrides, drift_confine = ablation
    run_params = dataclasses.replace(params, **overrides)
    for seed, n_groups in ((steps, 1), (10 + steps, 7), (20 + steps, 60)):
        seg = random_map(seed, n_groups)
        forces = forces_for(seg, run_params, drift_confine)
        noise = NoiseSource(seed, stream=3)
        got = propagate_map(seg, forces, run_params, noise, steps=steps, step_offset=5)
        ref = reference_propagate(seg, forces, run_params, noise, steps=steps, step_offset=5)
        assert_maps_equal(got, ref)


@pytest.mark.parametrize("params", PARAM_SETS[:2])
def test_propagate_clamps_at_all_four_edges_like_reference(params):
    seg = edge_map()
    forces = forces_for(seg, params)
    got = propagate_map(seg, forces, params, NoiseSource(4), steps=3)
    ref = reference_propagate(seg, forces, params, NoiseSource(4), steps=3)
    assert_maps_equal(got, ref)
    last = {g.id: g for g in got[-1].groups}
    assert last[1].x.min() == 0.0 and last[2].x.max() == 19.0
    assert last[3].y.min() == 0.0 and last[4].y.max() == 15.0
    for gid in (1, 2, 3, 4):
        assert last[gid].clamped.any()


@pytest.mark.parametrize("start", ["groups", "propagated"])
def test_propagate_chains_of_single_steps_match_reference(start):
    # Chains of one-step calls, each on the map the last call returned,
    # with the step offset advancing, as a caller stepping one frame at a
    # time makes them; they must equal one call of all the steps.
    seg = random_map(31, 25)
    params = LangevinParams()
    forces = forces_for(seg, params)
    if start == "propagated":
        seg = propagate_map(seg, forces, params, NoiseSource(8, 2), steps=1, step_offset=9)[0]
    noise = NoiseSource(8, stream=1)
    got, ref = seg, seg
    for k in range(4):
        got = propagate_map(got, forces, params, noise, steps=1, step_offset=k)[0]
        ref = reference_propagate(ref, forces, params, noise, steps=1, step_offset=k)[0]
        assert_maps_equal([got], [ref])
    whole = propagate_map(seg, forces, params, noise, steps=4)
    assert maps_identical(whole[-1], got)


def test_propagate_and_rasterize_follow_a_replaced_group():
    # A map's groups are the one home of its members: replacing a
    # propagated group's x, and then popping a group, changes what
    # propagate_map and rasterize_maps make of the map exactly as it would
    # for a hand-built map of copies of the same groups.
    seg = random_map(3, 4)
    params = LangevinParams()
    forces = forces_for(seg, params)
    out = propagate_map(seg, forces, params, NoiseSource(1), steps=1)[0]

    def outputs(seg_map):
        maps = propagate_map(seg_map, forces, params, NoiseSource(2), steps=2)
        return maps, [mask.labels for mask in rasterize_maps([seg_map, *maps])]

    def hand_built(seg_map):
        copies = [Group(g.id, g.bin, *(np.array(a) for a in (g.x, g.y, g.vx, g.vy, g.clamped)))
                  for g in seg_map.groups]
        return seg_map_of(copies, seg_map.width, seg_map.height, seg_map.frame_index)

    def replace_x(seg_map):
        g = seg_map.groups[1]
        g.x = g.x + 1.0

    for edit in (replace_x, lambda seg_map: seg_map.groups.pop()):
        _, labels_before = outputs(out)
        edit(out)
        maps, labels = outputs(out)
        ref_maps, ref_labels = outputs(hand_built(out))
        assert_maps_equal(maps, ref_maps)
        assert all(np.array_equal(a, b) for a, b in zip(labels, ref_labels))
        assert not all(np.array_equal(a, b) for a, b in zip(labels, labels_before))
    assert len(out.groups) == 3


def test_propagate_empty_and_memberless_groups():
    params = LangevinParams()
    empty = seg_map_of([])
    assert [m.groups for m in propagate_map(empty, {}, params, NoiseSource(0), steps=2)] == [[], []]
    seg = seg_map_of([make_group([], [], [], [], gid=2), square_group()])
    forces = {2: ZERO_FORCES, 1: estimate_group_forces(seg.groups[1], params)}
    got = propagate_map(seg, forces, params, NoiseSource(6), steps=2)
    ref = reference_propagate(seg, forces, params, NoiseSource(6), steps=2)
    assert_maps_equal(got, ref)
    assert got[-1].groups[0].size == 0


@pytest.mark.parametrize("name", ["drift_x", "confine_y", "anchor_y"])
def test_group_forces_must_be_finite(name):
    values = {"drift_x": 0.0, "confine_y": 0.0, "anchor_y": 0.0, name: math.nan}
    with pytest.raises(InputError, match=f"{name} must be finite"):
        GroupForces(**values)


def test_distinct_seeds_draw_distinct_noise_above_2_63():
    # every seed keys its own generator, the largest 64-bit ones included
    seeds = [2**63, 2**63 + 1, 2**64 - 2, 2**64 - 1]
    draws = [NoiseSource(seed).normals(step=0, count=4).tobytes() for seed in seeds]
    assert len(set(draws)) == len(seeds)


def test_seeds_below_2_63_keep_the_draws_of_a_list_key():
    # the uint64 key holds the bits that a list of Python ints held
    for seed in (0, 1, 42, 2**32 + 5, 2**53 + 1, 2**63 - 1):
        bitgen = np.random.Philox(counter=[0, 0, 3, 5], key=[seed, 0])
        expected = np.random.Generator(bitgen).standard_normal((6, 2))
        assert NoiseSource(seed, stream=3).normals(step=5, count=6).tobytes() == expected.tobytes(), seed


@pytest.mark.parametrize("seed", [-1, 2**64, 2**70], ids=["-1", "2**64", "2**70"])
def test_a_seed_outside_64_bits_is_an_input_error(seed):
    with pytest.raises(InputError, match=r"outside 0\.\.2\*\*64 - 1"):
        NoiseSource(seed)
