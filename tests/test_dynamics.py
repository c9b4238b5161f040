import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from flowseg import (
    ForceAblation,
    GroupForces,
    InputError,
    LangevinParams,
    NoiseSource,
    ParticleState,
    estimate_group_forces,
    maps_identical,
    propagate_map,
    step_particle,
)
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


ZERO_FORCES = GroupForces(drift_x=0.0, confine_y=0.0, anchor_y=0.0)


# --- parameter validation ----------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"dt": 0.0},
        {"gamma_x": -0.1},
        {"gamma_x": 2.0},
        {"gamma_y": 2.5},
        {"xi_d_x": -1.0},
        {"confinement_stiffness": -0.5},
    ],
)
def test_params_validation(kwargs):
    with pytest.raises(InputError):
        LangevinParams(**kwargs)


# --- single-particle update ---------------------------------------------------


def test_free_particle():
    params = LangevinParams(gamma_x=0.0, gamma_y=0.0, xi_d_x=0.0, xi_d_y=0.0,
                            confinement_stiffness=0.0)
    state = ParticleState(x=5.0, y=3.0, vx=1.0, vy=0.0)
    out = step_particle(state, ZERO_FORCES, params)
    assert (out.vx, out.vy) == (1.0, 0.0)
    assert (out.x, out.y) == (6.0, 3.0)


def test_drift_fixed_point():
    # substituting vx = F / gamma into the velocity update leaves it unchanged
    params = LangevinParams(xi_d_x=0.0, xi_d_y=0.0, confinement_stiffness=0.0)
    forces = GroupForces(drift_x=0.8, confine_y=0.0, anchor_y=0.0)
    state = ParticleState(x=0.0, y=0.0, vx=1.0, vy=0.0)
    for _ in range(50):
        state = step_particle(state, forces, params)
    assert state.vx == pytest.approx(1.0, rel=1e-12)
    assert state.x == pytest.approx(50.0, rel=1e-12)


def test_velocity_decay_single_step():
    params = LangevinParams(xi_d_x=0.0, xi_d_y=0.0, confinement_stiffness=0.0)
    out = step_particle(ParticleState(0, 0, 1.0, 0.0), ZERO_FORCES, params)
    assert out.vx == pytest.approx(0.2, rel=1e-12)


def test_velocity_decay_geometric_exact():
    # with gamma*dt a power of two the per-step ratio is exactly representable
    params = LangevinParams(gamma_x=0.5, gamma_y=0.5, xi_d_x=0.0, xi_d_y=0.0,
                            confinement_stiffness=0.0)
    v = 3.0
    state = ParticleState(0, 0, v, 0.0)
    for _ in range(20):
        state = step_particle(state, ZERO_FORCES, params)
        v = v * 0.5
        assert state.vx == v


def test_velocity_relaxation_ratio_machine_precision():
    params = LangevinParams(xi_d_x=0.0, xi_d_y=0.0, confinement_stiffness=0.0)
    ratio = 1.0 - params.gamma_x * params.dt
    state = ParticleState(0, 0, 3.7, 0.0)
    for _ in range(40):
        prev = state.vx
        state = step_particle(state, ZERO_FORCES, params)
        assert state.vx == pytest.approx(prev * ratio, rel=5e-15)


def test_step_particle_accepts_explicit_noise_pair():
    params = LangevinParams(gamma_x=0.0, gamma_y=0.0, confinement_stiffness=0.0)
    out = step_particle(ParticleState(0, 0, 0, 0), ZERO_FORCES, params, noise=(1.0, -2.0))
    assert out.vx == pytest.approx(params.xi_d_x)
    assert out.vy == pytest.approx(-2.0 * params.xi_d_y)


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


def seg_map_of(groups, width=64, height=64, frame_index=2):
    return SegmentationMap(frame_index=frame_index, width=width, height=height, groups=groups)


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


def test_step_particle_matches_propagate_assignments():
    g = square_group()
    params = LangevinParams()
    forces = estimate_group_forces(g, params)
    noise = NoiseSource(21, stream=5)
    maps = propagate_map(seg_map_of([g]), {1: forces}, params, noise, steps=1)
    for i in range(g.size):
        state = ParticleState(x=g.x[i], y=g.y[i], vx=g.vx[i], vy=g.vy[i])
        out = step_particle(state, forces, params, NoiseSource(21, stream=5), step=0, index=i)
        assert out.x == maps[0].groups[0].x[i]
        assert out.y == maps[0].groups[0].y[i]
        assert out.vx == maps[0].groups[0].vx[i]
        assert out.vy == maps[0].groups[0].vy[i]


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
    state = ParticleState(x=0.0, y=10.0, vx=0.0, vy=0.0)
    deviations = [state.y]
    for _ in range(200):
        state = step_particle(state, forces, params)
        deviations.append(state.y)
    assert all(b <= a for a, b in zip(deviations, deviations[1:]))
    assert all(d >= 0 for d in deviations)
    assert deviations[-1] < 0.1 * deviations[0]


# Monotone (overshoot-free) approach from rest needs the damped spring to be
# at least critically damped: real eigenvalues of the update map,
# (gamma*dt + k*dt^2)^2 >= 4*k*dt^2. Underdamped parameters oscillate through
# the anchor even though they still converge. The tested region, with a 5%
# margin, is gamma*dt in [0.05, 0.95], k in [0.05, 1] * gamma*dt and
# (gamma*dt + k)^2 >= 4.2*k. For a given gamma*dt the last condition holds for
# k up to the smaller root of (gamma*dt + k)^2 = 4.2*k, so k is drawn from
# [0.05*gamma*dt, min(gamma*dt, that root)], which is nonempty from
# gamma*dt = 4.2*0.05/1.05^2 on.
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
    gamma_dt, k = gamma_k
    assert (gamma_dt + k) ** 2 >= 4.0 * k
    params = LangevinParams(gamma_x=gamma_dt, gamma_y=gamma_dt, xi_d_x=0.0,
                            xi_d_y=0.0, dt=1.0, confinement_stiffness=k)
    forces = GroupForces(drift_x=0.0, confine_y=0.0, anchor_y=0.0)
    state = ParticleState(x=0.0, y=d0, vx=0.0, vy=0.0)
    prev = state.y
    for _ in range(100):
        state = step_particle(state, forces, params)
        assert state.y <= prev + 1e-12
        assert state.y >= -1e-12
        prev = state.y
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


# --- ablation ----------------------------------------------------------------------


def test_ablation_disable_disturbance_only():
    params = LangevinParams()
    out = ForceAblation(disturbance=False).apply_params(params)
    assert out.xi_d_x == 0.0 and out.xi_d_y == 0.0
    assert out.gamma_x == params.gamma_x
    assert out.confinement_stiffness == params.confinement_stiffness


def test_ablation_identity_when_all_enabled():
    params = LangevinParams()
    ab = ForceAblation()
    assert ab.apply_params(params) == params
    forces = GroupForces(drift_x=1.0, confine_y=0.5, anchor_y=2.0)
    assert ab.apply_forces(forces) == forces


def test_ablation_all_disabled_rejected():
    with pytest.raises(InputError):
        ForceAblation(external=False, drift_confine=False, disturbance=False)


def test_ablation_disturbance_only_is_velocity_random_walk():
    params = ForceAblation(external=False, drift_confine=False).apply_params(
        LangevinParams()
    )
    forces = ForceAblation(external=False, drift_confine=False).apply_forces(
        GroupForces(drift_x=5.0, confine_y=1.0, anchor_y=0.0)
    )
    assert params.gamma_x == 0.0 and forces.drift_x == 0.0
    state = ParticleState(0, 0, 0.0, 0.0)
    noise = NoiseSource(3)
    for step in range(10):
        state = step_particle(state, forces, params, noise, step=step)
    # velocity equals the plain sum of scaled noise draws
    expected = sum(NoiseSource(3).normals(s, 1)[0, 0] * params.xi_d_x for s in range(10))
    assert state.vx == pytest.approx(expected, rel=1e-12)
