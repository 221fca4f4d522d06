"""Robot dynamics, goal conditioning, rewards, and world generation."""

import json

import numpy as np
import pytest

from lyapnav import envs, monitor
from lyapnav.envs import RobotKind


def test_sweeping_step_is_velocity_integrator():
    s = envs.initial_state(RobotKind.SWEEPING, pos=(1.0, 2.0))
    nxt = envs.step(RobotKind.SWEEPING, s, [0.5, -0.25])
    assert np.allclose(nxt.pos, [1.0 + 0.5 * envs.SWEEP_A_MAX * envs.DT, 2.0 - 0.25 * envs.SWEEP_A_MAX * envs.DT])


def test_actions_are_clamped():
    s = envs.initial_state(RobotKind.SWEEPING)
    big = envs.step(RobotKind.SWEEPING, s, [10.0, 0.0])
    one = envs.step(RobotKind.SWEEPING, s, [1.0, 0.0])
    assert np.allclose(big.pos, one.pos)


def test_point_turn_rate_oracle():
    # independent oracle: integrate the heading angle by hand
    s = envs.initial_state(RobotKind.POINT, heading=0.3)
    nxt = envs.step(RobotKind.POINT, s, [0.0, 1.0])
    theta = 0.3 + envs.POINT_TURN_RATE * envs.DT
    assert np.allclose(nxt.intrinsic[:2], [np.sin(theta), np.cos(theta)])


def test_point_speed_saturates():
    s = envs.initial_state(RobotKind.POINT)
    for _ in range(50):
        s = envs.step(RobotKind.POINT, s, [1.0, 0.0])
    assert s.intrinsic[2] == pytest.approx(envs.POINT_V_MAX)


def test_point_position_follows_heading():
    theta = 0.7
    s = envs.PhysState(np.zeros(2), np.array([np.sin(theta), np.cos(theta), 0.2]))
    nxt = envs.step(RobotKind.POINT, s, [0.0, 0.0])
    v = 0.2  # no acceleration command
    assert np.allclose(nxt.pos, v * np.array([np.cos(theta), np.sin(theta)]) * envs.DT)


def test_car_straight_line_when_wheels_equal():
    s = envs.PhysState(np.zeros(2), np.array([0.0, 1.0, 0.5, 0.5]))  # heading +x
    nxt = envs.step(RobotKind.CAR, s, [0.0, 0.0])
    assert np.allclose(nxt.pos, [0.5 * envs.DT, 0.0])
    assert np.allclose(nxt.intrinsic[:2], [0.0, 1.0])


def test_car_turn_rate_oracle():
    # oracle: omega = (vr - vl) / track width
    s = envs.PhysState(np.zeros(2), np.array([0.0, 1.0, 0.2, 0.6]))
    nxt = envs.step(RobotKind.CAR, s, [0.0, 0.0])
    omega = (0.6 - 0.2) / envs.CAR_TRACK_WIDTH
    theta = omega * envs.DT
    assert np.allclose(nxt.intrinsic[:2], [np.sin(theta), np.cos(theta)])


def test_heading_stays_unit_norm():
    rng = np.random.default_rng(0)
    s = envs.initial_state(RobotKind.POINT, heading=1.0)
    for _ in range(200):
        s = envs.step(RobotKind.POINT, s, rng.uniform(-1, 1, size=2))
        assert np.isclose(np.linalg.norm(s.intrinsic[:2]), 1.0)


def test_goal_condition_layout():
    s = envs.PhysState(np.array([1.0, 1.0]), np.array([0.0, 1.0, 0.3]))
    sg = envs.goal_condition(s, [4.0, 5.0])
    assert np.allclose(sg, [3.0, 4.0, 0.0, 1.0, 0.3])


def test_state_dims():
    assert envs.state_dim(RobotKind.SWEEPING) == 2
    assert envs.state_dim(RobotKind.POINT) == 5
    assert envs.state_dim(RobotKind.CAR) == 6


def test_sink_mask_keeps_heading_only():
    m = envs.sink_mask(RobotKind.POINT)
    sg = np.array([1.0, -2.0, 0.6, 0.8, 0.4])
    assert np.allclose(sg * m, [0.0, 0.0, 0.6, 0.8, 0.0])
    assert np.allclose(envs.sink_mask(RobotKind.SWEEPING), 0.0)


def test_reward_telescopes_to_distance_change():
    # oracle: summed per-step rewards equal start distance minus end distance
    rng = np.random.default_rng(1)
    g = np.array([2.0, 1.0])
    s = envs.initial_state(RobotKind.SWEEPING)
    total = 0.0
    for _ in range(30):
        nxt = envs.step(RobotKind.SWEEPING, s, rng.uniform(-1, 1, size=2))
        total += envs.reward(g, s, nxt, envs.empty_world())
        s = nxt
    expected = np.linalg.norm(g) - np.linalg.norm(g - s.pos)
    assert total == pytest.approx(expected)


def test_reward_penalizes_hazard():
    world = envs.empty_world()
    world.hazards = np.array([[1.0, 1.0, 0.2]])
    s = envs.PhysState(np.array([0.5, 1.0]), np.zeros(0))
    inside = envs.PhysState(np.array([0.9, 1.0]), np.zeros(0))
    base = envs.reward(world.goal, s, inside, envs.empty_world())
    assert base == envs.distance(world.goal, s.pos) - envs.distance(world.goal, inside.pos)
    assert envs.reward(world.goal, s, inside, world) == pytest.approx(base - envs.HAZARD_PENALTY)


def test_featurize_appends_direction_distance():
    sg = np.array([[3.0, 4.0]])
    f = envs.featurize(RobotKind.SWEEPING, sg)[0]
    assert f.shape == (envs.feature_dim(RobotKind.SWEEPING),)
    assert np.allclose(f[:2], [3.0, 4.0])
    assert np.allclose(f[2:4], [3.0 / 5.05, 4.0 / 5.05])
    assert f[4] == pytest.approx(5.0)


def test_featurize_alignment_oracle():
    # oracle: heading aligned with the goal direction gives dot 1, cross 0;
    # perpendicular heading gives dot 0, cross +-1 (computed by trig)
    theta = np.arctan2(4.0, 3.0)  # motion direction toward (3, 4)
    sg = np.concatenate([[3.0, 4.0], [np.sin(theta), np.cos(theta), 0.1]])
    f = envs.featurize(RobotKind.POINT, sg[None])[0]
    dhat_norm = 5.0 / 5.05
    assert f[-2] == pytest.approx(dhat_norm)
    assert f[-1] == pytest.approx(0.0, abs=1e-12)
    sg_perp = np.concatenate([[3.0, 4.0], [np.sin(theta + np.pi / 2), np.cos(theta + np.pi / 2), 0.1]])
    f = envs.featurize(RobotKind.POINT, sg_perp[None])[0]
    assert f[-2] == pytest.approx(0.0, abs=1e-12)
    assert abs(f[-1]) == pytest.approx(dhat_norm)


def test_featurize_batch_matches_single():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(7, 5))
    batch = envs.featurize(RobotKind.POINT, X)
    for i in range(7):
        assert np.allclose(batch[i], envs.feature_row(RobotKind.POINT, envs.PhysState(np.zeros(2), X[i, 2:]), X[i, :2]))


def test_featurize_refuses_a_single_state():
    with pytest.raises(ValueError, match="2-D batch"):
        envs.featurize(RobotKind.POINT, np.zeros(5))


def test_world_levels_pinned():
    for level, (size, n) in envs.LEVELS.items():
        w = envs.make_world(level, seed=0)
        assert w.size == size
        assert len(w.hazards) == n
        assert np.allclose(w.start, [0.5, 0.5])
        assert np.allclose(w.goal, [size - 0.5, size - 0.5])


def test_make_world_deterministic_and_clear():
    a = envs.make_world(1, seed=42)
    b = envs.make_world(1, seed=42)
    assert np.array_equal(a.hazards, b.hazards)
    assert not envs.in_hazard(a.start, a)
    assert not envs.in_hazard(a.goal, a)
    d_start = np.linalg.norm(a.hazards[:, :2] - a.start, axis=1)
    d_goal = np.linalg.norm(a.hazards[:, :2] - a.goal, axis=1)
    clearance = envs.HAZARD_RADIUS + envs.START_GOAL_CLEARANCE
    assert np.all(d_start >= clearance)
    assert np.all(d_goal >= clearance)


def test_in_hazard_boundary_counts():
    world = envs.empty_world()
    world.hazards = np.array([[1.0, 1.0, 0.2]])
    assert envs.in_hazard([1.0, 1.2], world)  # on the boundary
    assert not envs.in_hazard([1.0, 1.2000001], world)


def test_hazard_observation_nearest_first_oracle():
    world = envs.make_world(1, seed=3)
    s = envs.initial_state(RobotKind.SWEEPING, pos=(2.0, 2.0))
    obs = envs.hazard_observation(s, world)
    assert obs.shape == (16,)
    # oracle: brute-force sort of hazard distances
    vecs = world.hazards[:, :2] - s.pos
    order = np.argsort(np.linalg.norm(vecs, axis=1), kind="stable")
    for slot, idx in enumerate(order[:8]):
        assert np.allclose(obs[2 * slot : 2 * slot + 2], vecs[idx])


def test_hazard_observation_pads_with_zeros():
    world = envs.empty_world()
    world.hazards = np.array([[1.0, 1.0, 0.2]])
    s = envs.initial_state(RobotKind.SWEEPING)
    obs = envs.hazard_observation(s, world)
    assert np.allclose(obs[:2], [1.0, 1.0])
    assert np.allclose(obs[2:], 0.0)


def test_world_json_roundtrip():
    w = envs.make_world(2, seed=9)
    doc = {"size": w.size, "level": w.level, "seed": w.seed}
    doc.update(start=w.start.tolist(), goal=w.goal.tolist(), hazards=w.hazards.tolist())
    w2 = envs.World.from_json(json.dumps(doc))
    assert w2.size == w.size and w2.level == w.level and w2.seed == w.seed
    assert np.array_equal(w2.hazards, w.hazards)
    assert np.array_equal(w2.start, w.start)
    assert np.array_equal(w2.goal, w.goal)


WORLD_DOC = {"size": 4.0, "hazards": [], "start": [0.5, 0.5], "goal": [3.5, 3.5], "level": 1, "seed": None}


@pytest.mark.parametrize(
    "doc, match",
    [
        ({"size": 4.0, "hazards": []}, "no 'start' entry"),
        ([4.0], "malformed world"),
        ({"size": [4.0]}, "malformed"),
        ({**WORLD_DOC, "level": 1.5}, "'level' is invalid: 1.5"),
        ({**WORLD_DOC, "level": True}, "'level' is invalid: true"),
        ({**WORLD_DOC, "seed": 2.5}, "'seed' is invalid: 2.5"),
        ({**WORLD_DOC, "seed": "7"}, "'seed' is invalid"),
        ({**WORLD_DOC, "start": [0.5]}, r"'start' is invalid: \[0.5\]"),
        ({**WORLD_DOC, "goal": [3.5, 3.5, 0.0]}, "'goal' is invalid"),
        ({**WORLD_DOC, "goal": [3.5, float("nan")]}, "'goal' is invalid"),
        ({**WORLD_DOC, "size": 0.0}, "'size' is invalid: 0.0"),
        ({**WORLD_DOC, "size": float("inf")}, "'size' is invalid: Infinity"),
        ({**WORLD_DOC, "hazards": [[1, 2], [3, 1.5], [2.5, 0.2]]}, r"'hazards' is invalid: \[\[1, 2\]"),
        ({**WORLD_DOC, "hazards": [1, 2, 3, 1.5, 2.5, 0.2]}, "'hazards' is invalid"),
        ({**WORLD_DOC, "hazards": [2, 2, 0.3]}, "'hazards' is invalid"),
        ({**WORLD_DOC, "hazards": [[2, 2, 0.3], [1, 1]]}, "'hazards' is invalid"),
        ({**WORLD_DOC, "hazards": [[2, float("nan"), 0.3]]}, "'hazards' is invalid"),
        ({**WORLD_DOC, "hazards": [[2, 2, float("nan")]]}, "'hazards' is invalid"),
        ({**WORLD_DOC, "hazards": [[2, 2, float("inf")]]}, "'hazards' is invalid"),
        ({**WORLD_DOC, "hazards": [[2, 2, -0.3]]}, r"'hazards' is invalid: \[\[2, 2, -0.3\]\]"),
        ({**WORLD_DOC, "hazards": [["2", "2", "0.3"]]}, "'hazards' is invalid"),
        ({**WORLD_DOC, "hazards": [[2, 2, True]]}, "'hazards' is invalid"),
        ({**WORLD_DOC, "hazards": [[]]}, "'hazards' is invalid"),
        ({**WORLD_DOC, "hazards": None}, "'hazards' is invalid: null"),
    ],
    ids=[
        "without-start", "not-an-object", "list-size", "fractional-level", "boolean-level", "fractional-seed",
        "string-seed", "one-coordinate-start", "three-coordinate-goal", "nan-goal", "zero-size", "infinite-size",
        "two-coordinate-hazards", "flat-hazard-list", "one-flat-hazard", "ragged-hazards", "nan-hazard-centre",
        "nan-hazard-radius", "infinite-hazard-radius", "negative-hazard-radius", "string-hazard", "boolean-hazard",
        "empty-hazard-row", "null-hazards",
    ],
)
def test_world_from_json_rejects_malformed_documents(doc, match):
    with pytest.raises(ValueError, match=match):
        envs.World.from_json(json.dumps(doc))


def test_world_from_json_reads_no_hazards_as_an_empty_table():
    for hazards in ([], [[2, 2, 0]]):
        world = envs.World.from_json(json.dumps({**WORLD_DOC, "hazards": hazards}))
        assert world.hazards.dtype == float and world.hazards.shape == (len(hazards), 3)
        assert not envs.in_hazard([0.5, 0.5], world)


def test_make_world_rejects_bad_level():
    with pytest.raises(ValueError):
        envs.make_world(4, seed=0)


@pytest.mark.parametrize("kind", list(RobotKind))
def test_layout_table_agrees_with_dynamics(kind):
    n_head = 2 * envs.HAS_HEADING[kind]
    limits = np.array(envs.SPEED_LIMITS[kind])
    s = envs.initial_state(kind, heading=0.7)
    assert s.intrinsic.size == envs.intrinsic_dim(kind) == n_head + limits.size
    assert envs.feature_row(kind, s, [1.0, 2.0]).shape == (envs.feature_dim(kind),)
    assert np.flatnonzero(envs.sink_mask(kind)).tolist() == list(range(2, 2 + n_head))
    assert np.all(np.isin(envs.sink_mask(kind), [0.0, 1.0]))
    # full throttle either way saturates every speed at exactly its limit
    for sign in (1.0, -1.0):
        t = s
        for _ in range(50):
            t = envs.step(kind, t, [sign, sign])
        assert np.array_equal(t.intrinsic[n_head:], sign * limits)
    # random driving stays inside the sublevel search box, on the unit circle
    lo, hi = monitor.state_box(kind, 3.0)
    rng = np.random.default_rng(4)
    for _ in range(300):
        s = envs.step(kind, s, rng.uniform(-1.0, 1.0, size=envs.ACTION_DIM))
        assert np.all((lo[2:] <= s.intrinsic) & (s.intrinsic <= hi[2:]))
        if n_head:
            assert s.intrinsic[0] ** 2 + s.intrinsic[1] ** 2 == pytest.approx(1.0)
