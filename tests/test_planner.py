"""Waypoint planning: collision predicates and the planned paths."""

import hashlib
import json

import numpy as np
import pytest

from lyapnav import envs, harness, planner
from test_oracles import oracle_point_segment_distance


def foot_distance(p, a, b):
    """planner.foot_distance from the point p to the segment from a to b."""
    return planner.foot_distance(float(p[0]), float(p[1]), planner.segment(*map(float, (*a, *b))))


# segment_free's distance, planner.foot_distance, against hand-computed and
# densely sampled distances; tests/test_oracles.py checks it bit for bit
# against the numpy oracle


def test_point_segment_distance_analytic_cases():
    # oracles computed by hand
    assert foot_distance([0, 1], [-1, 0], [1, 0]) == pytest.approx(1.0)
    assert foot_distance([2, 1], [-1, 0], [1, 0]) == pytest.approx(np.sqrt(2))
    assert foot_distance([0.5, 0], [-1, 0], [1, 0]) == pytest.approx(0.0)
    assert foot_distance([3, 4], [0, 0], [0, 0]) == pytest.approx(5.0)
    # the same cases as a list of points against one segment
    d = [foot_distance(p, [-1, 0], [1, 0]) for p in [[0, 1], [2, 1], [0.5, 0]]]
    assert d == pytest.approx([1.0, np.sqrt(2), 0.0])
    # and one point against a list of segments, the last of zero length
    d = [foot_distance([3, 4], a, b) for a, b in zip([[-1, 4], [0, 0]], [[1, 4], [0, 0]])]
    assert d == pytest.approx([2.0, 5.0])


def test_point_segment_distance_matches_dense_sampling():
    # oracle: dense sampling along the segment
    rng = np.random.default_rng(0)
    for _ in range(50):
        p, a, b = rng.normal(size=(3, 2))
        ts = np.linspace(0, 1, 2001)
        pts = a + ts[:, None] * (b - a)
        dense = np.min(np.linalg.norm(pts - p, axis=1))
        assert foot_distance(p, a, b) == pytest.approx(dense, abs=1e-3)


def test_point_segment_distance_broadcast_equals_row_calls():
    # the numpy oracle broadcasts over points and over segments
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(40, 2))
    a, b = rng.normal(size=(2, 2))
    rows = [oracle_point_segment_distance(p, a, b) for p in pts]
    assert np.array_equal(oracle_point_segment_distance(pts, a, b), rows)
    a_s, b_s = rng.normal(size=(2, 40, 2))
    b_s[7] = a_s[7]  # zero-length segment
    rows = [oracle_point_segment_distance(pts[0], a_, b_) for a_, b_ in zip(a_s, b_s)]
    assert np.array_equal(oracle_point_segment_distance(pts[0], a_s, b_s), rows)
    assert rows[7] == pytest.approx(np.linalg.norm(pts[0] - a_s[7]))


def test_segment_free_strict_clearance():
    world = envs.empty_world()
    world.hazards = np.array([[1.0, 0.5, 0.2]])
    # segment passes at distance 0.5 from the center; margin 0.3 is the
    # boundary and must fail (strict inequality), margin 0.29 passes
    assert not planner.segment_free([0, 0], [2, 0], world, margin=0.3)
    assert planner.segment_free([0, 0], [2, 0], world, margin=0.29)


def test_segment_free_rejects_negative_margin():
    with pytest.raises(ValueError):
        planner.segment_free([0, 0], [1, 0], envs.empty_world(), margin=-0.1)


def test_empty_world_path_near_straight():
    world = envs.empty_world()
    path = planner.plan_path(world, seed=0)
    assert np.allclose(path[0], world.start)
    assert np.allclose(path[-1], world.goal)
    length = np.sum(np.linalg.norm(np.diff(path, axis=0), axis=1))
    direct = np.linalg.norm(world.goal - world.start)
    assert length <= 1.2 * direct


def test_paths_collision_free_on_random_worlds():
    cfg = None
    for seed in range(10):
        world = envs.make_world(1, seed=seed)
        cfg = planner.PlannerConfig()
        path = planner.plan_path(world, cfg, seed=seed)
        for a, b in zip(path[:-1], path[1:]):
            assert planner.segment_free(a, b, world, cfg.margin)


def test_enclosed_goal_raises_plan_not_found():
    world = envs.empty_world()
    g = world.goal
    ring = []
    for theta in np.linspace(0, 2 * np.pi, 24, endpoint=False):
        ring.append([g[0] + 0.45 * np.cos(theta), g[1] + 0.45 * np.sin(theta), 0.2])
    world.hazards = np.array(ring)
    cfg = planner.PlannerConfig()
    cfg.max_iters = 3000
    with pytest.raises(planner.PlanNotFound):
        planner.plan_path(world, cfg, seed=0)


def test_start_inside_hazard_raises_plan_not_found():
    # no segment out of a hazard-covered start is clear, so the tree never
    # grows; the monitor's sink selection relies on this
    world = envs.empty_world()
    world.hazards = np.array([[0.6, 0.5, 0.2]])
    cfg = planner.PlannerConfig(max_iters=500)
    with pytest.raises(planner.PlanNotFound):
        planner.plan_path(world, cfg, seed=0)


def test_plan_deterministic_per_seed():
    world = envs.make_world(1, seed=5)
    p1 = planner.plan_path(world, seed=11)
    p2 = planner.plan_path(world, seed=11)
    assert np.array_equal(p1, p2)


def test_path_json_roundtrip():
    world = envs.make_world(1, seed=2)
    cfg = planner.PlannerConfig()
    path = planner.plan_path(world, cfg, seed=2)
    text = planner.path_to_json(path, cfg, seed=2)
    assert np.array_equal(json.loads(text)["waypoints"], path)


# SHA-256 of plan_path(make_world(level, seed), seed=seed).tobytes(), recorded
# before the planner's geometry moved to coordinate columns. The waypoints
# come from PCG64 draws and elementwise IEEE arithmetic (BLAS enters only
# through the goal-distance comparison), so the digests hold on any machine,
# and any planner change that moves a single bit fails here.
PINNED_PLANS = {
    1: [
        "7d90ba58085b7c7a9050ef5d7c5ce624c04155094259e4a23b15386903eb6f86",
        "6def7f16fee9b18290de85635028eee680c0ac756ffcdd60cd5fa607b4b4b720",
        "f49bea7e091af193d9a750e1332653293eb5defe7ad6f7c071b2ca3381753f33",
        "2dd1d87430b90a834c2fae15dbc290fe89bb57ce16e99b6618cea5f5cec78635",
        "29387f8327e5c03da88a6b549457f8d6764f90a60e820cf68c36ab1cb4a290c6",
        "7650beaef1d454511371ace61ef78d786b8469ce4f82bdda0451376966eb8662",
        "e5737af8f9b1cf5a35bdff5457709d08fd522115436f0cf56f1a00476a4f4482",
        "d24dd100263e048f15f91bed6ad79a51e72b1155aa45b6d87a9eadf80a7323c1",
        "d63d7d62032b57c7c9e5876d50122e3643217ac617db50c2fd8972b44768342f",
        "1417aed80e79c75a1f52c832cfdf535591edab80e9aa1fb57865c393d1b98d84",
    ],
    2: [
        "558e1b92ed6aebf091ebb840f06397f829a9521f214ef2590dfa5211fabbb0be",
        "70a869f5166ee5afe3608d30ec524e69c324f3bc4209f055827a540241844c23",
        "e9000fd100e6f31b63bb3c112ace9efb5645b9cb1c582fbeaac4c96380687610",
        "1a4c968183d84251f257b010666d6558878324f858e9159dfec6f2808c14f3f8",
        "48fc4b990f977c8c3bab96c19bb7806b24e45ac9beb782adffa72934b685d405",
        "7ae9390a703ad4d6f038bda65067c56509ea4745b96b48472bc4396116048e65",
        "f666e4563a4f350a39435ede6a8b5554da63d8143ff3d1059113e0b3cc1aa01f",
        "2cc2bae03a0410735b0a7d161ce4bbf3e9bf6dd0c089e179670b7f39bdb584e4",
        "641a4e18d6e2c1abc2ca3f4eb4be9710dd202105276b385f2e17b4aa3c32af90",
        "d9938e129fa43e08dae079cea8d315b6aee3a0992d66aadd1fa4c1e8dcf8669d",
    ],
    3: [
        "5306e4420878acd027f958f3467e4f7b279b3c7fa4869d58755e738a71d7d1d3",
        "be449dea07d820781bfc27bf4d59e9ec84193851338303acb6da88c48314e141",
        "b364ce9b8859a05e63f5d9da9672951b1f803512a270b34b48563a2cc3224881",
        "af518fbfbf0654736324d2890837033e611698d334d367e374ff334d13631522",
        "522667381dc348b4397c4efd1974080fadab5d21600d3cbac2f7395fd5cf754b",
        "9d751aaf51ba348ea9a6e85f9d05c818da849e16b5e4087f42bcd7b3ae010bb9",
        "69b8a6239bd98f0ae8442aa63db93dba677730e97dfb4f50eb278f1ee169b803",
        "5f97fc75d1d8b2c133f3055591bcd0feb15b7c0606be6e825953c99169d78d15",
        "455fbfa0bfb7fac5c31fa195b6d8371e8a8e9e4961ec51c6bbe4b6ce20d28483",
        "059c3d5831e74494ecf24e9b57d2cf34db038115d44ade6e4a816d39cbb49f01",
    ],
}


# SHA-256 over the concatenated plans of the nav benchmark suites
# (bench/workloads.py): plan_path(make_world(level, ws), seed=ws) with ws =
# harness.episode_world_seed(k, 0) for level 1, k < 64 (nav-l1-point) and
# then level 3, k < 14 (nav-l3-sweeping), recorded before the hazard index
PINNED_SUITE_PLANS = "0437465177b36ac1993a722621f0b9d7673a5e1df0423ac7c0cd9a0cbd2d42d6"


@pytest.mark.parametrize("level", [1, 2, 3])
def test_plans_are_pinned_bit_for_bit(level):
    digests = [
        hashlib.sha256(planner.plan_path(envs.make_world(level, seed), seed=seed).tobytes()).hexdigest()
        for seed in range(10)
    ]
    moved = [seed for seed in range(10) if digests[seed] != PINNED_PLANS[level][seed]]
    assert not moved, f"level {level} plans moved at seeds {moved}"


def test_benchmark_suite_plans_are_pinned_bit_for_bit():
    h = hashlib.sha256()
    for level, suite in ((1, 64), (3, 14)):
        for k in range(suite):
            ws = harness.episode_world_seed(k, 0)
            h.update(planner.plan_path(envs.make_world(level, ws), seed=ws).tobytes())
    assert h.hexdigest() == PINNED_SUITE_PLANS
