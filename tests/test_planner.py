"""Waypoint planning: collision predicates, tree growth, path extraction."""

from dataclasses import replace

import numpy as np
import pytest

from lyapnav import envs, planner


def test_point_segment_distance_analytic_cases():
    # oracles computed by hand
    assert planner.point_segment_distance([0, 1], [-1, 0], [1, 0]) == pytest.approx(1.0)
    assert planner.point_segment_distance([2, 1], [-1, 0], [1, 0]) == pytest.approx(np.sqrt(2))
    assert planner.point_segment_distance([0.5, 0], [-1, 0], [1, 0]) == pytest.approx(0.0)
    assert planner.point_segment_distance([3, 4], [0, 0], [0, 0]) == pytest.approx(5.0)
    # the same cases as one array of points against one segment
    d = planner.point_segment_distance([[0, 1], [2, 1], [0.5, 0]], [-1, 0], [1, 0])
    assert d == pytest.approx([1.0, np.sqrt(2), 0.0])
    # and one point against an array of segments, the last of zero length
    d = planner.point_segment_distance([3, 4], [[-1, 4], [0, 0]], [[1, 4], [0, 0]])
    assert d == pytest.approx([2.0, 5.0])


def test_point_segment_distance_matches_dense_sampling():
    # oracle: dense sampling along the segment
    rng = np.random.default_rng(0)
    for _ in range(50):
        p, a, b = rng.normal(size=(3, 2))
        ts = np.linspace(0, 1, 2001)
        pts = a + ts[:, None] * (b - a)
        dense = np.min(np.linalg.norm(pts - p, axis=1))
        assert planner.point_segment_distance(p, a, b) == pytest.approx(dense, abs=1e-3)


def test_point_segment_distance_broadcast_equals_row_calls():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(40, 2))
    a, b = rng.normal(size=(2, 2))
    rows = [planner.point_segment_distance(p, a, b) for p in pts]
    assert np.array_equal(planner.point_segment_distance(pts, a, b), rows)
    a_s, b_s = rng.normal(size=(2, 40, 2))
    b_s[7] = a_s[7]  # zero-length segment
    rows = [planner.point_segment_distance(pts[0], a_, b_) for a_, b_ in zip(a_s, b_s)]
    assert np.array_equal(planner.point_segment_distance(pts[0], a_s, b_s), rows)
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
        cfg = planner.PlannerConfig.for_world(world)
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
    cfg = planner.PlannerConfig.for_world(world)
    cfg.max_iters = 3000
    with pytest.raises(planner.PlanNotFound):
        planner.plan_path(world, cfg, seed=0)


def test_start_inside_hazard_raises_plan_not_found():
    # no segment out of a hazard-covered start is clear, so the tree never
    # grows; the monitor's sink selection relies on this
    world = envs.empty_world()
    world.hazards = np.array([[0.6, 0.5, 0.2]])
    cfg = replace(planner.PlannerConfig.for_world(world), max_iters=500)
    with pytest.raises(planner.PlanNotFound):
        planner.plan_path(world, cfg, seed=0)


def test_plan_deterministic_per_seed():
    world = envs.make_world(1, seed=5)
    p1 = planner.plan_path(world, seed=11)
    p2 = planner.plan_path(world, seed=11)
    assert np.array_equal(p1, p2)


def test_extract_path_is_root_to_goal_chain():
    # hand-built tree: start -> A -> B with goal connection at B
    tree = planner.Tree(
        points=[np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([2.0, 0.0])],
        parents=[-1, 0, 1],
        goal_node=2,
    )
    world = envs.empty_world()
    world.goal = np.array([3.0, 0.0])
    path = planner.extract_path(tree, world)
    assert np.allclose(path, [[0, 0], [1, 0], [2, 0], [3, 0]])


def test_path_json_roundtrip():
    world = envs.make_world(1, seed=2)
    cfg = planner.PlannerConfig.for_world(world)
    path = planner.plan_path(world, cfg, seed=2)
    text = planner.path_to_json(path, cfg, seed=2)
    assert np.allclose(planner.path_from_json(text), path)
