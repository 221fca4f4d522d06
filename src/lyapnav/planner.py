"""RRT over the 2D plane with exact segment-disc collision checks, plus
root-to-goal path extraction over the grown tree."""

import json
import math
from dataclasses import dataclass

import numpy as np


class PlanNotFound(RuntimeError):
    """The tree never connected the start to the goal region."""


@dataclass
class PlannerConfig:
    # extra clearance beyond the hazard radius; must exceed the monitor's
    # smallest inflated certificate radius or tight passages livelock
    margin: float = 0.2
    step_size: float = 0.25  # scaled with map size by for_world
    goal_bias: float = 0.1
    max_iters: int = 20_000
    goal_tol: float = 0.25

    @classmethod
    def for_world(cls, world):
        scale = world.size / 4.0
        return cls(step_size=0.25 * scale, goal_tol=0.25 * scale)


@dataclass
class Tree:
    points: list  # list of (2,) arrays; node 0 is the start
    parents: list  # parent index per node; -1 for the root
    goal_node: int | None = None  # node whose segment to the goal is clear


def point_segment_distance(p, a, b):
    """Exact distance from point p to segment [a, b], broadcast over leading
    axes: many points against one segment, or one point against many."""
    p, a, b = np.asarray(p, dtype=float), np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    # on coordinate columns, the operations of clip(sum((p - a) * ab) /
    # sum(ab * ab), 0, 1) and norm(p - (a + t * ab), axis=-1) in their order,
    # so the result is theirs bit for bit without their per-call overhead
    px, py, ax, ay = p[..., 0], p[..., 1], a[..., 0], a[..., 1]
    abx = b[..., 0] - ax
    aby = b[..., 1] - ay
    denom = abx * abx + aby * aby
    t = (px - ax) * abx + (py - ay) * aby
    t = np.minimum(np.maximum(t / np.where(denom == 0.0, 1.0, denom), 0.0), 1.0)
    ex = px - (ax + t * abx)
    ey = py - (ay + t * aby)
    return np.sqrt(ex * ex + ey * ey)


def segment_free(p, q, world, margin):
    """True iff the segment keeps strictly more than radius+margin clearance
    from every hazard center."""
    if margin < 0:
        raise ValueError("margin must be nonnegative")
    hz = world.hazards
    return bool((point_segment_distance(hz[:, :2], p, q) > hz[:, 2] + margin).all())


def rrt_build(world, cfg=None, seed=0):
    """Grow a collision-free tree from world.start until it can connect the
    final goal, or raise PlanNotFound after cfg.max_iters samples."""
    cfg = cfg or PlannerConfig.for_world(world)
    rng = np.random.default_rng(seed)
    start = np.asarray(world.start, dtype=float)
    goal = np.asarray(world.goal, dtype=float)
    tree = Tree(points=[start], parents=[-1])
    # node coordinates as two contiguous columns for the nearest-node search
    xs, ys = np.empty((2, cfg.max_iters + 1))
    xs[0], ys[0] = start
    n = 1
    for _ in range(cfg.max_iters):
        if rng.random() < cfg.goal_bias:
            sample = goal.copy()
        else:
            sample = rng.uniform(0.0, world.size, size=2)
        dx = xs[:n] - sample[0]
        dy = ys[:n] - sample[1]
        d = np.sqrt(dx * dx + dy * dy)
        nearest = int(d.argmin())
        base = tree.points[nearest]
        dist = d[nearest]
        if dist == 0.0:
            continue
        new = sample if dist <= cfg.step_size else base + (sample - base) * (cfg.step_size / dist)
        if not segment_free(base, new, world, cfg.margin):
            continue
        tree.points.append(new.copy())
        tree.parents.append(nearest)
        xs[n], ys[n] = new
        n += 1
        # sqrt of the dot product is np.linalg.norm of a vector exactly
        to_goal = new - goal
        if math.sqrt(to_goal.dot(to_goal)) <= cfg.goal_tol and segment_free(new, goal, world, cfg.margin):
            tree.goal_node = n - 1
            return tree
    raise PlanNotFound(f"no path after {cfg.max_iters} iterations")


def extract_path(tree, world):
    """Start-to-goal waypoint path: the tree's unique root-to-goal-node chain,
    followed by the goal itself."""
    if tree.goal_node is None:
        raise PlanNotFound("tree does not reach the goal region")
    path = [np.asarray(world.goal, dtype=float)]
    u = tree.goal_node
    while u != -1:
        path.append(tree.points[u])
        u = tree.parents[u]
    path.reverse()
    return np.array(path)


def plan_path(world, cfg=None, seed=0):
    cfg = cfg or PlannerConfig.for_world(world)
    tree = rrt_build(world, cfg, seed)
    return extract_path(tree, world)


def path_to_json(path, cfg, seed):
    return json.dumps(
        {
            "waypoints": np.asarray(path).tolist(),
            "planner": {
                "margin": cfg.margin,
                "step_size": cfg.step_size,
                "goal_bias": cfg.goal_bias,
                "max_iters": cfg.max_iters,
                "goal_tol": cfg.goal_tol,
            },
            "seed": seed,
        }
    )


def path_from_json(text):
    doc = json.loads(text)
    return np.asarray(doc["waypoints"], dtype=float)
