"""RRT over the 2D plane with exact segment-disc collision checks; a plan is
the grown tree's root-to-goal chain."""

import json
from dataclasses import asdict, dataclass

import numpy as np

from . import envs


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


def plan_path(world, cfg=None, seed=0):
    """Start-to-goal waypoint path: grow a collision-free RRT from world.start
    until a node can connect the final goal, then return that node's
    root-to-node chain followed by the goal. Raises PlanNotFound after
    cfg.max_iters samples."""
    cfg = cfg or PlannerConfig.for_world(world)
    rng = np.random.default_rng(seed)
    goal = np.asarray(world.goal, dtype=float)
    # node coordinates as two contiguous columns for the nearest-node search
    xs, ys = np.empty((2, cfg.max_iters + 1))
    xs[0], ys[0] = world.start
    parents = [-1]  # parent index per node; node 0 is the start
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
        dist = d[nearest]
        if dist == 0.0:
            continue
        base = np.array([xs[nearest], ys[nearest]])
        new = sample if dist <= cfg.step_size else base + (sample - base) * (cfg.step_size / dist)
        if not segment_free(base, new, world, cfg.margin):
            continue
        parents.append(nearest)
        xs[n], ys[n] = new
        n += 1
        if envs.distance(new, goal) <= cfg.goal_tol and segment_free(new, goal, world, cfg.margin):
            chain = [n - 1]
            while parents[chain[-1]] != -1:
                chain.append(parents[chain[-1]])
            chain.reverse()
            return np.vstack([np.column_stack([xs[chain], ys[chain]]), goal])
    raise PlanNotFound(f"no path after {cfg.max_iters} iterations")


def path_to_json(path, cfg, seed):
    return json.dumps(
        {
            "waypoints": np.asarray(path).tolist(),
            "planner": asdict(cfg),
            "seed": seed,
        }
    )
