"""RRT over the 2D plane with exact segment-disc collision checks; a plan is
the grown tree's root-to-goal chain.

A clearance check tests only the hazards that the world's envs.HazardIndex
finds near the segment, in Python floats. The samples and the steering
step are Python float arithmetic on PCG64 doubles drawn DRAW_BLOCK at a
time; only the nearest-node search runs in numpy. Plans are bit for bit
those of numpy's per-sample draws and all-hazards scan."""

import json
import math
from dataclasses import asdict, dataclass
from typing import ClassVar

import numpy as np

from . import envs


DRAW_BLOCK = 64  # PCG64 doubles plan_path draws per rng.random call


class PlanNotFound(RuntimeError):
    """The tree never connected the start to the goal region."""


@dataclass
class PlannerConfig:
    """The planner's one setting: class constants bar the iteration cap."""

    # extra clearance beyond the hazard radius. It must exceed the monitor's
    # smallest inflated certificate radius, radii[0] * radius_inflation, or
    # tight passages livelock; the cached point and car tables do not meet
    # that requirement, and build-lut flags each table that does not
    margin: ClassVar[float] = 0.2
    goal_bias: ClassVar[float] = 0.1
    max_iters: int = 20_000


def segment(ax, ay, bx, by):
    """The segment from a to b as (ax, ay, abx, aby, denom): its start, its
    direction ab = b - a and |ab|^2, taken as 1.0 for a zero-length segment."""
    abx = bx - ax
    aby = by - ay
    denom = abx * abx + aby * aby
    return ax, ay, abx, aby, 1.0 if denom == 0.0 else denom


def foot_distance(x, y, seg):
    """Distance from (x, y) to the foot a + t * ab on ``segment``'s seg, with
    t = clip(((x, y) - a) . ab / denom, 0, 1), in Python floats, which round
    as float64 does."""
    ax, ay, abx, aby, denom = seg
    t = min(max(((x - ax) * abx + (y - ay) * aby) / denom, 0.0), 1.0)
    ex = x - (ax + t * abx)
    ey = y - (ay + t * aby)
    return math.sqrt(ex * ex + ey * ey)


def segment_free(p, q, world, margin):
    """True iff the segment keeps strictly more than radius+margin clearance
    from every hazard center.

    Only the hazards that world.hazard_index() finds near the segment's
    bounding box, grown by the largest radius + margin, are tested, each by
    its foot_distance. The first blocking hazard ends the test."""
    if margin < 0:
        raise ValueError("margin must be nonnegative")
    px, py, qx, qy = float(p[0]), float(p[1]), float(q[0]), float(q[1])
    seg = segment(px, py, qx, qy)
    # a NaN coordinate falls through both orderings into the box, where the
    # index answers it with every hazard
    x0, x1 = (px, qx) if px <= qx else (qx, px)
    y0, y1 = (py, qy) if py <= qy else (qy, py)
    index = world.hazard_index()
    for cx, cy, r in index.near(x0, y0, x1, y1, index.reach + margin):
        if not foot_distance(cx, cy, seg) > r + margin:
            return False
    return True


def _uniforms(rng):
    """rng.random()'s doubles, one at a time, drawn DRAW_BLOCK at a call."""
    while True:
        yield from rng.random(DRAW_BLOCK).tolist()


def plan_path(world, cfg=None, seed=0):
    """Start-to-goal waypoint path: grow a collision-free RRT from world.start
    until a node can connect the final goal, then return that node's
    root-to-node chain followed by the goal. Raises PlanNotFound after
    cfg.max_iters samples.

    The samples take the doubles of default_rng(seed).random() in order: one
    for the goal bias, then, unless it picks the goal, x and y as
    rng.uniform(0.0, world.size) makes them, 0.0 + size * u."""
    cfg = cfg or PlannerConfig()
    margin, goal_bias = cfg.margin, cfg.goal_bias
    step = tol = 0.25 * (world.size / 4.0)  # steering step and goal tolerance
    uniform = _uniforms(np.random.default_rng(seed)).__next__
    goal = np.asarray(world.goal, dtype=float)
    gx, gy = goal.tolist()
    size = float(world.size)
    # node coordinates as two contiguous columns for the nearest-node search
    xs, ys = np.empty((2, cfg.max_iters + 1))
    xs[0], ys[0] = world.start
    parents = [-1]  # parent index per node; node 0 is the start
    n = 1
    for _ in range(cfg.max_iters):
        if uniform() < goal_bias:
            sx, sy = gx, gy
        else:
            sx = 0.0 + size * uniform()
            sy = 0.0 + size * uniform()
        dx = xs[:n] - sx
        dy = ys[:n] - sy
        d = np.sqrt(dx * dx + dy * dy)
        nearest = int(d.argmin())
        dist = float(d[nearest])
        if dist == 0.0:
            continue
        bx, by = float(xs[nearest]), float(ys[nearest])
        if dist <= step:
            nx, ny = sx, sy
        else:
            f = step / dist
            nx, ny = bx + (sx - bx) * f, by + (sy - by) * f
        if not segment_free((bx, by), (nx, ny), world, margin):
            continue
        parents.append(nearest)
        xs[n], ys[n] = nx, ny
        n += 1
        if envs.distance(np.array([nx, ny]), goal) <= tol and segment_free((nx, ny), goal, world, margin):
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
