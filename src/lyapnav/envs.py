"""Analytic 2D robot dynamics, goal conditioning, the reward, and hazard worlds.

Three robot kinds share a 2D position. The intrinsic (goal-independent) state
differs per kind, and HAS_HEADING and SPEED_LIMITS say how:
  sweeping: none (single integrator on position)
  point:    heading unit vector (sin, cos) and forward speed
  car:      heading unit vector and left/right wheel speeds
All dynamics are Euler-integrated at the fixed step DT and deterministic.
"""

import enum
import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

DT = 0.1
ACTION_DIM = 2  # every robot takes two actions in [-1, 1]
SWEEP_A_MAX = 1.0
POINT_ACCEL = 2.0
POINT_TURN_RATE = 4.0
POINT_V_MAX = 0.5
CAR_WHEEL_ACCEL = 1.0
CAR_WHEEL_V_MAX = 1.0
CAR_TRACK_WIDTH = 0.4

HAZARD_RADIUS = 0.2
START_GOAL_CLEARANCE = 0.3  # extra clearance beyond the hazard radius
REACH_TOL = 0.1  # goal (and waypoint) reach distance in training and evaluation
HAZARD_PENALTY = 10.0  # reward subtracted per step that ends inside a hazard
HAZARD_OBS_DIM = 16  # e2e observation: (dx, dy) toward each of the 8 nearest hazards
# A HazardIndex sorts the hazards inside [-INDEX_LIMIT, INDEX_LIMIT]^2 and
# answers queries inside it; INDEX_SLACK is what it adds to every query's reach
INDEX_LIMIT = 2.0**16
INDEX_SLACK = 1e-9

# level -> (map side length, hazard count)
LEVELS = {1: (4.0, 8), 2: (8.0, 32), 3: (16.0, 128)}


class RobotKind(enum.Enum):
    SWEEPING = "sweeping"
    POINT = "point"
    CAR = "car"


# Each robot's intrinsic state: the heading (sin t, cos t) if it has one, then
# one speed per limit, each kept within +-limit by step. In a goal-conditioned
# state [d_g, intrinsic] the heading takes columns SIN and COS.
HAS_HEADING = {RobotKind.SWEEPING: False, RobotKind.POINT: True, RobotKind.CAR: True}
SPEED_LIMITS = {RobotKind.SWEEPING: (), RobotKind.POINT: (POINT_V_MAX,), RobotKind.CAR: (CAR_WHEEL_V_MAX,) * 2}
SIN, COS = 2, 3


def intrinsic_dim(kind):
    return 2 * HAS_HEADING[kind] + len(SPEED_LIMITS[kind])


def state_dim(kind):
    """Dimension of the goal-conditioned state [d_g, intrinsic]."""
    return 2 + intrinsic_dim(kind)


@dataclass
class PhysState:
    pos: np.ndarray
    intrinsic: np.ndarray


def initial_state(kind, pos=(0.0, 0.0), heading=0.0):
    head = [np.sin(heading), np.cos(heading)] if HAS_HEADING[kind] else []
    return PhysState(np.asarray(pos, dtype=float), np.array(head + [0.0] * len(SPEED_LIMITS[kind])))


def step(kind, s, a):
    """Advance the dynamics by one Euler step of DT. Actions clamp to [-1, 1].

    One state is one Python float per coordinate: the clamps and the Euler
    update are float arithmetic, which rounds as numpy's float64 ufuncs do,
    and only the angle goes through numpy's arctan2, sin and cos (whose bits
    differ from the math module's)."""
    # the clamps take the value first, so that NaN propagates as it does
    # through np.clip
    ax, ay = (min(max(u, -1.0), 1.0) for u in np.asarray(a, dtype=float).tolist())
    px, py = s.pos.tolist()
    if kind is RobotKind.SWEEPING:
        return PhysState(np.array([px + SWEEP_A_MAX * ax * DT, py + SWEEP_A_MAX * ay * DT]), s.intrinsic.copy())
    sn, cs, *speeds = s.intrinsic.tolist()
    if kind is RobotKind.POINT:
        v = min(max(speeds[0] + POINT_ACCEL * ax * DT, -POINT_V_MAX), POINT_V_MAX)
        omega = POINT_TURN_RATE * ay
        speeds = [v]
    else:  # car: differential drive
        vl = min(max(speeds[0] + CAR_WHEEL_ACCEL * ax * DT, -CAR_WHEEL_V_MAX), CAR_WHEEL_V_MAX)
        vr = min(max(speeds[1] + CAR_WHEEL_ACCEL * ay * DT, -CAR_WHEEL_V_MAX), CAR_WHEEL_V_MAX)
        v = 0.5 * (vl + vr)
        omega = (vr - vl) / CAR_TRACK_WIDTH
        speeds = [vl, vr]
    theta = np.arctan2(sn, cs) + omega * DT  # both turn as a unicycle of speed v and turn rate omega
    sn, cs = float(np.sin(theta)), float(np.cos(theta))
    return PhysState(np.array([px + v * cs * DT, py + v * sn * DT]), np.array([sn, cs, *speeds]))


def goal_condition(s, g):
    """Goal-conditioned state vector [g - pos, intrinsic], the goal vector
    written straight into it; a (k, 2) array of goals gives one row per goal."""
    g = np.asarray(g, dtype=float)
    out = np.empty(g.shape[:-1] + (2 + s.intrinsic.size,))
    np.subtract(g, s.pos, out=out[..., :2])
    out[..., 2:] = s.intrinsic
    return out


def featurize(kind, x):
    """Policy/critic input features for a 2-D batch of goal-conditioned states.

    Appends a softened unit goal direction and the goal distance so control
    behavior generalizes across goal ranges: [d_g, d_g/(|d_g|+eps), |d_g|,
    intrinsic]. For robots with a heading the dot and cross products of the
    heading direction with the goal direction are appended as well; these are
    the polar coordinates of the classic parking control law. The Lyapunov
    value function keeps the raw state.

    The batch is featurized with numpy ufuncs over its columns; one state's
    row is ``feature_row``'s, which rounds every operation alike.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"featurize takes a 2-D batch of states, got shape {x.shape}")
    d = x[:, :2]
    dx, dy = x[:, 0:1], x[:, 1:2]
    n = np.sqrt(dx * dx + dy * dy)  # np.linalg.norm(d, axis=1, keepdims=True)
    dhat = d / (n + 0.05)
    cols = [d, dhat, n, x[:, 2:]]
    if HAS_HEADING[kind]:
        # motion direction (cos t, sin t)
        hx, hy = x[:, COS], x[:, SIN]
        align = hx * dhat[:, 0] + hy * dhat[:, 1]
        cross = hx * dhat[:, 1] - hy * dhat[:, 0]
        cols += [align[:, None], cross[:, None]]
    return np.concatenate(cols, axis=1)


def feature_row(kind, s, g):
    """featurize's row of goal_condition(s, g) for one goal g, bit for bit,
    from the state's and the goal's Python floats."""
    (gx, gy), (px, py) = np.asarray(g, dtype=float).tolist(), s.pos.tolist()
    x = [gx - px, gy - py, *s.intrinsic.tolist()]
    dx, dy = x[0], x[1]
    n = math.sqrt(dx * dx + dy * dy)
    ux, uy = dx / (n + 0.05), dy / (n + 0.05)
    row = [dx, dy, ux, uy, n, *x[2:]]
    if HAS_HEADING[kind]:
        hx, hy = x[COS], x[SIN]
        row += [hx * ux + hy * uy, hx * uy - hy * ux]
    return np.array(row)


def feature_dim(kind):
    return state_dim(kind) + 3 + 2 * HAS_HEADING[kind]


def sink_mask(kind):
    """0/1 mask over the goal-conditioned state selecting what a sink keeps.

    The sink zeroes the goal vector and every speed component and keeps the
    heading direction; multiplying a goal-conditioned state by this mask gives
    its sink representative.
    """
    mask = np.zeros(state_dim(kind))
    if HAS_HEADING[kind]:
        mask[[SIN, COS]] = 1.0
    return mask


def distance(p, q):
    """Euclidean distance between two 2-vectors. Bit for bit it is
    np.linalg.norm(p - q), which takes the square root of the difference's
    dot product with itself; that dot product is the one place a 2-vector
    distance meets BLAS."""
    d = p - q
    return math.sqrt(d.dot(d))


def reached(p, goal):
    """The one reach rule of training and evaluation: p lies strictly within
    REACH_TOL of goal (a NaN coordinate is never within it)."""
    return distance(p, goal) < REACH_TOL


def reward(g, s_t, s_next, world):
    """Progress toward the goal (previous distance minus new distance), less
    HAZARD_PENALTY when s_next is inside a hazard of ``world``."""
    r = distance(g, s_t.pos) - distance(g, s_next.pos)
    if in_hazard(s_next.pos, world):
        r -= HAZARD_PENALTY
    return r


def number_list(x):
    """Whether a JSON value is a list of numbers (a boolean is not one)."""
    return type(x) is list and all(type(v) in (int, float) for v in x)


@dataclass
class World:
    size: float
    # (n, 3) rows of (cx, cy, radius); may be empty. Replace the array rather
    # than write into it: hazard_index serves the index built from it, and
    # makes it read-only.
    hazards: np.ndarray
    start: np.ndarray
    goal: np.ndarray
    level: int = 0
    seed: int | None = None
    _index: "HazardIndex | None" = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def from_json(cls, text):
        """The world of a JSON document. A missing entry, a size that is not
        finite and positive, hazards that are not a list, possibly empty, of
        finite (cx, cy, radius) number rows with a nonnegative radius, a start
        or goal that is not a finite 2-vector, or a non-integer level or seed
        (the seed may be null) raises ValueError."""
        doc = json.loads(text)
        try:
            size, hazards = float(doc["size"]), doc["hazards"]
            start, goal = (np.asarray(doc[name], dtype=float) for name in ("start", "goal"))
            level, seed = doc["level"], doc["seed"]
        except KeyError as exc:
            raise ValueError(f"world JSON has no {exc} entry") from exc
        except TypeError as exc:
            raise ValueError(f"malformed world JSON: {exc}") from exc
        rows = type(hazards) is list and all(number_list(row) and len(row) == 3 for row in hazards)
        hazards = np.array(hazards if rows else [], dtype=float).reshape(-1, 3)
        for name, ok in (
            ("size", math.isfinite(size) and size > 0),
            ("hazards", rows and np.isfinite(hazards).all() and (hazards[:, 2] >= 0).all()),
            ("start", start.shape == (2,) and np.isfinite(start).all()),
            ("goal", goal.shape == (2,) and np.isfinite(goal).all()),
            ("level", type(level) is int),
            ("seed", seed is None or type(seed) is int),
        ):
            if not ok:
                raise ValueError(f"world JSON entry {name!r} is invalid: {json.dumps(doc[name])}")
        return cls(size, hazards, start, goal, level, seed)

    def hazard_index(self):
        """The HazardIndex of ``hazards``, built on first use and again
        whenever ``hazards`` is replaced by another array."""
        if self._index is None or self._index.hazards is not self.hazards:
            self._index = HazardIndex(self.hazards)
        return self._index


class HazardIndex:
    """A world's hazards sorted by centre x, so that a clearance or
    membership test visits only the hazards near it.

    Hazards whose centre or radius lies outside [-INDEX_LIMIT, INDEX_LIMIT]
    (NaN and infinities included) are not sorted: every query returns
    them. A query box that leaves that square returns every hazard.
    """

    def __init__(self, hazards):
        hazards.flags.writeable = False
        self.hazards = hazards
        self.rows = hazards.tolist()
        inside = [all(abs(v) <= INDEX_LIMIT for v in row) for row in self.rows]
        self.outside = [row for row, ok in zip(self.rows, inside) if not ok]
        self.strip = sorted((row for row, ok in zip(self.rows, inside) if ok), key=lambda row: row[0])
        self.xs = [row[0] for row in self.strip]
        # the largest radius of a sorted hazard, and 0 for none
        self.reach = max([0.0] + [row[2] for row in self.strip])

    def near(self, x0, y0, x1, y1, grow):
        """The (cx, cy, r) rows of every hazard outside the index's square
        and of every hazard whose centre lies in the box [x0, x1] x [y0, y1]
        grown by grow + INDEX_SLACK on each side.

        Two bisections of the sorted centre x values find the rows in the
        grown box's x range, and a test of the centre y keeps those in its y
        range. The grown bounds are computed once per query, grow +
        INDEX_SLACK and then each bound with one rounding apiece, so inside
        INDEX_LIMIT a bound is within 2**-36 of the exact one; every
        difference, foot point and distance that envs.in_hazard and
        planner.segment_free compute is exact to within a few units of
        2**-35. INDEX_SLACK, about 2**-30, is far above both, so a centre
        outside the grown box lies farther than grow from the query box even
        in those rounded distances, and with it farther than any threshold
        grow was taken from. A NaN bound fails the limit test and returns
        every hazard.
        """
        g = grow + INDEX_SLACK
        x0, y0, x1, y1 = x0 - g, y0 - g, x1 + g, y1 + g
        if not (-INDEX_LIMIT <= x0 and -INDEX_LIMIT <= y0 and x1 <= INDEX_LIMIT and y1 <= INDEX_LIMIT):
            return self.rows
        xs = self.xs
        band = self.strip[bisect_left(xs, x0) : bisect_right(xs, x1)]
        return self.outside + [row for row in band if y0 <= row[1] <= y1]


def empty_world():
    """A hazard-free 4 x 4 arena, start and goal half a unit in from opposite
    corners."""
    return World(size=4.0, hazards=np.zeros((0, 3)), start=np.array([0.5, 0.5]), goal=np.array([3.5, 3.5]))


def in_hazard(p, world):
    """Closed-disk membership: the boundary counts as a violation. Only the
    hazards that world.hazard_index() finds within the largest radius of p
    are tested."""
    if len(world.hazards) == 0:
        return False
    px, py = np.asarray(p, dtype=float).tolist()
    index = world.hazard_index()
    for cx, cy, r in index.near(px, py, px, py, index.reach):
        dx = cx - px
        dy = cy - py
        if math.sqrt(dx * dx + dy * dy) <= r:
            return True
    return False


def hazard_observation(s, world):
    """Vectors toward the HAZARD_OBS_DIM / 2 nearest hazard centers, nearest
    first, zero-padded."""
    obs = np.zeros(HAZARD_OBS_DIM)
    vecs = world.hazards[:, :2] - s.pos
    vx, vy = vecs[:, 0], vecs[:, 1]
    order = np.argsort(np.sqrt(vx * vx + vy * vy), kind="stable")[: HAZARD_OBS_DIM // 2]
    obs[: 2 * len(order)] = vecs[order].ravel()
    return obs


class WorldGenerationError(RuntimeError):
    """Hazard sampling could not satisfy the clearance constraints."""


def make_world(level, seed):
    """Random world at the given difficulty level, deterministic per seed."""
    if level not in LEVELS:
        raise ValueError(f"level must be one of {sorted(LEVELS)}, got {level}")
    size, n_hazards = LEVELS[level]
    rng = np.random.default_rng(seed)
    start = np.array([0.5, 0.5])
    goal = np.array([size - 0.5, size - 0.5])
    clearance = HAZARD_RADIUS + START_GOAL_CLEARANCE
    hazards = np.zeros((n_hazards, 3))
    for i in range(n_hazards):
        for _ in range(1000):
            c = rng.uniform(HAZARD_RADIUS, size - HAZARD_RADIUS, size=2)
            if distance(c, start) >= clearance and distance(c, goal) >= clearance:
                hazards[i] = (c[0], c[1], HAZARD_RADIUS)
                break
        else:
            raise WorldGenerationError(f"could not place hazard {i} (seed {seed})")
    return World(size=size, hazards=hazards, start=start, goal=goal, level=level, seed=seed)
