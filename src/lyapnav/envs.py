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
from dataclasses import dataclass

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


def _heading_angle(intr):
    return np.arctan2(intr[0], intr[1])


def step(kind, s, a):
    """Advance the dynamics by one Euler step of DT. Actions clamp to [-1, 1]."""
    # np.clip as maximum then minimum; the scalar clamps take the value first
    # so that NaN propagates as it does through np.clip
    a = np.minimum(np.maximum(np.asarray(a, dtype=float), -1.0), 1.0)
    if kind is RobotKind.SWEEPING:
        return PhysState(s.pos + SWEEP_A_MAX * a * DT, s.intrinsic.copy())
    if kind is RobotKind.POINT:
        v = min(max(s.intrinsic[2] + POINT_ACCEL * a[0] * DT, -POINT_V_MAX), POINT_V_MAX)
        theta = _heading_angle(s.intrinsic) + POINT_TURN_RATE * a[1] * DT
        heading = np.array([np.sin(theta), np.cos(theta)])
        pos = s.pos + v * np.array([heading[1], heading[0]]) * DT  # (cos, sin)
        return PhysState(pos, np.array([heading[0], heading[1], v]))
    # car: differential drive
    vl = min(max(s.intrinsic[2] + CAR_WHEEL_ACCEL * a[0] * DT, -CAR_WHEEL_V_MAX), CAR_WHEEL_V_MAX)
    vr = min(max(s.intrinsic[3] + CAR_WHEEL_ACCEL * a[1] * DT, -CAR_WHEEL_V_MAX), CAR_WHEEL_V_MAX)
    v = 0.5 * (vl + vr)
    omega = (vr - vl) / CAR_TRACK_WIDTH
    theta = _heading_angle(s.intrinsic) + omega * DT
    heading = np.array([np.sin(theta), np.cos(theta)])
    pos = s.pos + v * np.array([heading[1], heading[0]]) * DT
    return PhysState(pos, np.array([heading[0], heading[1], vl, vr]))


def goal_condition(s, g):
    """Goal-conditioned state vector [g - pos, intrinsic]; a (k, 2) array of
    goals gives one row per goal."""
    d = np.asarray(g, dtype=float) - s.pos
    if d.ndim == 1:
        return np.concatenate([d, s.intrinsic])
    out = np.empty((d.shape[0], 2 + s.intrinsic.size))
    out[:, :2] = d
    out[:, 2:] = s.intrinsic
    return out


def featurize(kind, x):
    """Policy/critic input features for a goal-conditioned state batch.

    Appends a softened unit goal direction and the goal distance so control
    behavior generalizes across goal ranges: [d_g, d_g/(|d_g|+eps), |d_g|,
    intrinsic]. For robots with a heading the dot and cross products of the
    heading direction with the goal direction are appended as well; these are
    the polar coordinates of the classic parking control law. The Lyapunov
    value function keeps the raw state.
    """
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    x2 = x[None] if squeeze else x
    d = x2[:, :2]
    dx, dy = x2[:, 0:1], x2[:, 1:2]
    n = np.sqrt(dx * dx + dy * dy)  # np.linalg.norm(d, axis=1, keepdims=True)
    dhat = d / (n + 0.05)
    cols = [d, dhat, n, x2[:, 2:]]
    if HAS_HEADING[kind]:
        # motion direction (cos t, sin t)
        hx, hy = x2[:, COS], x2[:, SIN]
        align = hx * dhat[:, 0] + hy * dhat[:, 1]
        cross = hx * dhat[:, 1] - hy * dhat[:, 0]
        cols += [align[:, None], cross[:, None]]
    out = np.concatenate(cols, axis=1)
    return out[0] if squeeze else out


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


def reward(g, s_t, s_next, world):
    """Progress toward the goal (previous distance minus new distance), less
    HAZARD_PENALTY when s_next is inside a hazard of ``world``."""
    r = distance(g, s_t.pos) - distance(g, s_next.pos)
    if in_hazard(s_next.pos, world):
        r -= HAZARD_PENALTY
    return r


@dataclass
class World:
    size: float
    hazards: np.ndarray  # (n, 3) rows of (cx, cy, radius); may be empty
    start: np.ndarray
    goal: np.ndarray
    level: int = 0
    seed: int | None = None

    @classmethod
    def from_json(cls, text):
        doc = json.loads(text)
        try:
            return cls(
                size=float(doc["size"]),
                hazards=np.asarray(doc["hazards"], dtype=float).reshape(-1, 3),
                start=np.asarray(doc["start"], dtype=float),
                goal=np.asarray(doc["goal"], dtype=float),
                level=int(doc["level"]),
                seed=doc["seed"],
            )
        except KeyError as exc:
            raise ValueError(f"world JSON has no {exc} entry") from exc
        except TypeError as exc:
            raise ValueError(f"malformed world JSON: {exc}") from exc


def empty_world(size=4.0):
    return World(
        size=size,
        hazards=np.zeros((0, 3)),
        start=np.array([0.5, 0.5]),
        goal=np.array([size - 0.5, size - 0.5]),
    )


def in_hazard(p, world):
    """Closed-disk membership: the boundary counts as a violation."""
    if len(world.hazards) == 0:
        return False
    p = np.asarray(p, dtype=float)
    hz = world.hazards
    dx = hz[:, 0] - p[0]
    dy = hz[:, 1] - p[1]
    return bool((np.sqrt(dx * dx + dy * dy) <= hz[:, 2]).any())


def hazard_observation(s, world):
    """Vectors toward the HAZARD_OBS_DIM / 2 nearest hazard centers, nearest
    first, zero-padded."""
    obs = np.zeros(HAZARD_OBS_DIM)
    n = len(world.hazards)
    if n == 0:
        return obs
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
