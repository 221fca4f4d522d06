"""Runtime safety monitor: certified circle over-approximations of regions of
attraction, a precomputed level-to-radius lookup table, and per-step sink
selection along a planned path.

The value function V is consumed through a small duck-typed interface:
``value(X) -> (n,)`` and ``grad(X) -> (n, dim)`` over goal-conditioned states,
with the first two state components being the goal vector.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from . import envs, planner


class InfeasibleLevelError(RuntimeError):
    """No optimization start ended inside the requested sublevel set."""


class LevelExceededError(RuntimeError):
    """Queried level lies above the largest table key; no certificate exists."""


class MonitorStall(RuntimeError):
    """No candidate sink admits a hazard-clear certified circle."""


@dataclass
class SearchConfig:
    beta: float = 1e3  # penalty weight keeping iterates inside the sublevel set
    n_starts: int = 64
    n_steps: int = 200
    step_init: float = 0.2  # normalized-gradient step sizes, geometric decay
    step_final: float = 1e-3
    feas_tol: float = 1e-4  # slack on V <= C when harvesting feasible points


def heading_projection(kind):
    """Projection keeping heading components on the unit circle, or None for
    robots without a heading. Without it the sublevel search wanders into
    off-manifold states (non-unit headings) that inflate every radius."""
    if envs.intrinsic_dim(kind) == 0:
        return None

    def project(pts):
        norms = np.linalg.norm(pts[:, 2:4], axis=1, keepdims=True)
        pts[:, 2:4] /= np.maximum(norms, 1e-9)
        return pts

    return project


def _ascend(value_fn, grad_fn, levels, box, cfg, rng, project=None):
    """Penalized multi-start ascent of |d_g| constrained to V <= level.

    levels is one level constant per chain. Returns the best feasible |d_g|
    per chain (NaN where a chain never visited the sublevel set). ``project``
    is applied after every step to keep iterates on the state manifold.
    """
    lo, hi = np.asarray(box[0], dtype=float), np.asarray(box[1], dtype=float)
    dim = lo.size
    m = levels.size
    pts = rng.uniform(lo, hi, size=(m, dim))
    if project is not None:
        pts = project(pts)
    best = np.full(m, np.nan)
    span = float(np.max(hi - lo))
    eta0 = max(cfg.step_init * span / 4.0, cfg.step_final * 10)
    etas = np.geomspace(eta0, cfg.step_final, cfg.n_steps)
    for eta in etas:
        vals = value_fn(pts)
        dn = np.linalg.norm(pts[:, :2], axis=1)
        feas = vals <= levels + cfg.feas_tol
        improve = feas & (np.isnan(best) | (dn > best))
        best[improve] = dn[improve]
        g = np.zeros_like(pts)
        nz = dn > 1e-12
        g[nz, :2] = pts[nz, :2] / dn[nz, None]
        infeas = vals > levels
        if np.any(infeas):
            g[infeas] -= cfg.beta * grad_fn(pts[infeas])
        norms = np.linalg.norm(g, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        pts = np.clip(pts + eta * g / norms, lo, hi)
        if project is not None:
            pts = project(pts)
    vals = value_fn(pts)
    dn = np.linalg.norm(pts[:, :2], axis=1)
    feas = vals <= levels + cfg.feas_tol
    improve = feas & (np.isnan(best) | (dn > best))
    best[improve] = dn[improve]
    return best


def overapprox_radius(value_fn, grad_fn, level, box, seed=0):
    """Radius of the circle over-approximating the 2D projection of the
    sublevel set {V <= level}, centered at the sink."""
    if level <= 0:
        raise ValueError("level constant must be positive")
    radius = float(batch_radii(value_fn, grad_fn, [level], box, seed=seed)[0])
    if np.isnan(radius):
        raise InfeasibleLevelError(f"no feasible start for level {level}")
    return radius


def batch_radii(value_fn, grad_fn, levels, box, cfg=None, seed=0, project=None):
    """overapprox_radius for many levels in one vectorized run.

    Returns an array with NaN for infeasible levels.
    """
    cfg = cfg or SearchConfig()
    rng = np.random.default_rng(seed)
    levels = np.asarray(levels, dtype=float)
    tiled = np.repeat(levels, cfg.n_starts)
    best = _ascend(value_fn, grad_fn, tiled, box, cfg, rng, project)
    # fmax skips NaN chains and leaves NaN where every chain is; unlike
    # nanmax it does not warn on infeasible levels
    return np.fmax.reduce(best.reshape(levels.size, cfg.n_starts), axis=1)


@dataclass
class RoaLut:
    keys: np.ndarray  # strictly increasing level constants
    radii: np.ndarray  # non-decreasing certified radii
    box: tuple  # (lo, hi) arrays of the searched state box
    search: SearchConfig = field(default_factory=SearchConfig)
    seed: int = 0
    v_digest: str | None = None

    def __post_init__(self):
        self.keys = np.asarray(self.keys, dtype=float)
        self.radii = np.asarray(self.radii, dtype=float)
        if self.radii.shape != self.keys.shape:
            raise ValueError(f"radii have shape {self.radii.shape}, keys {self.keys.shape}")
        if self.keys.size < 2:
            raise ValueError("lookup table needs at least 2 keys")
        if not np.all(np.isfinite(self.keys)):
            raise ValueError("keys must be finite")
        # a negative radius would pass every clearance test
        if not np.all(np.isfinite(self.radii) & (self.radii >= 0.0)):
            raise ValueError("radii must be finite and nonnegative")
        if np.any(np.diff(self.keys) <= 0):
            raise ValueError("keys must be strictly increasing")
        if np.any(np.diff(self.radii) < 0):
            raise ValueError("radii must be non-decreasing")

    def to_json(self):
        return json.dumps(
            {
                "keys": self.keys.tolist(),
                "radii": self.radii.tolist(),
                "box": [np.asarray(self.box[0]).tolist(), np.asarray(self.box[1]).tolist()],
                "search": vars(self.search),
                "seed": self.seed,
                "v_digest": self.v_digest,
            }
        )

    @classmethod
    def from_json(cls, text):
        doc = json.loads(text)
        try:
            return cls(
                keys=np.asarray(doc["keys"]),
                radii=np.asarray(doc["radii"]),
                box=(np.asarray(doc["box"][0]), np.asarray(doc["box"][1])),
                search=SearchConfig(**doc["search"]),
                seed=doc["seed"],
                v_digest=doc["v_digest"],
            )
        except KeyError as exc:
            raise ValueError(f"lookup table JSON has no {exc} entry") from exc
        except (IndexError, TypeError) as exc:
            raise ValueError(f"malformed lookup table JSON: {exc}") from exc


def build_lut(value_fn, grad_fn, level_grid, box, cfg=None, seed=0, v_digest=None, project=None):
    """Precompute radii for a sorted positive level grid.

    Infeasible levels are dropped with a warning; radii are made monotone
    non-decreasing with a running max so the ceiling-rule query is sound
    against per-level optimizer noise.
    """
    level_grid = np.asarray(level_grid, dtype=float)
    if np.any(level_grid <= 0) or np.any(np.diff(level_grid) <= 0):
        raise ValueError("level grid must be positive and strictly increasing")
    radii = batch_radii(value_fn, grad_fn, level_grid, box, cfg, seed, project)
    keep = ~np.isnan(radii)
    if keep.sum() < 2:
        raise InfeasibleLevelError("fewer than 2 feasible levels in the grid")
    if not keep.all():
        import warnings

        warnings.warn(f"dropping {int((~keep).sum())} infeasible lookup levels")
    keys = level_grid[keep]
    radii = np.maximum.accumulate(radii[keep])
    return RoaLut(keys=keys, radii=radii, box=box, search=cfg or SearchConfig(), seed=seed, v_digest=v_digest)


def level_grid_from_values(values, n=32, lo_pct=0.1, hi_pct=99.0):
    """Geometric level grid spanning low-to-high percentiles of observed V.

    The low end is deliberately deep (0.1th percentile) so the table's
    smallest certified circle stays small enough to thread tight passages.
    """
    values = np.asarray(values, dtype=float)
    values = values[values > 0]
    if values.size == 0:
        raise ValueError("need positive V samples to build a level grid")
    lo = float(np.percentile(values, lo_pct))
    hi = float(np.percentile(values, hi_pct))
    if not 0 < lo < hi:
        raise ValueError(f"degenerate percentile range [{lo}, {hi}]")
    return np.geomspace(lo, hi, n)


def lut_query(lut, v):
    """Ceiling-rule lookup: radius of the smallest key >= v.

    Levels at or below the smallest key certify with the smallest radius.
    Levels above the largest key (or NaN) have no certificate: a scalar level
    raises, and an array of levels gets NaN in those entries.
    """
    v = np.asarray(v, dtype=float)
    uncertified = ~(v <= lut.keys[-1])
    if v.ndim == 0 and uncertified:
        raise LevelExceededError(f"level {v} exceeds table maximum {lut.keys[-1]}")
    idx = np.minimum(np.searchsorted(lut.keys, v, side="left"), lut.keys.size - 1)
    radii = np.where(uncertified, np.nan, lut.radii[idx])
    return float(radii) if v.ndim == 0 else radii


@dataclass
class SinkChoice:
    pos: np.ndarray
    level: float  # V of the current state under this sink
    radius: float  # certified circle radius (uninflated)
    segment: int
    fraction: float

    @property
    def progress(self):
        return self.segment + self.fraction


@dataclass
class MonitorConfig:
    delta: float = 0.1
    window: int = 2  # path segments searched ahead of the current one
    radius_inflation: float = 1.05  # absorbs optimizer under-estimation
    stall_patience: int = 50

    def __post_init__(self):
        if not 0.0 < self.delta <= 1.0:
            raise ValueError("delta must be in (0, 1]")
        if self.window < 1:
            raise ValueError(f"window must be at least 1 segment, got {self.window}")
        if self.stall_patience < 0:
            raise ValueError(f"stall_patience must be nonnegative, got {self.stall_patience}")
        # below 1 the inflated circle would not cover the certified radius
        if not self.radius_inflation >= 1.0:
            raise ValueError(f"radius_inflation must be at least 1, got {self.radius_inflation}")


class SinkTracker:
    """Steering of a monitored episode: one sink per step along the path.

    The path is tabulated once, when the tracker is built: the candidate
    sinks of every segment, at fractions 0, delta, ..., 1 of it, their path
    progress, the segment endpoints, and each candidate's minimum gap to the
    hazard centres, one minimum per distinct hazard radius. A step costs one
    V call, one table query and one compare of those gaps against the
    inflated certified radii.

    ``target`` selects a sink from the current state. A stall holds the last
    safe sink for cfg.stall_patience steps; past that, or with no sink to
    hold, it raises MonitorStall and the episode stalls. ``advance``
    re-anchors the path segment on the robot's new position.
    """

    def __init__(self, path, world, value_fn, lut, cfg=None):
        self.path = path
        self.world = world
        self.value_fn = value_fn
        self.lut = lut
        self.cfg = cfg or MonitorConfig()
        self.seg_idx = 0
        self.stall = 0
        self.held = None
        n_seg = max(len(path) - 1, 1)
        self.fracs = np.minimum(np.arange(int(np.ceil(1.0 / self.cfg.delta)) + 1) * self.cfg.delta, 1.0)
        self.seg_a = path[:n_seg]
        self.seg_b = path[np.minimum(np.arange(n_seg) + 1, len(path) - 1)]
        self.cands = self.seg_a[:, None] + self.fracs[:, None] * (self.seg_b - self.seg_a)[:, None]
        self.progress = np.arange(n_seg)[:, None] + self.fracs
        # hazards grouped by radius: every hazard of radius rho has the same
        # clearance threshold R * inflation + rho, so the group's nearest
        # centre decides the whole group
        hz = world.hazards[np.argsort(world.hazards[:, 2], kind="stable")]
        self.rhos, rho_starts = np.unique(hz[:, 2], return_index=True)
        # np.linalg.norm(hz[:, :2] - cands[:, :, None], axis=3) on coordinate
        # columns, in place: the same bits with a third of the temporaries
        dx = hz[:, 0] - self.cands[:, :, 0, None]
        dy = hz[:, 1] - self.cands[:, :, 1, None]
        dx *= dx
        dy *= dy
        dx += dy
        self.gaps = np.minimum.reduceat(np.sqrt(dx, out=dx), rho_starts, axis=2)

    def select(self, state, seg_idx):
        """Farthest safe sink among the candidates of segments seg_idx to
        seg_idx + cfg.window - 1.

        A candidate is safe when its inflated certified circle clears every
        hazard; among safe candidates the farthest path progress wins, ties
        broken by the larger certified radius, then by the earlier segment and
        fraction. (Radius-first selection livelocks in tight passages: the
        already-traversed open space behind the robot always admits a larger
        circle than the passage ahead, so the monitor would keep sending the
        robot backward.) Raises MonitorStall when nothing is safe.

        The robot position is taken to be hazard-free and is not checked here:
        ``harness.run_episode`` ends an episode at its first in-hazard step,
        and the planner raises PlanNotFound for a start inside a hazard.
        """
        n_seg = len(self.seg_a)
        lo = min(seg_idx, n_seg - 1)
        hi = min(lo + self.cfg.window, n_seg)
        cands = self.cands[lo:hi].reshape(-1, 2)
        levels = self.value_fn(envs.goal_condition(state, cands))
        radii = lut_query(self.lut, levels)
        gaps = self.gaps[lo:hi].reshape(len(cands), self.rhos.size)
        safe = ~np.isnan(radii) & np.all(gaps >= (radii * self.cfg.radius_inflation)[:, None] + self.rhos, axis=1)
        if not safe.any():
            raise MonitorStall(f"no safe sink in window at segment {lo}")
        progress = self.progress[lo:hi].ravel()
        idx = np.flatnonzero(safe)
        farthest = idx[progress[idx] == progress[idx].max()]
        i = farthest[np.argmax(radii[farthest])]
        seg, j = divmod(int(i), self.fracs.size)
        return SinkChoice(cands[i].copy(), float(levels[i]), float(radii[i]), lo + seg, float(self.fracs[j]))

    def target(self, state):
        try:
            choice = self.select(state, self.seg_idx)
            self.stall = 0
        except MonitorStall:
            self.stall += 1
            if self.held is None or self.stall > self.cfg.stall_patience:
                raise
            choice = self.held
        self.held = choice
        self.seg_idx = max(self.seg_idx, choice.segment)
        return choice.pos

    def advance(self, state):
        """Move seg_idx to the nearest of segments seg_idx to seg_idx +
        cfg.window (the earliest on ties)."""
        hi = min(self.seg_idx + self.cfg.window + 1, len(self.seg_a))
        d = planner.point_segment_distance(state.pos, self.seg_a[self.seg_idx : hi], self.seg_b[self.seg_idx : hi])
        self.seg_idx += int(np.argmin(d))


def state_box(kind, reach):
    """Search box for the sublevel-set ascent: goal vector within +-reach,
    intrinsic components within their dynamic ranges."""
    if kind is envs.RobotKind.SWEEPING:
        lo = [-reach, -reach]
        hi = [reach, reach]
    elif kind is envs.RobotKind.POINT:
        lo = [-reach, -reach, -1.0, -1.0, -envs.POINT_V_MAX]
        hi = [reach, reach, 1.0, 1.0, envs.POINT_V_MAX]
    else:
        lo = [-reach, -reach, -1.0, -1.0, -envs.CAR_WHEEL_V_MAX, -envs.CAR_WHEEL_V_MAX]
        hi = [reach, reach, 1.0, 1.0, envs.CAR_WHEEL_V_MAX, envs.CAR_WHEEL_V_MAX]
    return (np.array(lo), np.array(hi))

