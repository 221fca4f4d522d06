"""Runtime safety monitor: certified circle over-approximations of regions of
attraction, a precomputed level-to-radius lookup table, and per-step sink
selection along a planned path.

The value function V is consumed through a small duck-typed interface:
``value(X) -> (n,)`` and ``grad(X) -> (n, dim)`` over goal-conditioned states,
with the first two state components being the goal vector.
"""

import json
import math
import warnings
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from . import colearn, envs, lyapunov_eval, nn, planner


class InfeasibleLevelError(RuntimeError):
    """No optimization start ended inside the requested sublevel set."""


class LevelExceededError(RuntimeError):
    """Queried level lies above the largest table key; no certificate exists."""


class MonitorStall(RuntimeError):
    """No candidate sink admits a hazard-clear certified circle."""


@dataclass
class SearchConfig:
    """The sublevel search's one setting: class constants bar the chains' count and length."""

    beta: ClassVar[float] = 1e3  # penalty weight keeping iterates inside the sublevel set
    n_starts: int = 64
    n_steps: int = 200
    step_init: ClassVar[float] = 0.2  # normalized-gradient step sizes, geometric decay
    step_final: ClassVar[float] = 1e-3
    feas_tol: ClassVar[float] = 1e-4  # slack on V <= C when harvesting feasible points


def heading_projection(kind):
    """Projection keeping heading components on the unit circle, or None for
    robots without a heading. Without it the sublevel search wanders into
    off-manifold states (non-unit headings) that inflate every radius."""
    if not envs.HAS_HEADING[kind]:
        return None

    def project(pts):
        heading = [envs.SIN, envs.COS]
        norms = np.linalg.norm(pts[:, heading], axis=1, keepdims=True)
        pts[:, heading] /= np.maximum(norms, 1e-9)
        return pts

    return project


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
    """overapprox_radius for many levels in one vectorized run, NaN where no
    chain visited the sublevel set.

    Each level runs cfg.n_starts chains of a penalized ascent of |d_g| under
    V <= level. Every iterate's feasible |d_g| is harvested before the chain
    steps; ``project`` puts stepped iterates back on the state manifold.
    """
    cfg = cfg or SearchConfig()
    rng = np.random.default_rng(seed)
    levels = np.asarray(levels, dtype=float)
    chain_levels = np.repeat(levels, cfg.n_starts)
    lo, hi = np.asarray(box[0], dtype=float), np.asarray(box[1], dtype=float)
    pts = rng.uniform(lo, hi, size=(chain_levels.size, lo.size))
    if project is not None:
        pts = project(pts)
    best = np.full(chain_levels.size, np.nan)
    eta0 = max(cfg.step_init * float(np.max(hi - lo)) / 4.0, cfg.step_final * 10)
    # the final None harvests the last iterates without stepping
    for eta in [*np.geomspace(eta0, cfg.step_final, cfg.n_steps), None]:
        vals = value_fn(pts)
        dn = np.linalg.norm(pts[:, :2], axis=1)
        feas = vals <= chain_levels + cfg.feas_tol
        improve = feas & (np.isnan(best) | (dn > best))
        best[improve] = dn[improve]
        if eta is None:
            break
        g = np.zeros_like(pts)
        nz = dn > 1e-12
        g[nz, :2] = pts[nz, :2] / dn[nz, None]
        infeas = vals > chain_levels
        if np.any(infeas):
            g[infeas] -= cfg.beta * grad_fn(pts[infeas])
        norms = np.linalg.norm(g, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        pts = np.clip(pts + eta * g / norms, lo, hi)
        if project is not None:
            pts = project(pts)
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
        """The table of a JSON document. A missing entry, keys, radii or box
        corners that are not lists of numbers, a search with an unknown
        setting or a setting that is not an integer of at least 1, or a seed
        that is not a nonnegative integer raises ValueError; so does any
        table that the constructor refuses."""
        doc = json.loads(text)
        try:
            keys, radii, box, seed = doc["keys"], doc["radii"], doc["box"], doc["seed"]
            lo, hi = box[0], box[1]
            search, v_digest = SearchConfig(**doc["search"]), doc["v_digest"]
        except KeyError as exc:
            raise ValueError(f"lookup table JSON has no {exc} entry") from exc
        except (IndexError, TypeError) as exc:
            raise ValueError(f"malformed lookup table JSON: {exc}") from exc
        for name, ok in (
            ("keys", envs.number_list(keys)),
            ("radii", envs.number_list(radii)),
            ("box", envs.number_list(lo) and envs.number_list(hi)),
            ("search", all(type(v) is int and v >= 1 for v in vars(search).values())),
            ("seed", type(seed) is int and seed >= 0),
        ):
            if not ok:
                raise ValueError(f"lookup table JSON entry {name!r} is invalid: {json.dumps(doc[name])}")
        return cls(np.asarray(keys), np.asarray(radii), (np.asarray(lo), np.asarray(hi)), search, seed, v_digest)


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
        warnings.warn(f"dropping {int((~keep).sum())} infeasible lookup levels")
    keys = level_grid[keep]
    radii = np.maximum.accumulate(radii[keep])
    return RoaLut(keys=keys, radii=radii, box=box, search=cfg or SearchConfig(), seed=seed, v_digest=v_digest)


def level_grid_from_values(values, n=32, lo_pct=0.1, hi_pct=99.0):
    """Geometric level grid spanning low-to-high percentiles of observed V.

    The low end is deliberately deep (0.1th percentile), yet the cached point
    and car tables' smallest inflated radii, 0.206 and 0.221, exceed
    PlannerConfig.margin = 0.2; build-lut warns about such a table.
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


def build_agent_lut(agent, n_samples, seed):
    """A trained agent's certified table: a level grid from V on n_samples
    on-policy states, searched over the goal radius V is trained on."""
    # sampled at seed + 2: the cached tables were sampled at 5 and searched at 3, so they are seed 3
    S, _ = lyapunov_eval.sample_transitions(agent.kind, agent.policy, n_samples, seed=seed + 2)
    grid = level_grid_from_values(agent.v.value(S))
    box = state_box(agent.kind, colearn.TrainConfig.goal_range)
    digest = nn.params_digest(agent.v.net)
    return build_lut(
        agent.v.value, agent.v.grad, grid, box, seed=seed, v_digest=digest, project=heading_projection(agent.kind)
    )


def key_index(lut, levels):
    """The ceiling rule as key indices: the index of the smallest key >= each
    level. A level above the largest key, or NaN, gets len(keys): it has no
    certificate."""
    return np.searchsorted(lut.keys, levels, side="left")


def lut_query(lut, v):
    """Ceiling-rule lookup: radius of the smallest key >= v.

    Levels at or below the smallest key certify with the smallest radius.
    A level above the largest key (or NaN) has no certificate and raises.
    """
    i = key_index(lut, v)
    if i == lut.keys.size:
        raise LevelExceededError(f"level {v} exceeds table maximum {lut.keys[-1]}")
    return float(lut.radii[i])


@dataclass
class SinkChoice:
    pos: np.ndarray
    level: float  # V of the current state under this sink
    radius: float  # certified circle radius (uninflated)
    segment: int
    fraction: float


@dataclass
class MonitorConfig:
    """The monitor's one setting: class constants, not fields."""

    delta: ClassVar[float] = 0.1  # candidate sinks at fractions 0, delta, ..., 1 of a segment
    window: ClassVar[int] = 2  # path segments searched ahead of the current one
    radius_inflation: ClassVar[float] = 1.05  # absorbs optimizer under-estimation
    stall_patience: ClassVar[int] = 50


# the path fractions of a segment's candidate sinks, shared by every tracker
FRACTIONS = np.minimum(np.arange(int(np.ceil(1.0 / MonitorConfig.delta)) + 1) * MonitorConfig.delta, 1.0)


class SinkTracker:
    """Steering of a monitored episode: one sink per step along the path.

    The path is tabulated once, when the tracker is built: the candidate
    sinks of every segment, at fractions 0, delta, ..., 1 of it, their path
    progress, the segments themselves, and for each candidate the deepest
    table key whose inflated certified circle there clears every hazard. A
    step costs one V call over the window and one search of the table's
    keys; the pick then compares key indices in Python, farthest candidate
    first.

    ``target`` selects a sink from the current state. A stall holds the last
    safe sink for MonitorConfig.stall_patience steps; past that, or with no
    sink to hold, it raises MonitorStall and the episode stalls. An episode
    is certified only on steps that are not uncertified holds: held steps on
    which V toward the held sink is above the key that certified it.
    ``advance`` re-anchors the path segment on the robot's new position.
    """

    def __init__(self, path, world, value_fn, lut):
        self.path = path
        self.world = world
        self.value_fn = value_fn
        self.lut = lut
        self.seg_idx = 0
        self.stall = 0
        self.held = None
        n_seg = max(len(path) - 1, 1)
        seg_a = path[:n_seg]
        seg_b = path[np.minimum(np.arange(n_seg) + 1, len(path) - 1)]
        # candidates in window order, segment by segment, one (x, y) row each
        self.cands = (seg_a[:, None] + FRACTIONS[:, None] * (seg_b - seg_a)[:, None]).reshape(-1, 2)
        # progress never decreases along the candidates, and is equal at a
        # segment's end and the next start
        self.progress = (np.arange(n_seg)[:, None] + FRACTIONS).ravel().tolist()
        self.segments = [planner.segment(*a, *b) for a, b in zip(seg_a.tolist(), seg_b.tolist())]
        # hazards grouped by radius: every hazard of radius rho has the same
        # clearance threshold R * inflation + rho, so the group's nearest
        # centre decides the whole group
        hz = world.hazards[np.argsort(world.hazards[:, 2], kind="stable")]
        rhos, rho_starts = np.unique(hz[:, 2], return_index=True)
        # np.linalg.norm(hz[:, :2] - cands[:, None], axis=2) on coordinate
        # columns, in place: the same bits with a third of the temporaries
        dx = hz[:, 0] - self.cands[:, 0, None]
        dy = hz[:, 1] - self.cands[:, 1, None]
        dx *= dx
        dy *= dy
        dx += dy
        gaps = np.minimum.reduceat(np.sqrt(dx, out=dx), rho_starts, axis=1)
        # a candidate is safe at key j when gaps >= radii[j] * inflation + rho
        # for every group. The radii never decrease and float rounding is
        # monotone, so the safe keys are a prefix of the table; the last of
        # them is the candidate's deepest safe key (-1 for none)
        clear = gaps[:, :, None] >= lut.radii * MonitorConfig.radius_inflation + rhos[:, None]
        self.deepest_safe = (clear.all(axis=1).sum(axis=1) - 1).tolist()
        self.radii = lut.radii.tolist()

    def select(self, state, seg_idx):
        """Farthest safe sink among the candidates of segments seg_idx to
        seg_idx + MonitorConfig.window - 1.

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
        n_seg = len(self.segments)
        lo = min(seg_idx, n_seg - 1)
        hi = min(lo + MonitorConfig.window, n_seg)
        first = lo * FRACTIONS.size
        cands = self.cands[first : hi * FRACTIONS.size]
        levels = self.value_fn(envs.goal_condition(state, cands))
        # a level without a certificate gets len(keys), past every deepest safe key
        key_idx = key_index(self.lut, levels).tolist()
        best = None
        # from the farthest candidate back: the first safe one has the
        # farthest progress, and only candidates of equal progress can still
        # beat it, by a larger radius or, on a tie, by coming earlier
        for i in range(len(key_idx) - 1, -1, -1):
            if best is not None and self.progress[first + i] != self.progress[first + best]:
                break
            if key_idx[i] <= self.deepest_safe[first + i] and (
                best is None or self.radii[key_idx[i]] >= self.radii[key_idx[best]]
            ):
                best = i
        if best is None:
            raise MonitorStall(f"no safe sink in window at segment {lo}")
        seg, j = divmod(best, FRACTIONS.size)
        radius = self.radii[key_idx[best]]
        return SinkChoice(cands[best].copy(), float(levels[best]), radius, lo + seg, float(FRACTIONS[j]))

    def target(self, state):
        try:
            choice = self.select(state, self.seg_idx)
            self.stall = 0
        except MonitorStall:
            self.stall += 1
            if self.held is None or self.stall > MonitorConfig.stall_patience:
                raise
            choice = self.held
        self.held = choice
        self.seg_idx = max(self.seg_idx, choice.segment)
        return choice.pos

    def advance(self, state):
        """Move seg_idx to the nearest of segments seg_idx to seg_idx +
        MonitorConfig.window: the earliest on ties, and the first whose
        distance is NaN, as np.argmin over the segments' distances picks."""
        px, py = state.pos.tolist()
        nearest, nearest_d = self.seg_idx, math.inf
        for i in range(self.seg_idx, min(self.seg_idx + MonitorConfig.window + 1, len(self.segments))):
            d = planner.foot_distance(px, py, self.segments[i])
            if d != d:
                nearest = i
                break
            if d < nearest_d:
                nearest, nearest_d = i, d
        self.seg_idx = nearest


def state_box(kind, reach):
    """Search box for the sublevel-set ascent, (-hi, hi): goal vector within
    +-reach, heading components within +-1 and speeds within their limits."""
    heading = [1.0, 1.0] * envs.HAS_HEADING[kind]
    hi = np.array([reach, reach, *heading, *envs.SPEED_LIMITS[kind]], dtype=float)
    return (-hi, hi)
