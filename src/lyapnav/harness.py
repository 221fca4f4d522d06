"""Benchmark driver: per-episode evaluation protocols, baseline training,
and result export.

Three evaluation methods share per-episode worlds for paired comparison:
  monitored : plan a waypoint path, then follow it under the runtime monitor
  e2e       : hazard-aware end-to-end policy driven straight at the goal
  h-e2e     : the same end-to-end policy chasing planned waypoints
A fourth protocol, ``direct``, drives the hazard-free goal policy straight at
the goal with no monitor; it only serves as a steps-to-reach reference.
"""

import csv
import math
import os
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import colearn, envs, monitor, nn, planner
from .envs import RobotKind

STEP_CAPS = {1: 1000, 2: 4000, 3: 16_000}

METHODS = ("monitored", "e2e", "h-e2e", "direct")
OUTCOMES = ("reached", "violated", "stalled", "timeout", "plan_failed")
ROBOTS = tuple(k.value for k in RobotKind)


@dataclass
class EpisodeReport:
    method: str
    robot: str
    level: int
    world_seed: int
    outcome: str  # one of OUTCOMES
    steps: int


EPISODE_FIELDS = [f.name for f in fields(EpisodeReport)]


@dataclass
class BenchmarkSummary:
    robot: str
    level: int
    method: str
    n_episodes: int
    violation_rate: float
    reach_rate: float
    mean_steps_to_reach: float  # NaN when nothing reached

    def __post_init__(self):
        if not (0.0 <= self.violation_rate <= 1.0 and 0.0 <= self.reach_rate <= 1.0):
            raise ValueError(f"rates must be in [0, 1], got {self.violation_rate}, {self.reach_rate}")
        if not self.violation_rate + self.reach_rate <= 1.0 + 1e-12:
            raise ValueError("violation and reach rates sum above 1")


SUMMARY_FIELDS = [f.name for f in fields(BenchmarkSummary)]


class E2ePolicy(colearn.Policy):
    """Hazard-aware goal policy over the raw, unfeaturized observation [v_haz, d_g, intrinsic]."""

    def observe(self, state, goal, world):
        return np.concatenate([envs.hazard_observation(state, world), envs.goal_condition(state, goal)])

    def act(self, state, goal, world):
        return self.net.forward(self.observe(state, goal, world))

    def networks(self):
        return {"e2e_pi": self.net}

    def save(self, out_dir):
        nn.save_checkpoint(self, out_dir)

    @classmethod
    def load(cls, out_dir):
        return nn.load_checkpoint(out_dir, lambda robot: make_e2e_policy(RobotKind(robot)))[0]


def e2e_obs_dim(kind):
    return envs.HAZARD_OBS_DIM + envs.state_dim(kind)


def make_e2e_policy(kind, seed=0):
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xE2]))
    net = nn.Mlp([e2e_obs_dim(kind), *colearn.HIDDEN, envs.ACTION_DIM], "tanh", rng)
    return E2ePolicy(kind, net)


E2E_LEVEL = 1  # level of the e2e training worlds
E2E_SCHEDULE = colearn.TrainConfig(episodes=150, horizon=300)


def train_e2e(kind, cfg=E2E_SCHEDULE, seed=0):
    """DDPG training of the end-to-end baseline in randomly generated hazard
    worlds, with the hazard-penalized progress reward. Episodes run through
    ``colearn.collect_episode`` with the target actor, and learn at the
    discount and exploration noise of ``colearn.TrainConfig``, as co-learning's do."""
    policy = make_e2e_policy(kind, seed)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xE3]))
    q_rng = np.random.default_rng(np.random.SeedSequence([seed, 0xE4]))
    obs_dim = e2e_obs_dim(kind)
    q = nn.Mlp([obs_dim + envs.ACTION_DIM, *colearn.HIDDEN, 1], "identity", q_rng)
    pi_t, q_t = policy.net.copy(), q.copy()
    adam_pi = nn.AdamState(policy.net.params(), lr=colearn.ACTOR_LR)
    adam_q = nn.AdamState(q.params(), lr=colearn.LR)
    buffer = colearn.ReplayBuffer(colearn.REPLAY_CAPACITY, obs_dim, envs.ACTION_DIM)
    for ep in range(cfg.episodes):
        world = envs.make_world(E2E_LEVEL, int(rng.integers(2**31)))
        start = envs.initial_state(kind, pos=world.start, heading=rng.uniform(0, 2 * np.pi))
        transitions, relabeled = colearn.collect_episode(
            E2ePolicy(kind, pi_t), start, world.goal, world, cfg.horizon, cfg.noise, rng, ep < cfg.warmup_episodes
        )
        for tr in transitions + relabeled:
            buffer.add(*tr)
        if buffer.size < colearn.BATCH_SIZE:
            continue
        for _ in range(cfg.grad_steps):
            b = buffer.sample(rng, colearn.BATCH_SIZE)
            y = colearn.td_target(q_t, pi_t, b["r"], b["s1"], b["done"], cfg.gamma)
            colearn.regress(q, adam_q, np.hstack([b["s"], b["a"]]), y)
            colearn.actor_step(policy.net, adam_pi, b["s"], [(q_t, -1.0)])
            nn.polyak_update(pi_t, policy.net, colearn.TAU)
            nn.polyak_update(q_t, q, colearn.TAU)
        nn.check_finite(policy.net, f"in e2e actor after episode {ep}")
        nn.check_finite(q, f"in e2e critic after episode {ep}")
    return policy


def _episode(method, robot, level, world, outcome, steps):
    return EpisodeReport(method, robot.value, level, world.seed, outcome, steps)


class _WaypointChaser:
    """Steering of e2e, h-e2e and direct: each waypoint in turn, moving on
    once the robot has ``envs.reached`` it."""

    def __init__(self, waypoints):
        self.waypoints = waypoints
        self.wp = 0

    def target(self, state):
        return self.waypoints[self.wp]

    def advance(self, state):
        last = len(self.waypoints) - 1
        while self.wp < last and envs.reached(state.pos, self.waypoints[self.wp]):
            self.wp += 1


def run_episode(method, agent, world, lut=None, plan_seed=0):
    """One evaluation episode of the given method on a fixed world.

    ``agent`` is a trained co-learning agent for ``monitored``/``direct`` and
    an E2ePolicy for ``e2e``/``h-e2e``; both act through
    ``act(state, target, world)``. Every method runs the same loop: take a
    target from the steering (``monitor.SinkTracker`` for ``monitored``, a
    waypoint chaser otherwise), act, step, check hazards once (never for
    ``direct``), check the goal with ``envs.reached``, advance the steering.
    The planner and the monitor run at their default settings. A failed plan
    is reported with the distinct ``plan_failed`` outcome (counts as not
    reached, not violated).
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    level = world.level if world.level in STEP_CAPS else 1
    cap = STEP_CAPS[level]
    kind = agent.kind
    goal = np.asarray(world.goal, dtype=float)
    if method == "monitored":
        if lut is None:
            raise ValueError("monitored episodes need a lookup table")
        if lut.v_digest != nn.params_digest(agent.v.net):
            raise ValueError(f"lookup table was built for V {lut.v_digest}, not this agent's V")
    if method in ("monitored", "h-e2e"):
        try:
            path = planner.plan_path(world, seed=plan_seed)
        except planner.PlanNotFound:
            return _episode(method, kind, level, world, "plan_failed", 0)
    if method == "monitored":
        steer = monitor.SinkTracker(path, world, agent.v.value, lut)
    elif method == "h-e2e":
        steer = _WaypointChaser(list(path))
    else:  # e2e and direct drive straight at the goal
        steer = _WaypointChaser([goal])
    state = envs.initial_state(kind, pos=np.asarray(world.start, dtype=float))
    for t in range(cap):
        try:
            target = steer.target(state)
        except monitor.MonitorStall:
            return _episode(method, kind, level, world, "stalled", t)
        state = envs.step(kind, state, agent.act(state, target, world))
        if method != "direct" and envs.in_hazard(state.pos, world):
            return _episode(method, kind, level, world, "violated", t + 1)
        if envs.reached(state.pos, goal):
            return _episode(method, kind, level, world, "reached", t + 1)
        steer.advance(state)
    return _episode(method, kind, level, world, "timeout", cap)


def episode_world_seed(seed, index):
    """Per-episode world seed shared across methods for paired comparison."""
    return 1_000_003 * seed + index


def summarize(episodes):
    """Order-independent aggregation of episode reports into a summary."""
    if not episodes:
        raise ValueError("cannot summarize zero episodes")
    methods = {e.method for e in episodes}
    robots = {e.robot for e in episodes}
    levels = {e.level for e in episodes}
    if len(methods) != 1 or len(robots) != 1 or len(levels) != 1:
        raise ValueError("episodes must share method, robot, and level")
    n = len(episodes)
    viol = sum(e.outcome == "violated" for e in episodes) / n
    reached = [e for e in episodes if e.outcome == "reached"]
    reach = len(reached) / n
    mean_steps = float(np.mean([e.steps for e in reached])) if reached else float("nan")
    return BenchmarkSummary(robots.pop(), levels.pop(), methods.pop(), n, viol, reach, mean_steps)


def run_benchmark(method, agent, level, n_episodes, seed=0, lut=None):
    """n_episodes fresh worlds (deterministic per seed), one report each."""
    if n_episodes < 1:
        raise ValueError("n_episodes must be at least 1")
    episodes = []
    for i in range(n_episodes):
        ws = episode_world_seed(seed, i)
        world = envs.make_world(level, ws)
        episodes.append(run_episode(method, agent, world, lut=lut, plan_seed=ws))
    return summarize(episodes), episodes


def _steps_cell(summary):
    if summary.reach_rate == 0.0 or math.isnan(summary.mean_steps_to_reach):
        return "-"
    return f"{summary.mean_steps_to_reach:.1f}"


def render_table(summaries):
    """Text table with one row per (robot, level, method)."""
    lines = [f"{'Robot':<10} {'Level':<6} {'Method':<10} {'Violation':<10} {'Reach':<7} {'Steps':<9}"]
    for s in sorted(summaries, key=lambda s: (s.robot, s.level, s.method)):
        lines.append(
            f"{s.robot:<10} {s.level:<6} {s.method:<10} "
            f"{s.violation_rate:<10.2f} {s.reach_rate:<7.2f} {_steps_cell(s):<9}"
        )
    return "\n".join(lines) + "\n"


def write_reports(summaries, episodes, out_dir):
    """Per-episode CSV, summary CSV keyed by (robot, level, method), and the
    rendered text table. Deterministic for fixed inputs."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "episodes.csv"), "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=EPISODE_FIELDS)
        w.writeheader()
        w.writerows(asdict(e) for e in episodes)
    with open(os.path.join(out_dir, "summary.csv"), "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=SUMMARY_FIELDS)
        w.writeheader()
        for s in sorted(summaries, key=lambda s: (s.robot, s.level, s.method)):
            row = {k: getattr(s, k) for k in SUMMARY_FIELDS}
            row["mean_steps_to_reach"] = _steps_cell(s)
            w.writerow(row)
    with open(os.path.join(out_dir, "table.txt"), "w") as f:
        f.write(render_table(summaries))


def read_episodes(path):
    """Episode reports from an episodes.csv as write_reports writes it. A
    missing column, a short or long row, a non-integer level, seed or step
    count, a method, robot, level or outcome outside METHODS, ROBOTS,
    envs.LEVELS or OUTCOMES, or a negative step count raises ValueError
    naming the line."""
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        missing = [k for k in EPISODE_FIELDS if k not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{path} has no column {', '.join(missing)}")
        episodes = []
        for row in reader:
            where = f"{path} line {reader.line_num}"
            if None in row or None in row.values():
                raise ValueError(f"{where}: expected {len(reader.fieldnames)} fields")
            try:
                e = EpisodeReport(**{f.name: f.type(row[f.name]) for f in fields(EpisodeReport)})
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from exc
            for name, known in (
                ("method", METHODS), ("robot", ROBOTS), ("level", tuple(envs.LEVELS)), ("outcome", OUTCOMES)
            ):
                if getattr(e, name) not in known:
                    raise ValueError(f"{where}: {name} must be one of {known}, got {getattr(e, name)!r}")
            if e.steps < 0:
                raise ValueError(f"{where}: steps must be at least 0, got {e.steps}")
            episodes.append(e)
    return episodes
