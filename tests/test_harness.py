"""Benchmark driver: episode protocols, aggregation, report files."""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from lyapnav import colearn, envs, harness, monitor, nn
from lyapnav.envs import RobotKind


def make_reports(method="e2e", robot="point", level=1, outcomes=()):
    return [
        harness.EpisodeReport(method, robot, level, seed, outcome, steps)
        for seed, (outcome, steps) in enumerate(outcomes)
    ]


def test_step_caps_pinned():
    assert harness.STEP_CAPS == {1: 1000, 2: 4000, 3: 16_000}


def test_e2e_obs_dim_is_16_plus_state():
    for kind in RobotKind:
        assert harness.e2e_obs_dim(kind) == 16 + envs.state_dim(kind)
        assert harness.make_e2e_policy(kind).net.in_dim == harness.e2e_obs_dim(kind)


def test_summarize_rate_arithmetic():
    # 100 episodes, 1 violation, 99 reached -> 0.01 / 0.99
    outcomes = [("violated", 10)] + [("reached", 50)] * 99
    summary = harness.summarize(make_reports(outcomes=outcomes))
    assert summary.violation_rate == pytest.approx(0.01)
    assert summary.reach_rate == pytest.approx(0.99)
    assert summary.mean_steps_to_reach == pytest.approx(50.0)


def test_summarize_mean_steps_only_over_reached():
    outcomes = [("reached", 10), ("reached", 30), ("timeout", 1000)]
    summary = harness.summarize(make_reports(outcomes=outcomes))
    assert summary.mean_steps_to_reach == pytest.approx(20.0)


def test_summarize_order_independent():
    rng = np.random.default_rng(0)
    outcomes = [("reached", int(s)) for s in rng.integers(1, 500, 30)]
    outcomes += [("violated", 5)] * 4 + [("timeout", 1000)] * 6
    eps = make_reports(outcomes=outcomes)
    base = harness.summarize(eps)
    for _ in range(5):
        perm = list(rng.permutation(len(eps)))
        shuffled = harness.summarize([eps[i] for i in perm])
        assert shuffled == base


def test_summarize_rejects_mixed_groups():
    eps = make_reports(outcomes=[("reached", 1)]) + make_reports(method="h-e2e", outcomes=[("reached", 1)])
    with pytest.raises(ValueError):
        harness.summarize(eps)


def test_summary_invariant_guard():
    with pytest.raises(ValueError):
        harness.BenchmarkSummary("e2e", "point", 1, 10, 0.6, 0.6, 5.0)


def test_steps_cell_dash_convention():
    s = harness.BenchmarkSummary("e2e", "point", 1, 10, 1.0, 0.0, float("nan"))
    assert harness._steps_cell(s) == "-"
    s = harness.BenchmarkSummary("e2e", "point", 1, 10, 0.0, 1.0, 42.0)
    assert harness._steps_cell(s) == "42.0"


def test_run_episode_rejects_unknown_method():
    world = envs.make_world(1, 0)
    with pytest.raises(ValueError):
        harness.run_episode("nope", None, world)


def test_run_episode_monitored_needs_lut():
    world = envs.make_world(1, 0)

    class Dummy:
        kind = RobotKind.SWEEPING

    with pytest.raises(ValueError):
        harness.run_episode("monitored", Dummy(), world)


def test_run_episode_monitored_refuses_lut_of_another_v(sweeping_agent, point_lut):
    world = envs.make_world(1, 0)
    with pytest.raises(ValueError, match="lookup table was built for V"):
        harness.run_episode("monitored", sweeping_agent, world, lut=point_lut)


@pytest.mark.parametrize(
    "setting, match",
    [
        ({"window": 0}, "window"),
        ({"window": -1}, "window"),
        ({"stall_patience": -1}, "stall_patience"),
        ({"radius_inflation": 0.99}, "radius_inflation"),
        ({"radius_inflation": float("nan")}, "radius_inflation"),
    ],
    ids=["window=0", "window=-1", "stall_patience=-1", "radius_inflation=0.99", "radius_inflation=nan"],
)
def test_run_episode_monitored_rejects_bad_monitor_settings(setting, match):
    # window 0 used to end every episode as "stalled" after 0 steps; a bad
    # setting now fails when the config is built, before any plan or episode
    with pytest.raises(ValueError, match=match):
        monitor.MonitorConfig(**setting)


class _IdlePolicy:
    """E2E-style policy that never moves."""

    def __init__(self, kind):
        self.kind = kind

    def act(self, state, goal, world):
        return np.zeros(envs.ACTION_DIM)


def test_run_episode_e2e_times_out_at_level_cap():
    world = envs.make_world(1, 7)
    rep = harness.run_episode("e2e", _IdlePolicy(RobotKind.SWEEPING), world)
    assert rep.outcome == "timeout"
    assert rep.steps == harness.STEP_CAPS[1]


class _Charger:
    """Drives straight at the world's goal whatever target it is given, so
    every method runs into a hazard placed on that line. Its V (the squared
    goal distance) and network only serve the monitored method's table."""

    kind = RobotKind.SWEEPING
    v = SimpleNamespace(
        value=lambda x: np.sum(np.atleast_2d(x)[:, :2] ** 2, axis=1),
        net=nn.Mlp([2, 4, 1], "identity", np.random.default_rng(0)),
    )

    def act(self, state, target, world):
        d = np.asarray(world.goal) - state.pos
        return d / max(np.linalg.norm(d), 1e-9)


@pytest.mark.parametrize("method", ["e2e", "h-e2e", "monitored"])
def test_run_episode_violation_terminates_inside_hazard(method):
    # hazard directly between start and goal
    world = envs.empty_world()
    world.level = 1
    world.hazards = np.array([[2.0, 2.0, 0.2]])
    policy = _Charger()
    # zero radii certify every candidate off the hazard, so the monitor never stalls
    box = (np.array([-3.0, -3.0]), np.array([3.0, 3.0]))
    lut = monitor.RoaLut(keys=[1e3, 1e4], radii=[0.0, 0.0], box=box, v_digest=nn.params_digest(policy.v.net))
    rep = harness.run_episode(method, policy, world, lut=lut)
    assert rep.outcome == "violated"
    # replay the episode to confirm the last position is the first in-hazard one
    state = envs.initial_state(RobotKind.SWEEPING, pos=world.start)
    for t in range(rep.steps):
        state = envs.step(RobotKind.SWEEPING, state, policy.act(state, world.goal, world))
        hit = envs.in_hazard(state.pos, world)
        assert hit == (t == rep.steps - 1)


def test_run_episode_checks_hazards_once_per_step(monkeypatch, sweeping_agent, sweeping_lut, sweeping_e2e):
    counts = {}
    step, in_hazard = envs.step, envs.in_hazard

    def counting(name, fn):
        def wrapped(*args):
            counts[name] += 1
            return fn(*args)

        return wrapped

    monkeypatch.setattr(envs, "step", counting("step", step))
    monkeypatch.setattr(envs, "in_hazard", counting("in_hazard", in_hazard))
    world = envs.make_world(1, harness.episode_world_seed(0, 0))
    for method, agent, lut in (("monitored", sweeping_agent, sweeping_lut), ("e2e", sweeping_e2e, None)):
        counts.update(step=0, in_hazard=0)
        rep = harness.run_episode(method, agent, world, lut=lut, plan_seed=world.seed)
        assert counts["step"] == rep.steps > 0, method
        assert counts["in_hazard"] == counts["step"], method


def test_run_episode_deterministic():
    world = envs.make_world(1, 9)
    a = harness.run_episode("e2e", _IdlePolicy(RobotKind.SWEEPING), world)
    b = harness.run_episode("e2e", _IdlePolicy(RobotKind.SWEEPING), world)
    assert a == b


def test_episode_world_seed_paired_across_methods():
    assert harness.episode_world_seed(3, 5) == harness.episode_world_seed(3, 5)
    assert harness.episode_world_seed(3, 5) != harness.episode_world_seed(4, 5)


def test_train_e2e_degenerates_to_goal_reaching(monkeypatch):
    # with zero penalty the update only sees the progress reward; a couple of
    # episodes must run without error and produce finite parameters
    monkeypatch.setattr(envs, "HAZARD_PENALTY", 0.0)
    cfg = colearn.TrainConfig(episodes=2, warmup_episodes=1, grad_steps=2, horizon=20)
    policy = harness.train_e2e(RobotKind.SWEEPING, cfg, seed=0)
    for p in policy.net.params():
        assert np.all(np.isfinite(p))


def test_train_e2e_seeded_reproducibility():
    cfg = colearn.TrainConfig(episodes=2, warmup_episodes=1, grad_steps=2, horizon=20)
    p1 = harness.train_e2e(RobotKind.SWEEPING, cfg, seed=5)
    p2 = harness.train_e2e(RobotKind.SWEEPING, cfg, seed=5)
    for a, b in zip(p1.net.params(), p2.net.params()):
        assert np.array_equal(a, b)


def test_e2e_policy_save_load(tmp_path):
    policy = harness.make_e2e_policy(RobotKind.POINT, seed=3)
    policy.save(tmp_path / "e2e")
    loaded = harness.E2ePolicy.load(tmp_path / "e2e")
    x = np.random.default_rng(0).normal(size=harness.e2e_obs_dim(RobotKind.POINT))
    assert np.array_equal(policy.net.forward(x), loaded.net.forward(x))
    assert loaded.kind is RobotKind.POINT


@pytest.mark.parametrize("edit", [lambda files: files + ["e2e_q"], lambda files: []])
def test_e2e_policy_load_refuses_manifest_file_list_mismatch(tmp_path, edit):
    harness.make_e2e_policy(RobotKind.SWEEPING, seed=4).save(tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["files"] = edit(manifest["files"])
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(nn.CheckpointError, match="lists files"):
        harness.E2ePolicy.load(tmp_path)


def test_write_reports_idempotent(tmp_path):
    outcomes = [("reached", 10), ("violated", 3), ("timeout", 1000)]
    eps = make_reports(outcomes=outcomes)
    summaries = [harness.summarize(eps)]
    out = tmp_path / "results"
    harness.write_reports(summaries, eps, out)
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    harness.write_reports(summaries, eps, out)
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first == second
    assert set(first) == {"episodes.csv", "summary.csv", "table.txt"}


def test_render_table_columns():
    s = harness.BenchmarkSummary("monitored", "sweeping", 1, 100, 0.01, 0.99, 41.5)
    table = harness.render_table([s])
    header, row = table.splitlines()
    assert header.split() == ["Robot", "Level", "Method", "Violation", "Reach", "Steps"]
    assert row.split() == ["sweeping", "1", "monitored", "0.01", "0.99", "41.5"]
