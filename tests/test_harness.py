"""Benchmark driver: episode protocols, aggregation, report files."""

import hashlib
import json
import math
from dataclasses import fields
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


def e2e_point_summary(violation_rate, reach_rate, mean_steps_to_reach):
    return harness.BenchmarkSummary(
        robot="point",
        level=1,
        method="e2e",
        n_episodes=10,
        violation_rate=violation_rate,
        reach_rate=reach_rate,
        mean_steps_to_reach=mean_steps_to_reach,
    )


def test_summary_invariant_guard():
    with pytest.raises(ValueError):
        e2e_point_summary(0.6, 0.6, 5.0)


def test_steps_cell_dash_convention():
    assert harness._steps_cell(e2e_point_summary(1.0, 0.0, float("nan"))) == "-"
    assert harness._steps_cell(e2e_point_summary(0.0, 1.0, 42.0)) == "42.0"


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


def test_summary_columns_are_the_dataclass_fields(tmp_path):
    assert harness.SUMMARY_FIELDS == [f.name for f in fields(harness.BenchmarkSummary)]
    eps = make_reports(outcomes=[("reached", 10), ("violated", 3)])
    eps += make_reports("monitored", "car", 2, [("timeout", 4000)])
    harness.write_reports([harness.summarize(eps[:2]), harness.summarize(eps[2:])], eps, tmp_path)
    # summary.csv's bytes, header line included, are pinned
    assert (tmp_path / "summary.csv").read_bytes() == (
        b"robot,level,method,n_episodes,violation_rate,reach_rate,mean_steps_to_reach\r\n"
        b"car,2,monitored,1,0.0,0.0,-\r\n"
        b"point,1,e2e,2,0.5,0.5,10.0\r\n"
    )


def test_render_table_columns():
    s = harness.BenchmarkSummary(
        robot="sweeping",
        level=1,
        method="monitored",
        n_episodes=100,
        violation_rate=0.01,
        reach_rate=0.99,
        mean_steps_to_reach=41.5,
    )
    table = harness.render_table([s])
    header, row = table.splitlines()
    assert header.split() == ["Robot", "Level", "Method", "Violation", "Reach", "Steps"]
    assert row.split() == ["sweeping", "1", "monitored", "0.01", "0.99", "41.5"]


# (outcome, steps, SHA-256 over the pos and intrinsic bytes of every stepped
# state) of the monitored level-1 episode on world episode_world_seed(k, 0),
# k = 0..3, with each cached agent and table, recorded before the monitored
# step's single-state arithmetic moved to Python floats; any change that
# moves a single bit of a trajectory fails here. V's forwards per step
# are BLAS gemms, so the bits depend on the BLAS build (OpenBLAS 0.3.31, as
# bundled with numpy 2.4.6) and on the kernels it runs, which are keyed here
# by OpenBLAS core. Every AVX2-only CPU, AMD Zen included, runs the Haswell
# kernels; their digests were recorded under OPENBLAS_CORETYPE=Haswell on one
# BLAS thread (two threads give the same). Outcomes and step counts agree
# across kernels.
PINNED_TRAJECTORIES = {
    "SkylakeX": {
        "sweeping": [
            ("reached", 36, "ec3eaa291edce7f43edf49b532246d4eec6754cc18489bf5dac6c9576ef6a540"),
            ("reached", 39, "24c6838d73e7592aaa578cab2721837764ebe189e96774933a2d46b8877ef722"),
            ("reached", 33, "3c57bd5c6721c45252e397158f3f48b3802fd3cfd7f6b45e194188e7c41fb48c"),
            ("reached", 41, "48254044efe0227ff83a9e80bc74441da50d95e82cff5057f0a480c075952e92"),
        ],
        "point": [
            ("reached", 120, "d3647d8d4abf678d4f464f848968a85c0d4920279beb13d11fb6fb3baa1357fe"),
            ("reached", 111, "c4dba4fa377e2f53c93bee1109ab1eca98502c3666b93be8aba2867add18db4b"),
            ("reached", 101, "775eac6d2828f35c6ad9915aee1e44892e36d8f3dd3b5cbb62b347bf9be98c2e"),
            ("reached", 138, "00d1207c55d3358cdc765e2db2b79e8f9376b1c7850916bdbcd404ee32744ae3"),
        ],
        "car": [
            ("stalled", 262, "b36901f1ffa24312eb0fdc68d7c473bfacb01f01caa0190891bdb66db00c5e86"),
            ("timeout", 1000, "03edf977dbb3e252ecc88836e32ef04e0d46d901ce0f30c15b57a37dcf624b93"),
            ("reached", 305, "7854048918aff9bb045dfab4ee46047fe74f9697b4e1457b7d1e36d3e1f0d75b"),
            ("timeout", 1000, "e1096ed2a6023458c79cd6962e38c8c14d75975ea72b3f274ed3bf23a100bcff"),
        ],
    },
    "Haswell": {
        "sweeping": [
            ("reached", 36, "ec3eaa291edce7f43edf49b532246d4eec6754cc18489bf5dac6c9576ef6a540"),
            ("reached", 39, "24c6838d73e7592aaa578cab2721837764ebe189e96774933a2d46b8877ef722"),
            ("reached", 33, "060b8f0a314c5eb67858ef639acb31f0b19ad05ef22b944e14249b938d5a4d94"),
            ("reached", 41, "48254044efe0227ff83a9e80bc74441da50d95e82cff5057f0a480c075952e92"),
        ],
        "point": [
            ("reached", 120, "ad19d3cb538338203a63f529235eb5fa2781a1a047e3a32b53cf7b15feebabd0"),
            ("reached", 111, "6644755114a9feab4aa987a9bf925963241fbaca094cc1eca6e4f081902f5c6f"),
            ("reached", 101, "8f7277b8ba47d4bc8ace2d84c4481e0ebd979218de9136c8248b5dfebb7d3ad2"),
            ("reached", 138, "ba235fa59b836c42353b8e16cb68722d9af5441bac0473f44787f95c7ca43bfd"),
        ],
        "car": [
            ("stalled", 262, "5caa21b1a8c9ace4e470ea1ca395ba45cab81a5e711d96dcc43e47c37e2c8835"),
            ("timeout", 1000, "b80ccd6dc32b0924ec475281f0ed3d9dfe37c9f6bfdf1501a43f72a169043ddd"),
            ("reached", 305, "1fea9ad0e46be023b185e0de1edb5509d3e4717fddc2a85480d799173a0e296a"),
            ("timeout", 1000, "24004e80b682aa2485ce5356b6d4e3832a791b1d043cf95b18dd4b17971f3bc0"),
        ],
    },
}
PINNED_TRAJECTORIES["Zen"] = PINNED_TRAJECTORIES["Haswell"]


# The same for the monitored level-3 sweeping episodes on worlds
# episode_world_seed(k, 0), k = 0, 1: the first two worlds of the
# nav-l3-sweeping benchmark suite, 16x16 with 128 hazards.
PINNED_LEVEL3_SWEEPING = {
    "SkylakeX": [
        ("reached", 228, "e5bc52c649f9f93010dcb727172e14ffdbda54082392124eea4737ae14764735"),
        ("reached", 824, "f0f437a83a2b0f0014fa67c2c7dafaad5b43d66e8f99cc66b79a2bdbf02be2cf"),
    ],
    "Haswell": [
        ("reached", 228, "50454a301c3a61dd9898937e4a7582b869decb15fcba986865748b8810ee54a2"),
        ("reached", 824, "2123a6cec803e4bd03f611a457693db500d2cbcc787f65c84e2d88bded7e2fcd"),
    ],
}
PINNED_LEVEL3_SWEEPING["Zen"] = PINNED_LEVEL3_SWEEPING["Haswell"]


def assert_pinned_trajectories(monkeypatch, pins, core, agent, lut, level, name):
    """Play the monitored episode on world episode_world_seed(k, 0) at
    ``level`` for every k that ``pins[core]`` holds, and compare each
    (outcome, steps, digest of the stepped states) with its pin."""
    if core not in pins:
        pytest.fail(f"no trajectories are pinned for the OpenBLAS core {core!r}")
    pinned = pins[core]
    step = envs.step
    digest = None

    def recording(kind, s, a):
        nxt = step(kind, s, a)
        digest.update(nxt.pos.tobytes())
        digest.update(nxt.intrinsic.tobytes())
        return nxt

    monkeypatch.setattr(envs, "step", recording)
    got = []
    for k in range(len(pinned)):
        digest = hashlib.sha256()
        world = envs.make_world(level, harness.episode_world_seed(k, 0))
        rep = harness.run_episode("monitored", agent, world, lut=lut, plan_seed=world.seed)
        got.append((rep.outcome, rep.steps, digest.hexdigest()))
    moved = [k for k in range(len(pinned)) if got[k] != pinned[k]]
    assert not moved, f"{name} trajectories moved on worlds {moved} under {core}: {got}"


@pytest.mark.parametrize("robot", sorted(PINNED_TRAJECTORIES["SkylakeX"]))
def test_monitored_trajectories_are_pinned_bit_for_bit(monkeypatch, request, openblas_core, robot):
    agent = request.getfixturevalue(f"{robot}_agent")
    lut = request.getfixturevalue(f"{robot}_lut")
    pins = {core: table[robot] for core, table in PINNED_TRAJECTORIES.items()}
    assert_pinned_trajectories(monkeypatch, pins, openblas_core, agent, lut, 1, robot)


def test_level3_sweeping_trajectories_are_pinned_bit_for_bit(monkeypatch, openblas_core, sweeping_agent, sweeping_lut):
    pins = PINNED_LEVEL3_SWEEPING
    assert_pinned_trajectories(monkeypatch, pins, openblas_core, sweeping_agent, sweeping_lut, 3, "level-3 sweeping")


def test_monitored_steps_end_inside_freshly_selected_sinks(monkeypatch, request):
    # the monitor's per-step guarantee: a step that steers toward a freshly
    # selected sink ends inside that sink's certified circle, uninflated.
    # Criterion 6's level-1 worlds and the ordering gate's car worlds. A step
    # that holds the last safe sink through a stall is not checked: the car
    # can leave the held circle there (ROADMAP item 8)
    target, step = monitor.SinkTracker.target, envs.step
    steering = []  # the choice of the step under way, None when held
    checked = {}

    def recording_target(self, state):
        pos = target(self, state)
        steering.append(self.held if self.stall == 0 else None)
        return pos

    def recording_step(kind, s, a):
        nxt = step(kind, s, a)
        choice = steering.pop()
        if choice is not None:
            assert envs.distance(nxt.pos, choice.pos) <= choice.radius, (kind, s.pos, nxt.pos, choice)
            checked[kind.value] += 1
        return nxt

    monkeypatch.setattr(monitor.SinkTracker, "target", recording_target)
    monkeypatch.setattr(envs, "step", recording_step)
    for robot, n_eps, seed in (("sweeping", 100, 0), ("point", 100, 0), ("car", 20, 1)):
        checked[robot] = 0
        agent = request.getfixturevalue(f"{robot}_agent")
        lut = request.getfixturevalue(f"{robot}_lut")
        harness.run_benchmark("monitored", agent, 1, n_eps, seed=seed, lut=lut)
        assert not steering
    assert min(checked.values()) > 1000, checked
