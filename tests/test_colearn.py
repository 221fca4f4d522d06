"""Co-learning building blocks: Lyapunov net, replay, losses, episodes."""

import csv
import inspect
import json
import os
import shutil
import subprocess
import sys
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest

from lyapnav import colearn, envs, harness, lyapunov_eval, nn
from lyapnav.envs import RobotKind


def test_lyapunov_net_exactly_zero_on_sinks():
    # Trainer.train_v relies on both identities: the sink mask is idempotent
    # bit for bit (signed zeros included), so V(x * m) = f(x * m) - f(x * m)
    # is exactly 0 at every batch size the training and the monitor use
    for kind in RobotKind:
        v = colearn.LyapunovNet(kind, rng=np.random.default_rng(0))
        d, m = envs.state_dim(kind), envs.sink_mask(kind)
        for rows in (1, 10, 22, 256, 1024):
            x = np.random.default_rng(rows).normal(size=(rows, d)) * 3.0
            x[0, :2] = (-0.0, -1.5)  # a goal vector that masks to (-0.0, -0.0)
            sinks = x * m
            assert np.signbit(sinks[0, :2]).all()
            assert (sinks * m).tobytes() == sinks.tobytes()
            assert not np.any(v.value(sinks))


def test_lyapunov_net_grad_matches_finite_differences():
    v = colearn.LyapunovNet(RobotKind.POINT, rng=np.random.default_rng(2))
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 5))
    g = v.grad(x)
    eps = 1e-6
    for i in range(4):
        for j in range(5):
            xp, xm = x.copy(), x.copy()
            xp[i, j] += eps
            xm[i, j] -= eps
            num = (v.value(xp)[i] - v.value(xm)[i]) / (2 * eps)
            assert g[i, j] == pytest.approx(num, rel=1e-4, abs=1e-7)


@pytest.mark.parametrize("kind", list(RobotKind))
def test_lyapunov_net_forward_cache_is_value_and_zero_on_sinks(kind):
    # train_v's pass: one forward over the twin stack [x, sink(x)]. V is
    # exactly 0 on sink rows at an even row count, as train_v's [s, s1] has;
    # at an odd one OpenBLAS's gemm rounds a row and its twin n rows below
    # apart by about 1e-17 in the last rows
    v = colearn.make_agent(kind, seed=23).v
    for rows in (37, 74, 512):
        x = np.random.default_rng(rows).uniform(-2, 2, size=(rows, envs.state_dim(kind)))
        got, _ = v.forward_cache(x)
        np.testing.assert_allclose(got, v.value(x), rtol=0.0, atol=1e-12)
        sinks = v.forward_cache(x * v.mask)[0]
        assert not np.any(sinks) if rows % 2 == 0 else np.abs(sinks).max() < 1e-12


@pytest.mark.parametrize("kind", list(RobotKind))
def test_lyapunov_net_param_grads_match_finite_differences(kind):
    # the gradient of sum(u * V) over forward_cache's batch, both signs of u,
    # checked on 48 random parameter coordinates at criterion 1's tolerance
    v = colearn.make_agent(kind, seed=24).v
    rng = np.random.default_rng(24)
    x = rng.uniform(-2, 2, size=(16, envs.state_dim(kind)))
    u = rng.normal(size=16)
    grads = v.param_grads(v.forward_cache(x)[1], u)
    params = v.net.params()
    assert [g.shape for g in grads] == [p.shape for p in params]

    def loss():
        return float(np.sum(u * v.forward_cache(x)[0]))

    eps = 1e-6
    for _ in range(48):
        i = int(rng.integers(len(params)))
        j = int(rng.integers(params[i].size))
        p = params[i].ravel()
        orig = p[j]
        p[j] = orig + eps
        hi = loss()
        p[j] = orig - eps
        lo = loss()
        p[j] = orig
        assert grads[i].ravel()[j] == pytest.approx((hi - lo) / (2 * eps), rel=1e-4, abs=1e-8), (i, j)


def test_lyapunov_risk_formula_oracle():
    # oracle: recompute the two risk terms by hand for V = sum of state
    value_fn = lambda x: np.atleast_2d(x).sum(axis=1)
    s = np.array([[1.0, 2.0], [-3.0, 1.0]])
    s1 = np.array([[2.0, 2.0], [-4.0, 1.0]])
    expected = np.mean([max(0, -3.0) + max(0, 4.0 - 3.0), max(0, 2.0) + max(0, -3.0 - (-2.0))])
    assert colearn.lyapunov_risk(value_fn(s), value_fn(s1)) == pytest.approx(expected)


def test_replay_buffer_ring_overwrite():
    buf = colearn.ReplayBuffer(3, state_dim=1, action_dim=1)
    for i in range(5):
        buf.add([float(i)], [0.0], 0.0, [0.0], False)
    assert buf.size == 3
    assert sorted(buf.s[:, 0]) == [2.0, 3.0, 4.0]


def test_replay_sampling_without_replacement():
    buf = colearn.ReplayBuffer(10, 1, 1)
    for i in range(10):
        buf.add([float(i)], [0.0], 0.0, [0.0], False)
    batch = buf.sample(np.random.default_rng(0), 10)
    assert sorted(batch["s"][:, 0]) == [float(i) for i in range(10)]


def test_make_agent_architecture():
    agent = colearn.make_agent(RobotKind.POINT, seed=1)
    df = envs.feature_dim(RobotKind.POINT)
    assert agent.pi.in_dim == df
    assert agent.q.in_dim == df + 2
    assert agent.lq.in_dim == df + 2
    assert agent.v.net.in_dim == envs.state_dim(RobotKind.POINT)
    for a, b in zip(agent.pi.params(), agent.pi_t.params()):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("kind", list(RobotKind))
def test_agent_policies_are_built_once_around_pi_and_pi_t(kind, tmp_path):
    # built with the agent; loading writes pi and pi_t in place, so a loaded
    # agent's policies wrap its own networks too
    agent = colearn.make_agent(kind, seed=4)
    agent.save(tmp_path / "agent")
    for a in (agent, colearn.Agent.load(tmp_path / "agent")):
        assert a.policy is a.policy and a.target_policy is a.target_policy
        assert a.policy.kind is kind and a.target_policy.kind is kind
        assert a.policy.net is a.pi and a.target_policy.net is a.pi_t


def test_agent_save_load_roundtrip(tmp_path):
    agent = colearn.make_agent(RobotKind.SWEEPING, seed=4)
    agent.save(tmp_path / "agent")
    loaded = colearn.Agent.load(tmp_path / "agent")
    x = np.random.default_rng(0).normal(size=(5, 2))
    assert np.array_equal(agent.v.value(x), loaded.v.value(x))
    state, goal, world = envs.initial_state(RobotKind.SWEEPING, pos=x[1]), x[2], envs.empty_world()
    assert np.array_equal(agent.act(state, goal, world), loaded.act(state, goal, world))


def test_agent_load_refuses_swapped_v(tmp_path):
    for seed in (4, 5):
        colearn.make_agent(RobotKind.SWEEPING, seed=seed).save(tmp_path / str(seed))
    shutil.copy(tmp_path / "5" / "v.json", tmp_path / "4" / "v.json")
    with pytest.raises(nn.CheckpointError):
        colearn.Agent.load(tmp_path / "4")


@pytest.mark.parametrize("edit", [lambda files: files + ["extra"], lambda files: files[:-1]])
def test_agent_load_refuses_manifest_file_list_mismatch(tmp_path, edit):
    colearn.make_agent(RobotKind.SWEEPING, seed=4).save(tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["files"] = edit(manifest["files"])
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(nn.CheckpointError):
        colearn.Agent.load(tmp_path)


def _without(key):
    return lambda manifest: {k: v for k, v in manifest.items() if k != key}


@pytest.mark.parametrize(
    "make, load, edit, match",
    [
        (colearn.make_agent, colearn.Agent.load, _without("robot"), "naming its robot"),
        (colearn.make_agent, colearn.Agent.load, lambda manifest: [manifest], "naming its robot"),
        (colearn.make_agent, colearn.Agent.load, _without("v_digest"), "not the V of its manifest"),
        (harness.make_e2e_policy, harness.E2ePolicy.load, _without("robot"), "naming its robot"),
    ],
    ids=["agent-no-robot", "agent-not-an-object", "agent-no-v_digest", "e2e-no-robot"],
)
def test_load_refuses_malformed_manifest(tmp_path, make, load, edit, match):
    make(RobotKind.SWEEPING, seed=4).save(tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    (tmp_path / "manifest.json").write_text(json.dumps(edit(manifest)))
    with pytest.raises(nn.CheckpointError, match=match):
        load(tmp_path)


def test_policy_wrapper_featurizes():
    agent = colearn.make_agent(RobotKind.POINT, seed=5)
    s, goal = envs.PhysState(np.array([0.5, -1.0]), np.array([0.0, 1.0, 0.1])), np.array([1.5, 1.0])
    direct = agent.pi.forward(envs.featurize(RobotKind.POINT, envs.goal_condition(s, goal)[None]))[0]
    assert np.array_equal(agent.policy.act(s, goal, envs.empty_world()), direct)


def test_sample_goal_respects_annulus():
    cfg = colearn.TrainConfig
    rng = np.random.default_rng(6)
    for _ in range(200):
        start, g = colearn.sample_task(RobotKind.POINT, rng)
        assert np.array_equal(start.pos, [0.0, 0.0])
        assert cfg.goal_min <= np.linalg.norm(g) <= cfg.goal_range


def arena_episode(policy, cfg, rng, noise, relabels=0):
    """One training-arena episode, drawn as ``colearn.colearn`` draws it."""
    start, goal = colearn.sample_task(policy.kind, rng)
    return colearn.collect_episode(policy, start, goal, envs.empty_world(), cfg.horizon, noise, rng, False, relabels)


def test_collect_episode_deterministic_without_noise():
    cfg = colearn.TrainConfig()
    agent = colearn.make_agent(RobotKind.SWEEPING, seed=7)
    tr1, rel1 = arena_episode(agent.policy, cfg, np.random.default_rng(3), 0.0)
    tr2, rel2 = arena_episode(agent.policy, cfg, np.random.default_rng(3), 0.0)
    assert rel1 == rel2 == []
    assert len(tr1) == len(tr2)
    for a, b in zip(tr1, tr2):
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_collect_episode_reward_telescopes():
    cfg = colearn.TrainConfig()
    agent = colearn.make_agent(RobotKind.SWEEPING, seed=8)
    tr, _ = arena_episode(agent.policy, cfg, np.random.default_rng(4), 0.0)
    d0 = np.linalg.norm(tr[0][0][:2])
    d_end = np.linalg.norm(tr[-1][3][:2])
    assert sum(row[2] for row in tr) == pytest.approx(d0 - d_end)


def test_hindsight_relabels_consistent():
    # relabeled rewards and termination flags must agree with recomputation
    cfg = colearn.TrainConfig()
    agent = colearn.make_agent(RobotKind.SWEEPING, seed=9)
    relabels = 2
    tr, rel = arena_episode(agent.policy, cfg, np.random.default_rng(5), cfg.noise, relabels)
    buf = colearn.ReplayBuffer(10_000, envs.state_dim(RobotKind.SWEEPING), 2)
    for row in tr + rel:
        buf.add(*row)
    assert buf.size == len(tr) * (1 + relabels)
    for i in range(buf.size):
        d1 = np.linalg.norm(buf.s1[i][:2])
        d0 = np.linalg.norm(buf.s[i][:2])
        assert buf.r[i] == pytest.approx(d0 - d1)
        assert buf.done[i] == float(d1 < envs.REACH_TOL)


def test_relabels_are_labeled_like_the_rollout_for_a_hazard_observing_policy():
    # an untrained e2e actor that drives through a hazard of this world; each
    # relabeled copy must carry its step's hazard observation and penalty, as
    # the rollout's own rows do
    kind = RobotKind.SWEEPING
    policy = harness.make_e2e_policy(kind, seed=5)
    world = envs.make_world(1, 5)
    start = envs.initial_state(kind, pos=world.start)
    relabels = 2
    rng = np.random.default_rng(0)
    tr, rel = colearn.collect_episode(policy, start, world.goal, world, 60, 0.0, rng, False, relabels)
    states = [start]
    for _, a, _, _, _ in tr:
        states.append(envs.step(kind, states[-1], a))
    n = len(tr)
    assert len(rel) == n * relabels
    penalized = 0
    for i, (o, a, r, o1, done) in enumerate(rel):
        t = i // relabels
        s, s1 = states[t], states[t + 1]
        assert np.array_equal(a, tr[t][1])
        assert o.shape == o1.shape == (harness.e2e_obs_dim(kind),)
        # the copy's goal is a position the episode reached at or after step t
        future = [states[j + 1].pos for j in range(t, n)]
        goals = [g for g in future if np.array_equal(o, policy.observe(s, g, world))]
        assert goals, f"copy {i} is not toward a position reached at or after its step"
        g = goals[0]
        assert np.array_equal(o1, policy.observe(s1, g, world))
        assert r == envs.reward(g, s, s1, world)
        assert done == (envs.distance(g, s1.pos) < envs.REACH_TOL)
        penalized += envs.in_hazard(s1.pos, world)
    assert penalized > 0


def test_train_q_reduces_td_error_on_fixed_batch():
    agent = colearn.make_agent(RobotKind.SWEEPING, seed=10)
    trainer = colearn.Trainer(agent, colearn.TrainConfig())
    rng = np.random.default_rng(6)
    batch = {
        "s": rng.normal(size=(64, 2)),
        "a": rng.uniform(-1, 1, size=(64, 2)),
        "r": rng.normal(size=64),
        "s1": rng.normal(size=(64, 2)),
        "done": np.zeros(64),
    }
    first = trainer.train_q(batch)
    for _ in range(50):
        last = trainer.train_q(batch)
    assert last < first


def test_train_v_shapes_positivity_and_decrease():
    # after fitting on a contracting-dynamics batch, V should be positive off
    # the sink and decreasing along the contraction
    kind = RobotKind.SWEEPING
    agent = colearn.make_agent(kind, seed=11)
    trainer = colearn.Trainer(agent, colearn.TrainConfig())
    rng = np.random.default_rng(7)
    s = rng.uniform(-2, 2, size=(256, 2))
    s1 = 0.9 * s
    batch = {"s": s, "a": np.zeros((256, 2)), "r": np.zeros(256), "s1": s1, "done": np.zeros(256)}
    for _ in range(300):
        trainer.train_v(batch)
    probe = rng.uniform(-2, 2, size=(200, 2))
    vs = agent.v.value(probe)
    vs1 = agent.v.value(0.9 * probe)
    assert np.mean(vs > 0) > 0.95
    assert np.mean(vs1 < vs) > 0.95


def test_lq_regresses_onto_v_next():
    kind = RobotKind.SWEEPING
    agent = colearn.make_agent(kind, seed=12)
    trainer = colearn.Trainer(agent, colearn.TrainConfig())
    rng = np.random.default_rng(8)
    batch = {
        "s": rng.uniform(-2, 2, size=(128, 2)),
        "a": rng.uniform(-1, 1, size=(128, 2)),
        "r": np.zeros(128),
        "s1": rng.uniform(-2, 2, size=(128, 2)),
        "done": np.zeros(128),
    }
    first = trainer.train_lq(batch)
    for _ in range(100):
        last = trainer.train_lq(batch)
    assert last < first
    # the returned loss is the mean squared error before the step
    pred = agent.lq.forward(np.hstack([envs.featurize(kind, batch["s"]), batch["a"]]))[:, 0]
    expected = np.mean((pred - agent.v.value(batch["s1"])) ** 2)
    assert trainer.train_lq(batch) == pytest.approx(expected)


def test_policy_loss_formula_oracle():
    kind = RobotKind.SWEEPING
    agent = colearn.make_agent(kind, seed=13)
    rng = np.random.default_rng(9)
    s = rng.normal(size=(32, 2))
    sf = envs.featurize(kind, s)
    a = agent.pi.forward(sf)
    x = np.hstack([sf, a])
    expected = np.mean(-agent.q_t.forward(x)[:, 0] + 0.5 * agent.lq_t.forward(x)[:, 0])
    assert colearn.policy_loss(agent.pi, agent.q_t, agent.lq_t, s, 0.5, kind) == pytest.approx(expected)


def _random_batch(kind, n, rng):
    d, na = envs.state_dim(kind), envs.ACTION_DIM
    return {
        "s": rng.uniform(-2, 2, size=(n, d)),
        "a": rng.uniform(-1, 1, size=(n, na)),
        "r": rng.normal(size=n),
        "s1": rng.uniform(-2, 2, size=(n, d)),
        "done": np.zeros(n),
    }


def test_train_pi_returns_pre_step_policy_loss():
    for kind in RobotKind:
        agent = colearn.make_agent(kind, seed=15)
        cfg = colearn.TrainConfig()
        trainer = colearn.Trainer(agent, cfg)
        batch = _random_batch(kind, 64, np.random.default_rng(16))
        expected = colearn.policy_loss(agent.pi, agent.q_t, agent.lq_t, batch["s"], cfg.alpha, kind)
        before = nn.params_digest(agent.pi)
        assert trainer.train_pi(batch) == expected
        assert nn.params_digest(agent.pi) != before


def test_train_v_returns_pre_step_risk_and_hinge_fractions():
    for kind in RobotKind:
        agent = colearn.make_agent(kind, seed=17)
        cfg = colearn.TrainConfig()
        trainer = colearn.Trainer(agent, cfg)
        batch = _random_batch(kind, 64, np.random.default_rng(18))
        s, s1 = batch["s"], batch["s1"]
        vs, vs1 = agent.v.value(s), agent.v.value(s1)
        risk = colearn.lyapunov_risk(vs, vs1)
        pos = np.mean(vs < cfg.pos_margin * np.linalg.norm(s[:, :2], axis=1))
        lie = np.mean(vs1 - vs > -cfg.lie_margin)
        before = nn.params_digest(agent.v.net)
        got_risk, got_pos, got_lie = trainer.train_v(batch)
        assert got_risk == pytest.approx(risk, rel=1e-12, abs=1e-15)
        assert (got_pos, got_lie) == (pos, lie)
        assert nn.params_digest(agent.v.net) != before


def test_train_v_clears_the_memo_of_the_sink_term():
    # LyapunovNet keeps f(0) of the sweeping robot per row count; train_v's
    # Adam step moves f(0), so V after it must be the plain formula on the
    # updated parameters, not the memo of the old ones (the memo follows
    # the write count of V's parameters)
    agent = colearn.make_agent(RobotKind.SWEEPING, seed=19)
    batch = _random_batch(RobotKind.SWEEPING, 64, np.random.default_rng(20))
    v, x = agent.v, batch["s"]
    v.value(x)
    assert len(v.sink_values) == len(x)
    colearn.Trainer(agent, colearn.TrainConfig()).train_v(batch)
    want = v.net.forward(x)[:, 0] - v.net.forward(x * v.mask)[:, 0]
    assert v.value(x).tobytes() == want.tobytes()


def test_the_memo_of_the_sink_term_follows_load_params_and_polyak(tmp_path):
    # the memo was once cleared by train_v alone: a V loaded into the cached
    # sweeping agent kept answering with the cached V's f(0)
    from conftest import CACHE

    agent = colearn.Agent.load(CACHE / "sweeping")
    v, x = agent.v, np.array([[0.5, 0.2], [1.0, -0.3]])

    def plain():
        return v.net.forward(x)[:, 0] - v.net.forward(x * v.mask)[:, 0]

    assert v.value(x).tobytes() == plain().tobytes()
    assert len(v.sink_values) == len(x)
    fresh = colearn.make_agent(RobotKind.SWEEPING, seed=5).v.net
    nn.save_params(fresh, tmp_path / "v.json")
    nn.load_params(tmp_path / "v.json", v.net)
    assert v.value(x).tobytes() == plain().tobytes()
    assert np.abs(v.value(x)).max() < 0.1  # the cached V's f(0) gives about 3.65
    nn.polyak_update(v.net, colearn.make_agent(RobotKind.SWEEPING, seed=6).v.net, 0.5)
    assert v.value(x).tobytes() == plain().tobytes()


@pytest.mark.parametrize("name", ["sweeping", "point", "car", "sweeping_e2e", "point_e2e", "car_e2e"])
def test_cached_checkpoints_round_trip_byte_for_byte(name, tmp_path):
    # a load and a save give back every file save_checkpoint writes, byte for
    # byte, so Q, LQ and the targets, which no trajectory pin reads, are kept
    from conftest import CACHE

    loader = harness.E2ePolicy.load if name.endswith("_e2e") else colearn.Agent.load
    loader(CACHE / name).save(tmp_path)
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in (CACHE / name).iterdir() if p.name != "train_meta.json")
    for file in written:
        assert (tmp_path / file).read_bytes() == (CACHE / name / file).read_bytes(), file


def test_actor_step_single_critic_matches_finite_differences(monkeypatch):
    # the end-to-end baseline's actor update: one frozen critic with weight -1
    kind = RobotKind.POINT
    rng = np.random.default_rng(14)
    pi = harness.make_e2e_policy(kind, seed=3).net
    q_t = nn.Mlp([pi.in_dim + pi.out_dim, 64, 64, 1], "identity", rng)
    s = rng.normal(size=(32, pi.in_dim))
    rec = {}
    monkeypatch.setattr(nn, "adam_step", lambda state, params, grads: rec.setdefault("grads", grads))
    colearn.actor_step(pi, nn.AdamState(pi.params()), s, [(q_t, -1.0)])
    monkeypatch.undo()

    def loss():
        return float(np.mean(-q_t.forward(np.hstack([s, pi.forward(s)]))[:, 0]))

    params = pi.params()
    eps = 1e-6
    for _ in range(60):
        i = int(rng.integers(len(params)))
        j = int(rng.integers(params[i].size))
        p = params[i].ravel()
        orig = p[j]
        p[j] = orig + eps
        hi = loss()
        p[j] = orig - eps
        lo = loss()
        p[j] = orig
        assert rec["grads"][i].ravel()[j] == pytest.approx((hi - lo) / (2 * eps), rel=1e-4, abs=1e-8)


def test_train_config_validation():
    # the discount and the exploration noise are constants, not settings
    for name in ("gamma", "noise"):
        with pytest.raises(TypeError):
            colearn.TrainConfig(**{name: 0.5})
    # the shared default schedules cannot be changed in place
    with pytest.raises(FrozenInstanceError):
        harness.E2E_SCHEDULE.episodes = 1


def test_train_constants_are_in_range():
    # class constants, not fields: no config file or caller can set them
    assert 0.0 <= colearn.TrainConfig.gamma <= 1.0 and colearn.TrainConfig.noise >= 0.0
    assert colearn.TrainConfig.alpha >= 0.0
    assert colearn.TrainConfig.pos_margin > 0.0 and colearn.TrainConfig.lie_margin > 0.0
    # a goal sampled inside the reach tolerance would end its episode at once
    assert envs.REACH_TOL < colearn.TrainConfig.goal_min < colearn.TrainConfig.goal_range
    assert colearn.TrainConfig.hindsight_relabels >= 0


# the fields of a BenchmarkSummary other than its two rates
E2E_POINT_1 = dict(robot="point", level=1, method="e2e", n_episodes=10, mean_steps_to_reach=5.0)


@pytest.mark.parametrize(
    "make",
    [
        lambda: colearn.TrainConfig(horizon=float("nan")),
        lambda: colearn.TrainConfig(episodes=0),
        lambda: colearn.TrainConfig(grad_steps=0),
        lambda: colearn.TrainConfig(horizon=0),
        lambda: harness.BenchmarkSummary(**E2E_POINT_1, violation_rate=-0.1, reach_rate=0.5),
        lambda: harness.BenchmarkSummary(**E2E_POINT_1, violation_rate=0.1, reach_rate=1.5),
        lambda: lyapunov_eval.LyapunovReport(10, 0.5, -0.1, 0.0, 0.0),
        lambda: colearn.TrainConfig(warmup_episodes=-1),
        lambda: replace(harness.E2E_SCHEDULE, episodes=0),
        lambda: replace(harness.E2E_SCHEDULE, grad_steps=0),
        lambda: replace(harness.E2E_SCHEDULE, horizon=0),
        lambda: replace(harness.E2E_SCHEDULE, warmup_episodes=-1),
        lambda: colearn.TrainConfig(episodes=float("nan")),
    ],
)
def test_out_of_range_fields_raise_value_error(make):
    # real exceptions, so the checks also hold under python -O
    with pytest.raises(ValueError):
        make()


def test_both_learners_train_at_one_discount_and_noise(monkeypatch):
    seen = []
    for name, key in (("td_target", "gamma"), ("collect_episode", "noise")):

        def recording(*args, fn=getattr(colearn, name), key=key, **kwargs):
            seen.append((key, inspect.signature(fn).bind(*args, **kwargs).arguments[key]))
            return fn(*args, **kwargs)

        monkeypatch.setattr(colearn, name, recording)
    # a 300-step episode fills the replay past a batch, so each learner runs
    # gradient phases
    cfg = colearn.TrainConfig(episodes=2, warmup_episodes=1, grad_steps=1, horizon=300)
    for train in (colearn.colearn, harness.train_e2e):
        seen.clear()
        train(RobotKind.SWEEPING, cfg, seed=0)
        assert {key for key, _ in seen} == {"gamma", "noise"}
        assert all(value == getattr(colearn.TrainConfig, key) for key, value in seen), seen


def test_both_learners_train_through_one_loop(monkeypatch):
    calls = []

    def recording(*args, learn=colearn.learn):
        calls.append(args)
        return learn(*args)

    monkeypatch.setattr(colearn, "learn", recording)
    cfg = colearn.TrainConfig(episodes=2, warmup_episodes=1, grad_steps=1, horizon=20)
    for train in (colearn.colearn, harness.train_e2e):
        calls.clear()
        train(RobotKind.SWEEPING, cfg, seed=0)
        assert len(calls) == 1, train


def test_e2e_training_checks_its_networks_after_every_episode(monkeypatch):
    # the one warmup episode fills no batch, so no gradient phase runs; the
    # NaN is still found after it
    def make_with_nan(kind, seed=0, make=harness.make_e2e_policy):
        policy = make(kind, seed)
        policy.net.weights[1][3, 5] = np.nan
        return policy

    monkeypatch.setattr(harness, "make_e2e_policy", make_with_nan)
    cfg = colearn.TrainConfig(episodes=1, warmup_episodes=1, grad_steps=1, horizon=20)
    with pytest.raises(FloatingPointError, match="in e2e actor after episode 0"):
        harness.train_e2e(RobotKind.SWEEPING, cfg, seed=0)


def test_colearn_smoke_logs_and_checkpoints(tmp_path):
    cfg = colearn.TrainConfig(episodes=3, warmup_episodes=1, grad_steps=2, horizon=30)
    log = tmp_path / "log.csv"
    agent, rows = colearn.colearn(RobotKind.SWEEPING, cfg, seed=0, log_path=log)
    assert len(rows) == 3
    text = log.read_text().splitlines()
    assert text[0].startswith("episode,mean_reward,q_loss")
    assert len(text) == 4


def test_colearn_log_reports_hinge_fractions_and_replay_size(tmp_path):
    cfg = colearn.TrainConfig(episodes=3, warmup_episodes=1, grad_steps=2, horizon=30)
    log = tmp_path / "log.csv"
    _, rows = colearn.colearn(RobotKind.POINT, cfg, seed=1, log_path=log)
    header = log.read_text().splitlines()[0].split(",")
    assert all(header == list(row) for row in rows)
    assert header[-3:] == ["pos_hinge_frac", "lie_hinge_frac", "replay_size"]
    for row in rows:
        assert 0.0 <= row["pos_hinge_frac"] <= 1.0
        assert 0.0 <= row["lie_hinge_frac"] <= 1.0
    # every transition is stored once plus once per hindsight relabel
    sizes = [row["replay_size"] for row in rows]
    assert all(size % (1 + cfg.hindsight_relabels) == 0 for size in sizes)
    assert sizes == sorted(sizes) and sizes[0] > 0
    # gradient phases ran, so some hinge was active in some episode
    assert any(row["pos_hinge_frac"] + row["lie_hinge_frac"] > 0 for row in rows)


def test_train_log_csv_cells_are_plain_numbers(tmp_path):
    cfg = colearn.TrainConfig(episodes=3, warmup_episodes=1, grad_steps=2, horizon=30)
    log = tmp_path / "log.csv"
    _, rows = colearn.colearn(RobotKind.SWEEPING, cfg, seed=0, log_path=log)
    with open(log, newline="") as f:
        cells = list(csv.DictReader(f))
    assert len(cells) == len(rows)
    assert any(row["q_loss"] > 0 for row in rows)  # gradient phases ran
    for row, written in zip(rows, cells):
        for key, text in written.items():
            assert float(text) == row[key], (key, text)


def test_a_failed_training_run_keeps_its_log(tmp_path, monkeypatch):
    # a NaN in pi after episode 2 stops the run; the log still holds
    # episodes 0-1, byte for byte the log of a two-episode run
    def check_finite(net, context="", check=nn.check_finite):
        if context == "in pi after episode 2":
            net.weights[0][0, 0] = np.nan
        return check(net, context)

    cfg = colearn.TrainConfig(episodes=2, warmup_episodes=1, grad_steps=2, horizon=30)
    colearn.colearn(RobotKind.SWEEPING, cfg, seed=0, log_path=tmp_path / "two.csv")
    monkeypatch.setattr(nn, "check_finite", check_finite)
    with pytest.raises(FloatingPointError, match="in pi after episode 2"):
        colearn.colearn(RobotKind.SWEEPING, replace(cfg, episodes=4), seed=0, log_path=tmp_path / "failed.csv")
    text = (tmp_path / "failed.csv").read_text()
    assert [line.split(",")[0] for line in text.splitlines()] == ["episode", "0", "1"]
    assert text == (tmp_path / "two.csv").read_text()


# Training's bits, in a child process on one BLAS thread: a short co-learning
# of the point and the sweeping robot and a short sweeping e2e training, each
# with gradient phases. The digest covers every network's params_digest and
# the co-learning log rows. Batched gemms round by the kernels OpenBLAS runs,
# so the digests are keyed by OpenBLAS core, as the trajectory pins of
# test_harness.py are; the Haswell one was recorded under
# OPENBLAS_CORETYPE=Haswell.
TRAINING_RUN = """
import hashlib, json
from lyapnav import colearn, harness, nn
from lyapnav.envs import RobotKind

digest = hashlib.sha256()
q_losses = []
cfg = colearn.TrainConfig(episodes=3, warmup_episodes=1, grad_steps=5, horizon=30)
for kind in (RobotKind.POINT, RobotKind.SWEEPING):
    agent, rows = colearn.colearn(kind, cfg, seed=0)
    for net in agent.networks().values():
        digest.update(nn.params_digest(net).encode())
    digest.update(json.dumps(rows).encode())
    q_losses.append(rows[-1]["q_loss"])
e2e_cfg = colearn.TrainConfig(episodes=6, warmup_episodes=1, grad_steps=5, horizon=60)
e2e = nn.params_digest(harness.train_e2e(RobotKind.SWEEPING, e2e_cfg, seed=0).net)
digest.update(e2e.encode())
untrained = nn.params_digest(harness.make_e2e_policy(RobotKind.SWEEPING, seed=0).net)
print(json.dumps({"digest": digest.hexdigest(), "q_loss": q_losses, "e2e_trained": e2e != untrained}))
"""
PINNED_TRAINING = {
    "SkylakeX": "5d7e603ed599bc8e9d1fa0aa507391411c6a0f612875eb33618033df4b423a8b",
    "Haswell": "8c10a41eba7a9d8c4548eca5b92b575d108435707b4c06b83a2065b613901578",
}


def test_training_is_pinned_bit_for_bit(pin_core):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    src = str(Path(colearn.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", TRAINING_RUN], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    got = json.loads(proc.stdout)
    # every run took gradient phases
    assert all(q != 0.0 for q in got["q_loss"]) and got["e2e_trained"], got
    assert got["digest"] == PINNED_TRAINING[pin_core], f"training bits moved under {pin_core}"
