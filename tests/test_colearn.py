"""Co-learning building blocks: Lyapunov net, replay, losses, episodes."""

import csv
import inspect
import json
import shutil
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from lyapnav import colearn, envs, harness, lyapunov_eval, monitor, nn
from lyapnav.envs import RobotKind


def test_lyapunov_net_exactly_zero_on_sinks():
    for kind in RobotKind:
        v = colearn.LyapunovNet(kind, rng=np.random.default_rng(0))
        d = envs.state_dim(kind)
        sinks = np.random.default_rng(1).normal(size=(10, d)) * envs.sink_mask(kind)
        assert np.max(np.abs(v.value(sinks))) == 0.0


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


def test_lyapunov_risk_formula_oracle():
    # oracle: recompute the three risk terms by hand for V = sum of state
    value_fn = lambda x: np.atleast_2d(x).sum(axis=1)
    s = np.array([[1.0, 2.0], [-3.0, 1.0]])
    s1 = np.array([[2.0, 2.0], [-4.0, 1.0]])
    sinks = np.array([[0.5, 0.0], [0.0, 0.0]])
    expected = np.mean(
        [0.5**2 + max(0, -3.0) + max(0, 4.0 - 3.0), 0.0 + max(0, 2.0) + max(0, -3.0 - (-2.0))]
    )
    assert colearn.lyapunov_risk(value_fn(s), value_fn(s1), value_fn(sinks)) == pytest.approx(expected)


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
    sg = np.array([1.0, 2.0, 0.0, 1.0, 0.1])
    direct = agent.pi.forward(envs.featurize(RobotKind.POINT, sg))
    assert np.array_equal(agent.policy.forward(sg), direct)


def test_sample_goal_respects_annulus():
    cfg = colearn.TrainConfig()
    rng = np.random.default_rng(6)
    for _ in range(200):
        start, g = colearn.sample_task(RobotKind.POINT, cfg, rng)
        assert np.array_equal(start.pos, [0.0, 0.0])
        assert cfg.goal_min <= np.linalg.norm(g) <= cfg.goal_range


def arena_episode(policy, cfg, rng, noise, relabels=0):
    """One training-arena episode, drawn as ``colearn.colearn`` draws it."""
    start, goal = colearn.sample_task(policy.kind, cfg, rng)
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
        risk = colearn.lyapunov_risk(vs, vs1, agent.v.value(colearn.sink_state(kind, s)))
        pos = np.mean(vs < cfg.pos_margin * np.linalg.norm(s[:, :2], axis=1))
        lie = np.mean(vs1 - vs > -cfg.lie_margin)
        before = nn.params_digest(agent.v.net)
        got_risk, got_pos, got_lie = trainer.train_v(batch)
        assert got_risk == pytest.approx(risk, rel=1e-12, abs=1e-15)
        assert (got_pos, got_lie) == (pos, lie)
        assert nn.params_digest(agent.v.net) != before


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


@pytest.mark.parametrize(
    "make",
    [
        lambda: colearn.TrainConfig(horizon=float("nan")),
        lambda: colearn.TrainConfig(episodes=0),
        lambda: colearn.TrainConfig(grad_steps=0),
        lambda: colearn.TrainConfig(horizon=0),
        lambda: harness.BenchmarkSummary("e2e", "point", 1, 10, -0.1, 0.5, 5.0),
        lambda: harness.BenchmarkSummary("e2e", "point", 1, 10, 0.1, 1.5, 5.0),
        lambda: lyapunov_eval.LyapunovReport(10, 0.5, -0.1, 0.0, 0.0),
        lambda: colearn.TrainConfig(warmup_episodes=-1),
        lambda: replace(harness.E2E_SCHEDULE, episodes=0),
        lambda: replace(harness.E2E_SCHEDULE, grad_steps=0),
        lambda: replace(harness.E2E_SCHEDULE, horizon=0),
        lambda: replace(harness.E2E_SCHEDULE, warmup_episodes=-1),
        lambda: colearn.TrainConfig(episodes=float("nan")),
        lambda: monitor.MonitorConfig(delta=float("nan")),
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
