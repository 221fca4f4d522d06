"""Acceptance suite. One test per acceptance criterion, in order; each ends
with a single pass/fail assertion block using pinned tolerances.

Trained artifacts come from the session fixtures in conftest.py (seeded,
disk-cached); tolerances and budgets are written out literally so deviations
are visible in the diff.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import lyapnav
from lyapnav import colearn, envs, harness, lyapunov_eval, monitor, nn, planner
from lyapnav.envs import RobotKind


def rel_err(a, b):
    return np.abs(a - b) / (np.maximum(np.abs(a), np.abs(b)) + 1e-10)


# ---------------------------------------------------------------- criterion 1


def _capture_trainer_grads(monkeypatch, trainer, method, batch):
    """Run one Trainer update with the optimizer stubbed out, returning the
    analytic gradients the update would have applied."""
    rec = {}

    def fake_adam(state, params, grads):
        rec["grads"] = [g.copy() for g in grads]

    monkeypatch.setattr(nn, "adam_step", fake_adam)
    getattr(trainer, method)(batch)
    monkeypatch.undo()
    return rec["grads"]


def _fd_check(params, analytic, loss_fn, coords, eps=1e-6, tol=1e-4):
    checked = 0
    for pi, flat_idx in coords:
        p = params[pi].ravel()
        orig = p[flat_idx]
        p[flat_idx] = orig + eps
        hi = loss_fn()
        p[flat_idx] = orig - eps
        lo = loss_fn()
        p[flat_idx] = orig
        num = (hi - lo) / (2 * eps)
        ana = analytic[pi].ravel()[flat_idx]
        assert rel_err(ana, num) < tol or abs(ana - num) < 1e-8, (pi, flat_idx, ana, num)
        checked += 1
    return checked


def _random_coords(params, n, rng):
    sizes = [p.size for p in params]
    coords = []
    for _ in range(n):
        pi = int(rng.integers(len(params)))
        coords.append((pi, int(rng.integers(sizes[pi]))))
    return coords


def test_criterion_1_gradient_integrity(monkeypatch):
    t0 = time.time()
    rng = np.random.default_rng(0)
    kind = RobotKind.POINT
    agent = colearn.make_agent(kind, seed=0)
    cfg = colearn.TrainConfig()
    trainer = colearn.Trainer(agent, cfg)
    n = 32
    batch = {
        "s": rng.uniform(-2, 2, size=(n, 5)),
        "a": rng.uniform(-1, 1, size=(n, 2)),
        "r": rng.normal(size=n),
        "s1": rng.uniform(-2, 2, size=(n, 5)),
        "done": (rng.random(n) < 0.1).astype(float),
    }
    for i in range(n):  # keep headings on the unit circle
        for X in (batch["s"], batch["s1"]):
            X[i, 2:4] /= np.linalg.norm(X[i, 2:4])
    checked = 0

    # forward-net gradients (parameter and input) on 100+ random cases
    net = nn.Mlp([4, 8, 3], "tanh", rng)
    for _ in range(100):
        x = rng.normal(size=(3, 4))
        u = rng.normal(size=(3, 3))
        analytic, _ = net.gradients(x, u)
        coords = _random_coords(net.params(), 2, rng)
        checked += _fd_check(net.params(), analytic, lambda: float(np.sum(u * net.forward(x))), coords)

    # Lyapunov risk (hinged form actually minimized by the V update)
    sf = envs.featurize(kind, batch["s"])

    def v_loss():
        vs = agent.v.value(batch["s"])
        vs1 = agent.v.value(batch["s1"])
        vo = agent.v.value(batch["s"] * envs.sink_mask(kind))
        floor = cfg.pos_margin * np.linalg.norm(batch["s"][:, :2], axis=1)
        return float(
            np.mean(vo**2 + np.maximum(0.0, floor - vs) + np.maximum(0.0, vs1 - vs + cfg.lie_margin))
        )

    grads = _capture_trainer_grads(monkeypatch, trainer, "train_v", batch)
    checked += _fd_check(agent.v.net.params(), grads, v_loss, _random_coords(agent.v.net.params(), 120, rng))

    # Lyapunov-critic regression loss (V target frozen)
    lq_target = agent.v.value(batch["s1"])

    def lq_loss():
        pred = agent.lq.forward(np.hstack([sf, batch["a"]]))[:, 0]
        return float(np.mean((pred - lq_target) ** 2))

    grads = _capture_trainer_grads(monkeypatch, trainer, "train_lq", batch)
    checked += _fd_check(agent.lq.params(), grads, lq_loss, _random_coords(agent.lq.params(), 120, rng))

    # TD loss for Q (bootstrap target frozen)
    a1 = agent.pi_t.forward(envs.featurize(kind, batch["s1"]))
    q1 = agent.q_t.forward(np.hstack([envs.featurize(kind, batch["s1"]), a1]))[:, 0]
    y = batch["r"] + cfg.gamma * (1.0 - batch["done"]) * q1

    def q_loss():
        q = agent.q.forward(np.hstack([sf, batch["a"]]))[:, 0]
        return float(np.mean((q - y) ** 2))

    grads = _capture_trainer_grads(monkeypatch, trainer, "train_q", batch)
    checked += _fd_check(agent.q.params(), grads, q_loss, _random_coords(agent.q.params(), 120, rng))

    # actor loss through both frozen critics
    def pi_loss():
        return colearn.policy_loss(agent.pi, agent.q_t, agent.lq_t, batch["s"], cfg.alpha, kind)

    grads = _capture_trainer_grads(monkeypatch, trainer, "train_pi", batch)
    checked += _fd_check(agent.pi.params(), grads, pi_loss, _random_coords(agent.pi.params(), 120, rng))

    elapsed = time.time() - t0
    assert checked >= 400
    assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s"


# ---------------------------------------------------------------- criterion 2


def _quad(k):
    value = lambda x: k * np.sum(np.atleast_2d(x)[:, :2] ** 2, axis=1)

    def grad(x):
        x = np.atleast_2d(x)
        g = np.zeros_like(x)
        g[:, :2] = 2 * k * x[:, :2]
        return g

    return value, grad


BOX2 = (np.array([-3.0, -3.0]), np.array([3.0, 3.0]))


def test_criterion_2_synthetic_v_oracle():
    t0 = time.time()
    for k in (0.25, 1.0, 4.0):
        value, grad = _quad(k)
        for c in (0.25, 1.0, 4.0):
            r = monitor.overapprox_radius(value, grad, c, BOX2, seed=1)
            assert rel_err(r, np.sqrt(c / k)) < 0.02, (k, c, r)
        grid = np.array([0.25, 1.0, 4.0])
        lut = monitor.build_lut(value, grad, grid, BOX2, seed=2)
        assert np.all(rel_err(lut.radii, np.sqrt(grid / k)) < 0.02)
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"criterion 2 took {elapsed:.1f}s"


# ---------------------------------------------------------------- criterion 3


def _soundness(lut, value_fn, grad_fn, states, box, project):
    levels = np.asarray(value_fn(states), dtype=float)
    keep = (levels > 0) & (levels <= lut.keys[-1])
    levels = levels[keep]
    fast = monitor.SearchConfig(n_starts=8, n_steps=80)
    fresh = monitor.batch_radii(value_fn, grad_fn, levels, box, fast, seed=9, project=project)
    for lev, fr in zip(levels, fresh):
        if np.isnan(fr):
            continue
        table = monitor.lut_query(lut, lev)
        assert table >= fr - max(0.02 * fr, 1e-3), (lev, table, fr)


def test_criterion_3_certificate_table_properties(sweeping_agent, sweeping_lut):
    # ceiling rule, monotonicity, rejection — synthetic table
    value, grad = _quad(1.0)
    lut = monitor.build_lut(value, grad, np.geomspace(0.1, 4.0, 16), BOX2, seed=4)
    assert np.all(np.diff(lut.radii) >= 0)
    rng = np.random.default_rng(5)
    for lev in rng.uniform(0.05, 4.0, size=50):
        idx = int(np.searchsorted(lut.keys, lev, side="left"))
        assert monitor.lut_query(lut, lev) == lut.radii[idx]
    with pytest.raises(monitor.LevelExceededError):
        monitor.lut_query(lut, lut.keys[-1] * 1.01)

    # 1,000-state soundness on the synthetic V
    states = rng.uniform(-2, 2, size=(1000, 2))
    _soundness(lut, value, grad, states, BOX2, None)

    # and on the trained sweeping V against its shipped table
    assert np.all(np.diff(sweeping_lut.radii) >= 0)
    with pytest.raises(monitor.LevelExceededError):
        monitor.lut_query(sweeping_lut, sweeping_lut.keys[-1] * 1.01)
    S, _ = lyapunov_eval.sample_transitions(RobotKind.SWEEPING, sweeping_agent.policy, 1000, seed=6)
    box = monitor.state_box(RobotKind.SWEEPING, 3.0)
    _soundness(sweeping_lut, sweeping_agent.v.value, sweeping_agent.v.grad, S, box, None)


# ---------------------------------------------------------------- criterion 4


def test_criterion_4_colearning_viability(sweeping_trained):
    agent, meta = sweeping_trained
    assert meta["episodes"] == 200
    assert meta["train_seconds"] < 600.0, f"training took {meta['train_seconds']:.0f}s"
    rewards = np.asarray(meta["episode_rewards"])
    d0 = np.asarray(meta["start_distances"])
    decile = len(rewards) // 10
    first, final = rewards[:decile], rewards[-decile:]
    assert final.mean() >= 1.5 * first.mean(), (first.mean(), final.mean())
    # final-decile rewards within 10% of the telescoped optimum |g - pos(s0)|
    ratio = final.mean() / d0[-decile:].mean()
    assert ratio >= 0.90, f"final-decile reward ratio {ratio:.3f}"


# ---------------------------------------------------------------- criterion 5


def test_criterion_5_nlf_quality(sweeping_agent, point_agent):
    t0 = time.time()
    for agent in (sweeping_agent, point_agent):
        report = lyapunov_eval.evaluate(agent, n=10_000, seed=7)
        assert report.n_samples == 10_000
        assert report.joint_rate >= 0.95, f"{agent.kind.value} joint rate {report.joint_rate:.4f}"
        assert report.max_sink_abs < 1e-3, f"{agent.kind.value} sink residual {report.max_sink_abs:.2e}"
    elapsed = time.time() - t0
    assert elapsed < 300.0, f"criterion 5 took {elapsed:.1f}s"


# ---------------------------------------------------------------- criterion 6


def test_criterion_6_monitored_safety_level_1(sweeping_agent, sweeping_lut, point_agent, point_lut):
    t0 = time.time()
    s_sum, _ = harness.run_benchmark("monitored", sweeping_agent, 1, 100, seed=0, lut=sweeping_lut)
    assert s_sum.violation_rate <= 0.05, f"sweeping violation {s_sum.violation_rate}"
    assert s_sum.reach_rate >= 0.90, f"sweeping reach {s_sum.reach_rate}"
    p_sum, _ = harness.run_benchmark("monitored", point_agent, 1, 100, seed=0, lut=point_lut)
    assert p_sum.violation_rate <= 0.10, f"point violation {p_sum.violation_rate}"
    assert p_sum.reach_rate >= 0.80, f"point reach {p_sum.reach_rate}"
    elapsed = time.time() - t0
    assert elapsed < 900.0, f"criterion 6 took {elapsed:.1f}s"


def test_criterion_6_ordering_gates(sweeping_agent, sweeping_lut, car_agent, car_lut, sweeping_e2e, car_e2e, tmp_path):
    # car level-1 and sweeping level-2/3: reported, gated only on the
    # violation-rate ordering vs the end-to-end baseline on paired seeds
    # (reduced episode counts; see the decisions ledger)
    summaries, all_eps = [], []
    runs = [
        ("car", car_agent, car_lut, car_e2e, 1, 20),
        ("sweeping", sweeping_agent, sweeping_lut, sweeping_e2e, 2, 12),
        ("sweeping", sweeping_agent, sweeping_lut, sweeping_e2e, 3, 6),
    ]
    for label, agent, lut, e2e, level, n_eps in runs:
        mon, mon_eps = harness.run_benchmark("monitored", agent, level, n_eps, seed=1, lut=lut)
        base, base_eps = harness.run_benchmark("e2e", e2e, level, n_eps, seed=1)
        assert mon.violation_rate <= base.violation_rate, (
            f"{label} level {level}: monitored violation {mon.violation_rate} "
            f"> e2e violation {base.violation_rate}"
        )
        summaries += [mon, base]
        all_eps += mon_eps + base_eps
    harness.write_reports(summaries, all_eps, tmp_path / "ordering")


# ---------------------------------------------------------------- criterion 7


def test_criterion_7_steps_conservatism(sweeping_agent, sweeping_lut):
    mon, _ = harness.run_benchmark("monitored", sweeping_agent, 1, 50, seed=0, lut=sweeping_lut)
    direct, _ = harness.run_benchmark("direct", sweeping_agent, 1, 50, seed=0)
    assert direct.reach_rate > 0
    assert mon.reach_rate > 0
    assert mon.mean_steps_to_reach > direct.mean_steps_to_reach, (
        mon.mean_steps_to_reach,
        direct.mean_steps_to_reach,
    )
    # the '-' convention for complete failure, rendered by the real writer
    failed = harness.summarize(
        [harness.EpisodeReport("e2e", "car", 1, s, "violated", 5) for s in range(4)]
    )
    row = harness.render_table([failed]).splitlines()[1]
    assert row.split()[-1] == "-"


# ---------------------------------------------------------------- criterion 8


def test_criterion_8_planner_suite():
    t0 = time.time()
    for seed in range(100):
        world = envs.make_world(1, seed=seed)
        cfg = planner.PlannerConfig()
        path = planner.plan_path(world, cfg, seed=seed)
        assert np.allclose(path[0], world.start) and np.allclose(path[-1], world.goal)
        for a, b in zip(path[:-1], path[1:]):
            assert planner.segment_free(a, b, world, cfg.margin)
    world = envs.empty_world()
    ring = [
        [world.goal[0] + 0.45 * np.cos(t), world.goal[1] + 0.45 * np.sin(t), 0.2]
        for t in np.linspace(0, 2 * np.pi, 24, endpoint=False)
    ]
    world.hazards = np.array(ring)
    cfg = planner.PlannerConfig()
    cfg.max_iters = 3000
    with pytest.raises(planner.PlanNotFound):
        planner.plan_path(world, cfg, seed=0)
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"criterion 8 took {elapsed:.1f}s"


# ---------------------------------------------------------------- criterion 9


def _cli_env():
    """Environment for CLI subprocesses: the same lyapnav this process
    imported comes first on an absolute PYTHONPATH (a relative one would not
    resolve from the subprocess's cwd), and LYAPNAV_SEED is dropped so every
    --seed in the command table is the seed actually used."""
    env = {k: v for k, v in os.environ.items() if k != "LYAPNAV_SEED"}
    src = str(Path(lyapnav.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _run_cli(args, cwd):
    proc = subprocess.run(
        [sys.executable, "-m", "lyapnav.cli", *args],
        cwd=cwd,
        env=_cli_env(),
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_criterion_9_cli_determinism(tmp_path, sweeping_agent, sweeping_lut):
    from conftest import CACHE

    agent_dir = str(CACHE / "sweeping")
    lut_path = str(CACHE / "sweeping_lut.json")
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"train": {"episodes": 3, "warmup_episodes": 1, "grad_steps": 2, "horizon": 30}, '
                   '"e2e": {"episodes": 2, "warmup_episodes": 1, "grad_steps": 2, "horizon": 20}}')
    commands = {
        "train": ["train", "--robot", "sweeping", "--config", str(cfg), "--seed", "5", "--out", "OUT"],
        "train-e2e": ["train-e2e", "--robot", "sweeping", "--config", str(cfg), "--seed", "5", "--out", "OUT"],
        "eval-nlf": ["eval-nlf", "--agent", agent_dir, "--n", "200", "--seed", "5", "--out", "OUT/report.json"],
        "build-lut": ["build-lut", "--agent", agent_dir, "--n-samples", "200", "--seed", "5", "--out", "OUT/lut.json"],
        "plan": ["plan", "--level", "1", "--seed", "5", "--out", "OUT/path.json"],
        "bench": [
            "bench", "--method", "monitored", "--agent", agent_dir, "--lut", lut_path,
            "--level", "1", "--episodes", "3", "--seed", "5", "--out", "OUT",
        ],
    }
    for name, args in commands.items():
        outputs = []
        for attempt in ("a", "b"):
            out_dir = tmp_path / f"{name}_{attempt}"
            out_dir.mkdir()
            _run_cli([a.replace("OUT", str(out_dir)) for a in args], cwd=tmp_path)
            outputs.append({p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.is_file()})
        assert outputs[0] == outputs[1], f"{name} outputs differ between reruns"
    # report is idempotent over bench results
    bench_dir = tmp_path / "bench_a"
    before = (bench_dir / "summary.csv").read_bytes()
    _run_cli(["report", "--results", str(bench_dir)], cwd=tmp_path)
    assert (bench_dir / "summary.csv").read_bytes() == before
