"""Config files: every section and key names a setting that a command reads,
and only the training commands read one."""

import csv
import json
import shutil
from dataclasses import fields

import numpy as np
import pytest

from lyapnav import cli, colearn, envs, harness, monitor, planner


@pytest.fixture
def no_work(monkeypatch):
    """Fail the test if a command gets as far as training."""

    def fail(*args, **kwargs):
        pytest.fail("the config file was accepted")

    monkeypatch.setattr(colearn, "colearn", fail)
    monkeypatch.setattr(harness, "train_e2e", fail)


def test_config_file_sets_eight_values():
    # a new settable value shows up here, in the diff
    settable = {section: [f.name for f in fields(cfg)] for section, cfg in cli.CONFIG_SECTIONS.items()}
    schedule = ["episodes", "grad_steps", "horizon", "warmup_episodes"]
    assert settable == {"train": schedule, "e2e": schedule}


@pytest.mark.parametrize(
    "command, doc, match",
    [
        ("train", {"train": {"hidden": [32, 32]}}, "hidden"),
        ("train-e2e", {"e2e": {"hidden": [32, 32]}}, "hidden"),
        ("train", {"train": {"reach_tol": 0.2}}, "reach_tol"),
        ("train", {"lut": {"n_keys": 4}}, "lut"),
        ("train", {"trian": {}}, "trian"),
        ("train", {"train": {"tau": 0.01}}, "tau"),
        ("train-e2e", {"e2e": {"penalty": 0.0}}, "penalty"),
        ("train", {"train": {"alpha": 1.0}}, "alpha"),
        ("train", {"train": {"hindsight_relabels": 0}}, "hindsight_relabels"),
        ("train", {"planner": {"margin": 0.6, "max_iters": 5}}, "planner"),
        ("train-e2e", {"monitor": {"window": 0}}, "monitor"),
        ("train", {"search": {"n_starts": 8}}, "search"),
    ],
    ids=[
        "train.hidden", "e2e.hidden", "train.reach_tol", "lut", "trian", "train.tau", "e2e.penalty",
        "train.alpha", "train.hindsight_relabels", "planner", "monitor", "search",
    ],
)
def test_config_file_with_unused_setting_is_rejected(tmp_path, no_work, command, doc, match):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    args = cli.build_parser().parse_args([command, "--robot", "sweeping", "--out", str(out), "--config", str(cfg)])
    with pytest.raises(ValueError, match=match):
        args.fn(args)
    assert not out.exists()


def test_config_file_may_hold_every_section(tmp_path):
    # sections are checked against one set, not per command, so one file can
    # carry the schedules of both training commands
    cfg = tmp_path / "cfg.json"
    doc = {"train": {"episodes": 3}, "e2e": {"episodes": 2}}
    cfg.write_text(json.dumps(doc))
    assert cli.load_config(str(cfg)) == doc


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"train": 5}, "config section train must be a JSON object, got 5"),
        ({"e2e": True}, "config section e2e must be a JSON object, got true"),
        ({"train": None}, "config section train must be a JSON object, got null"),
        ({"train": "ab"}, 'config section train must be a JSON object, got "ab"'),
    ],
    ids=["train.int", "e2e.bool", "train.null", "train.string"],
)
def test_config_section_that_is_not_an_object_is_a_command_error(tmp_path, no_work, capsys, doc, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    command = "train-e2e" if "e2e" in doc else "train"
    assert cli.main([command, "--robot", "sweeping", "--out", str(out), "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["plan", "--out", "p.json", "--config", "cfg.json"],
        ["bench", "--method", "monitored", "--agent", "a", "--out", "o", "--config", "cfg.json"],
        ["build-lut", "--agent", "a", "--out", "l.json", "--config", "cfg.json"],
        ["build-lut", "--agent", "a", "--out", "l.json", "--reach", "4.0"],
    ],
    ids=["plan", "bench", "build-lut", "build-lut.reach"],
)
def test_runtime_commands_take_no_settings(argv, capsys):
    # the planner, monitor and sublevel search run at their defaults
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_plan_writes_the_path_a_bench_episode_follows(tmp_path, sweeping_agent, sweeping_lut, monkeypatch):
    seed = 5
    out = tmp_path / "path.json"
    assert cli.main(["plan", "--level", "3", "--seed", str(seed), "--out", str(out)]) == 0
    planned = []
    plan_path = planner.plan_path

    def recording(*args, **kwargs):
        planned.append(plan_path(*args, **kwargs))
        raise planner.PlanNotFound("recorded; the episode itself is not needed")

    monkeypatch.setattr(planner, "plan_path", recording)
    world = envs.make_world(3, seed)
    rep = harness.run_episode("monitored", sweeping_agent, world, lut=sweeping_lut, plan_seed=seed)
    assert rep.outcome == "plan_failed" and len(planned) == 1
    assert out.read_text() == planner.path_to_json(planned[0], planner.PlannerConfig(), seed)
    assert np.array(json.loads(out.read_text())["waypoints"]).tobytes() == planned[0].tobytes()


def test_int_setting_takes_json_integers_only():
    assert cli.apply_overrides("train", {"episodes": 5}).episodes == 5
    for value in (5.0, "5", None, [5]):
        with pytest.raises(ValueError, match=r"train\.episodes must be an integer"):
            cli.apply_overrides("train", {"episodes": value})


@pytest.mark.parametrize("value", [True, False])
def test_true_and_false_are_not_numbers(value):
    with pytest.raises(ValueError, match=r"e2e\.episodes must be an integer"):
        cli.apply_overrides("e2e", {"episodes": value})
    with pytest.raises(ValueError, match=r"train\.horizon must be an integer"):
        cli.apply_overrides("train", {"horizon": value})


def test_wrongly_typed_setting_is_a_command_error(tmp_path, no_work, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"train": {"episodes": "5"}}))
    out = tmp_path / "out"
    assert cli.main(["train", "--robot", "sweeping", "--out", str(out), "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == 'error: config setting train.episodes must be an integer, got "5"\n'


def _lut_without(key):
    doc = json.loads(monitor.RoaLut(keys=[1.0, 2.0], radii=[0.5, 1.0], box=(np.zeros(2), np.ones(2))).to_json())
    del doc[key]
    return doc


@pytest.mark.parametrize(
    "command, doc, message",
    [
        ("bench", _lut_without("seed"), "error: lookup table JSON has no 'seed' entry\n"),
        ("bench", [1.0, 2.0], "error: malformed lookup table JSON: list indices must be integers or slices, not str\n"),
        ("plan", {"size": 4.0, "hazards": []}, "error: world JSON has no 'start' entry\n"),
    ],
    ids=["bench.lut-without-seed", "bench.lut-not-an-object", "plan.world-without-start"],
)
def test_malformed_input_document_is_a_command_error(tmp_path, sweeping_agent, command, doc, message, capsys):
    from conftest import CACHE

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "out"
    if command == "bench":
        argv = ["bench", "--method", "monitored", "--agent", str(CACHE / "sweeping"), "--lut", str(bad)]
    else:
        argv = ["plan", "--world", str(bad)]
    assert cli.main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == message
    assert not out.exists()


@pytest.mark.parametrize("agent, method, network", [("sweeping", "direct", "pi"), ("sweeping_e2e", "e2e", "e2e_pi")])
def test_bench_on_a_non_finite_checkpoint_is_a_command_error(
    tmp_path, sweeping_agent, sweeping_e2e, capsys, agent, method, network
):
    from conftest import CACHE

    agent_dir = tmp_path / agent
    shutil.copytree(CACHE / agent, agent_dir)
    doc = json.loads((agent_dir / f"{network}.json").read_text())
    doc["biases"][0][0] = float("nan")
    (agent_dir / f"{network}.json").write_text(json.dumps(doc))
    out = tmp_path / "out"
    argv = ["bench", "--method", method, "--agent", str(agent_dir), "--level", "1", "--episodes", "3", "--seed", "0"]
    assert cli.main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: checkpoint ") and err.endswith(" has non-finite parameters\n"), err
    assert not out.exists()


def test_build_lut_on_a_negative_sample_count_is_a_command_error(tmp_path, sweeping_agent, capsys):
    from conftest import CACHE

    out = tmp_path / "lut.json"
    argv = ["build-lut", "--agent", str(CACHE / "sweeping"), "--n-samples", "-3", "--out", str(out)]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "error: sample_transitions needs a count n >= 0, got n=-3\n"
    assert not out.exists()


@pytest.mark.parametrize("smallest, flagged", [(0.19, False), (0.2, True)])
def test_build_lut_flags_a_table_wider_than_the_planner_margin(tmp_path, monkeypatch, capsys, smallest, flagged):
    # a synthetic table: the flag depends only on radii[0] * radius_inflation against the margin
    lut = monitor.RoaLut(keys=[0.1, 1.0], radii=[smallest, 2.0], box=monitor.state_box(envs.RobotKind.SWEEPING, 3.0))
    monkeypatch.setattr(colearn.Agent, "load", lambda path: None)
    monkeypatch.setattr(monitor, "build_agent_lut", lambda agent, n_samples, seed: lut)
    out = tmp_path / "lut.json"
    assert cli.main(["build-lut", "--agent", "a", "--out", str(out)]) == 0
    assert out.read_text() == lut.to_json()
    err = capsys.readouterr().err
    if flagged:
        inflated = smallest * monitor.MonitorConfig.radius_inflation
        assert err.count("\n") == 1 and f"{inflated:.3f}" in err and f"{planner.PlannerConfig.margin}" in err, err
    else:
        assert err == ""


GOOD_EPISODES = "method,robot,level,world_seed,outcome,steps\nmonitored,point,1,7,reached,40\n"


def test_report_rereads_the_episodes_it_wrote(tmp_path, capsys):
    outcomes = [("reached", 40), ("violated", 3), ("stalled", 9), ("timeout", 1000), ("plan_failed", 0)]
    eps = [harness.EpisodeReport("h-e2e", "car", 2, i, o, n) for i, (o, n) in enumerate(outcomes)]
    harness.write_reports([harness.summarize(eps)], eps, tmp_path)
    written = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert cli.main(["report", "--results", str(tmp_path)]) == 0
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == written
    assert harness.read_episodes(tmp_path / "episodes.csv") == eps
    assert harness.EPISODE_FIELDS == ["method", "robot", "level", "world_seed", "outcome", "steps"]
    assert capsys.readouterr().out == written["table.txt"].decode() + "\n"


@pytest.mark.parametrize(
    "text, message",
    [
        (GOOD_EPISODES.replace(",steps", "").replace(",40", ""), "has no column steps"),
        (GOOD_EPISODES + "monitored,point,1,8,reached\n", "line 3: expected 6 fields"),
        (GOOD_EPISODES + "monitored,point,1,8,reached,40,x\n", "line 3: expected 6 fields"),
        (GOOD_EPISODES + "monitored,point,1,8,reached,4.5\n", "line 3: invalid literal for int"),
        (GOOD_EPISODES + "monitored,point,1,8,flying,40\n", "line 3: outcome must be one of"),
        (GOOD_EPISODES + "teleport,point,1,8,reached,40\n", "line 3: method must be one of"),
        (GOOD_EPISODES + "monitored,boat,1,8,reached,40\n", "line 3: robot must be one of"),
        (GOOD_EPISODES + "monitored,point,9,8,reached,40\n", "line 3: level must be one of (1, 2, 3), got 9"),
        (GOOD_EPISODES + "monitored,point,1,8,reached,-40\n", "line 3: steps must be at least 0, got -40"),
        ("", "has no column method, robot, level, world_seed, outcome, steps"),
    ],
    ids=[
        "no-steps-column",
        "short-row",
        "long-row",
        "non-integer-steps",
        "unknown-outcome",
        "unknown-method",
        "unknown-robot",
        "unknown-level",
        "negative-steps",
        "empty-file",
    ],
)
def test_report_on_malformed_episodes_is_a_command_error(tmp_path, capsys, text, message):
    (tmp_path / "episodes.csv").write_text(text)
    assert cli.main(["report", "--results", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err, err
    assert {p.name for p in tmp_path.iterdir()} == {"episodes.csv"}


def test_train_e2e_writes_the_training_log(tmp_path):
    # three 100-step episodes: the replay holds a batch from the third on
    schedule = {"episodes": 3, "grad_steps": 2, "horizon": 100, "warmup_episodes": 1}
    config, out = tmp_path / "schedule.json", tmp_path / "e2e"
    config.write_text(json.dumps({"e2e": schedule}))
    assert cli.main(["train-e2e", "--robot", "point", "--config", str(config), "--out", str(out)]) == 0
    with open(out / "train_log.csv", newline="") as f:
        reader = csv.DictReader(f)
        rows = [{k: float(v) for k, v in row.items()} for row in reader]
    assert reader.fieldnames == list(colearn.LOG_FIELDS)
    assert [row["episode"] for row in rows] == [0, 1, 2]
    size = 0
    for row in rows:
        # no relabeled copies: the replay grows by the rollout, which runs to
        # the horizon unless it reaches the goal
        grown = row["replay_size"] - size
        assert grown == schedule["horizon"] or (row["reached"] == 1 and 0 < grown < schedule["horizon"]), row
        size = row["replay_size"]
        assert (row["q_loss"] > 0) == (size >= colearn.BATCH_SIZE), row
        # the baseline has no Lyapunov pair
        assert [row[k] for k in ("lyapunov_risk", "lq_loss", "pos_hinge_frac", "lie_hinge_frac")] == [0, 0, 0, 0]
