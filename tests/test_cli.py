"""Config files: every section and key names a setting that a command reads,
and only the training commands read one."""

import json
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


def test_config_file_sets_ten_values():
    # a new settable value shows up here, in the diff
    settable = {section: [f.name for f in fields(cls)] for section, cls in cli.CONFIG_SECTIONS.items()}
    assert settable == {
        "train": ["gamma", "episodes", "grad_steps", "noise", "horizon", "warmup_episodes"],
        "e2e": ["episodes", "warmup_episodes", "grad_steps", "horizon"],
    }


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
    assert out.read_text() == planner.path_to_json(planned[0], planner.PlannerConfig.for_world(world), seed)
    assert planner.path_from_json(out.read_text()).tobytes() == planned[0].tobytes()


def test_int_setting_takes_json_integers_only():
    assert cli.apply_overrides(colearn.TrainConfig(), {"episodes": 5}).episodes == 5
    for value in (5.0, "5", None, [5]):
        with pytest.raises(ValueError, match=r"train\.episodes must be an integer"):
            cli.apply_overrides(colearn.TrainConfig(), {"episodes": value})


def test_float_setting_takes_integers_and_floats():
    cfg = cli.apply_overrides(colearn.TrainConfig(), {"gamma": 0.5, "noise": 0})
    assert (cfg.gamma, cfg.noise) == (0.5, 0)
    for value in ("0.5", None, {"x": 1}):
        with pytest.raises(ValueError, match=r"train\.gamma must be a number"):
            cli.apply_overrides(colearn.TrainConfig(), {"gamma": value})


@pytest.mark.parametrize("value", [True, False])
def test_true_and_false_are_not_numbers(value):
    with pytest.raises(ValueError, match=r"e2e\.episodes must be an integer"):
        cli.apply_overrides(harness.E2eTrainConfig(), {"episodes": value})
    with pytest.raises(ValueError, match=r"train\.noise must be a number"):
        cli.apply_overrides(colearn.TrainConfig(), {"noise": value})


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
