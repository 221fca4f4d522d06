"""Config files: every section and key names a setting that a command reads."""

import json

import pytest

from lyapnav import cli, colearn, harness, monitor


@pytest.fixture
def no_work(monkeypatch):
    """Fail the test if a command gets as far as training or loading an agent."""

    def fail(*args, **kwargs):
        pytest.fail("the config file was accepted")

    monkeypatch.setattr(colearn, "colearn", fail)
    monkeypatch.setattr(harness, "train_e2e", fail)
    monkeypatch.setattr(colearn.Agent, "load", fail)


@pytest.mark.parametrize(
    "command, doc, match",
    [
        ("train", {"train": {"hidden": [32, 32]}}, "hidden"),
        ("train-e2e", {"e2e": {"hidden": [32, 32]}}, "hidden"),
        ("train", {"train": {"reach_tol": 0.2}}, "reach_tol"),
        ("build-lut", {"lut": {"n_keys": 4}}, "lut"),
        ("train", {"trian": {}}, "trian"),
        ("train", {"train": {"tau": 0.01}}, "tau"),
        ("train-e2e", {"e2e": {"penalty": 0.0}}, "penalty"),
    ],
    ids=["train.hidden", "e2e.hidden", "train.reach_tol", "lut", "trian", "train.tau", "e2e.penalty"],
)
def test_config_file_with_unused_setting_is_rejected(tmp_path, no_work, command, doc, match):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    if command == "build-lut":
        argv = [command, "--agent", str(tmp_path / "agent"), "--out", str(out), "--config", str(cfg)]
    else:
        argv = [command, "--robot", "sweeping", "--out", str(out), "--config", str(cfg)]
    args = cli.build_parser().parse_args(argv)
    with pytest.raises(ValueError, match=match):
        args.fn(args)
    assert not out.exists()


def test_config_file_may_hold_every_section(tmp_path):
    # sections are checked against one set, not per command, so one file can
    # carry the sections of several commands
    cfg = tmp_path / "cfg.json"
    doc = {section: {} for section in ("train", "e2e", "planner", "monitor", "search")}
    cfg.write_text(json.dumps(doc))
    assert cli.load_config(str(cfg)) == doc


def test_int_setting_takes_json_integers_only():
    assert cli.apply_overrides(colearn.TrainConfig(), {"episodes": 5}).episodes == 5
    for value in (5.0, "5", None, [5]):
        with pytest.raises(ValueError, match=r"train\.episodes must be an integer"):
            cli.apply_overrides(colearn.TrainConfig(), {"episodes": value})


def test_float_setting_takes_integers_and_floats():
    cfg = cli.apply_overrides(monitor.MonitorConfig(), {"delta": 0.25, "radius_inflation": 1})
    assert (cfg.delta, cfg.radius_inflation) == (0.25, 1)
    for value in ("0.25", None, {"x": 1}):
        with pytest.raises(ValueError, match=r"monitor\.delta must be a number"):
            cli.apply_overrides(monitor.MonitorConfig(), {"delta": value})


@pytest.mark.parametrize("value", [True, False])
def test_true_and_false_are_not_numbers(value):
    with pytest.raises(ValueError, match=r"e2e\.episodes must be an integer"):
        cli.apply_overrides(harness.E2eTrainConfig(), {"episodes": value})
    with pytest.raises(ValueError, match=r"search\.beta must be a number"):
        cli.apply_overrides(monitor.SearchConfig(), {"beta": value})


def test_wrongly_typed_setting_is_a_command_error(tmp_path, no_work, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"train": {"episodes": "5"}}))
    out = tmp_path / "out"
    assert cli.main(["train", "--robot", "sweeping", "--out", str(out), "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == 'error: config setting train.episodes must be an integer, got "5"\n'


def test_bench_with_empty_sink_window_is_a_command_error(tmp_path, sweeping_agent, sweeping_lut, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"monitor": {"window": 0}}))
    from conftest import CACHE

    argv = ["bench", "--method", "monitored", "--agent", str(CACHE / "sweeping"), "--lut", str(CACHE / "sweeping_lut.json")]
    argv += ["--level", "1", "--episodes", "1", "--config", str(cfg), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "error: window must be at least 1 segment, got 0\n"
    assert not (tmp_path / "out").exists()


def test_bench_checks_monitor_section_before_loading_the_agent(tmp_path, no_work, capsys):
    # the monitor section is checked when its config is built, so a bad
    # setting is reported even when the agent path does not exist
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"monitor": {"window": 0}}))
    argv = ["bench", "--method", "monitored", "--agent", str(tmp_path / "no-agent"), "--lut", str(tmp_path / "no-lut")]
    argv += ["--config", str(cfg), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "error: window must be at least 1 segment, got 0\n"
    assert not (tmp_path / "out").exists()
