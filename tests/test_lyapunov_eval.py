"""Lyapunov satisfaction-rate reporting."""

import json

import numpy as np
import pytest

from lyapnav import colearn, envs, lyapunov_eval
from lyapnav.envs import RobotKind


def test_report_invariants_enforced():
    with pytest.raises(ValueError):
        lyapunov_eval.LyapunovReport(10, 1.2, 0.5, 0.5, 0.0)
    with pytest.raises(ValueError):
        lyapunov_eval.LyapunovReport(10, 0.5, 0.5, 0.9, 0.0)


def test_satisfaction_rates_hand_counted():
    # oracle: V = |d_g| on hand-picked transitions; rates counted manually
    value_fn = lambda x: np.linalg.norm(np.atleast_2d(x)[:, :2], axis=1)
    S = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 0.0], [3.0, 0.0]])
    S1 = np.array([[0.5, 0.0], [2.5, 0.0], [1.0, 0.0], [2.0, 0.0]])
    # positivity (V>0 at both ends): rows 0,1,3 -> 3/4; row 2 has V(s)=0
    # decrease: rows 0,3 -> 2/4
    # joint: rows 0,3 -> 2/4
    rep = lyapunov_eval.satisfaction_rates(value_fn, S, S1, RobotKind.SWEEPING)
    assert rep.positivity_rate == pytest.approx(0.75)
    assert rep.lie_rate == pytest.approx(0.5)
    assert rep.joint_rate == pytest.approx(0.5)


def test_boundary_counts_as_violation():
    value_fn = lambda x: np.linalg.norm(np.atleast_2d(x)[:, :2], axis=1)
    S = np.array([[1.0, 0.0]])
    S1 = np.array([[1.0, 0.0]])  # zero decrease
    rep = lyapunov_eval.satisfaction_rates(value_fn, S, S1, RobotKind.SWEEPING)
    assert rep.lie_rate == 0.0


def test_empty_transition_set_rejected():
    value_fn = lambda x: np.atleast_2d(x)[:, 0]
    with pytest.raises(ValueError):
        lyapunov_eval.satisfaction_rates(value_fn, np.zeros((0, 2)), np.zeros((0, 2)), RobotKind.SWEEPING)


def test_sink_residual_zero_for_difference_parametrization():
    for kind in RobotKind:
        v = colearn.LyapunovNet(kind, rng=np.random.default_rng(0))
        assert lyapunov_eval.sink_residual(v.value, kind) == 0.0


def test_sink_residual_probes_headings():
    # a V that depends on heading must show a nonzero residual
    value_fn = lambda x: np.abs(np.atleast_2d(x)[:, 2])
    assert lyapunov_eval.sink_residual(value_fn, RobotKind.POINT) == pytest.approx(1.0, rel=1e-2)


def test_sample_transitions_count_and_dim():
    agent = colearn.make_agent(RobotKind.SWEEPING, seed=1)
    S, S1 = lyapunov_eval.sample_transitions(RobotKind.SWEEPING, agent.policy, 50, seed=2)
    assert S.shape == (50, 2) and S1.shape == (50, 2)
    # consecutive samples within an episode obey the dynamics step bound
    step = np.linalg.norm(S1 - S, axis=1)
    assert np.all(step <= np.sqrt(2) * envs.SWEEP_A_MAX * envs.DT + 1e-9)


@pytest.mark.parametrize("kind", list(RobotKind))
def test_sample_transitions_of_no_count_are_empty_state_arrays(kind):
    policy = colearn.make_agent(kind, seed=1).policy
    for X in lyapunov_eval.sample_transitions(kind, policy, 0, seed=2):
        assert X.dtype == np.float64 and X.shape == (0, envs.state_dim(kind))


def test_sample_transitions_rejects_a_negative_count():
    agent = colearn.make_agent(RobotKind.SWEEPING, seed=1)
    with pytest.raises(ValueError, match="n=-3"):
        lyapunov_eval.sample_transitions(RobotKind.SWEEPING, agent.policy, -3, seed=2)


def test_report_json_and_table_row():
    rep = lyapunov_eval.LyapunovReport(100, 0.99, 0.98, 0.97, 1e-6)
    doc = json.loads(rep.to_json())
    assert doc["joint_rate"] == 0.97
    row = rep.table_row("sweeping")
    assert "99.00" in row and "98.00" in row and "97.00" in row
