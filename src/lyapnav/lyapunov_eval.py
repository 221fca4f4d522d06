"""Post-training quality measurement of a learned Lyapunov function:
satisfaction rates of the positivity and decrease conditions on on-policy
transitions, plus the residual at sink states."""

import json
from dataclasses import dataclass, asdict

import numpy as np

from . import colearn, envs


@dataclass
class LyapunovReport:
    n_samples: int
    positivity_rate: float  # V > 0 at both ends of the transition
    lie_rate: float  # V strictly decreases across the transition
    joint_rate: float
    max_sink_abs: float

    def __post_init__(self):
        if not (0.0 <= self.positivity_rate <= 1.0 and 0.0 <= self.lie_rate <= 1.0):
            raise ValueError(f"rates must be in [0, 1], got {self.positivity_rate}, {self.lie_rate}")
        if not self.joint_rate <= min(self.positivity_rate, self.lie_rate) + 1e-12:
            raise ValueError("joint rate exceeds the positivity or decrease rate")

    def to_json(self):
        return json.dumps(asdict(self))

    def table_row(self, label=""):
        return (
            f"{label:<10} n={self.n_samples:<7} positivity={100 * self.positivity_rate:6.2f}%  "
            f"decrease={100 * self.lie_rate:6.2f}%  joint={100 * self.joint_rate:6.2f}%  "
            f"max|V(sink)|={self.max_sink_abs:.2e}"
        )


def sample_transitions(kind, policy, n, seed=0):
    """On-policy (state, next-state) pairs from deterministic rollouts toward
    random goals in hazard-free space. Returns two (n, dim) arrays."""
    if n < 0:
        raise ValueError(f"sample_transitions needs a count n >= 0, got n={n}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xE7]))
    arena = envs.empty_world()
    S, S1 = [], []
    while len(S) < n:
        start, goal = colearn.sample_task(kind, rng)
        transitions, _ = colearn.collect_episode(policy, start, goal, arena, colearn.TrainConfig.horizon, 0.0, rng)
        for sg, _, _, sg1, _ in transitions:
            S.append(sg)
            S1.append(sg1)
            if len(S) == n:
                break
    d = envs.state_dim(kind)
    return np.reshape(S, (n, d)), np.reshape(S1, (n, d))


def sink_residual(value_fn, kind):
    """Max |V| over a probe set of sink states (zero goal vector and speeds,
    headings swept over the circle)."""
    n = 64 if envs.HAS_HEADING[kind] else 1
    probes = np.zeros((n, envs.state_dim(kind)))
    if envs.HAS_HEADING[kind]:
        thetas = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
        probes[:, envs.SIN] = np.sin(thetas)
        probes[:, envs.COS] = np.cos(thetas)
    return float(np.max(np.abs(value_fn(probes))))


def satisfaction_rates(value_fn, S, S1, kind):
    """Fraction of transitions satisfying positivity and strict decrease,
    with the sink residual over kind's probe states.

    Values exactly at the boundary (V = 0 or zero decrease) count as
    violations.
    """
    S = np.asarray(S, dtype=float)
    S1 = np.asarray(S1, dtype=float)
    if len(S) == 0:
        raise ValueError("satisfaction_rates needs a nonempty transition set")
    vs = value_fn(S)
    vs1 = value_fn(S1)
    pos = (vs > 0.0) & (vs1 > 0.0)
    lie = (vs1 - vs) < 0.0
    return LyapunovReport(
        n_samples=len(S),
        positivity_rate=float(np.mean(pos)),
        lie_rate=float(np.mean(lie)),
        joint_rate=float(np.mean(pos & lie)),
        max_sink_abs=sink_residual(value_fn, kind),
    )


def evaluate(agent, n, seed):
    """Full evaluation protocol: sample transitions with the trained policy
    and score them with the agent's Lyapunov function."""
    S, S1 = sample_transitions(agent.kind, agent.policy, n, seed)
    return satisfaction_rates(agent.v.value, S, S1, agent.kind)
