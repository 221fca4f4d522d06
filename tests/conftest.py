"""Session fixtures: trained agents, baselines, and lookup tables.

Training is expensive, so every artifact is cached on disk under
tests/_agent_cache/ together with its wall-clock build time; delete that
directory to retrain from scratch. Seeds and budgets are frozen here — the
acceptance suite runs against exactly these artifacts.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from lyapnav import colearn, harness, monitor, nn
from lyapnav.envs import RobotKind

CACHE = Path(__file__).parent / "_agent_cache"

TRAIN_SPECS = {
    RobotKind.SWEEPING: {"seed": 0, "episodes": 200},
    RobotKind.POINT: {"seed": 3, "episodes": 400},
    RobotKind.CAR: {"seed": 1, "episodes": 500},
}


def _cached_agent(kind):
    d = CACHE / kind.value
    meta_path = d / "train_meta.json"
    if meta_path.exists():
        with open(meta_path) as f:
            meta = json.load(f)
        return colearn.Agent.load(d), meta
    spec = TRAIN_SPECS[kind]
    t0 = time.time()
    agent, log_rows = colearn.colearn(kind, colearn.TrainConfig(episodes=spec["episodes"]), seed=spec["seed"])
    seconds = time.time() - t0
    d.mkdir(parents=True, exist_ok=True)
    agent.save(d)
    meta = {
        "seed": spec["seed"],
        "episodes": spec["episodes"],
        "train_seconds": seconds,
        "episode_rewards": [r["mean_reward"] for r in log_rows],
        "start_distances": [r["start_distance"] for r in log_rows],
    }
    with open(meta_path, "w") as f:
        json.dump(meta, f)
    return agent, meta


def _cached_lut(kind, agent):
    path = CACHE / f"{kind.value}_lut.json"
    if path.exists():
        lut = monitor.RoaLut.from_json(path.read_text())
        if lut.v_digest != nn.params_digest(agent.v.net):
            raise nn.CheckpointError(f"{path} was built for another V; delete it to rebuild")
        return lut
    lut = monitor.build_agent_lut(agent, 2000, 3)
    CACHE.mkdir(parents=True, exist_ok=True)
    path.write_text(lut.to_json())
    return lut


def _cached_e2e(kind):
    d = CACHE / f"{kind.value}_e2e"
    if (d / "manifest.json").exists():
        return harness.E2ePolicy.load(d)
    policy = harness.train_e2e(kind, seed=0)
    policy.save(d)
    return policy


@pytest.fixture(scope="session")
def openblas_core():
    """The OpenBLAS core numpy runs here: the "Core:" line that its OpenBLAS
    logs on import under OPENBLAS_VERBOSE=2, read from a child process, which
    inherits OPENBLAS_CORETYPE. Bit pins of BLAS results are keyed by it."""
    env = {**os.environ, "OPENBLAS_VERBOSE": "2"}
    log = subprocess.run([sys.executable, "-c", "import numpy"], env=env, capture_output=True, text=True, check=True)
    cores = [line.removeprefix("Core:").strip() for line in log.stderr.splitlines() if line.startswith("Core:")]
    return cores[0] if cores else None


@pytest.fixture(scope="session")
def sweeping_trained():
    return _cached_agent(RobotKind.SWEEPING)


@pytest.fixture(scope="session")
def sweeping_agent(sweeping_trained):
    return sweeping_trained[0]


@pytest.fixture(scope="session")
def point_agent():
    return _cached_agent(RobotKind.POINT)[0]


@pytest.fixture(scope="session")
def car_agent():
    return _cached_agent(RobotKind.CAR)[0]


@pytest.fixture(scope="session")
def sweeping_lut(sweeping_agent):
    return _cached_lut(RobotKind.SWEEPING, sweeping_agent)


@pytest.fixture(scope="session")
def point_lut(point_agent):
    return _cached_lut(RobotKind.POINT, point_agent)


@pytest.fixture(scope="session")
def car_lut(car_agent):
    return _cached_lut(RobotKind.CAR, car_agent)


@pytest.fixture(scope="session")
def sweeping_e2e():
    return _cached_e2e(RobotKind.SWEEPING)


@pytest.fixture(scope="session")
def point_e2e():
    return _cached_e2e(RobotKind.POINT)


@pytest.fixture(scope="session")
def car_e2e():
    return _cached_e2e(RobotKind.CAR)
