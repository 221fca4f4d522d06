"""Co-learning of a goal-conditioned policy with a Lyapunov critic pair.

One training loop jointly updates four networks over a shared replay buffer:
the actor pi, the reward critic Q, the Lyapunov value V, and the Lyapunov
critic LQ that predicts V of the next state from (state, action). pi, Q and LQ
carry Polyak-averaged target copies; V does not.

Training runs in a hazard-free arena with randomly sampled goals so the
goal-conditioned networks generalize over goal positions.
"""

import csv
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import envs, nn
from .envs import RobotKind

HIDDEN = (64, 64)  # hidden layer widths of every network, e2e baseline included

# DDPG settings shared with the e2e baseline (Lillicrap et al. 2015); the
# shared discount and exploration noise are TrainConfig.gamma and .noise
TAU = 0.005  # Polyak rate of the target networks
BATCH_SIZE = 256
REPLAY_CAPACITY = 100_000
LR = 1e-3  # Adam step of the critics (and of V)
ACTOR_LR = 3e-4

# columns of the training log, one row per episode
LOG_FIELDS = (
    "episode",
    "mean_reward",
    "q_loss",
    "lyapunov_risk",
    "lq_loss",
    "policy_loss",
    "start_distance",
    "reached",
    "pos_hinge_frac",
    "lie_hinge_frac",
    "replay_size",
)


@dataclass(frozen=True)
class TrainConfig:
    """Training schedule of both learners: co-learning and the e2e baseline."""

    episodes: int = 200
    grad_steps: int = 50  # gradient phases per episode
    horizon: int = 200
    warmup_episodes: int = 10  # uniform random actions to seed the replay

    gamma: ClassVar[float] = 0.97  # discount of the TD target
    noise: ClassVar[float] = 0.15  # exploration noise std, in action units
    alpha: ClassVar[float] = 0.5  # weight of the Lyapunov critic in the actor loss
    # hinge margins for the V update; without them V = 0 everywhere is a
    # degenerate minimum of the plain risk and training collapses
    pos_margin: ClassVar[float] = 0.1  # require V >= pos_margin * |d_g|
    lie_margin: ClassVar[float] = 0.01  # require V to drop by at least this per step
    goal_range: ClassVar[float] = 3.0  # goals sampled in a disk of this radius; build-lut's search box
    goal_min: ClassVar[float] = 0.3  # and at least this far, beyond envs.REACH_TOL
    hindsight_relabels: ClassVar[int] = 4  # extra buffer copies per transition with future achieved goals

    def __post_init__(self):
        """Refuse a schedule that trains nothing: episodes, grad_steps and
        horizon below 1, or warmup_episodes below 0."""
        for name in ("episodes", "grad_steps", "horizon"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if not self.warmup_episodes >= 0:
            raise ValueError(f"warmup_episodes must be nonnegative, got {self.warmup_episodes}")


class LyapunovNet:
    """Candidate Lyapunov function over goal-conditioned states.

    Parametrized as V(x) = f(x) - f(sink(x)) where sink(x) masks the state
    down to its sink representative (zero goal vector, zero speeds, heading
    kept). This makes V vanish identically on sinks; positivity and decrease
    are shaped by training.

    A robot without a heading sinks every finite state to the zero state:
    each first-layer product of ``x * mask`` is ±0, so the pre-activation is
    the bias exactly and f(sink(x)) over n rows depends on n alone. ``value``
    keeps those n values for the last row count it saw (``sink_values``) and
    refills them when the row count or ``net``'s write count has moved, so the
    memo follows adam_step, polyak_update and load_params. ``grad`` skips the
    sink pass, whose ``g2 * mask`` is ±0. Both keep the bits of the plain
    formulas: a row with a NaN or an infinity (its sink image is NaN) and a
    gradient with a zero entry (``g1 - g2 * mask`` turns -0 into +0 where
    g2 < 0) take the plain formulas.
    """

    def __init__(self, kind, rng=None):
        self.kind = kind
        self.mask = envs.sink_mask(kind)
        self.net = nn.Mlp([envs.state_dim(kind), *HIDDEN, 1], "identity", rng)
        self.sink_values = None
        self.sink_writes = None

    def value(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        fx = self.net.forward(x)[:, 0]
        if envs.HAS_HEADING[self.kind] or not np.isfinite(x).all():
            return fx - self.net.forward(x * self.mask)[:, 0]
        sink, writes = self.sink_values, self.net.params().writes
        if sink is None or len(sink) != len(x) or self.sink_writes != writes:
            sink = self.sink_values = self.net.forward(np.zeros_like(x))[:, 0]
            self.sink_writes = writes
        return fx - sink

    def grad(self, x):
        """Gradient of V w.r.t. the state, one row per sample."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        ones = np.ones((x.shape[0], 1))
        g1 = self.net.input_gradients(x, ones)
        if not envs.HAS_HEADING[self.kind] and g1.all() and np.isfinite(x).all():
            return g1
        g2 = self.net.input_gradients(x * self.mask, ones)
        return g1 - g2 * self.mask

    def forward_cache(self, x):
        """V of a 2-D batch from one forward over the twin stack [x, sink(x)],
        and the cache that ``param_grads`` takes."""
        n = x.shape[0]
        out, cache = self.net.forward_cache(np.vstack([x, x * self.mask]))
        return out[:n, 0] - out[n:, 0], cache

    def param_grads(self, cache, u):
        """Parameter gradients of sum(u * V) over the batch of ``forward_cache``."""
        return self.net.backward(cache, np.vstack([u[:, None], -u[:, None]]))


class Policy:
    """Deterministic actor over goal-conditioned states. Every rollout calls
    ``act``, the actor network over ``envs.feature_row`` of the state toward
    the goal; ``observe`` gives the raw [d_g, intrinsic] row that replay stores."""

    def __init__(self, kind, net):
        self.kind = kind
        self.net = net

    def observe(self, state, goal, world):
        """[d_g, intrinsic]; the hazard-free policy does not read ``world``."""
        return envs.goal_condition(state, goal)

    def act(self, state, goal, world):
        return self.net.forward(envs.feature_row(self.kind, state, goal))


class ReplayBuffer:
    def __init__(self, capacity, state_dim, action_dim):
        self.capacity = capacity
        self.s = np.zeros((capacity, state_dim))
        self.a = np.zeros((capacity, action_dim))
        self.r = np.zeros(capacity)
        self.s1 = np.zeros((capacity, state_dim))
        self.done = np.zeros(capacity)
        self.size = 0
        self.insert_at = 0

    def add(self, s, a, r, s1, done):
        i = self.insert_at
        self.s[i], self.a[i], self.r[i] = s, a, r
        self.s1[i], self.done[i] = s1, float(done)
        self.insert_at = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, rng, n):
        idx = rng.choice(self.size, size=min(n, self.size), replace=False)
        return {k: getattr(self, k)[idx] for k in ("s", "a", "r", "s1", "done")}


@dataclass
class Agent:
    kind: RobotKind
    pi: nn.Mlp
    q: nn.Mlp
    v: LyapunovNet
    lq: nn.Mlp
    pi_t: nn.Mlp
    q_t: nn.Mlp
    lq_t: nn.Mlp

    def __post_init__(self):
        # no code rebinds pi or pi_t: loading and training write their parameters in place
        self.policy = Policy(self.kind, self.pi)
        self.target_policy = Policy(self.kind, self.pi_t)

    def act(self, state, goal, world):
        return self.policy.act(state, goal, world)

    def networks(self):
        """Checkpoint name -> network, in manifest order."""
        return {
            "pi": self.pi,
            "q": self.q,
            "v": self.v.net,
            "lq": self.lq,
            "pi_target": self.pi_t,
            "q_target": self.q_t,
            "lq_target": self.lq_t,
        }

    def save(self, out_dir):
        nn.save_checkpoint(self, out_dir, v_digest=nn.params_digest(self.v.net))

    @classmethod
    def load(cls, out_dir):
        agent, manifest = nn.load_checkpoint(out_dir, lambda robot: make_agent(RobotKind(robot)))
        if manifest.get("v_digest") != nn.params_digest(agent.v.net):
            raise nn.CheckpointError(f"v.json in {out_dir} is not the V of its manifest")
        return agent


def make_agent(kind, seed=0):
    """Fresh agent with targets initialized to the online networks."""
    d = envs.feature_dim(kind)
    na = envs.ACTION_DIM
    ss = np.random.SeedSequence(seed)
    rngs = [np.random.default_rng(s) for s in ss.spawn(4)]
    pi = nn.Mlp([d, *HIDDEN, na], "tanh", rngs[0])
    q = nn.Mlp([d + na, *HIDDEN, 1], "identity", rngs[1])
    v = LyapunovNet(kind, rngs[2])
    lq = nn.Mlp([d + na, *HIDDEN, 1], "identity", rngs[3])
    return Agent(kind, pi, q, v, lq, pi.copy(), q.copy(), lq.copy())


def lyapunov_risk(vs, vs1):
    """Sample estimate of the Lyapunov training risk from V on s and s1.

    Mean of max(0, -V(s)) + max(0, V(s1) - V(s)). Neural Lyapunov Control's
    V(sink)^2 term is left out: LyapunovNet vanishes on sinks by construction.
    """
    return float(np.mean(np.maximum(0.0, -vs) + np.maximum(0.0, vs1 - vs)))


def policy_loss(pi, q_t, lq_t, s, alpha, kind):
    """Actor loss: mean of -Q'(s, pi(s)) + alpha * LQ'(s, pi(s))."""
    s = envs.featurize(kind, np.atleast_2d(np.asarray(s, dtype=float)))
    x = np.hstack([s, pi.forward(s)])
    qv = q_t.forward(x)[:, 0]
    lv = lq_t.forward(x)[:, 0]
    return float(np.mean(-qv + alpha * lv))


def td_target(q_t, pi_t, r, s1, done, gamma):
    """Bootstrapped critic target r + gamma * (1 - done) * Q'(s1, pi'(s1))."""
    q1 = q_t.forward(np.hstack([s1, pi_t.forward(s1)]))[:, 0]
    return r + gamma * (1.0 - done) * q1


def regress(net, adam, x, target):
    """One Adam step on mean((net(x) - target)**2); returns that loss as it
    was before the step."""
    n = x.shape[0]
    out, cache = net.forward_cache(x)
    err = out[:, 0] - target
    grads = net.backward(cache, (2.0 * err / n)[:, None])
    nn.adam_step(adam, net.params(), grads)
    return float(np.mean(err**2))


def actor_step(pi, adam, s, critics):
    """One Adam step on mean(sum w * critic(s, pi(s))) through frozen critics;
    returns that loss as it was before the step.

    ``critics`` is a list of (network, weight) pairs; only pi is updated.
    """
    n = s.shape[0]
    a, pi_cache = pi.forward_cache(s)
    x = np.hstack([s, a])
    na = a.shape[1]
    ones = np.ones((n, 1))
    values, terms = [], []
    for critic, w in critics:
        out, cache = critic.forward_cache(x)
        values.append(w * out[:, 0])
        terms.append(critic.backward(cache, w * ones / n, params=False)[:, -na:])
        del cache  # hold one critic's activations at a time, next to pi's
    grads = pi.backward(pi_cache, sum(terms[1:], terms[0]))
    nn.adam_step(adam, pi.params(), grads)
    return float(np.mean(sum(values[1:], values[0])))


class Trainer:
    """Owns the Adam states and performs the per-batch updates."""

    def __init__(self, agent, cfg):
        self.agent = agent
        self.cfg = cfg
        self.adam_pi = nn.AdamState(agent.pi.params(), lr=ACTOR_LR)
        self.adam_q = nn.AdamState(agent.q.params(), lr=LR)
        self.adam_v = nn.AdamState(agent.v.net.params(), lr=LR)
        self.adam_lq = nn.AdamState(agent.lq.params(), lr=LR)

    def train_q(self, batch):
        ag = self.agent
        s1f = envs.featurize(ag.kind, batch["s1"])
        y = td_target(ag.q_t, ag.pi_t, batch["r"], s1f, batch["done"], self.cfg.gamma)
        x = np.hstack([envs.featurize(ag.kind, batch["s"]), batch["a"]])
        return regress(ag.q, self.adam_q, x, y)

    def train_v(self, batch):
        """One Adam step on the hinged Lyapunov risk. Returns the plain risk
        before the step and the fractions of rows whose positivity and
        decrease hinges were active."""
        ag, cfg = self.agent, self.cfg
        s, s1 = batch["s"], batch["s1"]
        n = s.shape[0]
        # one pass over [s, s1] serves the values and the backward pass; V is
        # 0 on sinks by construction, so the risk needs no V(sink) term
        v, cache = ag.v.forward_cache(np.vstack([s, s1]))
        vs, vs1 = v[:n], v[n:]
        floor = cfg.pos_margin * np.linalg.norm(s[:, :2], axis=1)
        pos_active = vs < floor
        lie_active = vs1 - vs > -cfg.lie_margin
        u_s = (-pos_active.astype(float) - lie_active.astype(float)) / n
        u_s1 = lie_active.astype(float) / n
        grads = ag.v.param_grads(cache, np.concatenate([u_s, u_s1]))
        nn.adam_step(self.adam_v, ag.v.net.params(), grads)
        return lyapunov_risk(vs, vs1), float(np.mean(pos_active)), float(np.mean(lie_active))

    def train_lq(self, batch):
        ag = self.agent
        x = np.hstack([envs.featurize(ag.kind, batch["s"]), batch["a"]])
        return regress(ag.lq, self.adam_lq, x, ag.v.value(batch["s1"]))  # V is frozen for this update

    def train_pi(self, batch):
        ag = self.agent
        s = envs.featurize(ag.kind, batch["s"])
        return actor_step(ag.pi, self.adam_pi, s, [(ag.q_t, -1.0), (ag.lq_t, self.cfg.alpha)])

    def polyak(self):
        nn.polyak_update(self.agent.pi_t, self.agent.pi, TAU)
        nn.polyak_update(self.agent.q_t, self.agent.q, TAU)
        nn.polyak_update(self.agent.lq_t, self.agent.lq, TAU)

    def phase(self, batch):
        """Q, V, LQ and actor updates, then Polyak averaging; the log's four losses and two hinge fractions."""
        ql = self.train_q(batch)
        vl, pos_frac, lie_frac = self.train_v(batch)
        ll = self.train_lq(batch)
        pl = self.train_pi(batch)
        self.polyak()
        return ql, vl, ll, pl, pos_frac, lie_frac


def sample_task(kind, rng):
    """Start (arena origin, uniform heading) and goal (uniform in
    TrainConfig's goal annulus)."""
    r = np.sqrt(rng.uniform(TrainConfig.goal_min**2, TrainConfig.goal_range**2))
    phi = rng.uniform(0.0, 2 * np.pi)
    goal = r * np.array([np.cos(phi), np.sin(phi)])
    return envs.initial_state(kind, heading=rng.uniform(0.0, 2 * np.pi)), goal


def collect_episode(policy, state, goal, world, horizon, noise, rng, random_actions=False, relabels=0):
    """Roll out ``policy`` from ``state`` toward ``goal`` in ``world`` with
    Gaussian exploration noise (or uniform random actions) until the horizon
    or the goal, then label its steps. Returns the rollout's (o, a, r, o1,
    done) rows and ``relabels`` copies of each with the goal relabeled to a
    position reached at or after its step; one ``label`` builds both."""
    states, actions = [state], []
    for _ in range(horizon):
        if random_actions:
            a = rng.uniform(-1.0, 1.0, size=envs.ACTION_DIM)
        else:
            a = policy.act(state, goal, world)
            if noise > 0.0:
                a = a + rng.normal(0.0, noise, size=a.shape)
        actions.append(np.clip(a, -1.0, 1.0))
        state = envs.step(policy.kind, state, actions[-1])
        states.append(state)
        if envs.reached(state.pos, goal):
            break

    def label(g, t):
        """The row of step t toward goal g."""
        s, s1 = states[t], states[t + 1]
        o, o1 = policy.observe(s, g, world), policy.observe(s1, g, world)
        return o, actions[t], envs.reward(g, s, s1, world), o1, envs.reached(s1.pos, g)

    n = len(actions)
    transitions = [label(goal, t) for t in range(n)]
    return transitions, [label(states[rng.integers(t, n) + 1].pos, t) for t in range(n) for _ in range(relabels)]


def learn(policy, phase, task, buffer, nets, cfg, rng, relabels, log_path):
    """The episode loop of both learners: per episode, roll ``policy`` out from ``task(rng)``'s
    (start, goal, world), store its rows and ``relabels`` relabeled copies of each, run cfg.grad_steps
    ``phase(batch)`` calls once the replay holds a batch, and check the ``nets`` (name -> network)
    are finite. Returns the LOG_FIELDS rows, one per episode, and writes them, up to any failure, to ``log_path``."""
    log_rows = []
    try:
        for ep in range(cfg.episodes):
            start, goal, world = task(rng)
            transitions, relabeled = collect_episode(
                policy, start, goal, world, cfg.horizon, cfg.noise, rng, ep < cfg.warmup_episodes, relabels
            )
            ep_reward = 0.0
            for tr in transitions:
                ep_reward += tr[2]  # in step order; from Python 3.12 builtin sum compensates, changing mean_reward
            for tr in transitions + relabeled:
                buffer.add(*tr)
            # phase means of the four losses and the two hinge-active fractions
            means = np.zeros(6)
            if buffer.size >= BATCH_SIZE:
                for _ in range(cfg.grad_steps):
                    means += phase(buffer.sample(rng, BATCH_SIZE))
                means /= cfg.grad_steps
            for name, net in nets.items():
                nn.check_finite(net, f"in {name} after episode {ep}")
            d0 = envs.distance(goal, start.pos)
            row = (ep, ep_reward, *means[:4], d0, int(transitions[-1][4]), *map(float, means[4:]), buffer.size)
            log_rows.append(dict(zip(LOG_FIELDS, row)))
    finally:
        if log_path is not None:
            with open(log_path, "w", newline="") as f:
                writer = csv.DictWriter(f, fieldnames=LOG_FIELDS)
                writer.writeheader()
                # repr(float(.)): numpy 2 writes repr(np.float64) as "np.float64(...)"
                writer.writerows(
                    {k: repr(float(v)) if isinstance(v, float) else v for k, v in row.items()} for row in log_rows
                )
    return log_rows


def colearn(kind, cfg=None, seed=0, log_path=None):
    """Co-learn ``kind``'s agent in the hazard-free arena; returns it and the log rows of ``learn``."""
    cfg = cfg or TrainConfig()
    agent = make_agent(kind, seed=seed)
    buffer = ReplayBuffer(REPLAY_CAPACITY, envs.state_dim(kind), envs.ACTION_DIM)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC0]))
    arena = envs.empty_world()  # no hazards; nothing else of it is read

    def task(rng):
        return *sample_task(kind, rng), arena

    phase, nets = Trainer(agent, cfg).phase, agent.networks()
    return agent, learn(agent.target_policy, phase, task, buffer, nets, cfg, rng, cfg.hindsight_relabels, log_path)
