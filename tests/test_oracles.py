"""The per-step geometry and dynamics against their plain numpy spellings.

``planner.segment_free`` and ``envs.in_hazard`` run once per RRT sample or
once per episode step, so they compute in Python floats and test only the
hazards that the world's ``envs.HazardIndex`` finds near them; their oracles
scan every hazard with numpy. ``envs.hazard_observation`` works on
coordinate columns with bare ufuncs, and ``envs.distance`` is the square
root of a dot product. ``envs.feature_row``, ``envs.step`` and
``planner.foot_distance``, the distance that ``segment_free`` and
``monitor.SinkTracker.advance`` share, compute in Python floats, whose
operations round as numpy's float64 ufuncs do, and
``SinkTracker.select`` decides safety from a per-candidate table of the
deepest safe key. The oracles below are the straightforward
``np.linalg.norm`` / ``np.clip`` / ``np.sum`` / ``np.hstack`` / ``np.argmin``
versions; the fast versions must agree with them bit for bit, NaN included,
because plans and episodes are compared bitwise across changes.

``nn``'s forward and backward passes, Adam and Polyak averaging compute in
place; their oracles are the plain out-of-place expressions
(``np.tanh(a @ w + b)``, ``delta * (1.0 - a ** 2)`` and the textbook Adam
and Polyak formulas), which trained parameters, V values and certificate
tables must keep matching bit for bit.

``colearn.LyapunovNet.value`` and ``grad`` take a robot without a heading's
sink term from a memo of f(0) and drop its zero gradient term; their oracles
are the plain ``f(x) - f(x * mask)`` and ``g1 - g2 * mask``, bit for bit.

``colearn.Policy.act`` is the actor network over ``envs.feature_row``, one
feature row in Python floats; its oracles are the network over the one-row
batch ``featurize(kind, observe(...)[None])``, where ``observe`` is
``goal_condition(state, goal)``, and the numpy passes over that batch.
``featurize`` takes 2-D batches only; its oracle featurizes one state too.
``Mlp.forward``, which keeps no activations, is checked against
``forward_cache``'s output, and point and car V against the two forwards
``f(x) - f(x * mask)``; the input ``SinkTracker.select`` passes V against
the plain ``np.hstack`` spelling of ``goal_condition`` of the window's
candidates. All bit for bit.

``colearn.collect_episode`` rolls out first and then builds every row,
rollout and hindsight copy alike, through one ``label``; its oracle is the
retired two-loop collection, which labelled each step as it went, carried
the observation forward and labelled the copies through ``_label``, bit for
bit, row by row and draw by draw. ``envs.reached`` is the one reach rule;
its oracle is ``np.linalg.norm(p - q) < REACH_TOL``.

``colearn.Trainer.train_v`` evaluates V's network on 4n rows; its oracle is
the retired 6n-row update, which also evaluated the sinks and kept the
V(sink)^2 term. Their gradients agree to a tolerance, not bit for bit,
because BLAS groups the rows of the gradient's sums differently.
"""

import numpy as np
import pytest

from lyapnav import colearn, envs, harness, monitor, nn, planner
from lyapnav.envs import RobotKind


def same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


# ------------------------------------------------------------------ oracles


def oracle_point_segment_distance(p, a, b):
    p, a, b = (np.asarray(x, dtype=float) for x in (p, a, b))
    ab = b - a
    denom = np.sum(ab * ab, axis=-1)
    t = np.clip(np.sum((p - a) * ab, axis=-1) / np.where(denom == 0.0, 1.0, denom), 0.0, 1.0)
    return np.linalg.norm(p - (a + t[..., None] * ab), axis=-1)


def oracle_segment_free(p, q, world, margin):
    hz = world.hazards
    return bool((oracle_point_segment_distance(hz[:, :2], p, q) > hz[:, 2] + margin).all())


def oracle_in_hazard(p, world):
    if len(world.hazards) == 0:
        return False
    p = np.asarray(p, dtype=float)
    d = np.linalg.norm(world.hazards[:, :2] - p, axis=1)
    return bool(np.any(d <= world.hazards[:, 2]))


def oracle_near(hazards, x0, y0, x1, y1, grow):
    """The rows HazardIndex.near returns: every row when the box grown by
    grow + INDEX_SLACK leaves the index's square, else the rows with a value
    outside the square and the rows whose centre lies in the grown box."""
    g = grow + envs.INDEX_SLACK
    lo, hi = np.array([x0 - g, y0 - g]), np.array([x1 + g, y1 + g])
    if not (np.all(-envs.INDEX_LIMIT <= lo) and np.all(hi <= envs.INDEX_LIMIT)):
        return hazards.tolist()
    outside = ~np.all(np.abs(hazards) <= envs.INDEX_LIMIT, axis=1)
    in_box = np.all((lo <= hazards[:, :2]) & (hazards[:, :2] <= hi), axis=1)
    return hazards[outside | in_box].tolist()


def oracle_featurize(x):
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    x2 = np.atleast_2d(x)
    d = x2[:, :2]
    n = np.linalg.norm(d, axis=1, keepdims=True)
    dhat = d / (n + 0.05)
    cols = [d, dhat, n, x2[:, 2:]]
    if x2.shape[1] >= 5:
        hx, hy = x2[:, 3], x2[:, 2]
        align = hx * dhat[:, 0] + hy * dhat[:, 1]
        cross = hx * dhat[:, 1] - hy * dhat[:, 0]
        cols.append(np.column_stack([align, cross]))
    out = np.hstack(cols)
    return out[0] if squeeze else out


def oracle_step(kind, s, a, dt=envs.DT):
    a = np.clip(np.asarray(a, dtype=float), -1.0, 1.0)
    if kind is RobotKind.SWEEPING:
        return envs.PhysState(s.pos + envs.SWEEP_A_MAX * a * dt, s.intrinsic.copy())
    if kind is RobotKind.POINT:
        v = np.clip(s.intrinsic[2] + envs.POINT_ACCEL * a[0] * dt, -envs.POINT_V_MAX, envs.POINT_V_MAX)
        theta = np.arctan2(s.intrinsic[0], s.intrinsic[1]) + envs.POINT_TURN_RATE * a[1] * dt
        heading = np.array([np.sin(theta), np.cos(theta)])
        pos = s.pos + v * np.array([heading[1], heading[0]]) * dt
        return envs.PhysState(pos, np.array([heading[0], heading[1], v]))
    v_max = envs.CAR_WHEEL_V_MAX
    vl = np.clip(s.intrinsic[2] + envs.CAR_WHEEL_ACCEL * a[0] * dt, -v_max, v_max)
    vr = np.clip(s.intrinsic[3] + envs.CAR_WHEEL_ACCEL * a[1] * dt, -v_max, v_max)
    v = 0.5 * (vl + vr)
    omega = (vr - vl) / envs.CAR_TRACK_WIDTH
    theta = np.arctan2(s.intrinsic[0], s.intrinsic[1]) + omega * dt
    heading = np.array([np.sin(theta), np.cos(theta)])
    pos = s.pos + v * np.array([heading[1], heading[0]]) * dt
    return envs.PhysState(pos, np.array([heading[0], heading[1], vl, vr]))


def oracle_hazard_observation(s, world):
    obs = np.zeros(16)
    if len(world.hazards) == 0:
        return obs
    vecs = world.hazards[:, :2] - s.pos
    order = np.argsort(np.linalg.norm(vecs, axis=1), kind="stable")[:8]
    for slot, idx in enumerate(order):
        obs[2 * slot : 2 * slot + 2] = vecs[idx]
    return obs


def oracle_forward_cached(net, x):
    acts = [x]
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = acts[-1] @ w + b
        acts.append(np.tanh(z) if i < last or net.output_activation == "tanh" else z)
    return acts


def oracle_backward(net, acts, upstream, params=True):
    last = len(net.weights) - 1
    delta = upstream * (1.0 - acts[-1] ** 2) if net.output_activation == "tanh" else upstream
    grads = [None] * (2 * len(net.weights)) if params else None
    for i in range(last, -1, -1):
        if params:
            grads[2 * i] = acts[i].T @ delta
            grads[2 * i + 1] = delta.sum(axis=0)
        delta = delta @ net.weights[i].T
        if i > 0:
            delta = delta * (1.0 - acts[i] ** 2)
    return grads, delta


def oracle_adam_step(lr, t, params, grads, m, v):
    """(params, m, v) after Adam step number t, as new arrays."""
    b1, b2 = nn.ADAM_BETA1, nn.ADAM_BETA2
    out = ([], [], [])
    for p, g, mi, vi in zip(params, grads, m, v):
        mi = b1 * mi + (1 - b1) * g
        vi = b2 * vi + (1 - b2) * g * g
        m_hat = mi / (1 - b1**t)
        v_hat = vi / (1 - b2**t)
        for lst, val in zip(out, (p - lr * m_hat / (np.sqrt(v_hat) + nn.ADAM_EPS), mi, vi)):
            lst.append(val)
    return out


def oracle_polyak(target, online, tau):
    return [(1 - tau) * t + tau * o for t, o in zip(target, online)]


def oracle_train_v_6n(agent, cfg, batch):
    """The retired V update over the 6n-row stack [sinks, s, s1] and its sink
    image, with Neural Lyapunov Control's V(sink)^2 term kept: (the parameter
    gradient, the risk, the positivity and the decrease hinge fractions)."""
    s, s1 = batch["s"], batch["s1"]
    n, net, m = s.shape[0], agent.v.net, agent.v.mask
    points = np.vstack([s * m, s, s1])
    acts = oracle_forward_cached(net, np.vstack([points, points * m]))
    v = acts[-1][: 3 * n, 0] - acts[-1][3 * n :, 0]
    vo, vs, vs1 = v[:n], v[n : 2 * n], v[2 * n :]
    pos_active = vs < cfg.pos_margin * np.linalg.norm(s[:, :2], axis=1)
    lie_active = vs1 - vs > -cfg.lie_margin
    u = np.concatenate([2.0 * vo / n, (-pos_active.astype(float) - lie_active.astype(float)) / n, lie_active / n])
    grads, _ = oracle_backward(net, acts, np.vstack([u[:, None], -u[:, None]]))
    risk = float(np.mean(vo**2 + np.maximum(0.0, -vs) + np.maximum(0.0, vs1 - vs)))
    return grads, risk, float(np.mean(pos_active)), float(np.mean(lie_active))


def oracle_advance(tracker, state):
    """The segment SinkTracker.advance moves to, np.argmin of
    oracle_point_segment_distance over the window's segments, and those
    distances."""
    path, lo = tracker.path, tracker.seg_idx
    n_seg = max(len(path) - 1, 1)
    seg_a = path[:n_seg]
    seg_b = path[np.minimum(np.arange(n_seg) + 1, len(path) - 1)]
    hi = min(lo + monitor.MonitorConfig.window + 1, n_seg)
    d = oracle_point_segment_distance(state.pos, seg_a[lo:hi], seg_b[lo:hi])
    return lo + int(np.argmin(d)), d


def oracle_window(path, seg_idx):
    """(lo, hi, candidate rows): the segments seg_idx to seg_idx +
    window - 1 that SinkTracker.select searches, clamped to the path, and
    their candidate sinks in window order."""
    cfg = monitor.MonitorConfig
    n_seg = max(len(path) - 1, 1)
    fracs = np.minimum(np.arange(int(np.ceil(1.0 / cfg.delta)) + 1) * cfg.delta, 1.0)
    seg_a = path[:n_seg]
    seg_b = path[np.minimum(np.arange(n_seg) + 1, len(path) - 1)]
    lo = min(seg_idx, n_seg - 1)
    hi = min(lo + cfg.window, n_seg)
    return lo, hi, (seg_a[:, None] + fracs[:, None] * (seg_b - seg_a)[:, None])[lo:hi].reshape(-1, 2)


def _radius_or_nan(lut, level):
    try:
        return monitor.lut_query(lut, level)
    except monitor.LevelExceededError:
        return np.nan


def oracle_select(tracker, state, seg_idx):
    """SinkTracker.select as one vectorized pass over the window's
    candidates: lut_query level by level (NaN above the top key), every
    hazard's clearance, then the farthest progress, the largest radius and
    the first index. None for a stall."""
    path, cfg, lut = tracker.path, monitor.MonitorConfig, tracker.lut
    n_seg = max(len(path) - 1, 1)
    fracs = np.minimum(np.arange(int(np.ceil(1.0 / cfg.delta)) + 1) * cfg.delta, 1.0)
    lo, hi, cands = oracle_window(path, seg_idx)
    levels = tracker.value_fn(envs.goal_condition(state, cands))
    radii = np.array([_radius_or_nan(lut, level) for level in levels])
    hz = tracker.world.hazards
    gaps = np.linalg.norm(hz[:, :2] - cands[:, None], axis=2)
    safe = ~np.isnan(radii) & np.all(gaps >= (radii * cfg.radius_inflation)[:, None] + hz[:, 2], axis=1)
    if not safe.any():
        return None
    progress = (np.arange(n_seg)[:, None] + fracs)[lo:hi].ravel()
    idx = np.flatnonzero(safe)
    farthest = idx[progress[idx] == progress[idx].max()]
    i = farthest[np.argmax(radii[farthest])]
    seg, j = divmod(int(i), fracs.size)
    return monitor.SinkChoice(cands[i], float(levels[i]), float(radii[i]), lo + seg, float(fracs[j]))


def oracle_label(policy, goal, state, nxt, world):
    """(reward, next observation, done) of the step state -> nxt toward goal."""
    r = envs.reward(goal, state, nxt, world)
    o1 = policy.observe(nxt, goal, world)
    done = envs.distance(goal, nxt.pos) < envs.REACH_TOL
    return r, o1, done


def oracle_collect_episode(policy, state, goal, world, horizon, noise, rng, random_actions=False, relabels=0):
    """Two loops: the rollout labels each step as it takes it and carries the
    observation forward; the hindsight loop reads each action back from its
    rollout row."""
    transitions = []
    states = [state]
    o = policy.observe(state, goal, world)
    for _ in range(horizon):
        if random_actions:
            a = rng.uniform(-1.0, 1.0, size=envs.ACTION_DIM)
        else:
            a = policy.act(state, goal, world)
            if noise > 0.0:
                a = a + rng.normal(0.0, noise, size=a.shape)
        a = np.clip(a, -1.0, 1.0)
        nxt = envs.step(policy.kind, state, a)
        r, o1, done = oracle_label(policy, goal, state, nxt, world)
        transitions.append((o, a, r, o1, done))
        states.append(nxt)
        state, o = nxt, o1
        if done:
            break
    relabeled = []
    n = len(transitions)
    for t in range(n):
        for _ in range(relabels):
            g = states[rng.integers(t, n) + 1].pos
            o = policy.observe(states[t], g, world)
            relabeled.append((o, transitions[t][1], *oracle_label(policy, g, states[t], states[t + 1], world)))
    return transitions, relabeled


# --------------------------------------------------------------------- tests


def _world(hazards):
    world = envs.empty_world()
    world.hazards = np.asarray(hazards, dtype=float).reshape(-1, 3)
    return world


def assert_clearance_at_oracle_distance(p, a, b):
    """planner.foot_distance from each point p to the segment ab has the
    oracle's bits (NaN for NaN), and planner.segment_free(a, b) in a world
    of zero-radius hazards at the points p decides as the oracle's distances
    do, at margins 0, 1, the nearest distance d and the float just below d.
    Blocked at d and clear just below it pin the distance segment_free
    computes to d's bits."""
    pts = np.asarray(p, dtype=float).reshape(-1, 2)
    world = _world(np.column_stack([pts, np.zeros(len(pts))]))
    d = oracle_point_segment_distance(pts, a, b)
    seg = planner.segment(*map(float, a), *map(float, b))
    for (x, y), want in zip(pts.tolist(), d):
        got = planner.foot_distance(x, y, seg)
        assert same_bits(got, want) or (np.isnan(got) and np.isnan(want)), (x, y, a, b, got, want)
    nearest = float(np.min(d))  # NaN if any distance is NaN
    margins = [0.0, 1.0]
    if nearest > 0.0:
        margins += [nearest, float(np.nextafter(nearest, -np.inf))]
    for m in margins:
        assert planner.segment_free(a, b, world, m) is bool(np.all(d > m)), (p, a, b, m)


def test_foot_distance_matches_oracle_bitwise():
    # foot_distance, directly and through segment_free's clearance decisions
    rng = np.random.default_rng(0)
    for _ in range(300):
        scale = 10.0 ** rng.integers(-3, 3)
        p, a, b = rng.normal(size=(3, 2)) * scale
        pts = rng.normal(size=(int(rng.integers(1, 40)), 2)) * scale
        a_s, b_s = rng.normal(size=(2, len(pts), 2)) * scale
        b_s[::3] = a_s[::3]  # zero-length segments
        cases = [
            (p, a, b),
            (p, a, a),  # zero-length segment
            (pts, a, b),  # many hazards, one segment
            *((p, a_, b_) for a_, b_ in zip(a_s, b_s)),  # one hazard, many segments
            *zip(pts, a_s, b_s),  # each hazard with its own segment
            (a, a, b),  # endpoints: t = 0 and t = 1 exactly
            (b, a, b),
            (a + 0.5 * (b - a), a, b),
        ]
        for args in cases:
            assert_clearance_at_oracle_distance(*args)


def test_foot_distance_matches_oracle_on_lists_and_nan():
    nan = float("nan")
    cases = [
        ([0, 1], [-1, 0], [1, 0]),
        ([3, 4], [0, 0], [0, 0]),
        ([[0, 1], [2, 1]], [-1, 0], [1, 0]),
        ([nan, 0.0], [0.0, 0.0], [1.0, 0.0]),
        ([0.5, 0.5], [nan, 0.0], [1.0, 0.0]),
        ([0.5, 0.5], [0.0, 0.0], [1.0, nan]),
        ([0.5, 0.5], [0.0, 0.0], [float("inf"), 0.0]),
        ([-0.0, -0.0], [-0.0, 0.0], [0.0, -0.0]),
    ]
    with np.errstate(invalid="ignore"):  # inf / inf in the infinite segment
        for args in cases:
            assert_clearance_at_oracle_distance(*args)


def test_in_hazard_matches_oracle_including_the_boundary():
    rng = np.random.default_rng(1)
    for n in (0, 1, 8, 128):
        world = _world(np.column_stack([rng.uniform(0, 16, size=(n, 2)), rng.uniform(0.05, 0.5, size=n)]))
        pts = list(rng.uniform(0, 16, size=(200, 2)))
        for cx, cy, r in world.hazards:
            # on the closed disk's boundary along the axes, just outside, and
            # within rounding of it at random angles, where a squared-distance
            # test would decide some points differently
            pts += [np.array([cx + r, cy]), np.array([cx, cy - r]), np.array([cx, np.nextafter(cy + r, np.inf)])]
            theta = rng.uniform(0.0, 2 * np.pi, size=10)
            pts += list(np.column_stack([cx + r * np.cos(theta), cy + r * np.sin(theta)]))
        pts += [np.array([np.nan, 1.0]), [1, 2], (0.5, 0.5)]
        for p in pts:
            assert envs.in_hazard(p, world) is oracle_in_hazard(p, world), (n, p)
    boundary = _world([[1.0, 1.0, 0.2]])
    assert envs.in_hazard([1.0, 1.2], boundary) and oracle_in_hazard([1.0, 1.2], boundary)


def _index_worlds(rng):
    """The empty world, random worlds with mixed radii (1.3 as in
    test_monitor's one-hazard world) on and off a level-3 map, with some
    centres on half units, and a world whose hazards lie past
    envs.INDEX_LIMIT, are not finite, or have an infinite or NaN radius."""
    worlds = [_world([])]
    for n in (1, 3, 8, 40, 128):
        for lo, hi in ((0.0, 16.0), (-5.0, 21.0)):
            c = rng.uniform(lo, hi, size=(n, 2))
            edge = rng.random(n) < 0.3
            c[edge] = np.round(c[edge] * 2.0) / 2.0
            worlds.append(_world(np.column_stack([c, rng.choice([0.0, 0.05, 0.2, 0.35, 1.3], size=n)])))
    inf, nan = np.inf, np.nan
    odd = [[1e9, 2.0, 0.2], [-inf, 1.0, 0.2], [3.0, nan, 0.2], [2.0, 2.0, 1e6], [-7e4, 3.0, 0.3]]
    worlds.append(_world(odd + [[2.0, 3.0, 0.5], [-1.0, -1.0, 0.2]]))
    worlds.append(_world(odd[:2] + [[5.0, 5.0, inf], [-3.0, 4.0, 0.2]]))
    worlds.append(_world([[1.0, 1.0, nan], [2.0, 2.0, 0.2]]))
    return worlds


def test_hazard_index_answers_as_the_full_scan(monkeypatch):
    # segment_free and in_hazard test only the hazards the index finds near
    # them; HazardIndex.near's docstring says why that loses none that decide.
    # Every query's rows are exactly oracle_near's, as a multiset (repr
    # tells NaN and -0.0 apart). Endpoints and positions include NaN and
    # infinities, for which both answer as the scan does rather than raise,
    # and long segments, whose boxes span most of the map
    near = envs.HazardIndex.near
    queries = {"some": 0, "every": 0}

    def exact(index, *box):
        found = near(index, *box)
        want = oracle_near(index.hazards, *box)
        assert sorted(map(repr, found)) == sorted(map(repr, want)), (index.hazards, box)
        queries["some" if len(want) < len(index.rows) else "every"] += 1
        return found

    monkeypatch.setattr(envs.HazardIndex, "near", exact)
    rng = np.random.default_rng(9)
    inf, nan = np.inf, np.nan
    odd = [(nan, 1.0), (1.0, nan), (inf, 2.0), (2.0, -inf), (-inf, inf), (nan, nan), (7e4, 1.0), (-6e4, -6e4)]
    seen = {"blocked": 0, "clear": 0, "in": 0, "out": 0}
    for world in _index_worlds(rng):
        ends = list(rng.uniform(-6.0, 22.0, size=(120, 2))) + [np.array(p) for p in odd]
        for p in ends:
            for q in (p + rng.uniform(-1.5, 1.5, size=2), rng.uniform(-6.0, 22.0, size=2), p, np.round(p), -p):
                margin = float(rng.choice([0.0, 0.2, 0.5, 1e300]))
                with np.errstate(invalid="ignore", over="ignore"):
                    want = oracle_segment_free(p, q, world, margin)
                    assert planner.segment_free(p, q, world, margin) is want, (world.hazards, p, q, margin)
                    back = oracle_segment_free(q, p, world, margin)
                    assert planner.segment_free(list(q), tuple(p), world, margin) is back
                seen["clear" if want else "blocked"] += 1
            with np.errstate(invalid="ignore"):
                want = oracle_in_hazard(p, world)
            assert envs.in_hazard(p, world) is want, (world.hazards, p)
            seen["in" if want else "out"] += 1
    assert min(seen.values()) >= 50, seen
    assert min(queries.values()) >= 50, queries
    # a segment across the whole index, in a world of two far-apart hazards
    far = _world([[-6e4, 0.0, 0.2], [6e4, 1.0, 0.2]])
    assert planner.segment_free([-6.5e4, -1.0], [6.5e4, -1.0], far, 0.0)
    assert not planner.segment_free([-6.5e4, 0.0], [6.5e4, 0.0], far, 0.0)


def test_hazard_index_at_exact_thresholds():
    # a hazard at distance exactly radius + margin from an axis-aligned
    # segment (dyadic coordinates, so every distance is exact) blocks it,
    # and one float farther it does not; a point at distance exactly the
    # radius from a centre is inside. Centres and points sit on multiples
    # of 1/16 and one float past them
    rng = np.random.default_rng(10)
    seen = {"segment": 0, "point": 0}
    for _ in range(300):
        r = rng.integers(0, 8) / 16.0
        margin = float(rng.integers(0, 8) / 16.0)
        x0, y0 = rng.integers(-8, 40, size=2) / 2.0
        length = rng.integers(0, 9) / 4.0
        h = r + margin
        # each centre with the direction in which it leaves the segment
        if rng.random() < 0.5:  # horizontal segment; hazard beside or beyond it
            a, b = np.array([x0, y0]), np.array([x0 + length, y0])
            beside = x0 + rng.integers(0, 5) / 4.0 * length
            centres = [((beside, y0 + h), (0, 1)), ((x0 + length + h, y0), (1, 0)), ((x0 - h, y0), (-1, 0))]
        else:  # vertical
            a, b = np.array([x0, y0]), np.array([x0, y0 - length])
            beside = y0 - rng.integers(0, 5) / 4.0 * length
            centres = [((x0 - h, beside), (-1, 0)), ((x0, y0 - length - h), (0, -1)), ((x0, y0 + h), (0, 1))]
        filler = [[*rng.uniform(-6.0, 22.0, size=2), rng.integers(1, 8) / 16.0] for _ in range(rng.integers(0, 30))]
        for (cx, cy), away in centres:
            farther = [np.nextafter(x, np.inf * s) if s else x for x, s in zip((cx, cy), away)]
            for c in [(cx, cy), farther]:
                world = _world(filler + [[c[0], c[1], r]])
                d = float(oracle_point_segment_distance(c, a, b))
                seen["segment"] += d == h
                assert planner.segment_free(a, b, world, margin) is oracle_segment_free(a, b, world, margin)
            world = _world(filler + [[cx, cy, r]])
            for p in ([cx + r, cy], [cx, cy - r], [cx - r, cy], [cx, np.nextafter(cy + r, np.inf)]):
                seen["point"] += float(np.hypot(p[0] - cx, p[1] - cy)) == r
                assert envs.in_hazard(p, world) is oracle_in_hazard(p, world), (p, cx, cy, r)
    assert min(seen.values()) >= 100, seen


def test_hazard_index_follows_replaced_hazards():
    world = _world([[1.0, 1.0, 0.2]])
    assert envs.in_hazard([1.0, 1.1], world)
    assert not planner.segment_free([0.0, 1.0], [2.0, 1.0], world, 0.0)
    with pytest.raises(ValueError):  # the indexed array is read-only
        world.hazards[0, 0] = 3.0
    world.hazards = np.array([[3.0, 3.0, 0.2]])
    assert not envs.in_hazard([1.0, 1.1], world)
    assert planner.segment_free([0.0, 1.0], [2.0, 1.0], world, 0.0)
    assert envs.in_hazard([3.0, 3.1], world)


@pytest.mark.parametrize("kind", list(RobotKind))
def test_featurize_matches_oracle_for_1d_and_batched_states(kind):
    rng = np.random.default_rng(2)
    dim = envs.state_dim(kind)
    X = rng.normal(size=(64, dim)) * 3.0
    X[0, :2] = 0.0  # at the goal
    X[1, 0] = np.nan
    X[2, 1] = np.inf
    with np.errstate(invalid="ignore"):  # inf / inf in the direction of row 2
        for x in (X, X[:1]):
            assert same_bits(envs.featurize(kind, x), oracle_featurize(x)), x
        for x in (X[0], X[1], X[2], X[5]):  # one state at the origin, toward the goal x[:2]
            assert same_bits(envs.feature_row(kind, envs.PhysState(np.zeros(2), x[2:]), x[:2]), oracle_featurize(x)), x


def _states(kind, rng):
    """States at and around the speed limits, plus random ones."""
    headings = [0.0, np.pi / 2, -np.pi, 2.5, *rng.uniform(-np.pi, np.pi, size=4)]
    if kind is RobotKind.SWEEPING:
        speeds = [()]
    elif kind is RobotKind.POINT:
        v = envs.POINT_V_MAX
        speeds = [(s,) for s in (v, -v, 0.0, -0.0, 0.49, np.nextafter(v, 0.0), *rng.uniform(-v, v, size=3))]
    else:
        v = envs.CAR_WHEEL_V_MAX
        vals = (v, -v, 0.0, 0.95, -0.97, *rng.uniform(-v, v, size=2))
        speeds = [(l, r) for l in vals for r in vals]
    for h in headings:
        for spd in speeds:
            pos = rng.normal(size=2) * 5.0
            s = envs.initial_state(kind, pos=pos, heading=h)
            if spd:
                s.intrinsic[2:] = spd
            yield s


def _actions(rng):
    edges = [-1.0, 1.0, 0.0, -0.0, 1.5, -7.0, np.inf, -np.inf, np.nan]
    acts = [np.array([x, y]) for x in edges for y in edges[:4]]
    acts += list(rng.uniform(-1.5, 1.5, size=(12, 2)))
    return acts + [[1, -1], (0.25, -0.25)]


@pytest.mark.parametrize("kind", list(RobotKind))
def test_step_matches_oracle_at_action_and_speed_limits(kind):
    rng = np.random.default_rng(3)
    acts = _actions(rng)
    n = 0
    for s in _states(kind, rng):
        for a in acts:
            got, want = envs.step(kind, s, a), oracle_step(kind, s, a)
            assert same_bits(got.pos, want.pos) and same_bits(got.intrinsic, want.intrinsic), (s, a)
            n += 1
    nan_state = envs.initial_state(kind, pos=(np.nan, 0.0), heading=np.nan)
    got, want = envs.step(kind, nan_state, [0.3, 0.2]), oracle_step(kind, nan_state, [0.3, 0.2])
    assert same_bits(got.pos, want.pos) and same_bits(got.intrinsic, want.intrinsic)
    assert n > 100


@pytest.mark.parametrize("n_hazards", [0, 3, 8, 128])
def test_hazard_observation_matches_slot_loop(n_hazards):
    rng = np.random.default_rng(n_hazards)
    world = _world(np.column_stack([rng.uniform(0, 16, size=(n_hazards, 2)), np.full(n_hazards, 0.2)]))
    for pos in rng.uniform(0, 16, size=(50, 2)):
        s = envs.initial_state(RobotKind.SWEEPING, pos=pos)
        assert same_bits(envs.hazard_observation(s, world), oracle_hazard_observation(s, world))


def test_hazard_observation_matches_slot_loop_on_tied_distances():
    # twelve centres at distance exactly 5 from the robot (3-4-5 triangles)
    # and four at 10: the stable sort keeps the world's order among ties
    offsets = [(3, 4), (4, 3), (5, 0), (0, 5)]
    ring = [(sx * dx, sy * dy) for dx, dy in offsets for sx in (1, -1) for sy in (1, -1)]
    ring = list(dict.fromkeys(ring))  # (5, 0) and (0, 5) appear twice
    far = [(10, 0), (0, -10), (-10, 0), (0, 10)]
    centres = 5.0 + np.array(far[:2] + ring + far[2:], dtype=float)
    world = _world(np.column_stack([centres, np.full(len(centres), 0.2)]))
    s = envs.initial_state(RobotKind.SWEEPING, pos=(5.0, 5.0))
    obs = envs.hazard_observation(s, world)
    assert len(ring) == 12
    assert same_bits(obs, oracle_hazard_observation(s, world))
    assert obs.reshape(8, 2).tolist() == [list(v) for v in ring[:8]]


def test_distance_matches_norm_of_either_difference_bitwise():
    rng = np.random.default_rng(4)
    pairs = [tuple(rng.uniform(-20.0, 20.0, size=(2, 2))) for _ in range(2000)]
    pairs += [(p, p.copy()) for p, _ in pairs[:20]]  # equal points
    for scale in (1e150, 1e-150, 1e200, 1e-200):  # squares near and past the float range
        pairs += [tuple(scale * rng.normal(size=(2, 2))) for _ in range(20)]
    nan = np.array([np.nan, 1.0])
    pairs += [(nan, np.zeros(2)), (np.zeros(2), nan), (np.array([np.inf, 0.0]), np.array([np.inf, 0.0]))]
    with np.errstate(over="ignore", invalid="ignore"):
        for p, q in pairs:
            d = envs.distance(p, q)
            assert same_bits(d, np.linalg.norm(p - q)) and same_bits(d, np.linalg.norm(q - p)), (p, q)


def _tracker(path, world, value_fn=None, keys=(0.5, 1.0), radii=(0.25, 0.25)):
    lut = monitor.RoaLut(keys=keys, radii=radii, box=(-np.ones(2), np.ones(2)))
    return monitor.SinkTracker(np.asarray(path, dtype=float), world, value_fn, lut)


def test_advance_matches_argmin_of_foot_distance():
    nan, inf = np.nan, np.inf
    # integer waypoints, so distances are exact: a shared vertex is at 0 from
    # both its segments, and the repeated (1, 1) is a zero-length segment
    grid = [[0, 0], [1, 0], [1, 1], [1, 1], [2, 1], [2, 3]]
    positions = [*grid, (0.5, 0.5), (1.5, 1.0), (1.0, 0.5), (3.0, 2.0)]
    positions += [(nan, 0.0), (0.0, nan), (nan, nan), (inf, 0.0), (-inf, inf)]
    cases = [(grid, start, pos) for pos in positions for start in range(5)]
    cases += [([[1, 2]], 0, pos) for pos in [(1, 2), (4, 6), (nan, 1.0)]]  # one point: one zero-length segment
    rng = np.random.default_rng(7)
    for _ in range(300):
        path = rng.normal(size=(int(rng.integers(1, 9)), 2)) * 10.0 ** rng.integers(-2, 3)
        path[rng.random(len(path)) < 0.2] = path[0]  # some repeats
        pos = path[rng.integers(len(path))] if rng.random() < 0.3 else rng.normal(size=2) * 5.0
        cases.append((path, int(rng.integers(len(path))), pos))
    seen = {"tie": 0, "nan": 0}
    with np.errstate(invalid="ignore"):  # inf * 0 at the infinite positions
        for path, start, pos in cases:
            tracker = _tracker(path, envs.empty_world())
            tracker.seg_idx = min(start, len(tracker.segments) - 1)
            state = envs.initial_state(RobotKind.SWEEPING, pos=pos)
            want, d = oracle_advance(tracker, state)
            seen["tie"] += bool(d.size > 1 and np.sum(d == np.min(d)) > 1)
            seen["nan"] += bool(np.isnan(d).any())
            tracker.advance(state)
            assert tracker.seg_idx == want, (path, start, pos)
    assert min(seen.values()) >= 20, seen


def test_select_matches_oracle_at_exact_clearances_and_uncertified_levels():
    # every path has a waypoint at the origin, which is a candidate sink; a
    # hazard placed a threshold t = radius * inflation + rho away from it along
    # an axis is at distance sqrt(t * t) = t exactly, on the threshold, where
    # gap >= threshold still holds
    inflation = monitor.MonitorConfig.radius_inflation
    rng = np.random.default_rng(8)
    fields = ("level", "radius", "segment", "fraction")
    seen = {"chosen": 0, "stalled": 0, "at_threshold": 0, "uncertified": 0}
    for _ in range(200):
        keys = np.cumsum(rng.integers(1, 4, size=int(rng.integers(2, 7)))) / 8.0
        radii = np.maximum.accumulate(rng.integers(1, 6, size=keys.size) / 16.0)  # repeats tie on radius
        pool = np.array([*keys, *(keys[:-1] + keys[1:]) / 2, keys[0] / 2, 2 * keys[-1], np.nan, np.inf, -np.inf])
        value = lambda x, pool=pool: pool[(np.abs(x[:, 0]) * 4 + np.abs(x[:, 1]) * 12).astype(int) % pool.size]
        path = rng.integers(0, 16, size=(int(rng.integers(1, 6)), 2)) / 4.0
        path[rng.integers(len(path))] = 0.0
        cands = _tracker(path, envs.empty_world(), value, keys, radii).cands.reshape(-1, 2)
        hazards = []
        for _ in range(int(rng.integers(0, 4))):
            rho = rng.integers(1, 4) / 16.0
            threshold = radii[rng.integers(radii.size)] * inflation + rho
            hazards.append((*[(threshold, 0.0), (0.0, -threshold)][rng.integers(2)], rho))
        hazards += [(*rng.uniform(0.0, 4.0, size=2), rng.integers(1, 4) / 16.0) for _ in range(rng.integers(0, 3))]
        world = _world(hazards)
        tracker = _tracker(path, world, value, keys, radii)
        gaps = np.linalg.norm(world.hazards[:, :2] - cands[:, None], axis=2)
        seen["at_threshold"] += bool(np.any(gaps[None] == radii[:, None, None] * inflation + world.hazards[:, 2]))
        state = envs.initial_state(RobotKind.SWEEPING, pos=rng.integers(0, 32, size=2) / 8.0)
        seg_idx = int(rng.integers(len(path)))
        seen["uncertified"] += bool(np.any(~(value(envs.goal_condition(state, cands)) <= keys[-1])))
        want = oracle_select(tracker, state, seg_idx)
        if want is None:
            seen["stalled"] += 1
            with pytest.raises(monitor.MonitorStall):
                tracker.select(state, seg_idx)
            continue
        seen["chosen"] += 1
        got = tracker.select(state, seg_idx)
        assert same_bits(got.pos, want.pos)
        assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields]
    assert min(seen.values()) >= 10, seen


def _snapshot(arrays):
    return [np.array(a, copy=True) for a in arrays]


@pytest.mark.parametrize("act", nn.OUTPUT_ACTIVATIONS)
@pytest.mark.parametrize("rows", [1, 22, 256, 1024])  # 1024: train_v's 4n stack at n = 256
def test_mlp_passes_match_oracle_bitwise(act, rows):
    rng = np.random.default_rng(rows)
    net = nn.Mlp([7, 64, 64, 2], act, rng)
    x = rng.normal(size=(rows, 7)) * 3.0  # wide enough to saturate some tanh units
    x[0, :3] = (0.0, -0.0, 40.0)
    want = oracle_forward_cached(net, x)
    out, acts = net.forward_cache(x)
    assert same_bits(out, want[-1]) and same_bits(net.forward(x), out)
    assert len(acts) == len(want) and all(same_bits(a, b) for a, b in zip(acts, want))
    kept_acts, kept_out = _snapshot(acts), out.copy()
    upstream = rng.normal(size=(rows, 2))
    kept_upstream = upstream.copy()
    for params in (True, False):
        got = net.backward(acts, upstream, params=params)
        want_grads, want_input = oracle_backward(net, want, upstream, params=params)
        if params:  # the parameter gradients alone
            assert isinstance(got, nn.Params)
            assert len(got) == len(want_grads) and all(same_bits(g, w) for g, w in zip(got, want_grads))
        else:  # the input gradient alone, shaped like x
            assert type(got) is np.ndarray and got.shape == x.shape
            assert same_bits(got, want_input)
        # backward writes to none of its inputs: the cache, the output that
        # forward_cache returned (actor_step reuses it as the action) and upstream
        assert all(same_bits(a, k) for a, k in zip(acts, kept_acts))
        assert same_bits(out, kept_out) and same_bits(upstream, kept_upstream)
    if rows == 1:  # forward of one 1-D state, as a policy acting on it
        assert same_bits(net.forward(x[0]), want[-1][0]) and same_bits(net.forward(x[0]), out[0])


def test_adam_steps_match_oracle_bitwise():
    # The oracle loops over the parameters; adam_step runs once over the
    # network's flat array, on the flat gradient array of a backward pass
    # whose values are replaced by gradients of widely spread sizes.
    rng = np.random.default_rng(5)
    net = nn.Mlp([9, 64, 64, 1], "identity", rng)
    state = nn.AdamState(net.params(), lr=1e-3)
    params = _snapshot(net.params())
    m, v = [np.zeros_like(p) for p in params], [np.zeros_like(p) for p in params]
    _, acts = net.forward_cache(rng.normal(size=(4, 9)))
    for t in range(1, 6):
        grads = net.backward(acts, np.ones((4, 1)))
        for g in grads:
            g[...] = rng.normal(size=g.shape) * 10.0 ** rng.integers(-6, 2)
        grads[1][:3] = 0.0  # a zero gradient keeps its moments decaying
        params, m, v = oracle_adam_step(state.lr, t, params, _snapshot(grads), m, v)
        assert nn.adam_step(state, net.params(), grads) is net.params() and state.t == t
        assert all(same_bits(a, b) for a, b in zip(net.params(), params)), t
        for got, want in ((state.m, m), (state.v, v)):
            assert same_bits(got, np.concatenate([w.ravel() for w in want])), t


@pytest.mark.parametrize("tau", [0.005, 0.25, 1.0])
def test_polyak_update_matches_oracle_bitwise(tau):
    rng = np.random.default_rng(6)
    target = nn.Mlp([7, 64, 64, 2], "tanh", rng)
    online = nn.Mlp([7, 64, 64, 2], "tanh", rng)
    online.weights[0][0, :2] = (0.0, -0.0)
    kept_online = _snapshot(online.params())
    want = oracle_polyak(target.params(), online.params(), tau)
    nn.polyak_update(target, online, tau)
    assert all(same_bits(a, b) for a, b in zip(target.params(), want))
    assert all(same_bits(a, b) for a, b in zip(online.params(), kept_online))
    # a network averaged with itself: the in-place update reads online before writing target
    want = oracle_polyak(online.params(), online.params(), tau)
    nn.polyak_update(online, online, tau)
    assert all(same_bits(a, b) for a, b in zip(online.params(), want))


@pytest.mark.parametrize("kind", list(RobotKind))
@pytest.mark.parametrize("n", [256, 37])
def test_train_v_matches_retired_6n_stack(kind, n, monkeypatch):
    # The 4n stack drops the sink block, whose values and upstream are exactly
    # 0; only the order in which BLAS sums the gradient's rows changes. The
    # output bias's gradient sums to 0 exactly in real arithmetic, so entries
    # are compared to 1e-12 of the largest one as well as of themselves.
    rng = np.random.default_rng(n)
    agent = colearn.make_agent(kind, seed=n)
    cfg = colearn.TrainConfig()
    d = envs.state_dim(kind)
    batch = {"s": rng.uniform(-2, 2, size=(n, d)), "s1": rng.uniform(-2, 2, size=(n, d))}
    want_grads, want_risk, want_pos, want_lie = oracle_train_v_6n(agent, cfg, batch)
    rec = {}
    monkeypatch.setattr(nn, "adam_step", lambda state, params, grads: rec.setdefault("grads", grads))
    risk, pos, lie = colearn.Trainer(agent, cfg).train_v(batch)
    assert (pos, lie) == (want_pos, want_lie) and 0.0 < lie < 1.0  # both upstream signs occur
    assert risk == pytest.approx(want_risk, rel=1e-12, abs=0.0)
    assert [g.shape for g in rec["grads"]] == [w.shape for w in want_grads]
    got, want = (np.concatenate([g.ravel() for g in grads]) for grads in (rec["grads"], want_grads))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("kind", list(RobotKind))
def test_lyapunov_value_and_grad_match_plain_formulas_bitwise(kind, monkeypatch):
    # Row counts alternate, so the sweeping robot's memo of f(0) is refilled
    # between checks. Every other row is negative throughout. Each batch of 11
    # rows or more is checked again with a NaN, a +inf and a -inf entry in
    # rows 5-7 (the sink image is NaN there, so V and its gradient are NaN), a
    # saturating row and a row of -0.0.
    v = colearn.make_agent(kind, seed=21).v
    net, m = v.net, v.mask
    rng = np.random.default_rng(21)

    def plain(x):
        ones = np.ones((len(x), 1))
        fx, fs = oracle_forward_cached(net, x), oracle_forward_cached(net, x * m)
        g1 = oracle_backward(net, fx, ones, params=False)[1]
        g2 = oracle_backward(net, fs, ones, params=False)[1]
        return fx[-1][:, 0] - fs[-1][:, 0], g1, g2

    def check(x):
        with np.errstate(invalid="ignore"):  # inf * 0 in the sink image
            want_v, g1, g2 = plain(x)
            got_v, got_g = v.value(x), v.grad(x)
            two_forwards = net.forward(x)[:, 0] - net.forward(x * m)[:, 0]
        assert same_bits(got_v, want_v) and same_bits(got_g, g1 - g2 * m), len(x)
        assert same_bits(got_v, two_forwards), len(x)
        return got_v, got_g

    for n in (1, 2048, 11, 256, 22, 1, 2048, 22, 11):
        x = rng.normal(size=(n, m.size)) * 2.0
        x[::2] = -np.abs(x[::2])
        check(x)
        if not envs.HAS_HEADING[kind]:
            assert len(v.sink_values) == n  # refilled for this row count
        if n >= 11:
            x[[5, 6, 7], [0, -1, 0]] = (np.nan, np.inf, -np.inf)
            x[8] = 1e6
            x[9] = -0.0
            got_v, got_g = check(x)
            assert np.isnan(got_v[5:8]).all() and np.isnan(got_g[5:8]).all()
    assert same_bits(v.value(x[0]), v.value(x[:1])) and same_bits(v.grad(x[0]), v.grad(x[:1]))
    # an exact -0 in f's input gradient: g2 * mask is -0 where g2 < 0, and
    # -0 - (-0) is +0, so there the plain formula is not g1
    x = rng.normal(size=(22, m.size))
    _, g1, g2 = plain(x)
    g1[3] = -0.0
    want = g1 - g2 * m
    assert envs.HAS_HEADING[kind] or not same_bits(want, g1)
    input_gradients = net.input_gradients

    def signed_zero(z, upstream):
        g = input_gradients(z, upstream)
        if same_bits(z, x):  # f's own pass, not the sink image's
            g[3] = -0.0
        return g

    monkeypatch.setattr(net, "input_gradients", signed_zero)
    assert same_bits(v.grad(x), want)


@pytest.mark.parametrize("kind", list(RobotKind))
def test_select_input_is_the_goal_condition_of_the_window(kind):
    # windows at the path's first, middle and last segment, and past its end
    rng = np.random.default_rng(41)
    path = rng.uniform(0.0, 4.0, size=(7, 2))
    inputs = []

    def value(x):
        inputs.append(x.copy())
        return np.zeros(len(x))  # at or below the first key: every candidate is certified

    tracker = _tracker(path, envs.empty_world(), value)
    n_seg = len(path) - 1
    for seg_idx, state in zip((0, n_seg // 2, n_seg - 1, n_seg + 2), _states(kind, rng)):
        tracker.select(state, seg_idx)
        lo, hi, cands = oracle_window(path, seg_idx)
        want = np.hstack([cands - state.pos, np.tile(state.intrinsic, (len(cands), 1))])
        assert same_bits(inputs[-1], want), (seg_idx, lo, hi)
    assert [len(x) for x in inputs] == [22, 22, 11, 11]


@pytest.mark.parametrize("kind", list(RobotKind))
def test_agent_act_is_the_policy_forward_of_the_featurized_goal_condition(kind):
    # Policy.act's one feature row from the state's and the goal's floats, for
    # the online and the target policy, against the network over featurize of
    # observe(...) as a one-row batch and against the numpy oracles of that
    # batch; Agent.act is the online policy's act
    agent = colearn.make_agent(kind, seed=31)
    nn.polyak_update(agent.pi_t, colearn.make_agent(kind, seed=32).pi, 0.5)  # a target unlike pi, in place
    world = envs.make_world(1, 31)
    rng = np.random.default_rng(31)
    n = 0
    for s in _states(kind, rng):
        for goal in (rng.normal(size=2) * 3.0, s.pos.copy(), s.pos + 1e-9, list(rng.uniform(0.0, 4.0, size=2))):
            x = envs.goal_condition(s, goal)
            acts = []
            for policy, net in ((agent.policy, agent.pi), (agent.target_policy, agent.pi_t)):
                got = policy.act(s, goal, world)
                batch = envs.featurize(kind, policy.observe(s, goal, world)[None])
                assert same_bits(got, net.forward(batch)[0]), (s, goal)
                assert same_bits(got, oracle_forward_cached(net, oracle_featurize(x[None]))[-1][0])
                acts.append(got)
            assert same_bits(agent.act(s, goal, world), acts[0])
            assert not same_bits(acts[0], acts[1])
            n += 1
    assert n >= 32


@pytest.mark.parametrize("kind", list(RobotKind))
def test_collect_episode_matches_the_two_loop_oracle_bitwise(kind, request):
    # every row and every draw, from equal rng seeds: the co-learning target
    # policy untrained (warmup random actions, then noise) and trained (it
    # reaches goals, so episodes end early), with co-learning's relabels; and
    # an e2e policy in level-1 hazard worlds, with and without relabels
    cfg, relabels = colearn.TrainConfig, colearn.TrainConfig.hindsight_relabels
    untrained = colearn.make_agent(kind, seed=41).target_policy
    trained = request.getfixturevalue(f"{kind.value}_agent").target_policy
    e2e = harness.make_e2e_policy(kind, seed=41)
    arena = envs.empty_world()
    reached = 0
    for seed in range(2):
        runs = []
        for policy, random_actions in ((untrained, True), (untrained, False), (trained, False)):
            start, goal = colearn.sample_task(kind, np.random.default_rng(seed))
            runs.append((policy, start, goal, arena, cfg.horizon, cfg.noise, random_actions, relabels))
        world = envs.make_world(harness.E2E_LEVEL, seed)
        start = envs.initial_state(kind, pos=world.start, heading=0.5 + seed)
        for random_actions, k in ((True, 0), (False, 0), (False, 2)):
            runs.append((e2e, start, world.goal, world, harness.E2E_SCHEDULE.horizon, cfg.noise, random_actions, k))
        for i, (*args, random_actions, k) in enumerate(runs):
            rng, oracle_rng = np.random.default_rng([seed, i]), np.random.default_rng([seed, i])
            got = colearn.collect_episode(*args, rng, random_actions, k)
            want = oracle_collect_episode(*args, oracle_rng, random_actions, k)
            for rows, oracle_rows in zip(got, want):
                assert len(rows) == len(oracle_rows), (seed, i)
                for j, (row, oracle_row) in enumerate(zip(rows, oracle_rows)):
                    assert len(row) == len(oracle_row) == 5
                    for x, y in zip(row, oracle_row):
                        assert type(x) is type(y) and same_bits(x, y), (seed, i, j)
            assert len(got[1]) == k * len(got[0])
            assert rng.bit_generator.state == oracle_rng.bit_generator.state
            reached += got[0][-1][4]
    assert reached > 0


def test_reached_is_strict_at_the_tolerance_and_false_for_nan():
    tol, origin = envs.REACH_TOL, np.zeros(2)
    below = np.nextafter(tol, 0.0)
    for u in np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]):
        assert envs.distance(tol * u, origin) == tol
        assert envs.reached(tol * u, origin) is False and envs.reached(origin, tol * u) is False
        assert envs.reached(below * u, origin) is True and envs.reached(origin, below * u) is True
    nan, inf = np.array([np.nan, 0.0]), np.array([np.inf, 0.0])
    with np.errstate(invalid="ignore"):  # inf - inf
        for p, q in ((nan, origin), (origin, nan), (nan, nan), (inf, inf), (inf, origin)):
            assert envs.reached(p, q) is False, (p, q)


def test_reached_matches_the_norm_rule_in_either_argument_order():
    rng = np.random.default_rng(43)
    tol, n = envs.REACH_TOL, 4000
    q = rng.uniform(-10.0, 10.0, size=(n, 2))
    r = tol * rng.uniform(0.98, 1.02, size=n)  # on both sides of the tolerance
    phi = rng.uniform(0.0, 2 * np.pi, size=n)
    p = q + r[:, None] * np.column_stack([np.cos(phi), np.sin(phi)])
    outcomes = set()
    for a, b in zip(p, q):
        want = bool(np.linalg.norm(a - b) < tol)
        assert bool(np.linalg.norm(b - a) < tol) is want
        assert envs.reached(a, b) is want and envs.reached(b, a) is want, (a, b)
        outcomes.add(want)
    assert outcomes == {False, True}
