"""Certified-circle search, lookup table, and sink selection, validated
against an analytic quadratic value function."""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from lyapnav import envs, harness, monitor, nn
from lyapnav.envs import RobotKind
from test_oracles import oracle_point_segment_distance, same_bits


def quad_v(k):
    """V(s) = k * |d_g|^2 with its exact gradient; sublevel set {V <= C} has
    radius sqrt(C / k)."""
    value = lambda x: k * np.sum(np.atleast_2d(x)[:, :2] ** 2, axis=1)

    def grad(x):
        x = np.atleast_2d(x)
        g = np.zeros_like(x)
        g[:, :2] = 2 * k * x[:, :2]
        return g

    return value, grad


BOX2 = (np.array([-3.0, -3.0]), np.array([3.0, 3.0]))


@pytest.mark.parametrize("k", [0.25, 1.0, 4.0])
@pytest.mark.parametrize("c", [0.25, 1.0, 4.0])
def test_overapprox_radius_matches_analytic(k, c):
    value, grad = quad_v(k)
    r = monitor.overapprox_radius(value, grad, c, BOX2, seed=1)
    assert r == pytest.approx(np.sqrt(c / k), rel=0.02)


def test_overapprox_rejects_nonpositive_level():
    value, grad = quad_v(1.0)
    with pytest.raises(ValueError):
        monitor.overapprox_radius(value, grad, 0.0, BOX2)


def test_build_lut_matches_analytic_level_sets():
    value, grad = quad_v(1.0)
    grid = np.array([0.25, 1.0, 4.0])
    lut = monitor.build_lut(value, grad, grid, BOX2, seed=2)
    assert np.allclose(lut.radii, np.sqrt(grid), rtol=0.02)


def test_lut_ceiling_rule():
    lut = monitor.RoaLut(keys=[1.0, 2.0, 4.0], radii=[1.0, 1.5, 2.5], box=BOX2)
    assert monitor.lut_query(lut, 1.5) == 1.5  # rounds up to key 2.0
    assert monitor.lut_query(lut, 2.0) == 1.5  # exact key
    assert monitor.lut_query(lut, 0.1) == 1.0  # below the table floor
    with pytest.raises(monitor.LevelExceededError):
        monitor.lut_query(lut, 4.01)
    # key_index is the same rule over an array of levels: exactly at keys,
    # between keys, below the table, above the top key and NaN, where
    # len(keys) stands for no certificate
    levels = [1.0, 2.0, 4.0, 1.5, 3.0, 0.1, -1.0, 4.01, np.inf, np.nan]
    idx = monitor.key_index(lut, levels)
    assert idx.tolist() == [0, 1, 2, 1, 2, 0, 0, 3, 3, 3]
    for level, i in zip(levels, idx.tolist()):
        if i == lut.keys.size:
            with pytest.raises(monitor.LevelExceededError):
                monitor.lut_query(lut, level)
        else:
            assert monitor.lut_query(lut, level) == lut.radii[i]


def test_lut_rejects_bad_tables():
    with pytest.raises(ValueError):
        monitor.RoaLut(keys=[1.0], radii=[1.0], box=BOX2)
    with pytest.raises(ValueError):
        monitor.RoaLut(keys=[2.0, 1.0], radii=[1.0, 2.0], box=BOX2)
    with pytest.raises(ValueError):
        monitor.RoaLut(keys=[1.0, 2.0], radii=[2.0, 1.0], box=BOX2)
    bad = [
        ([1.0, 2.0, 4.0], [1.0, 2.0]),  # a radius short
        ([1.0, 2.0], [-5.0, -4.0]),  # negative radii pass every clearance test
        ([1.0, 2.0], [1.0, np.inf]),
        ([1.0, 2.0], [np.nan, 1.0]),
        ([np.nan, 2.0], [1.0, 2.0]),
        ([1.0, np.inf], [1.0, 2.0]),
    ]
    for keys, radii in bad:
        with pytest.raises(ValueError):
            monitor.RoaLut(keys=keys, radii=radii, box=BOX2)
    # documents that are no table: a missing entry, an unknown search
    # setting or a search constant, a box with one corner, not an object;
    # a search setting that is not an integer of at least 1, a seed that is
    # not a nonnegative integer, keys, radii or box corners that are not
    # lists of numbers, a box with a corner that is not finite, corners of
    # unequal length, lo above hi or a third corner, and a digest that is
    # neither a string nor null
    doc = json.loads(monitor.RoaLut(keys=[1.0, 2.0], radii=[1.0, 2.0], box=BOX2).to_json())
    for text, match in [
        (json.dumps({k: v for k, v in doc.items() if k != "seed"}), "no 'seed' entry"),
        (json.dumps({**doc, "search": {**doc["search"], "n_restarts": 8}}), "n_restarts"),
        (json.dumps({**doc, "search": {**doc["search"], "beta": 1e3}}), "beta"),
        (json.dumps({**doc, "box": doc["box"][:1]}), "malformed lookup table"),
        (json.dumps([doc]), "malformed lookup table"),
        (json.dumps({**doc, "search": {**doc["search"], "n_starts": 0}}), "'search' is invalid"),
        (json.dumps({**doc, "search": {**doc["search"], "n_steps": -1}}), "'search' is invalid"),
        (json.dumps({**doc, "search": {**doc["search"], "n_starts": 2.5}}), "'search' is invalid"),
        (json.dumps({**doc, "search": {**doc["search"], "n_steps": True}}), "'search' is invalid"),
        (json.dumps({**doc, "seed": "x"}), "'seed' is invalid"),
        (json.dumps({**doc, "seed": -1}), "'seed' is invalid"),
        (json.dumps({**doc, "seed": 3.0}), "'seed' is invalid"),
        (json.dumps({**doc, "keys": ["1", "2"]}), "'keys' is invalid"),
        (json.dumps({**doc, "keys": [[1.0, 2.0]]}), "'keys' is invalid"),
        (json.dumps({**doc, "radii": [1.0, "2"]}), "'radii' is invalid"),
        (json.dumps({**doc, "box": [doc["box"][0], ["1", "1"]]}), "'box' is invalid"),
        (json.dumps({**doc, "box": [doc["box"][0], [True, 1]]}), "'box' is invalid"),
        (json.dumps({**doc, "box": [[np.nan, -3.0], [3.0, 3.0]]}), "'box' is invalid"),
        (json.dumps({**doc, "box": [[-3.0, -np.inf], [3.0, 3.0]]}), "'box' is invalid"),
        (json.dumps({**doc, "box": [[-3.0, -3.0], [3.0, 3.0, 7.0]]}), "'box' is invalid"),
        (json.dumps({**doc, "box": [[-3.0, 4.0], [3.0, 3.0]]}), "'box' is invalid"),
        (json.dumps({**doc, "box": [*doc["box"], [0.0, 0.0]]}), "'box' is invalid"),
        (json.dumps({**doc, "box": [[np.nan, -3.0], [3.0, 3.0, 7.0]], "v_digest": 5}), "'box' is invalid"),
        (json.dumps({**doc, "v_digest": 5}), "'v_digest' is invalid: 5"),
        (json.dumps({**doc, "v_digest": ["abc"]}), "'v_digest' is invalid"),
    ]:
        with pytest.raises(ValueError, match=match):
            monitor.RoaLut.from_json(text)


def test_lut_json_roundtrip():
    value, grad = quad_v(2.0)
    lut = monitor.build_lut(value, grad, np.geomspace(0.1, 2.0, 8), BOX2, seed=3, v_digest="abc")
    back = monitor.RoaLut.from_json(lut.to_json())
    assert np.array_equal(back.keys, lut.keys)
    assert np.array_equal(back.radii, lut.radii)
    assert back.v_digest == "abc"


def test_lut_soundness_against_fresh_optimization():
    # table radius must dominate a freshly optimized radius at any level
    # covered by the table (ceiling rule rounds the level up)
    value, grad = quad_v(1.0)
    lut = monitor.build_lut(value, grad, np.geomspace(0.1, 4.0, 16), BOX2, seed=4)
    rng = np.random.default_rng(5)
    for lev in rng.uniform(0.1, 4.0, size=20):
        fresh = monitor.overapprox_radius(value, grad, lev, BOX2, seed=6)
        assert monitor.lut_query(lut, lev) >= fresh - 0.02 * fresh


def test_level_grid_from_values():
    vals = np.linspace(0.01, 1.0, 1000)
    grid = monitor.level_grid_from_values(vals, n=16)
    assert grid.size == 16
    assert np.all(np.diff(grid) > 0)
    assert grid[0] <= np.percentile(vals, 0.2)
    with pytest.raises(ValueError):
        monitor.level_grid_from_values(np.array([-1.0, 0.0]))


def test_candidate_sinks_span_segment():
    # the candidates a selection hands to V, in one call, are the segment at
    # fractions 0, 0.1, ..., 1
    value, _ = quad_v(1.0)
    calls = []

    def recording_value(x):
        calls.append(x.copy())
        return value(x)

    lut = monitor.RoaLut(keys=[0.01, 16.0], radii=[0.1, 0.1], box=BOX2)
    state = envs.initial_state(RobotKind.SWEEPING, pos=(0.0, 0.0))
    path = np.array([[0.0, 0.0], [1.0, 0.0]])
    monitor.SinkTracker(path, envs.empty_world(), recording_value, lut).select(state, 0)
    assert len(calls) == 1
    assert np.allclose(calls[0], np.column_stack([np.linspace(0.0, 1.0, 11), np.zeros(11)]))


def test_monitor_constants_are_in_range():
    # class constants, not fields: no config file or caller can set them
    cfg = monitor.MonitorConfig
    assert 0.0 < cfg.delta <= 1.0 and cfg.window >= 1 and cfg.stall_patience >= 0
    # below 1 the inflated circle would not cover the certified radius
    assert cfg.radius_inflation >= 1.0 and cfg().radius_inflation == 1.05
    for name in ("delta", "window", "radius_inflation", "stall_patience"):
        with pytest.raises(TypeError):
            cfg(**{name: 1})


def _progress(choice):
    return choice.segment + choice.fraction


def reference_select_sink(state, path, seg_idx, world, value_fn, lut):
    """Oracle: one V call and one table query per candidate, scanned segment
    by segment; a candidate replaces the best only on strictly greater
    (progress, radius). None when no candidate is safe."""
    cfg = monitor.MonitorConfig
    n_seg = max(len(path) - 1, 1)
    seg_idx = min(seg_idx, n_seg - 1)
    fracs = np.minimum(np.arange(int(np.ceil(1.0 / cfg.delta)) + 1) * cfg.delta, 1.0)
    best = None
    for seg in range(seg_idx, min(seg_idx + cfg.window, n_seg)):
        g1, g2 = path[seg], path[min(seg + 1, len(path) - 1)]
        for frac in fracs:
            p = g1 + frac * (g2 - g1)
            level = float(value_fn(envs.goal_condition(state, p)[None, :])[0])
            try:
                radius = monitor.lut_query(lut, level)
            except monitor.LevelExceededError:
                continue
            hz = world.hazards
            if not np.all(np.linalg.norm(hz[:, :2] - p, axis=1) >= radius * cfg.radius_inflation + hz[:, 2]):
                continue
            cand = monitor.SinkChoice(p, level, radius, seg, float(frac))
            if best is None or (_progress(cand), cand.radius) > (_progress(best), best.radius):
                best = cand
    return best


def _assert_same_choice(got, want):
    assert np.array_equal(got.pos, want.pos)
    assert (got.level, got.radius, got.segment, got.fraction) == (want.level, want.radius, want.segment, want.fraction)


def test_select_matches_per_candidate_oracle():
    rng = np.random.default_rng(13)
    kinds = {"chosen": 0, "stalled": 0, "uncertified": 0}
    for _ in range(300):
        a, b = rng.uniform(0.2, 3.0, size=2)
        c = rng.uniform(-1.0, 1.0)
        value = lambda x, a=a, b=b, c=c: a * x[:, 0] ** 2 + b * x[:, 1] ** 2 + c * x[:, 0] * x[:, 1]
        keys = np.geomspace(rng.uniform(0.005, 0.1), rng.uniform(0.2, 6.0), int(rng.integers(2, 8)))
        lut = monitor.RoaLut(keys=keys, radii=np.sort(rng.uniform(0.02, 0.6, keys.size)), box=BOX2)
        path = rng.uniform(0.0, 4.0, size=(int(rng.integers(1, 7)), 2))
        world = envs.empty_world()
        pos = path[0] + rng.normal(scale=0.2, size=2)
        hz = np.column_stack([rng.uniform(0.0, 4.0, size=(12, 2)), rng.uniform(0.05, 0.5, 12)])
        world.hazards = hz[np.linalg.norm(hz[:, :2] - pos, axis=1) > hz[:, 2]][: int(rng.integers(0, 13))]
        state = envs.initial_state(RobotKind.SWEEPING, pos=pos)
        seg_idx = int(rng.integers(0, len(path)))
        kinds["uncertified"] += bool(np.any(value(envs.goal_condition(state, path)) > keys[-1]))
        want = reference_select_sink(state, path, seg_idx, world, value, lut)
        got = monitor.SinkTracker(path, world, value, lut).select(state, seg_idx)
        if want is None:
            kinds["stalled"] += 1
            assert got is None
            continue
        kinds["chosen"] += 1
        _assert_same_choice(got, want)
    assert min(kinds.values()) >= 20, kinds


def test_select_tie_at_shared_waypoint_keeps_earlier_segment():
    # fraction 1.0 of segment 0 and fraction 0.0 of segment 1 are the same
    # point; a hazard covers the rest of segment 1, so that point is the
    # farthest safe one and the earlier segment must win, as the strict loop did
    value, _ = quad_v(1.0)
    lut = monitor.RoaLut(keys=[0.01, 16.0], radii=[0.05, 0.05], box=BOX2)
    world = envs.empty_world()
    world.hazards = np.array([[1.5, 1.9, 1.3]])
    path = np.array([[0.5, 0.5], [1.5, 0.5], [1.5, 1.5]])
    state = envs.initial_state(RobotKind.SWEEPING, pos=(0.5, 0.5))
    choice = monitor.SinkTracker(path, world, value, lut).select(state, 0)
    assert (choice.segment, choice.fraction) == (0, 1.0)
    _assert_same_choice(choice, reference_select_sink(state, path, 0, world, value, lut))


def test_path_table_holds_each_waypoint_once():
    # waypoint k is candidate row k * S, bit-equal to the path and in no other
    # row; a window of two segments is 2 * S + 1 rows and one on the last
    # segment S + 1; and when waypoint k + 1 is the window's farthest
    # certified row it is chosen as fraction 1.0 of segment k, the earlier of
    # the two it joins. Waypoint scales spread over six decades, where
    # a + 1.0 * (b - a) often misses b in its last bits
    S = monitor.FRACTIONS.size - 1
    rng = np.random.default_rng(34)
    lut = monitor.RoaLut(keys=[0.01, 16.0], radii=[0.05, 0.05], box=BOX2)
    state = envs.initial_state(RobotKind.SWEEPING, pos=(0.0, 0.0))  # goal vectors are the rows themselves
    windows = []

    def certified_up_to(waypoints):
        # V is 0 (certified) at the given waypoints and inf (uncertified) elsewhere
        def value(x):
            windows.append(len(x))
            return np.where((x[:, None, :2] == waypoints).all(axis=2).any(axis=1), 0.0, np.inf)

        return value

    for _ in range(200):
        n = int(rng.integers(1, 8))
        path = rng.uniform(-4.0, 4.0, size=(n, 2)) * 10.0 ** rng.integers(-3, 3, size=(n, 1))
        n_seg = max(n - 1, 1)
        tracker = monitor.SinkTracker(path, envs.empty_world(), None, lut)
        assert tracker.cands.shape == (n_seg * S + 1, 2)
        for k in range(n):
            assert same_bits(tracker.cands[k * S], path[k])
            if n > 1:  # a one-waypoint path is one segment of length zero
                assert (tracker.cands == path[k]).all(axis=1).sum() == 1
        for k in range(n_seg):
            tracker.value_fn = certified_up_to(path[: k + 2])
            choice = tracker.select(state, k)
            assert windows[-1] == (2 * S + 1 if k + 1 < n_seg else S + 1)
            assert (choice.segment, choice.fraction) == (k, 1.0)
            assert same_bits(choice.pos, path[min(k + 1, n - 1)])
    assert windows.count(2 * S + 1) >= 200, windows


def _oracle_checked_tracker(log):
    """SinkTracker whose every selection is compared with
    reference_select_sink, and whose every advance is compared with a scan of
    the window's segments; ``log`` counts the selections and those where the
    hazards changed the oracle's choice."""
    no_hazards = envs.empty_world()

    class Checked(monitor.SinkTracker):
        def select(self, state, seg_idx):
            want = reference_select_sink(state, self.path, seg_idx, self.world, self.value_fn, self.lut)
            free = reference_select_sink(state, self.path, seg_idx, no_hazards, self.value_fn, self.lut)
            log["selections"] += 1
            log["hazard_decided"] += want is None or free is None or _progress(want) != _progress(free)
            got = super().select(state, seg_idx)
            if want is None:
                assert got is None
            else:
                _assert_same_choice(got, want)
            return got

        def advance(self, state):
            lo = self.seg_idx
            super().advance(state)
            last = len(self.path) - 1
            dists = [
                oracle_point_segment_distance(state.pos, self.path[seg], self.path[min(seg + 1, last)])
                for seg in range(lo, min(lo + monitor.MonitorConfig.window + 1, max(last, 1)))
            ]
            assert self.seg_idx == lo + int(np.argmin(dists))

    return Checked


def _two_radius_world():
    world = envs.empty_world()
    world.hazards = np.array(
        [[1.6, 1.4, 0.2], [2.4, 2.6, 0.35], [1.0, 2.4, 0.35], [3.0, 1.6, 0.2], [2.0, 2.0, 0.2]]
    )
    return world


@pytest.mark.parametrize(
    "make_world, radii",
    [(lambda: envs.make_world(3, 0), 1), (_two_radius_world, 2), (envs.empty_world, 0)],
    ids=["level3", "two-radii", "empty"],
)
def test_sink_tracker_matches_oracle_at_every_step(monkeypatch, sweeping_agent, sweeping_lut, make_world, radii):
    # the per-path table must choose exactly what the per-candidate oracle
    # chooses at every step of a whole monitored episode; V is evaluated one
    # row at a time so the tracker's batch and the oracle's rows give the same
    # bits
    world = make_world()
    assert np.unique(world.hazards[:, 2]).size == radii
    value = sweeping_agent.v.value
    agent = SimpleNamespace(
        kind=sweeping_agent.kind,
        v=SimpleNamespace(value=lambda x: np.concatenate([value(row[None]) for row in x]), net=sweeping_agent.v.net),
        act=sweeping_agent.act,
    )
    log = {"selections": 0, "hazard_decided": 0}
    monkeypatch.setattr(monitor, "SinkTracker", _oracle_checked_tracker(log))
    rep = harness.run_episode("monitored", agent, world, lut=sweeping_lut, plan_seed=0)
    assert rep.outcome == "reached"
    assert log["selections"] == rep.steps
    assert (log["hazard_decided"] > 0) == (radii > 0), log


def test_sink_tracker_advance_scans_window_plus_one_segments():
    path = np.column_stack([np.arange(6.0), np.zeros(6)])
    assert monitor.MonitorConfig.window == 2
    lut = monitor.RoaLut(keys=[0.01, 16.0], radii=[0.1, 0.1], box=BOX2)
    tracker = monitor.SinkTracker(path, envs.empty_world(), None, lut)
    for pos, seg in [((2.6, 0.1), 2), ((1.0, 0.1), 2), ((4.9, 0.1), 4), ((9.0, 0.0), 4)]:
        tracker.advance(envs.initial_state(RobotKind.SWEEPING, pos=pos))
        assert tracker.seg_idx == seg


def test_sink_tracker_target_holds_the_last_sink_through_a_stall():
    # select picks from a script: a segment index succeeds with a sink on
    # that segment, None finds no safe sink
    class Scripted(monitor.SinkTracker):
        def select(self, state, seg_idx):
            segment = next(self.script)
            if segment is None:
                return None
            return monitor.SinkChoice(np.array([segment + 0.5, 0.0]), 1.0, 0.1, segment, 0.5)

    path = np.column_stack([np.arange(6.0), np.zeros(6)])
    lut = monitor.RoaLut(keys=[0.01, 16.0], radii=[0.1, 0.1], box=BOX2)
    state = envs.initial_state(RobotKind.SWEEPING)
    patience = monitor.MonitorConfig.stall_patience
    assert patience == 50

    def tracker(script):
        t = Scripted(path, envs.empty_world(), None, lut)
        t.script = iter(script)
        return t

    # nothing held: the first stall returns None
    assert tracker([None]).target(state) is None
    # a success, then patience stalls that each return the held sink; a
    # success in between resets the count; the next stall past it returns None
    script = [3] + [None] * 30 + [1] + [None] * patience + [None]
    t = tracker(script)
    for k, segment in enumerate(script[:-1]):
        held = t.held
        pos = t.target(state)
        if segment is None:
            assert t.held is held and np.array_equal(pos, held.pos), k
        else:
            assert t.stall == 0 and np.array_equal(pos, [segment + 0.5, 0.0]), k
        # seg_idx never moves back, not even to the later success on segment 1
        assert t.seg_idx == 3, k
    assert t.stall == patience
    assert t.target(state) is None


def test_select_prefers_progress_on_clear_ground():
    # with no hazards every candidate in the window is safe (quadratic V,
    # generous table), so the farthest one must win
    value, grad = quad_v(1.0)
    lut = monitor.build_lut(value, grad, np.geomspace(0.01, 16.0, 16), BOX2, seed=7)
    world = envs.empty_world()
    path = np.array([[0.5, 0.5], [1.5, 0.5], [2.5, 0.5]])
    state = envs.initial_state(RobotKind.SWEEPING, pos=(0.5, 0.5))
    choice = monitor.SinkTracker(path, world, value, lut).select(state, 0)
    assert choice.segment == 1
    assert choice.fraction == pytest.approx(1.0)


def test_select_rejects_uncertified_candidates():
    value, grad = quad_v(1.0)
    # tiny table: only levels up to 0.04 certify (radius 0.2)
    lut = monitor.build_lut(value, grad, np.array([0.01, 0.04]), BOX2, seed=8)
    world = envs.empty_world()
    path = np.array([[0.5, 0.5], [3.5, 3.5]])
    state = envs.initial_state(RobotKind.SWEEPING, pos=(0.5, 0.5))
    choice = monitor.SinkTracker(path, world, value, lut).select(state, 0)
    # the chosen sink must be within sqrt(0.04) of the robot
    assert np.linalg.norm(choice.pos - state.pos) <= 0.2 + 1e-6


def test_select_skips_hazard_overlapping_circles():
    value, grad = quad_v(1.0)
    lut = monitor.build_lut(value, grad, np.geomspace(0.01, 16.0, 16), BOX2, seed=9)
    world = envs.empty_world()
    world.hazards = np.array([[2.0, 0.5, 0.2]])
    path = np.array([[0.5, 0.5], [1.5, 0.5]])
    state = envs.initial_state(RobotKind.SWEEPING, pos=(0.5, 0.5))
    choice = monitor.SinkTracker(path, world, value, lut).select(state, 0)
    r_inf = choice.radius * monitor.MonitorConfig().radius_inflation
    assert np.linalg.norm(world.hazards[0, :2] - choice.pos) >= r_inf + 0.2


def test_select_stalls_when_nothing_safe():
    value, grad = quad_v(1.0)
    lut = monitor.build_lut(value, grad, np.array([4.0, 16.0]), BOX2, seed=10)  # huge circles only
    world = envs.empty_world()
    world.hazards = np.array([[1.0, 0.6, 0.2]])
    path = np.array([[0.5, 0.5], [1.5, 0.5]])
    state = envs.initial_state(RobotKind.SWEEPING, pos=(0.5, 0.5))
    assert monitor.SinkTracker(path, world, value, lut).select(state, 0) is None


class QuadAgent:
    """Stand-in agent for monitored episodes: the quadratic V (any Mlp serves
    as ``v.net``, whose digest binds the table) and a straight-line drive at
    the target."""

    kind = RobotKind.SWEEPING

    def __init__(self, k):
        value, _ = quad_v(k)
        self.v = SimpleNamespace(value=value, net=nn.Mlp([2, 4, 1], "identity", np.random.default_rng(0)))

    def act(self, state, goal, world):
        d = np.asarray(goal) - state.pos
        return d / max(np.linalg.norm(d), 0.05)


def test_monitored_episode_reaches_on_empty_world():
    agent = QuadAgent(1.0)
    value, grad = quad_v(1.0)
    grid = np.geomspace(0.01, 16.0, 16)
    lut = monitor.build_lut(value, grad, grid, BOX2, seed=11, v_digest=nn.params_digest(agent.v.net))
    rep = harness.run_episode("monitored", agent, envs.empty_world(), lut=lut)
    assert rep.outcome == "reached"
    assert rep.steps <= harness.STEP_CAPS[1]


def test_monitored_episode_detects_violation(monkeypatch):
    agent = QuadAgent(1.0)
    value, grad = quad_v(1.0)
    grid = np.geomspace(0.01, 64.0, 16)
    lut = monitor.build_lut(value, grad, grid, BOX2, seed=12, v_digest=nn.params_digest(agent.v.net))
    world = envs.empty_world()
    # hazard dead on the straight line from start to goal
    world.hazards = np.array([[2.0, 2.0, 0.2]])
    stepped = []
    step = envs.step

    def recording_step(*args):
        stepped.append(step(*args))
        return stepped[-1]

    monkeypatch.setattr(envs, "step", recording_step)
    rep = harness.run_episode("monitored", agent, world, lut=lut)
    assert rep.steps == len(stepped)
    # the monitor may dodge or violate depending on the table, but if it
    # reports a violation the final position must be inside the hazard
    if rep.outcome == "violated":
        assert envs.in_hazard(stepped[-1].pos, world)
    else:
        assert rep.outcome in ("reached", "stalled", "timeout")
        assert not any(envs.in_hazard(s.pos, world) for s in stepped)


def test_state_box_dimensions():
    for kind in RobotKind:
        lo, hi = monitor.state_box(kind, 3.0)
        assert lo.size == envs.state_dim(kind)
        assert np.all(hi > lo)
        assert hi[0] == 3.0



@pytest.mark.parametrize("key", ["step_cap", "reach_tol"])
def test_monitor_config_rejects_episode_loop_keys(key):
    # step caps and the reach tolerance belong to harness.run_episode
    assert not hasattr(monitor.MonitorConfig, key)
