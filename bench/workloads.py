"""The benchmark's workloads, their set-up and their correctness checks.

Every workload is a closed loop: one process runs one episode or phase after
another, in passes, until the run's time is used. The seed given to a run
fixes its inputs; nothing else does.

  nav-l1-point     monitored episodes at level 1 with the cached point agent
                   and LUT, on fresh worlds derived from the seed
  nav-l3-sweeping  monitored episodes at level 3 with the cached sweeping
                   agent and LUT, over a fixed suite of worlds in an order
                   set by the seed
  offline-point    co-learn a point agent from scratch, then build a LUT for
                   the cached point agent as ``lyapnav build-lut`` does

The programs are called through the same public functions as the ``bench``,
``train`` and ``build-lut`` subcommands. Cached artifacts under
``tests/_agent_cache`` are read, never written.
"""

import importlib
import itertools
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import calibrate
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CACHE = ROOT / "tests" / "_agent_cache"

# End-to-end metrics every workload reports, in BENCHMARK.json order.
E2E = ("setup_s", "episodes_per_s", "steps_per_s", "latency_ms_p50", "peak_rss_mb")
SETUPS = 5  # set-ups per untraced run; setup_s is their median
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)  # whole tenths only


class ArtifactError(RuntimeError):
    """The sources or a cached artifact are missing or do not match."""


def import_lyapnav(src=SRC):
    """Import the lyapnav modules afresh from ``src``."""
    if not (src / "lyapnav" / "__init__.py").is_file():
        raise ArtifactError(f"no lyapnav sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "lyapnav" or n.startswith("lyapnav.")]:
        del sys.modules[name]
    lib = SimpleNamespace(**{m: importlib.import_module(f"lyapnav.{m}") for m in tracing.LAYERS})
    if Path(sys.modules["lyapnav"].__file__).resolve().parent != (src / "lyapnav").resolve():
        raise ArtifactError(f"lyapnav was imported from outside {src}")
    return lib


def load_bound(lib, robot, cache=CACHE):
    """Load a cached agent and its LUT, and check that they belong together:
    the LUT's v_digest must equal the manifest's and that of the loaded V."""
    agent_dir = cache / robot
    lut_path = cache / f"{robot}_lut.json"
    manifest_path = agent_dir / "manifest.json"
    for path in (manifest_path, lut_path):
        if not path.is_file():
            raise ArtifactError(f"missing artifact {path}")
    try:
        manifest = json.loads(manifest_path.read_text())
        agent = lib.colearn.Agent.load(str(agent_dir))
        lut = lib.monitor.RoaLut.from_json(lut_path.read_text())
    except (OSError, ValueError, KeyError, TypeError, lib.nn.CheckpointError) as exc:
        raise ArtifactError(f"cannot load the {robot} artifacts: {exc}") from exc
    digest = lib.nn.params_digest(agent.v.net)
    if not lut.v_digest == manifest.get("v_digest") == digest:
        raise ArtifactError(
            f"{robot} artifacts do not match: LUT v_digest {lut.v_digest}, "
            f"manifest v_digest {manifest.get('v_digest')}, loaded V {digest}"
        )
    return agent, lut


def set_up(robot):
    lib = import_lyapnav()
    agent, lut = load_bound(lib, robot)
    return SimpleNamespace(lib=lib, agent=agent, lut=lut)


def audit_lut(ctx, seed):
    """Re-run the sublevel search at the cached table's keys with a fresh
    seed. Returns (ok, worst fresh-to-cached radius ratio); ok when no fresh
    radius exceeds the monitor's radius inflation times the cached one."""
    mon, agent, lut = ctx.lib.monitor, ctx.agent, ctx.lut
    fresh_seed = 7919 + seed if 7919 + seed != lut.seed else 7918 + seed
    fresh = mon.batch_radii(
        agent.v.value, agent.v.grad, lut.keys, lut.box, lut.search, fresh_seed, mon.heading_projection(agent.kind)
    )
    limit = mon.MonitorConfig().radius_inflation * lut.radii
    ok = bool(np.all(np.isnan(fresh) | (fresh <= limit)))
    return ok, float(np.nanmax(fresh / lut.radii))


def tail_percentile(n, beyond=10):
    """The highest of TAIL_PERCENTILES with at least ``beyond`` of n samples
    above it, or None when n is too small for any of them."""
    for p in TAIL_PERCENTILES:
        if n * (1000 - round(10 * p)) >= 1000 * beyond:
            return p
    return None


class NavWorkload:
    """Monitored episodes over a fixed suite of worlds.

    Every pass plays the one-episode ``harness.run_benchmark`` calls at seeds
    0..suite-1 (world and plan seed ``episode_world_seed(k, 0)``), in an
    order set by the run's seed. A run plays whole passes, so each run does
    the same work whatever its seed.
    """

    def __init__(self, name, robot, level, suite):
        self.name, self.robot, self.level, self.suite = name, robot, level, suite

    def set_up(self):
        return set_up(self.robot)

    def passes(self, ctx, seed):
        order = [int(k) for k in np.random.default_rng(seed).permutation(self.suite)]
        while True:
            yield order

    def run(self, ctx, spec, timer):
        """One episode, timed by ``timer`` (see ``Calibrator.timed``)."""
        (_, reports), wall, s = timer(
            ctx.lib.harness.run_benchmark, "monitored", ctx.agent, self.level, 1, seed=spec, lut=ctx.lut
        )
        return {"spec": spec, "s": s, "wall_s": wall, "report": reports[0]}

    def output(self, record):
        return (record["report"].outcome, record["report"].steps)

    def check(self, ctx, records, seed):
        reports = [r["report"] for r in records]
        summary = ctx.lib.harness.summarize(reports)
        n = len(reports)
        consistent = (
            summary.reach_rate == sum(r.outcome == "reached" for r in reports) / n
            and summary.violation_rate == sum(r.outcome == "violated" for r in reports) / n
            and all(r.outcome in ("reached", "violated", "stalled", "timeout", "plan_failed") for r in reports)
        )
        audit_ok, worst = audit_lut(ctx, seed)
        for r in records:
            r["failed"] = r["report"].outcome != "reached"
        notes = {"audit_worst_ratio": worst}
        return consistent and audit_ok, notes

    def metrics(self, ctx, records, key="s"):
        times = np.array([r[key] for r in records])
        steps = sum(r["report"].steps for r in records)
        summary = ctx.lib.harness.summarize([r["report"] for r in records])
        n = len(records)
        m = {
            "episodes_per_s": (n / times.sum(), "1/s"),
            "steps_per_s": (steps / times.sum(), "1/s"),
            "latency_ms_p50": (1e3 * float(np.median(times)), "ms"),
            "episode_ms_p50": (1e3 * float(np.median(times)), "ms"),
        }
        p = tail_percentile(n)
        if p is not None:
            m["episode_ms_tail"] = (1e3 * float(np.percentile(times, p)), f"ms@p{p:g}/n={n}")
        m["reach_rate"] = (summary.reach_rate, "ratio")
        m["violation_rate"] = (summary.violation_rate, "ratio")
        m["steps_to_reach"] = (summary.mean_steps_to_reach, "steps")
        return m


class OfflineWorkload:
    """Co-learning and LUT building, one cycle per pass.

    Cycle c of a run at seed s trains a fresh agent for ``episodes`` episodes
    at training seed 1000*s + c, then builds a LUT for the cached agent at the
    same seed with ``lyapnav build-lut``'s defaults: 2000 sampled transitions
    and a 32-level grid.
    """

    def __init__(self, name, robot, episodes=12):
        self.name, self.robot, self.episodes = name, robot, episodes

    def set_up(self):
        return set_up(self.robot)

    def passes(self, ctx, seed):
        for c in itertools.count():
            yield [("train", 1000 * seed + c), ("lut", 1000 * seed + c)]

    def run(self, ctx, spec, timer):
        what, seed = spec
        lib = ctx.lib
        try:
            if what == "train":
                cfg = lib.colearn.TrainConfig(episodes=self.episodes)
                result, wall, s = timer(lib.colearn.colearn, ctx.agent.kind, cfg, seed=seed)
            else:
                result, wall, s = timer(self.build_lut, lib, ctx.agent, seed)
        except (FloatingPointError, ValueError, lib.monitor.InfeasibleLevelError) as exc:
            return {"spec": spec, "s": math.nan, "wall_s": math.nan, "error": repr(exc)}
        return {"spec": spec, "s": s, "wall_s": wall, "result": result}

    def build_lut(self, lib, agent, seed):
        """The work of ``lyapnav build-lut`` after loading the agent."""
        mon = lib.monitor
        S, _ = lib.lyapunov_eval.sample_transitions(agent.kind, agent.policy, 2000, seed=seed)
        grid = mon.level_grid_from_values(agent.v.value(S), 32, 0.1, 99.0)
        return mon.build_lut(
            agent.v.value,
            agent.v.grad,
            grid,
            mon.state_box(agent.kind, 3.0),
            mon.SearchConfig(),
            seed=seed,
            v_digest=lib.nn.params_digest(agent.v.net),
            project=mon.heading_projection(agent.kind),
        )

    def output(self, record):
        if "error" in record:
            return record["error"]
        if record["spec"][0] == "train":
            agent, rows = record["result"]
            nets = (agent.pi, agent.q, agent.v.net, agent.lq, agent.pi_t, agent.q_t, agent.lq_t)
            return [[p.tobytes() for p in net.params()] for net in nets], rows
        lut = record["result"]
        return lut.keys.tolist(), lut.radii.tolist()

    def check(self, ctx, records, seed):
        mon = ctx.lib.monitor
        inflation = mon.MonitorConfig().radius_inflation
        digest = ctx.lib.nn.params_digest(ctx.agent.v.net)
        for r in records:
            if "error" in r:
                r["failed"] = True
            elif r["spec"][0] == "train":
                agent, rows = r["result"]
                nets = (agent.pi, agent.q, agent.v.net, agent.lq, agent.pi_t, agent.q_t, agent.lq_t)
                finite = all(np.all(np.isfinite(p)) for net in nets for p in net.params())
                losses = [row[k] for row in rows for k in ("q_loss", "lyapunov_risk", "lq_loss", "policy_loss")]
                trained = all(row["q_loss"] != 0.0 for row in rows)  # every episode ran its phases
                r["failed"] = not (finite and trained and len(rows) == self.episodes and np.all(np.isfinite(losses)))
            else:
                # A fresh table must not certify more than the cached one
                # allows: each radius stays within the monitor's inflation of
                # the cached ceiling-rule radius at the same level.
                lut = r["result"]
                covered = lut.keys <= ctx.lut.keys[-1]
                cached = np.array([mon.lut_query(ctx.lut, k) for k in lut.keys[covered]])
                r["failed"] = not (
                    lut.v_digest == digest
                    and np.all(np.isfinite(lut.radii))
                    and np.all(lut.radii[covered] <= inflation * cached)
                )
        audit_ok, worst = audit_lut(ctx, seed)
        return audit_ok, {"audit_worst_ratio": worst}

    def metrics(self, ctx, records, key="s"):
        train = [r for r in records if r["spec"][0] == "train" and "error" not in r]
        luts = [r for r in records if r["spec"][0] == "lut" and "error" not in r]
        if not train or not luts:
            return {}
        train_s = sum(r[key] for r in train)
        episodes = self.episodes * len(train)
        grad_steps = episodes * ctx.lib.colearn.TrainConfig().grad_steps
        lut_s = statistics.median(r[key] for r in luts)
        return {
            "episodes_per_s": (episodes / train_s, "1/s"),
            "steps_per_s": (grad_steps / train_s, "1/s"),
            "latency_ms_p50": (1e3 * lut_s, "ms"),
            "train_s_per_episode": (train_s / episodes, "s"),
            "lut_build_s": (lut_s, "s"),
        }


WORKLOADS = {
    w.name: w
    for w in (
        NavWorkload("nav-l1-point", "point", 1, suite=64),
        NavWorkload("nav-l3-sweeping", "sweeping", 3, suite=14),
        OfflineWorkload("offline-point", "point"),
    )
}


def closed_loop(passes, step, seconds):
    """Call ``step`` on each spec of whole passes while the time used plus
    the last pass still fits in ``seconds``; always at least one pass.
    Returns the steps' records in order and the peak RSS after the first
    pass, which does not depend on how many passes fit."""
    records = []
    first_pass_rss = None
    start = time.perf_counter()
    for specs in passes:
        pass_start = time.perf_counter()
        records.extend(step(spec) for spec in specs)
        first_pass_rss = first_pass_rss or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        now = time.perf_counter()
        if (now - start) + (now - pass_start) > seconds:
            return records, first_pass_rss


def run_workload(workload, seed, seconds, trace=False):
    """One run. Returns {correct, attempted, failed, metrics, report, notes};
    metrics holds the end-to-end metrics untraced and the per-layer ones
    traced, each as {name: (value, unit)}; report holds the rest."""
    if trace:
        return _run_traced(workload, seed, seconds)
    setup_s, setup_wall = [], []
    with calibrate.Calibrator() as cal:
        for _ in range(SETUPS):
            ctx, wall, s = cal.timed(workload.set_up)
            setup_s.append(s)
            setup_wall.append(wall)
        records, rss_mb = closed_loop(
            workload.passes(ctx, seed), lambda spec: workload.run(ctx, spec, cal.timed), seconds
        )
    correct, notes = workload.check(ctx, records, seed)
    measured = workload.metrics(ctx, records)
    measured["setup_s"] = (statistics.median(setup_s), "s")
    measured["peak_rss_mb"] = (rss_mb, "MB")
    metrics = {k: measured[k] for k in E2E if k in measured}
    correct = correct and len(metrics) == len(E2E)
    report = {k: v for k, v in measured.items() if k not in metrics}
    report["wall.setup_s"] = (statistics.median(setup_wall), "s")
    raw = workload.metrics(ctx, records, "wall_s")
    report.update({f"wall.{k}": (v, u) for k, (v, u) in raw.items() if u in ("s", "ms", "1/s") or u.startswith("ms@")})
    notes["probe_ms_median"] = 1e3 * statistics.median(cal.probes)
    return _result(correct, records, metrics, report, notes)


def _run_traced(workload, seed, seconds):
    """Each call runs traced, then again untraced right after it: the outputs
    must agree, and the difference in calibrated time is the tracing
    overhead. Probe time is kept out of every span."""
    ctx = workload.set_up()
    tracer = tracing.Tracer()
    modules = {layer: getattr(ctx.lib, layer) for layer in tracing.LAYERS}
    wrapped = []

    def traced_then_untraced(spec):
        tracer.install(modules)
        try:
            traced = workload.run(ctx, spec, cal.timed)
        finally:
            wrapped.append(tracer.remove())
        return traced, workload.run(ctx, spec, cal.timed)

    with calibrate.Calibrator(on_probe=tracer.exclude) as cal:
        pairs, _ = closed_loop(workload.passes(ctx, seed), traced_then_untraced, seconds)
    records, replay = [p[0] for p in pairs], [p[1] for p in pairs]
    same = [workload.output(r) for r in records] == [workload.output(r) for r in replay]
    correct, notes = workload.check(ctx, records, seed)
    traced_s = sum(r["s"] for r in records)
    untraced_s = sum(r["s"] for r in replay)
    metrics = tracing.layer_metrics(tracer, ctx.lib.monitor.SearchConfig().n_steps)
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.overhead_pct"] = (100.0 * (traced_s / untraced_s - 1.0), "%")
    report = {f"traced.{k}": v for k, v in workload.metrics(ctx, records).items()}
    report.update({f"untraced.{k}": v for k, v in workload.metrics(ctx, replay).items()})
    report.update({f"self_s.{name}": (tracer.self_time(name), "s") for name in tracer.names()})
    notes["outputs_match_untraced"] = same
    notes["functions_wrapped"] = wrapped[0]
    return _result(correct and same, records, metrics, report, notes)


def _result(correct, records, metrics, report, notes):
    return {
        "correct": bool(correct),
        "attempted": len(records),
        "failed": sum(bool(r["failed"]) for r in records),
        "metrics": metrics,
        "report": report,
        "notes": notes,
    }
