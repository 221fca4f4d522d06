"""Command-line interface.

Subcommands cover the full pipeline: train the co-learning agent, train the
end-to-end baseline, score the learned Lyapunov function, precompute the
certificate lookup table, plan paths, run benchmarks, and re-render reports.

Only train and train-e2e take a JSON config file (--config), which holds the
training schedules in the top-level sections {"train", "e2e"}: each is a JSON
object of integers that override colearn.TrainConfig's four fields in that
section's defaults (CONFIG_SECTIONS), and an unknown section or key is an
error. Everything else is fixed: the planner and the sublevel search run at
their dataclass defaults, build-lut searches goal vectors within
colearn.TrainConfig.goal_range, and network width, reach tolerance, hazard
penalty, the DDPG settings of both learners (discount and exploration noise
included), co-learning's loss weights and goal annulus, the monitor's
setting (monitor.MonitorConfig) and the e2e baseline's training level are
module or class constants. Every command that draws random numbers takes its
seed from --seed. build-lut (monitor.build_agent_lut) searches at --seed and
samples V at --seed + 2, so the cached tables under tests/_agent_cache/ are
--seed 3.
"""

import argparse
import json
import os
import sys
from dataclasses import fields, replace

from . import colearn, envs, harness, lyapunov_eval, monitor, nn, planner
from .envs import RobotKind

CONFIG_SECTIONS = {"train": colearn.TrainConfig(), "e2e": harness.E2E_SCHEDULE}


def load_config(path):
    if path is None:
        return {}
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise ValueError("config file must hold a JSON object")
    unknown = set(doc) - set(CONFIG_SECTIONS)
    if unknown:
        raise ValueError(f"unknown config sections {sorted(unknown)}; known sections are {list(CONFIG_SECTIONS)}")
    for section, settings in doc.items():
        if not isinstance(settings, dict):
            raise ValueError(f"config section {section} must be a JSON object, got {json.dumps(settings)}")
    return doc


def apply_overrides(section, overrides):
    """The section's default schedule with config-file overrides. Unknown keys
    are errors, and so is a value that is not a JSON integer (true and false
    are not)."""
    defaults = CONFIG_SECTIONS[section]
    unknown = set(overrides) - {f.name for f in fields(defaults)}
    if unknown:
        raise ValueError(f"unknown config keys for {section}: {sorted(unknown)}")
    for key, value in overrides.items():
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"config setting {section}.{key} must be an integer, got {json.dumps(value)}")
    return replace(defaults, **overrides)


def cmd_train(args):
    cfg = apply_overrides("train", load_config(args.config).get("train", {}))
    os.makedirs(args.out, exist_ok=True)
    log_path = os.path.join(args.out, "train_log.csv")
    agent, _ = colearn.colearn(RobotKind(args.robot), cfg, seed=args.seed, log_path=log_path)
    agent.save(args.out)
    print(f"trained {args.robot} agent (seed {args.seed}) -> {args.out}")
    return 0


def cmd_train_e2e(args):
    cfg = apply_overrides("e2e", load_config(args.config).get("e2e", {}))
    os.makedirs(args.out, exist_ok=True)
    log_path = os.path.join(args.out, "train_log.csv")
    policy = harness.train_e2e(RobotKind(args.robot), cfg, seed=args.seed, log_path=log_path)
    policy.save(args.out)
    print(f"trained {args.robot} e2e baseline (seed {args.seed}) -> {args.out}")
    return 0


def cmd_eval_nlf(args):
    agent = colearn.Agent.load(args.agent)
    report = lyapunov_eval.evaluate(agent, n=args.n, seed=args.seed)
    if args.out:
        with open(args.out, "w") as f:
            f.write(report.to_json())
    print(report.table_row(agent.kind.value))
    return 0


def cmd_build_lut(args):
    lut = monitor.build_agent_lut(colearn.Agent.load(args.agent), args.n_samples, args.seed)
    with open(args.out, "w") as f:
        f.write(lut.to_json())
    print(f"lookup table with {lut.keys.size} levels, radii [{lut.radii[0]:.3f}, {lut.radii[-1]:.3f}] -> {args.out}")
    # flagged, not refused: the table breaks the requirement on PlannerConfig.margin
    smallest = lut.radii[0] * monitor.MonitorConfig.radius_inflation
    if smallest >= planner.PlannerConfig.margin:
        print(
            f"warning: smallest inflated certified radius {smallest:.3f} is not below the planner margin "
            f"{planner.PlannerConfig.margin}; the monitor may stall in tight passages",
            file=sys.stderr,
        )
    return 0


def cmd_plan(args):
    if args.world:
        with open(args.world) as f:
            world = envs.World.from_json(f.read())
    else:
        world = envs.make_world(args.level, args.seed)
    cfg = planner.PlannerConfig()
    try:
        path = planner.plan_path(world, cfg, args.seed)
    except planner.PlanNotFound as exc:
        print(f"plan failed: {exc}", file=sys.stderr)
        return 1
    with open(args.out, "w") as f:
        f.write(planner.path_to_json(path, cfg, args.seed))
    print(f"path with {len(path)} waypoints -> {args.out}")
    return 0


def cmd_bench(args):
    method = args.method
    if method in ("monitored", "direct"):
        agent = colearn.Agent.load(args.agent)
    else:
        agent = harness.E2ePolicy.load(args.agent)
    lut = None
    if method == "monitored":
        if not args.lut:
            print("bench --method monitored needs --lut", file=sys.stderr)
            return 1
        with open(args.lut) as f:
            lut = monitor.RoaLut.from_json(f.read())
    summary, episodes = harness.run_benchmark(method, agent, args.level, args.episodes, args.seed, lut=lut)
    harness.write_reports([summary], episodes, args.out)
    print(harness.render_table([summary]))
    return 0


def cmd_report(args):
    episodes = harness.read_episodes(os.path.join(args.results, "episodes.csv"))
    groups = {}
    for e in episodes:
        groups.setdefault((e.robot, e.level, e.method), []).append(e)
    summaries = [harness.summarize(g) for g in groups.values()]
    harness.write_reports(summaries, episodes, args.results)
    print(harness.render_table(summaries))
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="lyapnav", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    robots = harness.ROBOTS

    for name, about, fn in (
        ("train", "co-learn policy and Lyapunov networks", cmd_train),
        ("train-e2e", "train the end-to-end baseline", cmd_train_e2e),
    ):
        t = sub.add_parser(name, help=about)
        t.add_argument("--robot", choices=robots, required=True)
        t.add_argument("--config")
        t.add_argument("--out", required=True)
        t.add_argument("--seed", type=int, default=0)
        t.set_defaults(fn=fn)

    ev = sub.add_parser("eval-nlf", help="Lyapunov satisfaction-rate report")
    ev.add_argument("--agent", required=True)
    ev.add_argument("--n", type=int, default=10_000)
    ev.add_argument("--seed", type=int, default=0)
    ev.add_argument("--out")
    ev.set_defaults(fn=cmd_eval_nlf)

    bl = sub.add_parser("build-lut", help="precompute the level-to-radius table")
    bl.add_argument("--agent", required=True)
    bl.add_argument("--out", required=True)
    bl.add_argument("--n-samples", type=int, default=2000)
    bl.add_argument("--seed", type=int, default=0)
    bl.set_defaults(fn=cmd_build_lut)

    pl = sub.add_parser("plan", help="plan a waypoint path through a world")
    pl.add_argument("--world", help="world JSON; omit to generate one")
    pl.add_argument("--level", type=int, default=1, choices=sorted(envs.LEVELS))
    pl.add_argument("--out", required=True)
    pl.add_argument("--seed", type=int, default=0)
    pl.set_defaults(fn=cmd_plan)

    b = sub.add_parser("bench", help="run a multi-episode benchmark")
    b.add_argument("--method", choices=harness.METHODS, required=True)
    b.add_argument("--agent", required=True)
    b.add_argument("--lut")
    b.add_argument("--level", type=int, default=1, choices=sorted(envs.LEVELS))
    b.add_argument("--episodes", type=int, default=100)
    b.add_argument("--out", required=True)
    b.add_argument("--seed", type=int, default=0)
    b.set_defaults(fn=cmd_bench)

    r = sub.add_parser("report", help="re-render summary and table from episode CSV")
    r.add_argument("--results", required=True)
    r.set_defaults(fn=cmd_report)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (
        FloatingPointError,
        nn.CheckpointError,
        planner.PlanNotFound,
        monitor.InfeasibleLevelError,
        envs.WorldGenerationError,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
