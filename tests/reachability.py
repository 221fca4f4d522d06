"""Run every lyapnav command once, in-process and on tiny inputs, under
``sys.setprofile``, and fail on any function of src/lyapnav that never ran.

``tests/test_hygiene.py`` finds dead code by name, so a method named like an
attribute that some other code reads (``copy``, ``add``, ``value``) passes it.
This check looks at what the commands call instead. It takes a few seconds,
most of them build-lut's sublevel search, so CI runs it as a step of its own
and Tier-1 does not.

    python tests/reachability.py
"""

import importlib
import inspect
import json
import sys
import tempfile
import types
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
CACHE = REPO / "tests" / "_agent_cache"

# functions that no command runs, on purpose
NOT_RUN_BY_COMMANDS = {
    # the acceptance suite's API (tests/test_acceptance.py): criterion 1's
    # finite-difference target and parameter gradients, and criterion 2's
    # single-level radius
    "colearn.policy_loss",
    "nn.Mlp.gradients",
    "monitor.overapprox_radius",
    # the one-level ceiling rule of criterion 3 and of bench/workloads.py;
    # SinkTracker.select takes the same rule from key_index, over its window
    "monitor.lut_query",
}

# tiny schedules for both learners: enough replay rows for a gradient phase
SCHEDULE = {
    "train": {"episodes": 3, "grad_steps": 1, "horizon": 60, "warmup_episodes": 1},
    "e2e": {"episodes": 3, "grad_steps": 1, "horizon": 150, "warmup_episodes": 1},
}

# function bodies that are part of the function they sit in
COMPREHENSIONS = ("<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>")

# a level-1 world file for plan --world
WORLD = {"size": 4.0, "hazards": [[2.0, 2.0, 0.4]], "start": [0.5, 0.5], "goal": [3.5, 3.5], "level": 1, "seed": None}


def commands(tmp):
    """The argv of one run of every command. The point robot has a heading,
    so the sublevel search's heading projection runs too, and build-lut at
    --seed 3 rebuilds its cached table, which the monitored bench uses."""
    agent, lut = str(CACHE / "point"), str(tmp / "lut.json")
    runs = [
        ["train", "--robot", "point", "--config", str(tmp / "schedule.json"), "--out", str(tmp / "agent")],
        ["train-e2e", "--robot", "point", "--config", str(tmp / "schedule.json"), "--out", str(tmp / "e2e")],
        ["eval-nlf", "--agent", agent, "--n", "100", "--out", str(tmp / "nlf.json")],
        ["build-lut", "--agent", agent, "--seed", "3", "--out", lut],
        ["plan", "--level", "1", "--out", str(tmp / "path.json")],
        ["plan", "--world", str(tmp / "world.json"), "--out", str(tmp / "world_path.json")],
    ]
    for method, policy in [("monitored", agent), ("direct", agent), ("e2e", tmp / "e2e"), ("h-e2e", tmp / "e2e")]:
        runs.append(["bench", "--method", method, "--agent", str(policy), "--episodes", "1"])
        runs[-1] += ["--out", str(tmp / method)]
        if method == "monitored":
            runs[-1] += ["--lut", lut]
    return runs + [["report", "--results", str(tmp / "monitored")]]


def key(code):
    return (str(Path(code.co_filename).resolve()), code.co_firstlineno, code.co_name)


def functions(module):
    """{code object key: qualified name} of every function and lambda that
    ``module``'s source defines. Class and module bodies are not optimized
    code, so they are not counted."""
    path = Path(module.__file__).resolve()
    out = {}
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        stack += [c for c in code.co_consts if isinstance(c, types.CodeType)]
        if code.co_flags & inspect.CO_OPTIMIZED and code.co_name not in COMPREHENSIONS:
            qualname = getattr(code, "co_qualname", code.co_name)
            out[key(code)] = f"{module.__name__.removeprefix('lyapnav.')}.{qualname}"
    return out


def main():
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    # profile from the first import, so functions that run at import count
    sys.path.insert(0, str(REPO / "src"))
    sys.setprofile(record)
    from lyapnav import cli

    with tempfile.TemporaryDirectory() as d:
        tmp = Path(d)
        (tmp / "schedule.json").write_text(json.dumps(SCHEDULE))
        (tmp / "world.json").write_text(json.dumps(WORLD))
        for argv in commands(tmp):
            print("lyapnav", " ".join(argv[:3]), flush=True)
            if cli.main(argv) != 0:
                sys.setprofile(None)
                sys.exit(f"lyapnav {' '.join(argv)} failed")
    sys.setprofile(None)

    defined = {}
    for path in sorted((REPO / "src" / "lyapnav").glob("*.py")):
        if path.stem != "__init__":
            defined.update(functions(importlib.import_module(f"lyapnav.{path.stem}")))
    ran = {defined[key(c)] for c in called if key(c) in defined}
    never = sorted(set(defined.values()) - ran - NOT_RUN_BY_COMMANDS)
    stale = sorted(NOT_RUN_BY_COMMANDS & ran)
    print(f"{len(ran)} of {len(defined)} functions ran")
    if never:
        print("never ran:", *never, sep="\n  ")
    if stale:
        print("listed as not run, but ran:", *stale, sep="\n  ")
    return 1 if never or stale else 0


if __name__ == "__main__":
    sys.exit(main())
