"""Span tracing of lyapnav's public functions, installed from outside the program.

``Tracer.install`` replaces every public function of the traced modules, and
every public method of the classes they define, with a wrapper that opens a
span on entry and closes it on exit. ``Tracer.remove`` puts the originals
back. Spans are folded into per-name aggregates as they close, so memory
stays flat even when the planner makes hundreds of thousands of clearance
checks per plan.

Self time is a span's duration minus the time its child spans cover. Calls
here are synchronous, so a span's children run one after another inside it
and the covered time is the sum of their durations. Time handed to
``exclude`` (the calibration probe's) counts in no open span.
"""

import functools
import inspect
import time
from collections import defaultdict

import numpy as np

# Modules whose public functions are traced. ``cli`` only parses arguments.
LAYERS = ("harness", "monitor", "planner", "nn", "colearn", "envs", "lyapunov_eval")

# Functions whose first data argument is a batch; their spans are bucketed by rows.
ROW_BUCKETED = {"nn.Mlp.forward", "nn.Mlp.gradients"}
BUCKETS = ("b1", "small", "large")


def row_bucket(rows):
    """b1 for a single row, small for 2-255 rows, large for 256 or more."""
    if rows <= 1:
        return "b1"
    return "small" if rows < 256 else "large"


def _rows(x):
    return 1 if np.ndim(x) < 2 else len(x)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []  # open spans: [name, bucket, start, child_s, excluded_s]
        self.calls = defaultdict(int)  # (name, bucket) -> closed spans
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.rows = defaultdict(int)
        self.raised = defaultdict(int)  # (name, exception class name) -> count
        self.truthy = defaultdict(int)  # name -> calls that returned a true value
        self.by_parent = defaultdict(int)  # (name, parent name) -> calls
        self._patches = []  # (owner, attribute, original)

    # -- spans ---------------------------------------------------------------
    def open(self, name, bucket=None, rows=0):
        parent = self.stack[-1][0] if self.stack else None
        self.by_parent[name, parent] += 1
        if rows:
            self.rows[name, bucket] += rows
        frame = [name, bucket, self.clock(), 0.0, 0.0]
        self.stack.append(frame)
        return frame

    def close(self, frame, raised=None, result=None):
        end = self.clock()
        if self.stack.pop() is not frame:
            raise RuntimeError(f"span {frame[0]} closed out of order")
        name, bucket, start, child_s, excluded_s = frame
        duration = end - start - excluded_s
        key = (name, bucket)
        self.calls[key] += 1
        self.total_s[key] += duration
        self.self_s[key] += duration - child_s
        if raised is not None:
            self.raised[name, raised] += 1
        elif result is True:
            self.truthy[name] += 1
        if self.stack:
            self.stack[-1][3] += duration

    def exclude(self, seconds):
        """Take ``seconds`` spent outside the program out of every open span."""
        for frame in self.stack:
            frame[4] += seconds

    # -- queries -------------------------------------------------------------
    def _sum(self, table, name, bucket):
        if bucket is not None:
            return table.get((name, bucket), 0)
        return sum(v for (n, _), v in table.items() if n == name)

    def count(self, name, bucket=None):
        return self._sum(self.calls, name, bucket)

    def total(self, name, bucket=None):
        return self._sum(self.total_s, name, bucket)

    def self_time(self, name, bucket=None):
        return self._sum(self.self_s, name, bucket)

    def names(self):
        return sorted({n for n, _ in self.calls})

    # -- wrapping ------------------------------------------------------------
    def _wrap(self, owner, attr, name):
        original = vars(owner)[attr]
        tracer = self
        bucketed = name in ROW_BUCKETED

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if bucketed:
                rows = _rows(args[1])
                frame = tracer.open(name, row_bucket(rows), rows)
            else:
                frame = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                tracer.close(frame, raised=type(exc).__name__)
                raise
            tracer.close(frame, result=result if result is True else None)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def install(self, modules):
        """Wrap the public functions of ``modules`` (a name -> module mapping
        over LAYERS) and the public methods of the classes they define."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer in LAYERS:
            module = modules[layer]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    self._wrap(module, attr, f"{layer}.{attr}")
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._wrap(obj, meth, f"{layer}.{attr}.{meth}")

    def remove(self):
        """Restore every original and return how many were wrapped."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        n = len(self._patches)
        left = [f"{a}" for o, a, orig in self._patches if vars(o)[a] is not orig]
        self._patches = []
        if left:
            raise RuntimeError(f"wrappers still installed on {left}")
        return n


# Per-layer metrics reported by a traced run, in BENCHMARK.json order.
_COUNTED = [
    "harness.run_episode",
    "planner.segment_free",
    "planner.point_segment_distance",
    "nn.adam_step",
    "nn.polyak_update",
    "colearn.LyapunovNet.value",
    "colearn.LyapunovNet.grad",
    "colearn.LyapunovNet.param_grads",
    "colearn.Policy.forward",
    "colearn.ReplayBuffer.add",
    "colearn.ReplayBuffer.sample",
    "envs.step",
    "envs.goal_condition",
    "envs.featurize",
    "envs.in_hazard",
]
_INCLUSIVE = [
    "monitor.build_lut",
    "colearn.Trainer.train_q",
    "colearn.Trainer.train_v",
    "colearn.Trainer.train_lq",
    "colearn.Trainer.train_pi",
    "colearn.Trainer.polyak",
    "colearn.collect_episode",
    "colearn.store_episode",
    "lyapunov_eval.sample_transitions",
]
_SELF_ONLY = [
    "monitor.monitored_rollout",
    "monitor.batch_radii",
    "planner.rrt_build",
    "planner.extract_path",
    "envs.make_world",
]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, ascend_steps):
    """Per-layer figures from a traced run as {name: (value, unit)}.

    ``ascend_steps`` is the number of ascent steps per ``batch_radii`` call,
    used for the per-step ascent time.
    """
    t = tracer
    m = {}

    def calls(name):
        m[f"{name}.calls"] = (t.count(name), "count")

    def self_s(name):
        m[f"{name}.self_s"] = (t.self_time(name), "s")

    def total(name):
        m[f"{name}.s"] = (t.total(name), "s")

    for name in ("monitor.select_sink", "planner.plan_path"):
        calls(name)
        total(name)
        self_s(name)
    sel = t.count("monitor.select_sink")
    m["monitor.select_sink.stalls"] = (t.raised.get(("monitor.select_sink", "MonitorStall"), 0), "count")
    v_in_sel = t.by_parent.get(("colearn.LyapunovNet.value", "monitor.select_sink"), 0)
    m["monitor.select_sink.v_calls_per_call"] = (_ratio(v_in_sel, sel), "ratio")
    calls("monitor.lut_query")
    m["monitor.lut_query.exceeded"] = (t.raised.get(("monitor.lut_query", "LevelExceededError"), 0), "count")
    radii_calls = t.count("monitor.batch_radii")
    m["monitor.ascend_step_ms"] = (1e3 * _ratio(t.total("monitor.batch_radii"), radii_calls * ascend_steps), "ms")
    seg = t.count("planner.segment_free")
    m["planner.segment_free.pass_ratio"] = (_ratio(t.truthy.get("planner.segment_free", 0), seg), "ratio")
    for name in ("nn.Mlp.forward", "nn.Mlp.gradients"):
        for b in BUCKETS:
            m[f"{name}.calls.{b}"] = (t.count(name, b), "count")
            m[f"{name}.rows.{b}"] = (t.rows.get((name, b), 0), "count")
            m[f"{name}.self_s.{b}"] = (t.self_time(name, b), "s")
    for name in _COUNTED:
        calls(name)
        self_s(name)
    for name in _INCLUSIVE:
        total(name)
    for name in _SELF_ONLY:
        self_s(name)
    return m
