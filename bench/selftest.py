"""Tests of the benchmark itself, kept out of the repository's test run.

    python3 -m pytest bench/selftest.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def clock(*times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_on_synthetic_span_tree():
    # A[0,10] holds B[1,3] and C[4,8]; C holds D[5,6].
    t = tracing.Tracer(clock=clock(0, 1, 3, 4, 5, 6, 8, 10))
    a = t.open("A")
    t.close(t.open("B"))
    c = t.open("C")
    t.close(t.open("D"))
    t.close(c)
    t.close(a)
    assert {n: t.total(n) for n in "ABCD"} == {"A": 10, "B": 2, "C": 4, "D": 1}
    assert {n: t.self_time(n) for n in "ABCD"} == {"A": 4, "B": 2, "C": 3, "D": 1}
    assert sum(t.self_time(n) for n in "ABCD") == t.total("A")
    assert t.by_parent[("D", "C")] == 1 and t.by_parent[("A", None)] == 1
    assert t.stack == []


def test_excluded_time_counts_in_no_open_span():
    # A[0,10] holds B[2,7]; 1 s is excluded while both are open.
    t = tracing.Tracer(clock=clock(0, 2, 7, 10))
    a = t.open("A")
    b = t.open("B")
    t.exclude(1.0)
    t.close(b)
    t.close(a)
    assert (t.total("A"), t.self_time("A"), t.total("B"), t.self_time("B")) == (9, 5, 4, 4)


def test_wrappers_bucket_rows_record_raises_and_come_off():
    class Net:
        def forward(self, x):
            return x

        def fail(self):
            raise KeyError("boom")

    forward, fail = Net.__dict__["forward"], Net.__dict__["fail"]
    t = tracing.Tracer()
    t._wrap(Net, "forward", "nn.Mlp.forward")
    t._wrap(Net, "fail", "Net.fail")
    net = Net()
    for x in (np.zeros(3), np.zeros((1, 3)), np.zeros((22, 3)), np.zeros((300, 3))):
        assert net.forward(x) is x
    with pytest.raises(KeyError):
        net.fail()
    assert [t.count("nn.Mlp.forward", b) for b in tracing.BUCKETS] == [2, 1, 1]
    assert [t.rows[("nn.Mlp.forward", b)] for b in tracing.BUCKETS] == [2, 22, 300]
    assert t.raised[("Net.fail", "KeyError")] == 1 and t.stack == []
    assert t.remove() == 2
    assert Net.__dict__["forward"] is forward and Net.__dict__["fail"] is fail


def test_calibration_scales_wall_time_less_probes_to_reference_speed():
    ref = calibrate.REFERENCE_PROBE_S
    # Probe [0, 2ref], call [2ref, 2ref + 1] holding one probe of 4ref, probe of 2ref.
    cal = calibrate.Calibrator(clock=clock(0, 2 * ref, 2 * ref, 1 + 2 * ref, 1 + 4 * ref, 1 + 6 * ref))

    def call():
        cal.probes.append(4 * ref)
        cal.probe_s += 4 * ref
        return "out"

    out, wall, calibrated = cal.timed(call)
    assert out == "out"
    assert wall == pytest.approx(1 - 4 * ref)
    assert calibrated == pytest.approx((1 - 4 * ref) * ref / (8 * ref / 3))


@pytest.mark.parametrize(
    "n, p", [(0, None), (39, None), (40, 75.0), (99, 75.0), (100, 90.0), (200, 95.0), (1000, 99.0), (10_000, 99.9)]
)
def test_tail_percentile_keeps_ten_samples_beyond(n, p):
    assert workloads.tail_percentile(n) == p


def _copy_point_artifacts(dest):
    shutil.copytree(workloads.CACHE / "point", dest / "point")
    shutil.copy(workloads.CACHE / "point_lut.json", dest / "point_lut.json")


def test_binding_refuses_missing_or_mismatched_artifacts(tmp_path):
    lib = workloads.import_lyapnav()
    _copy_point_artifacts(tmp_path)
    workloads.load_bound(lib, "point", cache=tmp_path)
    lut_path = tmp_path / "point_lut.json"
    doc = json.loads(lut_path.read_text())
    doc["v_digest"] = "0" * 64
    lut_path.write_text(json.dumps(doc))
    with pytest.raises(workloads.ArtifactError, match="do not match"):
        workloads.load_bound(lib, "point", cache=tmp_path)
    lut_path.unlink()
    with pytest.raises(workloads.ArtifactError, match="missing"):
        workloads.load_bound(lib, "point", cache=tmp_path)


def _run_cli(*args, cwd=HERE.parent):
    cmd = [sys.executable, "bench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_cli_prints_every_metric_of_the_contract(trace, kind):
    proc = _run_cli("--workload", "nav-l1-point", "--seed", "3", "--seconds", "0", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC[kind]]
    for m in SPEC[kind]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_cli_refuses_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_cli("--workload", "nav-l1-point", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "refusing" in proc.stderr
    assert proc.stdout.strip() == ""


SMOKE = [
    workloads.NavWorkload("nav-l3-sweeping", "sweeping", 3, suite=1),
    workloads.OfflineWorkload("offline-point", "point", episodes=2),
]


@pytest.mark.parametrize("workload", SMOKE, ids=lambda w: w.name)
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_at_minimal_length(workload, trace):
    result = workloads.run_workload(workload, seed=1, seconds=0, trace=trace)
    assert result["correct"], result["notes"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == names
    assert all(np.isfinite(v) for v, _ in result["metrics"].values())
    if trace:
        assert result["notes"]["outputs_match_untraced"]
    else:
        assert all(v > 0 for v, _ in result["metrics"].values())
