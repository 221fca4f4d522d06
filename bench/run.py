"""lyapnav benchmark: closed-loop workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload nav-l1-point --seed 0 --seconds 30 --trace 0

``--workload all`` runs every workload in this one process. ``--trace 0``
measures the end-to-end metrics untraced; ``--trace 1`` wraps lyapnav's
public functions, reports per-layer counts and self times, and replays the
same work untraced to check the outputs agree and to measure the overhead.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Runs with one BLAS thread. Exits 2 without a
result when the sources or the cached artifacts are missing or do not match.
"""

import os

# Pin BLAS to one thread before numpy is imported anywhere.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402


def git_commit(root):
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_record(root):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
        "commit": git_commit(root),
    }


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_result(name, seed, seconds, trace, result):
    print(f"== {name} seed={seed} seconds={seconds} trace={int(trace)}")
    for label, table in (("metric", result["metrics"]), ("report", result["report"])):
        for key, (value, unit) in table.items():
            print(f"  {label:<6} {key:<44} {_fmt(value):>14} {unit}")
    for key, value in result["notes"].items():
        print(f"  note   {key:<44} {_fmt(value):>14}")
    print(f"  correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", default="all", choices=sorted(workloads.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            result = workloads.run_workload(workloads.WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
            print_result(name, args.seed, args.seconds, args.trace, result)
            results[name] = result
    except workloads.ArtifactError as exc:
        print(f"error: refusing to run: {exc}", file=sys.stderr)
        return 2
    print("machine " + json.dumps(machine_record(workloads.ROOT)))
    prefix = len(names) > 1
    line = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            (f"{name}/{key}" if prefix else key): {"value": value, "unit": unit}
            for name, r in results.items()
            for key, (value, unit) in r["metrics"].items()
        },
    }
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
