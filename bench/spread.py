"""Run the benchmark on several seeds and report each metric's spread.

    python3 bench/spread.py --workload all --seeds 1-10 [--out FILE]

Runs ``bench/run.py`` once per workload and seed, one run at a time, with
BENCHMARK.json's run_seconds, and prints for each end-to-end metric the
median and the spread: the distance between the first and third quartile
(``statistics.quantiles(n=4)``) as a share of the median, next to the
metric's bound. With ``--out`` the runs, the summaries and the machine record
are written as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    machine = next(json.loads(line[8:]) for line in lines if line.startswith("machine "))
    return json.loads(lines[-1]), machine


def summarize(runs, spec):
    rows = {}
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        rows[metric["name"]] = {
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median,
            "bound": metric["bound"],
            "unit": metric["unit"],
        }
    return rows


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", default="all", help="a workload name, or all")
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--out")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    doc = {"run_seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for name in names:
        runs = []
        for seed in parse_seeds(args.seeds):
            result, doc["machine"] = run_once(name, seed, spec["run_seconds"])
            runs.append({"seed": seed, **result})
            values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
            print(f"{name} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} {values}", flush=True)
        rows = summarize(runs, spec)
        for metric, row in rows.items():
            flag = "ok" if row["spread"] < row["bound"] / 3 else "WIDE"
            print(f"{name} {metric:<16} median {row['median']:<12.6g} spread {row['spread']:.4f} "
                  f"bound {row['bound']} {flag}", flush=True)
        doc["workloads"][name] = {"summary": rows, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
