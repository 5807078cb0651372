"""Repeat the benchmark over seeds and summarise the spread.

    python3 bench/sweep.py --runs 10 [--workloads free-lef,...] [--seconds 40] [--out FILE]

Runs ``run.py --trace 0`` once per seed (seeds 1..runs) on each workload,
then one ``--trace 1`` run per workload, and writes, per workload and
end-to-end metric, the median, the quartiles from
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median, plus the per-layer metrics of the traced run.  bench/baseline.json
is this file for the seed commit.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

import harness
from workloads import WORKLOADS


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, str(harness.BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=harness.ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise harness.BenchError(f"{workload} seed {seed} exited {proc.returncode}: "
                                 f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["run_s"] = time.perf_counter() - start
    return result


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / med if med else None, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seconds", type=float,
                        default=json.loads((harness.ROOT / "BENCHMARK.json").read_text())
                        ["run_seconds"])
    parser.add_argument("--out", default=str(harness.OUT / "sweep.json"))
    args = parser.parse_args()

    doc = {"meta": harness.machine_meta(), "runs": args.runs, "seconds": args.seconds,
           "workloads": {}}
    for workload in args.workloads.split(","):
        results = []
        for seed in range(1, args.runs + 1):
            results.append(run_once(workload, seed, args.seconds, 0))
            print(f"{workload} seed {seed}: {results[-1]['run_s']:.1f} s, "
                  f"failed {results[-1]['failed']} of {results[-1]['attempted']}", flush=True)
        traced = run_once(workload, 1, args.seconds, 1)
        print(f"{workload} traced: {traced['run_s']:.1f} s", flush=True)
        names = results[0]["metrics"]
        doc["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "run_s": spread([r["run_s"] for r in results]),
            "end_to_end": {name: dict(spread([r["metrics"][name]["value"] for r in results]),
                                      unit=names[name]["unit"]) for name in names},
            "per_layer": traced["metrics"],
            "traced_run_s": traced["run_s"],
        }
        for name, s in doc["workloads"][workload]["end_to_end"].items():
            print(f"  {name:12s} median {s['median']:10.4f} {s['unit']:3s} "
                  f"IQR/median {s['iqr_over_median']:.4f}", flush=True)
    harness.OUT.mkdir(exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
