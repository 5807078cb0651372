"""Per-layer metrics (``--trace 1``): three in-process passes over the
workload, each in a fresh child (see traced.py), turned into named metrics.

- ``<stage>_s``: summed self time of the stage's spans (spans.STAGES);
- ``<layer>.self_s``: summed self time of every span of the layer;
- ``<layer>.peak_mb``: highest tracemalloc high-water mark of any span of
  the layer, relative to the traced memory when it opened (memory pass);
- counts computed from the public objects the spans saw (spans._hooks);
- ``cli.import_s``: median over the three children of the time to import
  ``soficlab.cli``;
- ``trace.overhead_frac``: traced pass wall time over the untraced one,
  minus 1; ``trace.coverage_frac``: summed self times over the traced pass
  wall time, which is at most 1 by construction and checked.

A layer the workload never enters reports 0 for its times and counts.
"""

import json
import statistics
import subprocess
import sys

import harness
from harness import BenchError
from spans import LAYERS, REPORTED_STAGES

COUNTS = {
    "balls.elements": "count", "balls.products_defined": "count",
    "backends.table_order": "count", "sl2.prime": "count",
    "almosthom.defect_pairs": "count", "almosthom.separation_pairs": "count",
    "almosthom.json_bytes": "bytes", "metrics.unitary_checks": "count",
    "metrics.permutations_built": "count", "amplify.output_rank": "count",
    "graphs.vertices": "count", "graphs.traversals": "count",
    "matching.edges": "count", "matching.flow_value": "count",
}
MODES = ("plain", "spans", "memory")


def metric_units() -> dict:
    units = {f"{stage}_s": "s" for stage in REPORTED_STAGES}
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update({f"{layer}.peak_mb": "MB" for layer in LAYERS})
    units.update(COUNTS)
    units.update({"cli.import_s": "s", "trace.overhead_frac": "ratio",
                  "trace.coverage_frac": "ratio"})
    return units


def run_child(workload: str, seed: int, mode: str, tiny: bool) -> dict:
    result = harness.WORK / f"traced-{mode}.json"
    result.unlink(missing_ok=True)
    argv = [sys.executable, str(harness.BENCH_DIR / "traced.py"), "--workload", workload,
            "--seed", str(seed), "--mode", mode, "--result", str(result)] + ["--tiny"] * tiny
    proc = subprocess.run(argv, cwd=harness.ROOT, env=harness.child_env(),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0 or not result.is_file():
        raise BenchError(f"traced {mode} pass exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(result.read_text())


def layer_of(stage: str) -> str:
    return stage.split(".", 1)[0]


def measure(workload: str, seed: int, tiny: bool = False) -> dict:
    harness.warm_up(workload, seed)
    passes = {mode: run_child(workload, seed, mode, tiny) for mode in MODES}
    spans, memory = passes["spans"], passes["memory"]
    self_s = spans["self_s"]
    values = {f"{stage}_s": self_s.get(stage, 0.0) for stage in REPORTED_STAGES}
    for layer in LAYERS:
        values[f"{layer}.self_s"] = float(sum(v for s, v in self_s.items()
                                              if layer_of(s) == layer))
        values[f"{layer}.peak_mb"] = max(
            (v for s, v in memory["peak_bytes"].items() if layer_of(s) == layer),
            default=0) / 2**20
    values.update({name: spans["counts"].get(name, 0) for name in COUNTS})
    values["cli.import_s"] = statistics.median(p["import_s"] for p in passes.values())
    values["trace.overhead_frac"] = spans["wall_s"] / passes["plain"]["wall_s"] - 1.0
    values["trace.coverage_frac"] = sum(self_s.values()) / spans["wall_s"]

    if sum(self_s.values()) > spans["wall_s"]:
        raise BenchError("span self times add up to more than the traced wall time")
    return {
        "metrics": {name: (values[name], unit) for name, unit in metric_units().items()},
        "attempted": sum(len(p["commands"]) for p in passes.values()),
        "failures": [{"command": f"[{mode}] {c['command']}", "why": c["failure"]}
                     for mode, p in passes.items() for c in p["commands"] if c["failure"]],
        "passes": passes,
    }
