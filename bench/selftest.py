"""Self-test of the benchmark, at tiny sizes (about 20 s).

    python3 bench/selftest.py

Checks that:
- every workload's command shapes run at tiny size with the recorded
  outcomes, as child processes and in-process;
- every end-to-end metric and every per-layer metric named in
  BENCHMARK.json is produced, with the units it declares, and the per-layer
  metrics cover every layer;
- a tampered recording (digest, float, exit code) and a report breaking the
  amplification law are each counted as a failed operation.

Exits 0 when all checks hold, 1 otherwise.
"""

import copy
import json
import sys

import harness
import layers
from outcomes import mismatch
from run import END_TO_END_UNITS
from spans import LAYERS
from workloads import WORKLOADS

# The per-layer metrics the benchmark promises; all must be emitted.
PROMISED = """
balls.ball_s balls.products_s balls.elements balls.products_defined balls.peak_mb
backends.finite_table_s backends.table_order sl2.witness_s sl2.prime
constructions.folner_fill_s constructions.lef_s constructions.to_unitary_s
constructions.amplify_s constructions.peak_mb
almosthom.defect_s almosthom.separation_s almosthom.emit_s almosthom.parse_s
almosthom.defect_pairs almosthom.separation_pairs almosthom.json_bytes almosthom.peak_mb
metrics.unitary_checks metrics.unitary_check_s metrics.permutations_built
amplify.tensor_square_s amplify.output_rank
amenability.folner_box_s amenability.folner_defect_s amenability.paradox_verify_s
graphs.cert_to_graph_s graphs.match_fraction_s graphs.vertices graphs.traversals
matching.two_one_s matching.paradox_build_s matching.edges matching.flow_value
cli.import_s cli.self_s trace.overhead_frac
""".split()

SEED = 7
problems: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(f"{'ok  ' if cond else 'FAIL'} {what}")
    if not cond:
        problems.append(what)


def check_declared_metrics() -> None:
    doc = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    expect(declared == END_TO_END_UNITS, "BENCHMARK.json end_to_end matches run.py")
    per_layer = {m["name"]: m["unit"] for m in doc["per_layer"]}
    expect(per_layer == layers.metric_units(), "BENCHMARK.json per_layer matches layers.py")
    missing = [name for name in PROMISED if name not in per_layer]
    expect(not missing, f"every promised per-layer metric is declared {missing or ''}")
    for layer in LAYERS:
        expect(any(name.startswith(layer + ".") for name in per_layer),
               f"layer {layer} has per-layer metrics")


def check_processes(workload: str) -> None:
    expected = harness.load_expected(workload, tiny=True)
    setup: list[float] = []
    runs = harness.run_pass(workload, SEED, expected, harness.WORK / "selftest", tiny=True,
                            between=lambda: harness.setup_sample(setup))
    bad = [f"{r.command.label}: {r.failure}" for r in runs if r.failure]
    expect(not bad, f"{workload}: tiny pass matches the recording {bad or ''}")
    metrics = dict(harness.pass_metrics(runs), setup_s=harness.summary(setup)["median"])
    expect(set(metrics) == set(END_TO_END_UNITS)
           and all(v > 0 for v in metrics.values()),
           f"{workload}: every end-to-end metric is emitted and positive")


def check_tampering() -> None:
    workload = "unitary-amplify"  # holds exact, unitary and amplify-law checks
    expected = harness.load_expected(workload, tiny=True)
    tampered = copy.deepcopy(expected)
    tampered[0]["summary"]["sha256"] = "0" * 64  # certify: exact digest
    tampered[1]["summary"]["claimed_separation"] += 1e-6  # to-unitary: a float
    tampered[2]["exit"] = 1  # verify: exit code
    runs = harness.run_pass(workload, SEED, tampered, harness.WORK / "selftest", tiny=True)
    flagged = [r.failure is not None for r in runs]
    expect(flagged == [True, True, True, False, False, False],
           f"tampered digest, float and exit code each count as a failure {flagged}")

    report = json.loads((harness.WORK / "selftest" / ".stdout").read_bytes())
    expect(mismatch(expected[5], 0, "amplify-law", json.dumps(report).encode()) is None,
           "amplification report obeys its law")
    report["pairs"][0]["d_measured"] += 1e-6
    expect(mismatch(expected[5], 0, "amplify-law", json.dumps(report).encode()) is not None,
           "a report breaking the amplification law counts as a failure")


def check_traced(workload: str) -> None:
    try:
        result = layers.measure(workload, SEED, tiny=True)
    except harness.BenchError as exc:
        expect(False, f"{workload}: traced passes run ({exc})")
        return
    expect(not result["failures"], f"{workload}: in-process tiny passes match the recording")
    expect(set(result["metrics"]) == set(layers.metric_units()),
           f"{workload}: every per-layer metric is emitted")


def main() -> int:
    harness.preflight()
    check_declared_metrics()
    for workload in WORKLOADS:
        check_processes(workload)
        check_traced(workload)
    check_tampering()
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
