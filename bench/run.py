"""soficlab benchmark entry point.

    python3 bench/run.py --workload free-lef --seed 1 --seconds 35 --trace 0

Run from anywhere inside a checkout; the program is taken from its ``src``.
With ``--trace 0`` the workload's command list runs as separate `soficlab`
processes, one at a time, in passes until the run is as close to
``--seconds`` as whole passes allow (at least one pass), and the end-to-end
metrics are the medians over passes.  With
``--trace 1`` the same commands run in-process through
``soficlab.cli.main`` in three fresh children (untraced, traced, traced with
tracemalloc; see traced.py) and the per-layer metrics are printed.

Every command's exit code and product are checked against expected.json;
a mismatch counts as a failed operation.  The last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; a full
record of the run (machine, versions, every sample) is written under
``bench/out/``.  ``--record`` re-records expected.json from the current
program instead of measuring.
"""

import argparse
import json
import sys
import time

import harness
from harness import BenchError, Run
from outcomes import summarise
from workloads import WORKLOADS, commands, expected_key

END_TO_END_UNITS = {
    "wall_s": "s",
    "certify_s": "s",
    "verify_s": "s",
    "convert_s": "s",
    "check_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Each command of a pass runs until its runs add up to a second (at most five
# runs), so sub-second commands are timed by a median.
SAMPLE_S = 1.0
MAX_SAMPLES = 5


def measure(workload: str, seed: int, seconds: float) -> dict:
    expected = harness.load_expected(workload)
    harness.warm_up(workload, seed)
    setup: list[float] = []
    reference: list[float] = []

    def between() -> None:
        # after every command, alternately a `--version` and a reference sample
        if len(setup) <= len(reference):
            harness.setup_sample(setup)
        else:
            harness.reference_sample(reference)

    passes: list[list[Run]] = []
    start = time.perf_counter()
    while True:
        passes.append(harness.run_pass(workload, seed, expected, harness.WORK / "pass",
                                       sample_s=SAMPLE_S, max_samples=MAX_SAMPLES,
                                       between=between))
        # stop where the run ends closest to `seconds`
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) / 2 > seconds:
            break
    per_pass = [harness.pass_metrics(p) for p in passes]
    stats = {name: harness.summary([m[name] for m in per_pass]) for name in per_pass[0]}
    stats["setup_s"] = harness.summary(setup)
    factor = harness.host_factor(reference)
    runs = [r for p in passes for r in p]
    return {
        "host_factor": factor,
        "metrics": {name: stats[name]["median"] * (factor if unit == "s" else 1.0)
                    for name, unit in END_TO_END_UNITS.items()},
        "stats": stats,
        "attempted": len(runs),
        "failures": [{"command": r.command.label, "why": r.failure} for r in runs if r.failure],
        "commands": [
            {"command": r.command.label, "category": r.command.category, "wall_s": r.wall_s,
             "peak_rss_mb": r.peak_rss_mb, "exit": r.exit_code, "ok": r.failure is None}
            for r in runs
        ],
        "setup_samples": setup,
        "reference_samples": reference,
        "measured_s": time.perf_counter() - start,
    }


def record(seed: int) -> None:
    """Write expected.json from the current program (one run per command)."""
    doc = {
        "note": "exit codes and product summaries recorded by `bench/run.py --record`; "
                "see outcomes.py for how products are summarised",
        "recorded_from": {"git_sha": harness.git_sha(), "src_sha256": harness.source_digest()},
        "workloads": {},
    }
    for workload in WORKLOADS:
        for tiny in (True, False):
            workdir = harness.prepare(harness.WORK / "record", workload, tiny)
            entries = []
            for cmd in commands(workload, tiny):
                wall, _, code = harness.spawn(cmd.resolved(seed), workdir, workdir / ".stdout")
                data = harness.product_bytes(cmd, workdir, (workdir / ".stdout").read_bytes())
                if data is None:
                    raise BenchError(f"{cmd.label} produced no output")
                entries.append({"argv": cmd.label, "exit": code,
                                "summary": summarise(cmd.check, data)})
                print(f"{wall:8.3f} s  exit {code}  {expected_key(workload, tiny)}: {cmd.label}",
                      flush=True)
            doc["workloads"][expected_key(workload, tiny)] = entries
    harness.EXPECTED.write_text(json.dumps(doc, indent=1) + "\n")


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="re-record expected.json instead of measuring")
    args = parser.parse_args(argv)
    if args.workload is None and not args.record:
        parser.error("--workload is required")
    try:
        harness.preflight(need_expected=not args.record)
        if args.record:
            record(args.seed)
            return 0
        meta = harness.machine_meta()
        if args.trace:
            import layers

            result = layers.measure(args.workload, args.seed)
            metrics = {name: metric(v, unit) for name, (v, unit) in result["metrics"].items()}
        else:
            result = measure(args.workload, args.seed, args.seconds)
            metrics = {name: metric(result["metrics"][name], unit)
                       for name, unit in END_TO_END_UNITS.items()}
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    failed = len(result["failures"])
    attempted = result["attempted"]
    record_doc = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "meta": meta, **result}
    harness.OUT.mkdir(exist_ok=True)
    out = harness.OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record_doc, indent=1) + "\n")

    print(f"meta: {json.dumps(meta)}")
    for f in result["failures"]:
        print(f"FAILED: {f['command']}: {f['why']}")
    if args.trace:
        for name, m in metrics.items():
            print(f"{name:32s} {m['value']:14.6f} {m['unit']}")
    else:
        print(f"host factor {result['host_factor']:.4f} (reference {harness.REFERENCE_S} s over "
              f"the run's median reference time); raw figures are wall clock")
        for name, unit in END_TO_END_UNITS.items():
            s = result["stats"][name]
            print(f"{name:14s} {metrics[name]['value']:10.4f} {unit:3s} raw median "
                  f"{s['median']:10.4f} max {s['max']:10.4f} n={s['n']}")
    print(f"{'fail_rate':14s} {failed / attempted:.4f} ({failed} of {attempted} commands)")
    print(f"record: {out.relative_to(harness.ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
