"""One in-process pass over a workload, run as a fresh child by layers.py.

    python3 bench/traced.py --workload W --seed N --mode plain|spans|memory --result FILE [--tiny]

Every command runs through ``soficlab.cli.main(argv)`` in this process, with
stdout captured, and is checked against expected.json like a child process
would be.  ``plain`` installs nothing; ``spans`` installs the span recorders
of spans.py; ``memory`` installs them and turns tracemalloc on, so the span
times of the ``spans`` pass stay free of tracemalloc's overhead.  The time
to import ``soficlab.cli`` (numpy included) into the fresh interpreter is
measured before anything else is loaded.
"""

import argparse
import io
import json
import os
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "spans", "memory"), required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    start = time.perf_counter()
    import soficlab.cli  # noqa: F401
    import_s = time.perf_counter() - start

    import tracemalloc

    import harness
    import spans
    from outcomes import mismatch
    from workloads import commands

    expected = harness.load_expected(args.workload, args.tiny)
    rec = None
    if args.mode != "plain":
        rec = spans.Recorder(memory=args.mode == "memory")
        spans.install(rec)
    cli = sys.modules["soficlab.cli"]
    workdir = harness.prepare(harness.WORK / f"traced-{args.mode}", args.workload, args.tiny)
    result_path = os.path.abspath(args.result)
    os.chdir(workdir)
    if args.mode == "memory":
        tracemalloc.start()
    ran = []
    for cmd, exp in zip(commands(args.workload, args.tiny), expected):
        out = io.StringIO()
        crash = None
        t0 = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            try:
                code = cli.main(cmd.resolved(args.seed))
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # counted as a failed operation, not a benchmark error
                code, crash = 1, traceback.format_exc(limit=-3)
        wall = time.perf_counter() - t0
        data = harness.product_bytes(cmd, workdir, out.getvalue().encode())
        failure = f"crashed: {crash}" if crash else mismatch(exp, code, cmd.check, data)
        ran.append({"command": cmd.label, "wall_s": wall, "exit": code, "failure": failure})
    if args.mode == "memory":
        tracemalloc.stop()
    doc = {"mode": args.mode, "import_s": import_s, "wall_s": sum(r["wall_s"] for r in ran),
           "commands": ran}
    if rec is not None:
        doc.update(self_s=rec.self_s, calls=rec.calls, peak_bytes=rec.peak_bytes,
                   counts=rec.counts)
    with open(result_path, "w") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
