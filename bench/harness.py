"""Running workload commands as hermetic child processes and checking them.

Every child gets the same small environment: the checkout's ``src`` on
PYTHONPATH, the SOFICLAB_* caps pinned to their defaults at the seed commit,
one BLAS/OpenMP thread and a fixed hash seed.  Children run one at a time;
each one's wall time comes from ``perf_counter`` around spawn and reap, and
its own peak RSS from ``os.wait4`` (``RUSAGE_CHILDREN`` would give the
maximum over all children, not one child's peak).
"""

import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from outcomes import mismatch
from workloads import CATEGORIES, Command, commands, expected_key, inputs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
EXPECTED = BENCH_DIR / "expected.json"
WORK = BENCH_DIR / "work"
OUT = BENCH_DIR / "out"

# soficlab.config defaults at the seed commit; pinned so a changed default
# or a stray variable in the caller's environment cannot change the work.
PINNED_CAPS = {
    "SOFICLAB_BALL_CAP": "1000000",
    "SOFICLAB_RANK_CAP": "256",
    "SOFICLAB_PRIME_CEILING": "10000",
}
BLAS_THREADS = "1"

# What the `soficlab` console script runs.
ENTRY = "import sys; from soficlab.cli import main; sys.exit(main())"


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or recordings)."""


def preflight(need_expected: bool = True) -> None:
    if not (SRC / "soficlab" / "cli.py").is_file():
        raise BenchError(f"no soficlab sources under {SRC}")
    if need_expected and not EXPECTED.is_file():
        raise BenchError(f"no recorded outcomes at {EXPECTED}")


def child_env() -> dict:
    env = {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": "0",
        "OPENBLAS_NUM_THREADS": BLAS_THREADS,
        "OMP_NUM_THREADS": BLAS_THREADS,
        "MKL_NUM_THREADS": BLAS_THREADS,
        "LC_ALL": "C.UTF-8",
    }
    env.update(PINNED_CAPS)
    return env


def program(argv: list[str]) -> list[str]:
    return [sys.executable, "-c", ENTRY, *argv]


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def prepare(workdir: Path, workload: str, tiny: bool = False) -> Path:
    """An empty working directory holding the workload's input files."""
    fresh_dir(workdir)
    for name, text in inputs(workload, tiny).items():
        (workdir / name).write_text(text)
    return workdir


@dataclass
class Run:
    """One child process: wall seconds, own peak RSS and outcome."""

    index: int  # position of the command in the workload's list
    command: Command
    wall_s: float
    peak_rss_mb: float
    exit_code: int
    failure: str | None


def spawn(argv: list[str], cwd: Path, stdout_path: Path | None = None):
    """Run one soficlab command as a child; returns (wall_s, peak_rss_mb, exit_code)."""
    return spawn_process(program(argv), cwd, stdout_path)


def spawn_process(cmdline: list[str], cwd: Path, stdout_path: Path | None = None):
    """Run one child to completion; returns (wall_s, peak_rss_mb, exit_code)."""
    with open(stdout_path or os.devnull, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmdline, cwd=cwd, env=child_env(),
                                stdout=out, stderr=subprocess.DEVNULL)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def product_bytes(cmd: Command, workdir: Path, stdout: bytes) -> bytes | None:
    if cmd.product is None:
        return stdout
    path = workdir / cmd.product
    return path.read_bytes() if path.is_file() else None


def load_expected(workload: str, tiny: bool = False, path: Path = EXPECTED) -> list[dict]:
    key = expected_key(workload, tiny)
    recorded = json.loads(path.read_text())["workloads"].get(key)
    cmds = commands(workload, tiny)
    if recorded is None or [r["argv"] for r in recorded] != [c.label for c in cmds]:
        raise BenchError(f"{path.name} has no recording matching workload {key!r}")
    return recorded


def run_pass(workload: str, seed: int, expected: list[dict], workdir: Path,
             tiny: bool = False, sample_s: float = 0.0, max_samples: int = 1,
             between=None) -> list[Run]:
    """Run the workload's command list once, each command as its own child.

    A command is run again, in place, until its runs add up to `sample_s`
    seconds or it has `max_samples` runs, so short commands get a median
    of several samples.  `between` is called after every command, outside
    its timing.
    """
    prepare(workdir, workload, tiny)
    runs = []
    stdout_path = workdir / ".stdout"
    for index, (cmd, exp) in enumerate(zip(commands(workload, tiny), expected)):
        spent = 0.0
        for _ in range(max_samples):
            wall, rss, code = spawn(cmd.resolved(seed), workdir, stdout_path)
            data = product_bytes(cmd, workdir, stdout_path.read_bytes())
            runs.append(Run(index, cmd, wall, rss, code, mismatch(exp, code, cmd.check, data)))
            spent += wall
            if spent >= sample_s:
                break
        if between:
            between()
    return runs


def pass_metrics(runs: list[Run]) -> dict:
    """Per-pass end-to-end figures: the total and per-category sums of each
    command's median process wall time, and the highest single-process peak
    RSS."""
    by_index: dict[int, list[Run]] = {}
    for r in runs:
        by_index.setdefault(r.index, []).append(r)
    wall = {i: statistics.median(r.wall_s for r in rs) for i, rs in by_index.items()}
    out = {"wall_s": sum(wall.values())}
    for cat in CATEGORIES:
        out[f"{cat}_s"] = sum(w for i, w in wall.items() if by_index[i][0].command.category == cat)
    out["peak_rss_mb"] = max(r.peak_rss_mb for r in runs)
    return out


def summary(values: list[float]) -> dict:
    """Median, highest sample (the high percentile available from few
    samples) and sample count."""
    return {"median": statistics.median(values), "max": max(values), "n": len(values)}


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "soficlab").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    """HEAD of the checkout, when the checkout is a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_meta() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "machine": platform.machine(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(BLAS_THREADS),
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "caps": PINNED_CAPS,
        "seed_use": "only `demo amplify --seed` reads the seed; every other command is "
                    "deterministic and ignores it",
    }


SETUP_ARGV = ["--version"]
WARMUP_SETUP_RUNS = 2

# The host's speed drifts by up to ~40% over minutes on a shared VM (see
# README).  Times are scaled by REFERENCE_S over the run's median wall time
# of reference.py, a fixed child process that does not touch soficlab, so
# they read as seconds on a host where the reference takes REFERENCE_S.
REFERENCE_S = 0.2


def setup_sample(samples: list[float]) -> None:
    wall, _, code = spawn(SETUP_ARGV, ROOT)
    if code != 0:
        raise BenchError(f"`soficlab --version` exited {code}")
    samples.append(wall)


def reference_sample(samples: list[float]) -> None:
    wall, _, code = spawn_process([sys.executable, str(BENCH_DIR / "reference.py")], ROOT)
    if code != 0:
        raise BenchError(f"reference.py exited {code}")
    samples.append(wall)


def host_factor(reference: list[float]) -> float:
    """Multiplier taking this run's wall times to the reference host speed."""
    return REFERENCE_S / statistics.median(reference)


def warm_up(workload: str, seed: int) -> None:
    """Fill bytecode and file caches: a few interpreter starts and the
    workload's command shapes at tiny size.  Mismatches with the tiny
    recordings are reported on stderr."""
    for _ in range(WARMUP_SETUP_RUNS):
        setup_sample([])
        reference_sample([])
    expected = load_expected(workload, tiny=True)
    bad = [r for r in run_pass(workload, seed, expected, WORK / "warmup", tiny=True)
           if r.failure]
    for r in bad:
        print(f"warm-up mismatch: {r.command.label}: {r.failure}", file=sys.stderr)
