"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Each run happens in fresh
interpreters (``worker.py``) with the result cache and the run ledger
pointed at an empty scratch directory under ``.perfbench_tmp/``, which
must still be empty when the run ends.  With ``--trace 0`` set-up is
timed in ``SETUPS`` + 1 separate interpreters and reported as the
median.  The last stdout line is the result object; the exit code is
non-zero, with no result printed, when the run cannot complete.

Set-up times are scaled to reference speed by a calibration slice
measured just before each interpreter starts (``calibration.py``).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Set-up-only interpreters started before the measured one.
SETUPS = 4
#: Hard limit on one interpreter's wall time.
CHILD_TIMEOUT_S = 150.0


def start_worker(args, env, *extra):
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               *extra]
    started = time.perf_counter()
    child = subprocess.Popen(command, cwd=ROOT, env=env,
                             stdout=subprocess.PIPE, text=True)
    return child, started


def read_ready(child, started) -> float:
    """Seconds from spawn until the worker reports its inputs ready."""
    line = child.stdout.readline()
    if line.strip() != "READY":
        raise RuntimeError(f"worker did not become ready: {line!r}")
    return time.perf_counter() - started


def finish(child) -> str:
    try:
        out, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        raise RuntimeError("worker timed out")
    if child.returncode != 0:
        raise RuntimeError(f"worker exited with {child.returncode}")
    return out


def holds_files(directory: Path) -> bool:
    return directory.exists() and any(
        path.is_file() for path in directory.rglob("*"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
    if scratch.exists():
        shutil.rmtree(scratch)
    scratch.mkdir(parents=True)
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        "REPRO_CACHE_DIR": str(scratch / "cache"),
        "REPRO_LEDGER_DIR": str(scratch / "ledger"),
        "TMPDIR": str(scratch / "tmp"),
    })
    (scratch / "tmp").mkdir()
    child = None
    try:
        setups = []
        last = 0 if args.trace else SETUPS
        for index in range(last + 1):
            speed = calibration.slice_s()
            extra = ("--setup-only",) if index < last else ()
            child, started = start_worker(args, env, *extra)
            setups.append(calibration.scale(read_ready(child, started),
                                            speed))
            if extra:
                finish(child)
        result = json.loads(finish(child).strip().splitlines()[-1])
        child = None
        leaked = (holds_files(scratch / "cache")
                  or holds_files(scratch / "ledger"))
    except (RuntimeError, ValueError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        if child is not None and child.poll() is None:
            child.kill()
            child.wait()
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may share it
            scratch.parent.rmdir()

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups),
                              "unit": "s"}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = [m["name"]
              for m in spec["per_layer" if args.trace else "end_to_end"]]
    print(json.dumps({
        "correct": result["failed"] == 0 and not leaked,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: metrics[name] for name in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
