"""timed-plactic benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

NAME is one of classical-long, timed-long, timed-coprime, cli-desk (see
NOTES.md for why each exists). The library is imported from ``src/``; nothing
needs to be built or installed. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``), and the
exit code is 0. With ``--workload all`` every workload runs untraced and
traced, and the exit code is 0 only if every output was checked correct. A
run that cannot complete prints no result and exits with 1 (2 on bad usage
or a missing ``src/``).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
from workloads import KERNEL_OF, WORKLOADS  # noqa: E402

SETUP_PROBES = 7
# A worker that has not finished by then is killed; the run fails.
WORKER_GRACE_S = 60.0


def _env() -> dict:
    """The environment of every process the benchmark starts. No inherited
    PYTHON* setting (bytecode writing, buffering, optimisation, ...) changes
    what is measured: the library comes from ``src/``, bytecode is cached
    there as for an installed package, and string hashing is fixed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker_argv(workload, seed, seconds, trace, *extra) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(seconds),
            "1" if trace else "0", *extra]


def setup_seconds(workload: str, env: dict) -> list[float]:
    """Calibrated start-up times (s): spawn a fresh interpreter and wait until
    it has imported the library. The first probe only warms caches."""
    cal = calib.Calibrator(KERNEL_OF[workload])
    raws = []
    for _ in range(SETUP_PROBES + 1):
        t0 = perf_counter()
        with subprocess.Popen(_worker_argv(workload, 0, 0, False, "--probe"), env=env, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            raws.append(perf_counter() - t0)
            proc.communicate(timeout=60)
        if line.strip() != "READY" or proc.returncode != 0:
            raise RuntimeError(f"library failed to import (exit {proc.returncode})")
        cal.measure()
    return [r * f for r, f in zip(raws[1:], cal.factors()[1:])]


def run_worker(workload, seed, seconds, trace, env) -> dict:
    """Run one workload in a fresh worker; echo its report lines and return
    its RESULT payload."""
    argv = _worker_argv(workload, seed, seconds, trace)
    # The worker leads its own process group, so that whatever it started
    # can be stopped with it.
    with subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=seconds + WORKER_GRACE_S)
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"{workload} worker did not finish in time")
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    result = None
    for line in out.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        elif line != "READY":
            print(line)
    if proc.returncode != 0 or result is None:
        raise RuntimeError(f"{workload} worker failed (exit {proc.returncode})")
    return result


def end_to_end(result: dict, setup: list[float]) -> dict:
    s = result["summary"]
    return {
        "ops_per_s": {"value": s["ops_per_s"], "unit": "1/s"},
        "op_p50_ms": {"value": s["p50_ms"], "unit": "ms"},
        "op_p90_ms": {"value": s["p90_ms"], "unit": "ms"},
        "setup_s": {"value": median(setup), "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        "ok_ratio": {"value": 1.0 - result["failed"] / result["attempted"], "unit": "ratio"},
    }


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    env = _env()
    setup = setup_seconds(workload, env)
    result = run_worker(workload, seed, seconds, trace, env)
    s = result["summary"]
    print(f"{workload} seed {seed}: {s['ops']} ops, {result['failed']} failed; "
          f"digest {result['digest']} over the first {result['digest_ops']} requests")
    print(f"  op_p90_ms from {s['ops']} samples, {s['beyond_p90']} beyond it; "
          f"times calibrated to a host where the kernel takes {calib.REF_MS[KERNEL_OF[workload]]} ms "
          f"(measured {result['cal_ms']:.3f} ms)")
    e2e = end_to_end(result, setup)
    for name, m in e2e.items():
        print(f"  {name:<12} {m['value']:12.4f} {m['unit']}")
    metrics = e2e
    if trace:
        metrics = result["layers"]
        print(f"  traced half: {result['traced']['ops']} ops")
        for name, m in metrics.items():
            print(f"  {name:<34} {m['value']:14.4f} {m['unit']}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "timed_plactic" / "__init__.py").is_file():
        print(f"error: no library source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            correct = all([
                run_one(w, args.seed, args.seconds, trace)["correct"]
                for w in WORKLOADS for trace in (False, True)
            ])
            return 0 if correct else 1
        report = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
