"""qrt-kit benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload verify-ancilla --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``.  Each
run starts one fresh worker process (``worker.py``) that drives
``qrt_kit.cli.main`` in-process and checks every output.

With ``--trace 0`` the end-to-end metrics are printed:

* ``wall_s``: one pass over the workload's items, each item timed at its
  median over the run's passes;
* ``peak_rss_mb``: ``ru_maxrss`` of the worker after its passes;
* ``setup_s``: worker start to its first result (imports plus one tiny
  verify), the median of several fresh workers.

``fail_frac`` (failed over attempted items) is printed on its own line and
carried by the result's ``failed`` and ``attempted`` fields.  With
``--trace 1`` the per-layer metrics of ``spans.py`` are printed instead.
The last line of standard output is the result as one JSON object.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from spans import PER_LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
SETUP_PROBES = 8
RUN_DEADLINE_S = 170.0


class WorkerError(RuntimeError):
    pass


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.communicate()


def start_worker(args) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its ``ready`` line; returns the process
    and its set-up time."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), *args],
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    try:
        ready = json.loads(line).get("event") == "ready"
    except json.JSONDecodeError:
        ready = False
    if not ready:
        _stop(proc)
        raise WorkerError(f"worker did not start (exit code {proc.returncode})")
    return proc, setup_s


def finish_worker(proc: subprocess.Popen, timeout: float) -> list[str]:
    """Wait for a worker to exit; returns the lines it printed after ``ready``."""
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise WorkerError("worker ran past the deadline") from None
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}")
    return out.splitlines()


def run(workload: str, seed: int, seconds: float, trace: int,
        max_n: int | None = None) -> tuple[dict, dict]:
    """One benchmark run; returns the result object and the worker's
    report (machine record, failures, pass count)."""
    deadline = time.perf_counter() + RUN_DEADLINE_S
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES - 1):
            proc, setup_s = start_worker(["--setup-only"])
            finish_worker(proc, deadline - time.perf_counter())
            setups.append(setup_s)
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    if max_n is not None:
        args += ["--max-n", str(max_n)]
    proc, setup_s = start_worker(args)
    setups.append(setup_s)
    lines = finish_worker(proc, deadline - time.perf_counter())
    if not lines:
        raise WorkerError("worker printed no result")
    report = json.loads(lines[-1])
    values = report["metrics"]
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    if not trace:
        values["setup_s"] = statistics.median(setups)
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return result, report


def summary_lines(workload: str, seed: int, result: dict, report: dict) -> list[str]:
    lines = [f"# machine: {json.dumps(report['machine'], sort_keys=True)}"]
    passes = report["passes"]
    lines.append(f"# {workload} seed {seed}: "
                 + (f"{passes} passes, " if passes else "")
                 + f"{result['attempted']} items attempted, {result['failed']} failed")
    lines += [f"# failed: {text}" for text in report["failures"]]
    lines += [f"# item {argv}: {seconds:.4f} s" for argv, seconds in (report["item_s"] or {}).items()]
    for name, metric in result["metrics"].items():
        lines.append(f"{name} {metric['value']:.6g} {metric['unit']}")
    lines.append(f"fail_frac {result['failed'] / result['attempted']:.6g} ratio")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qrt-kit benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join("src", "qrt_kit")):
        print("error: src/qrt_kit not found; run from the repository root", file=sys.stderr)
        return 2
    try:
        result, report = run(args.workload, args.seed, args.seconds, args.trace)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(summary_lines(args.workload, args.seed, result, report)))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
