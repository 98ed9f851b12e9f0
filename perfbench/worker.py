"""Benchmark worker: one fresh process per run, started by ``run.py``.

It imports ``qrt_kit`` from ``src/`` of the current directory, runs one
tiny warm-up verify and reports ``ready`` (the parent times set-up up to
that line).  Then it runs passes over the workload's items through
``qrt_kit.cli.main`` in-process, with the CLI's output captured and checked,
until ``--seconds`` have passed, and reports its metrics as one JSON line.

With ``--trace 1`` it measures half the time untraced and half traced, then
adds the per-gate-kind split of the widest simulated circuit.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from checks import check_output, load_digests  # noqa: E402
from machine import machine_record  # noqa: E402
from spans import (  # noqa: E402
    PER_LAYER_UNITS, Tracer, kind_seconds, layer_metrics,
    median_metrics, rebuild_seconds, widest_simulated,
)
from workloads import WORKLOADS, workload_items  # noqa: E402

WARMUP_ARGV = ["verify", "--transform", "qft", "--n", "2"]
MAX_FAILURES_SHOWN = 5

_protocol = sys.stdout


def emit(payload: dict) -> None:
    print(json.dumps(payload), file=_protocol, flush=True)


def run_cli(cli, argv) -> tuple[int, str]:
    """``cli.main(argv)`` with stdout and stderr captured; returns the exit
    code and stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue()


class Runner:
    """Runs workload items, checks their outputs and counts failures."""

    def __init__(self, items, digests, cli, simcore):
        self.items = items
        self.digests = digests
        self.cli = cli
        self.simcore = simcore
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.tracer: Tracer | None = None
        self.after_item = None

    def run_item(self, item) -> float:
        """Run one item and return its time: the CLI call, plus parsing the
        output back for a build item.  Checks are not timed."""
        if self.tracer is not None:
            self.tracer.item = self.attempted
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            code, out = run_cli(self.cli, item.argv())
            parsed = None
            if item.command == "build" and code == 0:
                parsed = self.simcore.parse_circuit(out)
            elapsed = time.perf_counter() - t0
            problem = check_output(item, code, out, parsed, self.digests)
        except Exception as exc:  # an item that raises is a failed item
            elapsed = time.perf_counter() - t0
            problem = f"{type(exc).__name__}: {exc}"
        if problem is not None:
            self.failed += 1
            if len(self.failures) < MAX_FAILURES_SHOWN:
                self.failures.append(f"{' '.join(item.argv())}: {problem}")
        if self.after_item is not None:
            self.after_item()
        return elapsed

    def run_pass(self, order) -> list[float]:
        times = [0.0] * len(self.items)
        for i in order:
            times[i] = self.run_item(self.items[i])
        return times


def measure(runner: Runner, rng: random.Random, seconds: float, after_pass=None):
    """Passes in seed-shuffled order for ``seconds``: at least one, and no
    further pass that would, at the mean pass time so far, end later.
    Returns each pass's per-item times."""
    passes = []
    start = time.perf_counter()
    while True:
        order = list(range(len(runner.items)))
        rng.shuffle(order)
        passes.append(runner.run_pass(order))
        if after_pass is not None:
            after_pass()
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def item_medians(passes) -> list[float]:
    return [statistics.median(p[i] for p in passes) for i in range(len(passes[0]))]


def pass_wall(passes) -> float:
    """Wall time of one pass: each item at its median over the passes."""
    return sum(item_medians(passes))


def traced_metrics(runner: Runner, rng, seconds, qrt_kit) -> dict:
    from qrt_kit.simcore import Circuit, Gate, data_register_action

    untraced = pass_wall(measure(runner, rng, seconds / 2))
    tracer = Tracer()
    per_pass = []
    widest = None
    ir_s = 0.0

    def rebuild_item():
        # one item's circuits at a time, so that the traced run holds no
        # more circuits alive than the untraced one
        nonlocal ir_s
        ir_s += rebuild_seconds(tracer.take_built(), Gate, Circuit)

    def reduce_pass():
        nonlocal widest, ir_s
        metrics = layer_metrics(tracer.spans)
        metrics["simcore.ir_s"] = ir_s
        widest = widest_simulated(tracer.spans) or widest
        per_pass.append(metrics)
        tracer.reset()
        ir_s = 0.0

    runner.tracer, runner.after_item = tracer, rebuild_item
    tracer.install(qrt_kit)
    try:
        traced = pass_wall(measure(runner, rng, seconds / 2, after_pass=reduce_pass))
    finally:
        tracer.uninstall()
        runner.tracer = runner.after_item = None
    metrics = median_metrics(per_pass)
    if widest is not None:
        metrics.update(kind_seconds(*widest, Circuit, data_register_action))
    metrics["trace.wall_s"] = traced
    metrics["trace.overhead_s"] = traced - untraced
    return {name: metrics.get(name, 0.0) for name in PER_LAYER_UNITS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qrt-kit benchmark worker")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-n", type=int, default=None)
    args = parser.parse_args(argv)

    src = os.path.abspath("src")
    sys.path.insert(0, src)
    import qrt_kit
    from qrt_kit import cli, simcore

    if not os.path.abspath(qrt_kit.__file__).startswith(src + os.sep):
        print(f"error: qrt_kit imported from {qrt_kit.__file__}, not {src}", file=sys.stderr)
        return 2
    code, _ = run_cli(cli, WARMUP_ARGV)
    if code != 0:
        print(f"error: warm-up verify exited {code}", file=sys.stderr)
        return 1
    emit({"event": "ready"})
    if args.setup_only:
        return 0

    runner = Runner(workload_items(args.workload, args.max_n), load_digests(), cli, simcore)
    rng = random.Random(args.seed)
    if args.trace:
        metrics = traced_metrics(runner, rng, args.seconds, qrt_kit)
        passes = item_s = None
    else:
        passes = measure(runner, rng, args.seconds)
        item_s = {" ".join(item.argv()): t for item, t in zip(runner.items, item_medians(passes))}
        metrics = {
            "wall_s": pass_wall(passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    emit({
        "event": "result",
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": runner.failures,
        "passes": None if passes is None else len(passes),
        "item_s": item_s,
        "metrics": metrics,
        "machine": machine_record(),
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
