"""Smoke test of the benchmark itself (about half a minute).

    python3 perfbench/smoke.py   # from the repository root; exits 0 on success

* runs every workload shrunk to n <= 4, traced and untraced, and checks that
  every metric BENCHMARK.json declares is reported with its unit, that the
  printed summary names each one with its unit, and that nothing failed;
* checks that a tampered build digest and a forced wrong exit code each
  count as a failed item.
"""
from __future__ import annotations

import json
import os
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.abspath("src"))

import run  # noqa: E402
from checks import load_digests  # noqa: E402
from workloads import WORKLOADS, Item  # noqa: E402
from worker import Runner  # noqa: E402

SMOKE_N = 4


def check_workload(workload: str, declared: dict) -> list[str]:
    problems = []
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        result, report = run.run(workload, seed=1, seconds=1, trace=trace, max_n=SMOKE_N)
        want = {m["name"]: m["unit"] for m in declared[group]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != want:
            problems.append(f"{workload} trace {trace}: metrics {got} != declared {want}")
        if not result["correct"] or result["failed"]:
            problems.append(f"{workload} trace {trace}: failures {report['failures']}")
        lines = run.summary_lines(workload, 1, result, report)
        for name, unit in [*want.items(), ("fail_frac", "ratio")]:
            if not any(l.startswith(f"{name} ") and l.endswith(f" {unit}") for l in lines):
                problems.append(f"{workload} trace {trace}: no summary line for {name} [{unit}]")
    return problems


def check_failures_counted() -> list[str]:
    from qrt_kit import cli, simcore

    problems = []
    digests = load_digests()
    build = Item("build", "qft", SMOKE_N)
    tampered = dict(digests, **{build.key: dict(digests[build.key], sha256="0" * 64)})
    runner = Runner([build], tampered, cli, simcore)
    runner.run_pass([0])
    if runner.failed != 1:
        problems.append("a tampered build digest did not count as a failure")

    wrong_exit = types.SimpleNamespace(main=lambda argv: cli.main(argv) + 1)
    verify = Item("verify", "qft", SMOKE_N)
    runner = Runner([verify, build], digests, wrong_exit, simcore)
    runner.run_pass([0, 1])
    if (runner.failed, runner.attempted) != (2, 2):
        problems.append(f"forced wrong exit codes gave {runner.failed} of "
                        f"{runner.attempted} failed, expected 2 of 2")
    return problems


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    problems = check_failures_counted()
    for workload in WORKLOADS:
        problems += check_workload(workload, declared)
    for text in problems:
        print(f"FAIL {text}")
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
