"""One-off frontier report: the largest n per transform that verifies at
1e-10 within a time limit.

Not part of the repeated benchmark runs and not gated.  For each transform,
n rises from 2; every attempt is a fresh ``python -m qrt_kit.cli verify``
subprocess, killed when it reaches the time limit, with its address space
capped so that a size too large for this machine fails with MemoryError
instead of exhausting shared memory.  The scan for a transform stops at its
first attempt that does not pass.

Run from the repository root; writes ``perfbench/results/frontier.json``:

    python3 perfbench/frontier.py
"""
from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from machine import machine_record  # noqa: E402

LIMIT_S = 60.0
ADDRESS_SPACE_CAP = 3 << 30
OUT_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results", "frontier.json")


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))


def attempt(src: str, transform: str, n: int, limit_s: float) -> dict:
    cmd = [sys.executable, "-m", "qrt_kit.cli", "verify", "--transform", transform,
           "--n", str(n)]
    env = dict(os.environ, PYTHONPATH=src)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=limit_s, preexec_fn=_cap_address_space)
    except subprocess.TimeoutExpired:
        return {"n": n, "seconds": round(time.perf_counter() - t0, 3), "outcome": "timeout"}
    seconds = round(time.perf_counter() - t0, 3)
    if proc.returncode == 0:
        outcome = "passed"
    elif "MemoryError" in proc.stderr:
        outcome = "memory cap"
    elif proc.returncode == 1:
        outcome = "failed"
    else:
        outcome = f"exit {proc.returncode}: {proc.stderr.strip().splitlines()[-1:]}"
    return {"n": n, "seconds": seconds, "outcome": outcome}


def main() -> int:
    src = os.path.abspath("src")
    if not os.path.isdir(os.path.join(src, "qrt_kit")):
        print("error: run from the repository root (src/qrt_kit not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from qrt_kit.cli import TRANSFORMS

    report = {"machine": machine_record(), "limit_s": LIMIT_S,
              "address_space_cap_bytes": ADDRESS_SPACE_CAP, "transforms": {}}
    for transform in TRANSFORMS:
        attempts = []
        n = 2
        while True:
            result = attempt(src, transform, n, LIMIT_S)
            attempts.append(result)
            print(f"{transform} n={n}: {result['outcome']} in {result['seconds']} s", flush=True)
            if result["outcome"] != "passed":
                break
            n += 1
        passed = [a["n"] for a in attempts if a["outcome"] == "passed"]
        report["transforms"][transform] = {
            "largest_n": max(passed) if passed else None, "attempts": attempts}
    with open(OUT_PATH, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    for transform, row in report["transforms"].items():
        print(f"{transform:>10}: largest n = {row['largest_n']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
