"""Record the build digests and gate totals that the build-export checks
compare against.

The recorded file pins the output of the commit it was made on; the
committed ``digests.json`` was made on the seed commit.  Rerun it only when
a change to the circuits is intended, and say so in the change.

    python3 perfbench/record_digests.py   # from the repository root
"""
from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.abspath("src"))

from checks import DIGESTS_PATH, gate_list_digest, text_digest  # noqa: E402
from machine import git_commit  # noqa: E402
from worker import run_cli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMOKE_N = 4


def _cli(argv) -> str:
    from qrt_kit import cli

    code, out = run_cli(cli, argv)
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return out


def main() -> int:
    from qrt_kit.cli import build_transform
    from qrt_kit.simcore import parse_circuit

    # every (transform, n) a build or counts item uses, at full and smoke size
    sizes = sorted({(item.transform, n) for items in WORKLOADS.values() for item in items
                    if item.command != "verify" for n in (item.n, min(item.n, SMOKE_N))})
    items = {}
    for transform, n in sizes:
        args = ["--transform", transform, "--n", str(n)]
        text = _cli(["build", *args])
        counts = json.loads(_cli(["counts", *args, "--format", "json"]))
        built = gate_list_digest(build_transform(transform, n))
        if gate_list_digest(parse_circuit(text)) != built:
            raise SystemExit(f"{transform} n={n}: export does not parse back")
        items[f"{transform}/{n}"] = {
            "sha256": text_digest(text),
            "gates_sha256": built,
            "total": counts["rows"][0]["total"],
        }
    with open(DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump({"commit": git_commit(), "items": items}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(items)} digests in {DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
