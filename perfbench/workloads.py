"""The benchmark's workloads: the CLI invocations one pass runs, and why.

Every workload is a closed loop with one client: items run one after
another in a single worker process.  The seed only shuffles the item order;
the program sees nothing but CLI arguments.
"""
from __future__ import annotations

from dataclasses import dataclass

BUILD_N = 128
"""Size of every build-export item: large enough that building, exporting
and parsing dominate, with no simulation at all."""

TRANSFORMS = (
    "qht-lcu", "qht-rec", "qct1", "qst1", "qst1-opt", "qct2", "qst2",
    "qct3", "qst3", "qct4", "qst4", "qft", "inc", "twos-comp", "or-tree",
)


@dataclass(frozen=True)
class Item:
    """One CLI invocation and the exit code it must return."""

    command: str  # "verify", "build" or "counts"
    transform: str
    n: int
    incorrect_d2: bool = False

    @property
    def expected_exit(self) -> int:
        return 1 if self.incorrect_d2 else 0

    @property
    def key(self) -> str:
        return f"{self.transform}/{self.n}"

    def argv(self) -> list[str]:
        argv = [self.command, "--transform", self.transform, "--n", str(self.n)]
        if self.incorrect_d2:
            argv.append("--incorrect-d2")
        if self.command == "counts":
            argv += ["--format", "json"]
        return argv

    def shrunk(self, max_n: int) -> "Item":
        return Item(self.command, self.transform, min(self.n, max_n), self.incorrect_d2)


WORKLOADS = {
    # Clean-ancilla circuits (widths 13-15): simulation is ~99% of the time
    # and each column's support is at most 2^d of 2^width, so a
    # support-sparse engine has its gain here.
    "verify-ancilla": (
        Item("verify", "qht-lcu", 7),
        Item("verify", "qht-rec", 6),
        Item("verify", "qct2", 7),
        Item("verify", "qst1-opt", 7),
    ),
    # No ancillas, full support: embedding search, block comparison and the
    # oracle dominate, and a sparse engine can only add per-gate overhead.
    # The --incorrect-d2 item must be rejected (exit 1).  Building, exporting
    # and counting the qct4 circuit keeps export, parse and counting in a
    # gated workload at a negligible share of its time.
    "verify-dense": (
        Item("verify", "qct4", 9),
        Item("verify", "qst4", 9),
        Item("verify", "qft", 10),
        Item("verify", "qct4", 9, incorrect_d2=True),
        Item("build", "qct4", 9),
        Item("counts", "qct4", 9),
    ),
    # Only X, CNOT and Toffoli, through the CLI's classical-map check and
    # its inline or-tree loop.  n stays at 8: or-tree n=10 takes ~69 s.
    "verify-gadgets": (
        Item("verify", "twos-comp", 8),
        Item("verify", "inc", 8),
        Item("verify", "or-tree", 8),
    ),
    # Build, export and parse back every transform, plus its JSON gate
    # counts: the IR, builders and text format, with no simulation.  Not in
    # BENCHMARK.json: on a 2-core host shared with other tenants this
    # pure-Python workload's run-to-run spread exceeded the largest
    # allowed bound (see results/).  It is run and recorded, not gated.
    "build-export": tuple(
        Item(command, transform, BUILD_N)
        for transform in TRANSFORMS for command in ("build", "counts")
    ),
}


def workload_items(name: str, max_n: int | None = None) -> list[Item]:
    """Items of one workload, optionally shrunk to n <= max_n."""
    items = WORKLOADS[name]
    if max_n is not None:
        items = tuple(item.shrunk(max_n) for item in items)
    return list(items)
