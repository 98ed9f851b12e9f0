"""Output checks for benchmark items.

An item fails if it raises, exits with a code other than the expected one,
or fails the check for its command:

* verify: ``passed`` is true and ``max_error`` and ``ancilla_residual`` are
  below 1e-10; an ``--incorrect-d2`` item must instead report ``passed:
  false`` (and exit 1);
* build: the output's SHA-256 equals the digest recorded at the seed commit
  for that (transform, n), and the output parses back to the recorded gate
  list;
* counts: the total equals the recorded total and, where the paper gives
  one, its formula (two's complement 4n-4, QFT n(n+1)/2 + floor(n/2)).
"""
from __future__ import annotations

import hashlib
import json
import os

TOLERANCE = 1e-10
DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")

PAPER_TOTALS = {
    "twos-comp": lambda n: 4 * n - 4,
    "qft": lambda n: n * (n + 1) // 2 + n // 2,
}


def load_digests() -> dict:
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)["items"]


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def gate_list_digest(circuit) -> str:
    """SHA-256 of a circuit's gates (angles in exact hex) and of the wires
    its relabeling moves; independent of the text export format."""
    h = hashlib.sha256()
    for g in circuit.gates:
        angle = "-" if g.angle is None else float(g.angle).hex()
        h.update(f"{g.kind} {g.controls} {g.targets} {angle}\n".encode())
    if circuit.relabeling is not None:
        moves = [(w, d) for w, d in enumerate(circuit.relabeling) if w != d]
        h.update(f"relabel {moves}\n".encode())
    return h.hexdigest()


def check_output(item, code, out: str, parsed, digests: dict) -> str | None:
    """None when the item's output is right, else the reason it is not."""
    if code != item.expected_exit:
        return f"exit code {code}, expected {item.expected_exit}"
    if item.command == "verify":
        report = json.loads(out)
        if report.get("transform") != item.transform or report.get("n") != item.n:
            return "report names another transform or size"
        if item.incorrect_d2:
            return None if report.get("passed") is False else "incorrect circuit passed"
        if report.get("passed") is not True:
            return "report does not say passed"
        for key in ("max_error", "ancilla_residual"):
            if not report.get(key, 1.0) < TOLERANCE:
                return f"{key} = {report.get(key)} not below {TOLERANCE}"
        return None
    recorded = digests.get(item.key)
    if recorded is None:
        return f"no digest recorded for {item.key}"
    if item.command == "build":
        if text_digest(out) != recorded["sha256"]:
            return "build output differs from the recorded digest"
        if gate_list_digest(parsed) != recorded["gates_sha256"]:
            return "parsed gate list differs from the recorded one"
        return None
    total = json.loads(out)["rows"][0]["total"]
    if total != recorded["total"]:
        return f"total {total}, recorded {recorded['total']}"
    formula = PAPER_TOTALS.get(item.transform)
    if formula is not None and total != formula(item.n):
        return f"total {total}, paper formula gives {formula(item.n)}"
    return None
