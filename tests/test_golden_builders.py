"""Golden digests of every public circuit builder and of the stage
circuits the tests build from the library's private fragments.

``tests/golden/builders.json`` holds, for each (builder, n, flag) case, one
SHA-256 over the exported gate list, the width, the sorted ancillas and the
label, or ``"ValueError"`` for a size a public builder rejects.  A change to
how circuits are assembled must leave every one of them unchanged.

Regenerate (only when a circuit is meant to change) with
``PYTHONPATH=src python tests/test_golden_builders.py``.
"""
import dataclasses
import hashlib
import json
import pathlib

from qrt_kit import gadgets, hartley, qft, trig
from qrt_kit.simcore import export_circuit

from helpers import (
    cond_decrement,
    cond_ones_complement,
    cx_zero_detect,
    d1,
    d2,
    g_gate,
    or_gate,
    or_tree_rounds,
    t_gate,
    type1_core,
    unitary_ur,
    unitary_w,
)

GOLDEN = pathlib.Path(__file__).parent / "golden" / "builders.json"
SIZES = range(0, 9)

_SIZED = {
    "inc": gadgets.build_cond_increment,
    "p2c": gadgets.build_cond_twos_complement,
    "or_tree": gadgets.build_or_tree,
    "qft": qft.build_qft,
    "qht_lcu": hartley.build_qht_lcu,
    "qht_rec": hartley.build_qht_recursive,
    "qcst1": trig.build_qcst_type1,
    "qst1_opt": trig.build_qst1_optimized,
    "qcst2": trig.build_qcst_type2,
    "qcst3": trig.build_qcst_type3,
    "qcst4": trig.build_qcst_type4,
    "qcst4/uncorrected": lambda n: trig.build_qcst_type4(n, corrected=False),
}

# name -> (smallest n, stage circuit); a stage is recorded from the smallest
# size its construction is meant for, since the fragments check no size
_STAGES = {
    "dec": (1, cond_decrement),
    "p1c": (1, cond_ones_complement),
    "or_tree/uncompute_internal": (2, lambda n: or_tree_rounds(n, 1)),
    "or_tree/reset_root": (2, lambda n: or_tree_rounds(n, 2)),
    "or_tree/both": (2, lambda n: or_tree_rounds(n, 2)),
    "qft_inv": (1, lambda n: dataclasses.replace(qft.build_qft(n).adjoint(),
                                                 label=f"qft_inv_{n}")),
    "ur": (1, unitary_ur),
    "cx_zero": (1, cx_zero_detect),
    "w": (2, unitary_w),
    "t": (2, t_gate),
    "qcst1_core": (2, type1_core),
    "d1": (1, d1),
    "d2": (1, d2),
    "d2/uncorrected": (1, lambda n: d2(n, corrected=False)),
    "g": (2, g_gate),
}


def _digest(build) -> str:
    try:
        circuit = build()
    except ValueError:
        return "ValueError"
    record = [export_circuit(circuit), circuit.width, sorted(circuit.ancillas),
              circuit.label]
    return hashlib.sha256(json.dumps(record).encode("utf-8")).hexdigest()


def current_digests() -> dict:
    out = {"or_gate": _digest(or_gate)}
    for name, build in _SIZED.items():
        for n in SIZES:
            out[f"{name}/{n}"] = _digest(lambda: build(n))
    for name, (first, build) in _STAGES.items():
        for n in range(first, SIZES.stop):
            out[f"{name}/{n}"] = _digest(lambda: build(n))
    return out


def test_builders_match_golden_digests():
    recorded = json.loads(GOLDEN.read_text())
    current = current_digests()
    assert sorted(current) == sorted(recorded)
    changed = [key for key in recorded if current[key] != recorded[key]]
    assert not changed, changed


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(current_digests(), indent=1, sort_keys=True) + "\n")
