"""Golden digests of every public circuit builder.

``tests/golden/builders.json`` holds, for each (builder, n, flag) case, one
SHA-256 over the exported gate list, the width, the sorted ancillas and the
label, or ``"ValueError"`` for a size the builder rejects.  A change to how
circuits are assembled must leave every one of them unchanged.

Regenerate (only when a circuit is meant to change) with
``PYTHONPATH=src python tests/test_golden_builders.py``.
"""
import hashlib
import json
import pathlib

from qrt_kit import gadgets, hartley, qft, trig
from qrt_kit.simcore import export_circuit

GOLDEN = pathlib.Path(__file__).parent / "golden" / "builders.json"
SIZES = range(0, 9)

_SIZED = {
    "inc": gadgets.build_cond_increment,
    "dec": gadgets.build_cond_decrement,
    "p1c": gadgets.build_cond_ones_complement,
    "p2c": gadgets.build_cond_twos_complement,
    "or_tree": gadgets.build_or_tree,
    "or_tree/uncompute_internal": lambda n: gadgets.build_or_tree(n, uncompute_internal=True),
    "or_tree/reset_root": lambda n: gadgets.build_or_tree(n, reset_root=True),
    "or_tree/both": lambda n: gadgets.build_or_tree(n, True, True),
    "qft": qft.build_qft,
    "qft/no_swaps": lambda n: qft.build_qft(n, swaps=False),
    "qft_inv": qft.build_qft_inverse,
    "qft_inv/no_swaps": lambda n: qft.build_qft_inverse(n, swaps=False),
    "ur": hartley.build_unitary_ur,
    "cx_zero": hartley.build_cx_zero_detect,
    "cx_zero/naive": lambda n: hartley.build_cx_zero_detect(n, naive=True),
    "w": hartley.build_unitary_w,
    "qht_lcu": hartley.build_qht_lcu,
    "qht_rec": hartley.build_qht_recursive,
    "qht_rec/naive_zero_detect": lambda n: hartley.build_qht_recursive(n, naive_zero_detect=True),
    "t": trig.build_t_gate,
    "qcst1_core": trig.build_type1_core,
    "qcst1": trig.build_qcst_type1,
    "qst1_opt": trig.build_qst1_optimized,
    "d1": trig.build_d1,
    "d2": trig.build_d2,
    "d2/uncorrected": lambda n: trig.build_d2(n, corrected=False),
    "g": trig.build_g_gate,
    "qcst2": trig.build_qcst_type2,
    "qcst3": trig.build_qcst_type3,
    "qcst4": trig.build_qcst_type4,
    "qcst4/uncorrected": lambda n: trig.build_qcst_type4(n, corrected=False),
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
    out = {"or_gate": _digest(gadgets.build_or_gate)}
    for name, build in _SIZED.items():
        for n in SIZES:
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
