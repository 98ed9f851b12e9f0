"""Reversible arithmetic and logic subcircuits.

Conditional increment / decrement / one's and two's complement, the or-gate
and the or-gate tree, and the exhaustive checks of their classical maps.
Standard layout of the public builders: data wires 0..n-1, control wire n,
scratch ancillas above the control.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .simcore import Circuit, Gate, classical_image, inverse


@dataclass(frozen=True)
class GadgetLayout:
    """Wire assignment used by a gadget circuit."""

    data_qubits: tuple[int, ...]
    control_qubit: int | None = None
    carry_ancillas: tuple[int, ...] = ()
    tree_ancillas: tuple[int, ...] = ()
    root_index: int | None = None

    def __post_init__(self):
        groups = [list(self.data_qubits), list(self.carry_ancillas), list(self.tree_ancillas)]
        if self.control_qubit is not None:
            groups.append([self.control_qubit])
        flat = [q for grp in groups for q in grp]
        if len(set(flat)) != len(flat):
            raise ValueError("gadget wire groups must be disjoint")


# ---------------------------------------------------------------------------
# fragments: each returns the gate list of one gadget on the given wires
# ---------------------------------------------------------------------------


def _toffoli(c1: int, c2: int, t: int) -> Gate:
    return Gate("Toffoli", (c1, c2), (t,))


def _cnot(c: int, t: int) -> Gate:
    return Gate("CNOT", (c,), (t,))


def cond_increment_gates(control: int, data, carries) -> list[Gate]:
    """x -> (x+1) mod 2^n when control=1.

    Carry qubits hold ANDs of the low data bits; the forward pass is
    unconditional and the flips are conditioned, which is what brings the
    fused two's complement down to 4n-4 gates.  Needs n-2 carries.
    """
    data = list(data)
    carries = list(carries)
    n = len(data)
    if n == 0:
        raise ValueError("empty data register")
    if len(carries) < max(n - 2, 0):
        raise ValueError(f"need {max(n - 2, 0)} carry ancillas, got {len(carries)}")
    gates = []
    # forward pass: a_1 = b_0 & b_1, then a_i = a_{i-1} & b_i
    if n >= 3:
        gates.append(_toffoli(data[0], data[1], carries[0]))
        for i in range(1, n - 2):
            gates.append(_toffoli(carries[i - 1], data[i + 1], carries[i]))
    # backward pass: flip from the most significant bit down, uncomputing
    # each carry right after the flip it controls
    for i in range(n - 2, 0, -1):
        gates.append(_toffoli(control, carries[i - 1], data[i + 1]))
        if i >= 2:
            gates.append(_toffoli(carries[i - 2], data[i], carries[i - 1]))
        else:
            gates.append(_toffoli(data[0], data[1], carries[0]))
    if n >= 2:
        gates.append(_toffoli(control, data[0], data[1]))
    gates.append(_cnot(control, data[0]))
    return gates


def cond_ones_complement_gates(control: int, data) -> list[Gate]:
    """Bitwise NOT of the register when control=1: one CNOT per data qubit."""
    return [_cnot(control, q) for q in data]


def cond_twos_complement_gates(control: int, data, carries) -> list[Gate]:
    """x -> (2^n - x) mod 2^n when control=1: negate all bits, then add one.

    Width 1 is the identity map and has no gates.
    """
    data = list(data)
    if len(data) <= 1:
        return []
    return (cond_ones_complement_gates(control, data)
            + cond_increment_gates(control, data, carries))


def or_gate_gates(a: int, b: int, result: int) -> list[Gate]:
    """result ^= (a OR b): two CNOTs and a Toffoli."""
    return [_cnot(a, result), _cnot(b, result), _toffoli(a, b, result)]


def or_tree_gates(data, ancillas):
    """Binary-tree OR reduction of ``data`` into fresh ancillas, as a
    (gates, root) pair, so callers can use the same pass forwards and
    inverted around a payload.

    Adjacent pairs are merged left to right, an odd leftover propagates
    unchanged to the next layer.  The root wire holds the OR of all data
    bits; the pass consumes len(data)-1 ancillas in 3(len(data)-1) gates.
    A single data wire is its own root, with no gates.
    """
    layer = list(data)
    if not layer:
        raise ValueError("or-tree needs at least one input")
    pool = list(ancillas)
    if len(pool) < len(layer) - 1:
        raise ValueError(f"need {len(layer) - 1} tree ancillas, got {len(pool)}")
    free = iter(pool)
    gates = []
    while len(layer) > 1:
        nxt = []
        for i in range(0, len(layer), 2):
            if i + 1 < len(layer):
                tgt = next(free)
                gates += or_gate_gates(layer[i], layer[i + 1], tgt)
                nxt.append(tgt)
            else:
                nxt.append(layer[i])
        layer = nxt
    return gates, layer[0]


# ---------------------------------------------------------------------------
# public builders with the standard layout
# ---------------------------------------------------------------------------


def increment_layout(n: int) -> GadgetLayout:
    return GadgetLayout(
        data_qubits=tuple(range(n)),
        control_qubit=n,
        carry_ancillas=tuple(range(n + 1, n + 1 + max(n - 2, 0))),
    )


def build_cond_increment(n: int) -> Circuit:
    """Conditional modular increment on n data wires, control on wire n."""
    if n < 1:
        raise ValueError("increment needs at least one data qubit")
    lay = increment_layout(n)
    gates = cond_increment_gates(lay.control_qubit, lay.data_qubits, lay.carry_ancillas)
    return Circuit(n + 1 + len(lay.carry_ancillas), gates, lay.carry_ancillas,
                   None, f"inc_{n}")


def build_cond_decrement(n: int) -> Circuit:
    """Conditional modular decrement: the adjoint of the increment."""
    if n < 1:
        raise ValueError("decrement needs at least one data qubit")
    inc = build_cond_increment(n)
    return Circuit(inc.width, inverse(inc.gates), inc.ancillas, None, f"dec_{n}")


def build_cond_ones_complement(n: int) -> Circuit:
    """Conditional bitwise NOT: |c=1>|x> -> |c=1>|2^n - x - 1>."""
    if n < 1:
        raise ValueError("one's complement needs at least one data qubit")
    return Circuit(n + 1, cond_ones_complement_gates(n, range(n)), label=f"p1c_{n}")


def build_cond_twos_complement(n: int) -> Circuit:
    """Conditional modular negation: |c=1>|x> -> |c=1>|(2^n - x) mod 2^n>.

    4n-4 elementary gates on n-2 carry ancillas (n >= 2; width 1 would be
    the identity and is rejected here).
    """
    if n < 2:
        raise ValueError("two's complement needs at least two data qubits")
    lay = increment_layout(n)
    gates = cond_twos_complement_gates(lay.control_qubit, lay.data_qubits,
                                       lay.carry_ancillas)
    return Circuit(n + 1 + len(lay.carry_ancillas), gates, lay.carry_ancillas,
                   None, f"p2c_{n}")


def build_or_gate() -> Circuit:
    """Single or-gate on wires (0, 1) with the result on wire 2."""
    return Circuit(3, or_gate_gates(0, 1, 2), label="or")


def or_tree_layout(n: int) -> GadgetLayout:
    anc = tuple(range(n, n + n - 1))
    return GadgetLayout(data_qubits=tuple(range(n)), tree_ancillas=anc,
                        root_index=anc[-1])


def build_or_tree(n: int, uncompute_internal: bool = False,
                  reset_root: bool = False) -> Circuit:
    """Or-tree over n data wires into n-1 ancillas (root on the last one).

    Gate totals land on the three standard cost tiers exactly: 3(n-1) for
    the bare compute, 6(n-1) with the uncompute pass, 12(n-1) with the
    additional evaluation that resets the root.  The uncompute passes restore
    every ancilla; payloads conditioned on the root belong between the
    compute and uncompute passes (see the transform builders).
    """
    if n < 2:
        raise ValueError("or-tree needs at least two data qubits")
    lay = or_tree_layout(n)
    tree, _ = or_tree_gates(lay.data_qubits, lay.tree_ancillas)
    label = f"or_tree_{n}"
    if not (uncompute_internal or reset_root):
        # only the bare compute leaves the internals dirty
        return Circuit(2 * n - 1, tree, label=label)
    rounds = 2 if reset_root else 1
    return Circuit(2 * n - 1, (tree + inverse(tree)) * rounds, lay.tree_ancillas,
                   None, label)


# ---------------------------------------------------------------------------
# exhaustive checks: every gadget is a fixed permutation of basis labels
# ---------------------------------------------------------------------------


def _exhaustive_image(circuit: Circuit, bits: int) -> np.ndarray:
    """Image of every label of wires 0..bits-1 (wires above start at 0).

    The circuit is first run on no labels, so that one ``classical_image``
    refuses would allocate nothing: a refused width means 2^31 labels or
    more.
    """
    classical_image(circuit, ())
    return classical_image(circuit, np.arange(1 << bits, dtype=np.int64))


def classical_map_error(circuit: Circuit, n: int, fn):
    """Check (c, x) -> (c, fn(c, x)) with all ancillas clean, on every basis
    input of data wires 0..n-1 and control wire n.

    ``fn`` is called once per control value, with an int ``c`` and the array
    of all x.  Returns ``(max_error, ancilla_residual)``: the error is 1.0 if
    any output label differs from the expected one, the residual is 1.0 if
    any input leaves a wire above the control set, and each is 0.0 otherwise.
    """
    out = _exhaustive_image(circuit, n + 1)
    x = np.arange(1 << n, dtype=np.int64)
    want = np.concatenate([np.asarray(fn(c, x), dtype=np.int64) | (c << n)
                           for c in (0, 1)])
    return float(np.any(out != want)), float(np.any(out >> (n + 1)))


def or_tree_error(circuit: Circuit, n: int) -> float:
    """Check the bare or-tree on every data input x with its ancillas
    starting at 0: the data bits are kept and the root holds [x != 0].
    Internal tree ancillas may end dirty.  Returns 1.0 on any mismatch,
    else 0.0."""
    out = _exhaustive_image(circuit, n)
    x = np.arange(1 << n, dtype=np.int64)
    root = (out >> or_tree_layout(n).root_index) & 1
    return float(np.any((out & ((1 << n) - 1)) != x) or np.any(root != (x != 0)))
