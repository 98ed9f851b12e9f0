"""Reversible arithmetic and logic subcircuits.

Fragments for the conditional increment, one's and two's complement, the
or-gate, the or-gate tree and a payload around it; builders for the
increment, the two's complement and the or-tree; and the exhaustive check
of their classical maps, which runs the gates on int64 labels through the
simulator's own label rule.  Standard layout of the builders: data wires 0..n-1, control
wire n, scratch ancillas above the control.
"""
from __future__ import annotations

import numpy as np

from .simcore import _KEY_BITS, _PERMUTATIONS, Circuit, Gate, _monomial, _relabel_keys, inverse


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


def _or_tree_around(data, ancillas, payload) -> list[Gate]:
    """Or-tree compute, ``payload(root)`` gates, or-tree uncompute: the
    payload acts while the root holds [data != 0], and the tree costs
    6(len(data)-1) gates, evaluated once and reversed once."""
    tree, root = or_tree_gates(data, ancillas)
    return tree + payload(root) + inverse(tree)


# ---------------------------------------------------------------------------
# public builders with the standard layout
# ---------------------------------------------------------------------------


def _carry_wires(n: int) -> range:
    """The n-2 carry ancillas of the standard layout (none below n = 3),
    right above the control."""
    return range(n + 1, 2 * n - 1)


def build_cond_increment(n: int) -> Circuit:
    """Conditional modular increment on n data wires, control on wire n."""
    if n < 1:
        raise ValueError("increment needs at least one data qubit")
    carries = _carry_wires(n)
    return Circuit(n + 1 + len(carries), cond_increment_gates(n, range(n), carries),
                   carries, None, f"inc_{n}")


def build_cond_twos_complement(n: int) -> Circuit:
    """Conditional modular negation: |c=1>|x> -> |c=1>|(2^n - x) mod 2^n>.

    4n-4 elementary gates on n-2 carry ancillas (n >= 2; width 1 would be
    the identity and is rejected here).
    """
    if n < 2:
        raise ValueError("two's complement needs at least two data qubits")
    carries = _carry_wires(n)
    return Circuit(n + 1 + len(carries), cond_twos_complement_gates(n, range(n), carries),
                   carries, None, f"p2c_{n}")


def build_or_tree(n: int) -> Circuit:
    """Or-tree over n data wires into n-1 ancillas, root on the last one:
    3(n-1) gates, leaving the internal nodes dirty.  A payload conditioned
    on the root sits between this pass and its inverse (see the transform
    builders)."""
    if n < 2:
        raise ValueError("or-tree needs at least two data qubits")
    tree, _ = or_tree_gates(range(n), range(n, 2 * n - 1))
    return Circuit(2 * n - 1, tree, label=f"or_tree_{n}")


# ---------------------------------------------------------------------------
# exhaustive check: every gadget is a fixed permutation of basis labels
# ---------------------------------------------------------------------------


def classical_map_error(circuit: Circuit, inputs: int, want, dirty: int = 0):
    """Check the circuit on every basis label of wires 0..inputs-1, with
    the wires above them starting at 0.

    ``want`` maps the int64 array of input labels to the expected output
    labels, and ``dirty`` masks the wires the circuit may leave in any
    state.  Returns ``(max_error, ancilla_residual)``: the error is 1.0 if
    any output label differs from the expected one off the mask, the
    residual is 1.0 if any wire at or above ``inputs`` does, and each is
    0.0 otherwise.  Only X, CNOT, Toffoli and SWAP gates (and a final
    relabeling) are taken, each run by ``simcore._monomial`` as a bit
    operation on an int64 copy of the labels; another kind, or a width
    above one int64 label, is refused before anything 2^inputs-sized.
    """
    if circuit.width > _KEY_BITS:
        raise ValueError(
            f"classical evaluation packs {circuit.width} wires into one int64 "
            f"label, above the {_KEY_BITS}-bit cap")
    other = sorted({g.kind for g in circuit.gates} - _PERMUTATIONS)
    if other:
        raise ValueError(f"not a classical circuit: it holds {', '.join(other)} gates")
    labels = np.arange(1 << inputs, dtype=np.int64)
    image = labels.copy()
    for gate in circuit.gates:
        _monomial(gate, 0)(image)
    if circuit.relabeling is not None:
        image = _relabel_keys(image, circuit.relabeling, 0)
    wrong = (image ^ want(labels)) & ~dirty
    return float(wrong.any()), float((wrong >> inputs).any())
