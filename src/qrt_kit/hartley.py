"""Quantum Hartley transform circuits: the recursive construction and the
LCU-based one.

The LCU route implements V = (e^{-i pi/4} I + e^{i pi/4} T)/sqrt(2), where T
is the modular-negation permutation, then finishes with a QFT; one
amplification round with the widened select register makes the |00> branch
exact.
"""
from __future__ import annotations

import math

from .gadgets import _or_tree_around, cond_twos_complement_gates
from .qft import qft_gates
from .simcore import Circuit, Gate, inverse


# ---------------------------------------------------------------------------
# fragments
# ---------------------------------------------------------------------------


def _h(q: int) -> Gate:
    return Gate("H", targets=(q,))


def _x(q: int) -> Gate:
    return Gate("X", targets=(q,))


def ccry_gates(c1: int, c2: int, target: int, beta: float) -> list[Gate]:
    """Doubly controlled Ry(beta) from the fixed gate set.

    Rz is conjugated to Ry by S H ... H Sdg on the target; the conjugation is
    harmless when the controls are off, so it needs no controls itself.
    """
    return [
        Gate("Sdg", targets=(target,)),
        _h(target),
        Gate("CPhase", (c2,), (target,), beta / 2),
        Gate("CNOT", (c1,), (c2,)),
        Gate("CPhase", (c2,), (target,), -beta / 2),
        Gate("CNOT", (c1,), (c2,)),
        Gate("CPhase", (c1,), (target,), beta / 2),
        Gate("CPhase", (c1,), (c2,), -beta / 2),
        _h(target),
        Gate("S", targets=(target,)),
    ]


def ur_gates(c: int, y_wires, b: int, N: int) -> list[Gate]:
    """Rotation of wire c by 2*pi*b*y/N, one doubly controlled Ry per y bit."""
    gates = []
    for j, yw in enumerate(y_wires):
        gates += ccry_gates(yw, b, c, -4.0 * math.pi * (1 << j) / N)
    return gates


def flip_if_zero_gates(control: int, y_wires, target: int, tree_ancillas) -> list[Gate]:
    """Flip ``target`` iff control=1 and the y register is all-zero."""
    def payload(root):
        return [_x(root), Gate("Toffoli", (control, root), (target,)), _x(root)]
    return _or_tree_around(y_wires, tree_ancillas, payload)


# ---------------------------------------------------------------------------
# LCU construction
# ---------------------------------------------------------------------------


def _w_gates(n: int, sel: int, carries) -> list[Gate]:
    return ([_h(sel)] + cond_twos_complement_gates(sel, range(n), carries)
            + [Gate("Rz", targets=(sel,), angle=math.pi / 2), _h(sel)])


def _amplified(n: int) -> list[Gate]:
    """W' (H on the widening ancilla, then W), followed by one round of
    -R W'^dag R W', where R reflects the two select wires about |00>.

    Wires: data 0..n-1, select n, widening ancilla n+1, carries above.
    """
    sel, p = n, n + 1
    w_prime = [_h(p)] + _w_gates(n, sel, range(n + 2, 2 * n))
    reflect = [Gate("Z", targets=(p,)), Gate("Z", targets=(sel,)),
               Gate("CPhase", (p,), (sel,), math.pi)]
    return (w_prime + reflect + inverse(w_prime) + reflect
            + [Gate("GlobalPhase", angle=math.pi)] + w_prime)


def build_qht_lcu(n: int) -> Circuit:
    """Hartley transform via LCU: S' W' on |00>|psi> followed by QFT_N.

    Wires: data 0..n-1, select n, widening ancilla n+1, carries above.  The
    two select wires come back to |00> exactly, so the data action equals
    the Hartley matrix.
    """
    if n < 2:
        raise ValueError("LCU Hartley transform needs at least two data qubits")
    return Circuit(2 * n, _amplified(n) + qft_gates(range(n)), range(n, 2 * n),
                   None, f"qht_lcu_{n}")


# ---------------------------------------------------------------------------
# recursive construction
# ---------------------------------------------------------------------------


def build_qht_recursive(n: int) -> Circuit:
    """Recursive Hartley transform on n data qubits.

    One fresh recursion ancilla per level (n-1 in total, wires n..2n-2) plus
    a shared scratch pool (wires 2n-1..3n-4) for carry and or-tree qubits.
    Each level's closing wire swap is tracked and emitted as a single final
    relabeling, so it costs no gates.
    """
    if n < 1:
        raise ValueError("Hartley transform needs at least one qubit")
    if n == 1:
        return Circuit(1, [_h(0)], label="qht_rec_1")
    width = 3 * n - 3
    level_anc = list(range(n, 2 * n - 1))
    pool = list(range(2 * n - 1, width))
    phys = list(range(n))  # phys[j] = wire currently holding data bit j
    gates = [_h(phys[n - 1])]  # level-1 base case on the innermost register
    for k in range(2, n + 1):
        c = level_anc[k - 2]
        b = phys[n - k]
        y = [phys[j] for j in range(n - k + 1, n)]
        negate = cond_twos_complement_gates(c, y, pool)
        gates += [_h(c)] + negate + ur_gates(c, y, b, 1 << k) + negate
        # zero-phase fix: (-1)^(c & b & [y = 0]), as an H(b)-conjugated flip
        gates.append(_h(b))
        gates += flip_if_zero_gates(c, y, b, pool)
        gates += [_h(b), _h(c), Gate("CNOT", (b,), (c,)), _h(b)]
        # wire renaming |0>|y>|b> -> |0>|b>|y>, folded into the final relabeling
        phys[n - k:n] = [phys[j] for j in range(n - k + 1, n)] + [b]
    relabeling = list(range(width))
    for j, wire in enumerate(phys):
        relabeling[wire] = j
    return Circuit(width, gates, level_anc + pool, relabeling, f"qht_rec_{n}")
