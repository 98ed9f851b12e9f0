"""Quantum Hartley transform circuits: the recursive construction and the
LCU-based one, with the oblivious-amplitude-amplification helpers.

The LCU route implements V = (e^{-i pi/4} I + e^{i pi/4} T)/sqrt(2), where T
is the modular-negation permutation, then finishes with a QFT; one
amplification round with the widened select register makes the |00> branch
exact.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import oracle
from .gadgets import cond_twos_complement_gates, or_tree_gates
from .qft import qft_gates
from .simcore import Circuit, Gate, data_register_action, inverse


def lcu_target_v(N: int) -> np.ndarray:
    """Dense V = (e^{-i pi/4} I + e^{i pi/4} T)/sqrt(2) for verification."""
    T = oracle.twos_complement_permutation(N)
    return (np.exp(-1j * math.pi / 4) * np.eye(N) + np.exp(1j * math.pi / 4) * T) / math.sqrt(2)


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


def flip_if_zero_gates(control: int, y_wires, target: int,
                       tree_ancillas=(), naive: bool = False) -> list[Gate]:
    """Flip ``target`` iff control=1 and the y register is all-zero."""
    y_wires = list(y_wires)
    if naive:
        flips = [_x(q) for q in y_wires]
        return flips + [Gate("MCX", (control, *y_wires), (target,))] + flips
    tree, root = or_tree_gates(y_wires, tree_ancillas)
    return (tree + [_x(root), Gate("Toffoli", (control, root), (target,)), _x(root)]
            + inverse(tree))


# ---------------------------------------------------------------------------
# standalone gadget circuits (wire order b, y, c from the bottom)
# ---------------------------------------------------------------------------


def build_unitary_ur(n: int) -> Circuit:
    """U_R on wires (b=0, y=1..n, c=n+1) with rotation angle 2*pi*b*y/2^(n+1)."""
    if n < 1:
        raise ValueError("U_R needs at least one y qubit")
    return Circuit(n + 2, ur_gates(c=n + 1, y_wires=range(1, n + 1), b=0, N=1 << (n + 1)),
                   label=f"ur_{n}")


def build_cx_zero_detect(n: int, naive: bool = False) -> Circuit:
    """Flip b iff c=1 and the n-qubit y register is zero.

    Wires: b=0, y=1..n, c=n+1; the or-tree variant puts its ancillas above c.
    """
    if n < 1:
        raise ValueError("zero detect needs at least one y qubit")
    n_anc = 0 if naive else n - 1
    anc = range(n + 2, n + 2 + n_anc)
    gates = flip_if_zero_gates(control=n + 1, y_wires=range(1, n + 1), target=0,
                               tree_ancillas=anc, naive=naive)
    return Circuit(n + 2 + n_anc, gates, anc, None, f"cx_zero_{n}")


# ---------------------------------------------------------------------------
# LCU construction
# ---------------------------------------------------------------------------


def _w_gates(n: int, sel: int, carries) -> list[Gate]:
    return ([_h(sel)] + cond_twos_complement_gates(sel, range(n), carries)
            + [Gate("Rz", targets=(sel,), angle=math.pi / 2), _h(sel)])


def build_unitary_w(n: int) -> Circuit:
    """The LCU block unitary W on (data 0..n-1, select n, carries above).

    Projecting onto select=0 gives exactly V/sqrt(2); the Rz(pi/2) supplies
    the e^{-i pi/4}, e^{i pi/4} pair without any extra global phase.
    """
    if n < 2:
        raise ValueError("W needs at least two data qubits")
    carries = tuple(range(n + 1, 2 * n - 1))
    return Circuit(2 * n - 1, _w_gates(n, n, carries), carries, None, f"w_{n}")


def _amplified(n: int, rounds: int) -> list[Gate]:
    """W' (H on the widening ancilla, then W), followed by ``rounds`` rounds
    of -R W'^dag R W', where R reflects the two select wires about |00>.

    Wires: data 0..n-1, select n, widening ancilla n+1, carries above.
    """
    sel, p = n, n + 1
    w_prime = [_h(p)] + _w_gates(n, sel, range(n + 2, 2 * n))
    reflect = [Gate("Z", targets=(p,)), Gate("Z", targets=(sel,)),
               Gate("CPhase", (p,), (sel,), math.pi)]
    gates = list(w_prime)
    for _ in range(rounds):
        gates += reflect + inverse(w_prime) + reflect
        gates.append(Gate("GlobalPhase", angle=math.pi))
        gates += w_prime
    return gates


def build_qht_lcu(n: int) -> Circuit:
    """Hartley transform via LCU: S' W' on |00>|psi> followed by QFT_N.

    Wires: data 0..n-1, select n, widening ancilla n+1, carries above.  The
    two select wires come back to |00> exactly, so the data action equals
    the Hartley matrix.
    """
    if n < 2:
        raise ValueError("LCU Hartley transform needs at least two data qubits")
    return Circuit(2 * n, _amplified(n, 1) + qft_gates(range(n)), range(n, 2 * n),
                   None, f"qht_lcu_{n}")


# ---------------------------------------------------------------------------
# recursive construction
# ---------------------------------------------------------------------------


def build_qht_recursive(n: int, naive_zero_detect: bool = False) -> Circuit:
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
        gates += flip_if_zero_gates(c, y, b, tree_ancillas=pool, naive=naive_zero_detect)
        gates += [_h(b), _h(c), Gate("CNOT", (b,), (c,)), _h(b)]
        # wire renaming |0>|y>|b> -> |0>|b>|y>, folded into the final relabeling
        phys[n - k:n] = [phys[j] for j in range(n - k + 1, n)] + [b]
    relabeling = list(range(width))
    for j, wire in enumerate(phys):
        relabeling[wire] = j
    return Circuit(width, gates, level_anc + pool, relabeling, f"qht_rec_{n}")


# ---------------------------------------------------------------------------
# oblivious amplitude amplification check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AmplificationReport:
    """Measured overlap of S'^k W' |00>|psi> with |00> V|psi>."""

    n: int
    rounds: int
    overlap: complex
    expected: float

    @property
    def error(self) -> float:
        return abs(self.overlap - self.expected)


def check_oblivious_amplification(n: int, rounds: int, seed: int = 20240901) -> AmplificationReport:
    """Run k amplification rounds on a random state and measure the overlap
    with the ideal branch; the amplification law predicts sin((2k+1) pi/6)."""
    if n < 2:
        raise ValueError("amplification check needs at least two data qubits")
    if rounds < 0:
        raise ValueError("negative round count")
    circuit = Circuit(2 * n, _amplified(n, rounds))
    N = 1 << n
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=N) + 1j * rng.normal(size=N)
    psi /= np.linalg.norm(psi)
    # the ideal branch has the wires above the data register at 0, so only
    # the circuit's action on that subspace enters the overlap
    matrix, _ = data_register_action(circuit, range(n))
    overlap = complex(np.vdot(lcu_target_v(N) @ psi, matrix @ psi))
    expected = math.sin((2 * rounds + 1) * math.pi / 6)
    return AmplificationReport(n=n, rounds=rounds, overlap=overlap, expected=expected)
