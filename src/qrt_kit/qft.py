"""Quantum Fourier transform circuit builder.

Phase convention is fixed: QFT_N |a> = N^{-1/2} sum_y omega_N^{a y} |y> with
omega_N = exp(2 pi i / N).
"""
from __future__ import annotations

import math

from .simcore import Circuit, Gate


def qft_gates(wires, swaps: bool = True) -> list[Gate]:
    """Controlled-phase ladder on ``wires`` (wires[0] = least significant),
    followed by the wire-reversing swap layer unless ``swaps`` is False."""
    wires = list(wires)
    n = len(wires)
    gates = []
    for i in range(n - 1, -1, -1):
        gates.append(Gate("H", targets=(wires[i],)))
        for j in range(i - 1, -1, -1):
            gates.append(Gate("CPhase", (wires[j],), (wires[i],),
                              2.0 * math.pi / (1 << (i - j + 1))))
    if swaps:
        gates += [Gate("SWAP", targets=(wires[i], wires[n - 1 - i])) for i in range(n // 2)]
    return gates


def build_qft(n: int, swaps: bool = True) -> Circuit:
    """QFT on n wires: n(n+1)/2 gates plus floor(n/2) swaps.

    ``swaps=False`` replaces the swap layer by a gate-free relabeling, so the
    unitary is unchanged but the swaps cost nothing.
    """
    if n < 1:
        raise ValueError("QFT needs at least one qubit")
    relabeling = None if swaps else tuple(range(n - 1, -1, -1))
    return Circuit(n, qft_gates(range(n), swaps), relabeling=relabeling, label=f"qft_{n}")


def build_qft_inverse(n: int, swaps: bool = True) -> Circuit:
    if n < 1:
        raise ValueError("QFT needs at least one qubit")
    circ = build_qft(n, swaps).adjoint()
    return Circuit(circ.width, circ.gates, circ.ancillas, circ.relabeling,
                   f"qft_inv_{n}")
