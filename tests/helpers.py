"""Shared test utilities: an independent brute-force unitary builder and
reference matrices the circuits are compared against."""
import math

import numpy as np

from qrt_kit.simcore import _target_matrix


def operand_matrix(gate):
    """Full matrix over the gate's operand wires, first operand = most
    significant bit of the matrix index (textbook layout)."""
    tgt = _target_matrix(gate)
    k = len(gate.controls)
    if k == 0:
        return tgt
    dim = (1 << k) * tgt.shape[0]
    full = np.eye(dim, dtype=complex)
    full[dim - tgt.shape[0]:, dim - tgt.shape[0]:] = tgt
    return full


def brute_unitary(circuit):
    """Full circuit unitary built by explicit basis-permutation embedding.

    Independent of the simulator's slice arithmetic: each gate's operand
    matrix is scattered entry by entry over the full 2^width space.
    """
    width = circuit.width
    dim = 1 << width
    total = np.eye(dim, dtype=complex)
    for gate in circuit.gates:
        if gate.kind == "GlobalPhase":
            total = np.exp(1j * gate.angle) * total
            continue
        ops = gate.operands
        mat = operand_matrix(gate)
        k = len(ops)
        full = np.zeros((dim, dim), dtype=complex)
        rest = [w for w in range(width) if w not in ops]
        for sub_out in range(1 << k):
            for sub_in in range(1 << k):
                if mat[sub_out, sub_in] == 0:
                    continue
                # operand bit i of the matrix index is wire ops[k-1-i]
                base_out = sum(((sub_out >> (k - 1 - i)) & 1) << ops[i] for i in range(k))
                base_in = sum(((sub_in >> (k - 1 - i)) & 1) << ops[i] for i in range(k))
                for fill in range(1 << len(rest)):
                    extra = sum(((fill >> j) & 1) << rest[j] for j in range(len(rest)))
                    full[base_out | extra, base_in | extra] = mat[sub_out, sub_in]
        total = full @ total
    if circuit.relabeling is not None:
        perm = np.zeros((dim, dim))
        for lab in range(dim):
            out = sum(((lab >> w) & 1) << circuit.relabeling[w] for w in range(width))
            perm[out, lab] = 1.0
        total = perm @ total
    return total


def rotation_r(y, b, N):
    """The real rotation U_R applies to the recursion ancilla: angle
    2*pi*b*y/N for register value y and low bit b, so b = 0 is the
    identity."""
    th = 2.0 * math.pi * b * y / N
    return np.array([[math.cos(th), math.sin(th)],
                     [-math.sin(th), math.cos(th)]])
