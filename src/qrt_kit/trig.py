"""Cosine and sine transform circuits of Types I, II, III and IV.

Every builder works on a transform register of n data wires (0..n-1) plus
one control wire (n); scratch ancillas sit above the control and are listed
in ``Circuit.ancillas``.  The control selects the cosine (|0>) or sine (|1>)
branch of the doubled-size Fourier identity realized by the circuit.
``check_blocks`` checks any circuit against oracle blocks declared on its
data register.
"""
from __future__ import annotations

import math

import numpy as np

from . import oracle
from .gadgets import (
    _carry_wires,
    cond_increment_gates,
    cond_ones_complement_gates,
    cond_twos_complement_gates,
    or_tree_gates,
)
from .qft import qft_gates
from .simcore import Circuit, Gate, data_register_chunks, inverse


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------


def _conditioned_rotation(data, pool, payload) -> list[Gate]:
    """Or-tree compute, ``payload(root)`` gates, or-tree uncompute.

    This is the 6(n-1)-gate pattern: the tree is evaluated once and reversed
    once, and the payload acts while the root holds [register != 0].
    """
    tree, root = or_tree_gates(data, pool)
    return tree + payload(root) + inverse(tree)


def _d_gates(n: int, c: int, pool) -> list[Gate]:
    """D: apply S then H to the control, conditioned on the data being nonzero."""
    def payload(root):
        return [Gate("CS", (root,), (c,)), Gate("CH", (root,), (c,))]
    return _conditioned_rotation(range(n), pool, payload)


def _t_gates(n: int, c: int, pool) -> list[Gate]:
    """T = P_2C . D with the transform control driving the negation."""
    return _d_gates(n, c, pool) + cond_twos_complement_gates(c, range(n), pool)


def _scratch_pool(n: int) -> tuple[int, ...]:
    # shared by the or-tree (n-1 wires) and the carry register (n-2 wires)
    return tuple(range(n + 1, 2 * n))


# ---------------------------------------------------------------------------
# Type I
# ---------------------------------------------------------------------------


def build_qcst_type1(n: int) -> Circuit:
    """Simultaneous Type-I transforms: cosine branch on control 0, sine on 1.

    The closing S^dag that clears the sine block's phase i is conditioned on
    the data register being nonzero (sharing the adjacent or-tree pass), so
    the |1,0> state -- which belongs to the cosine block -- is untouched and
    both blocks come out exactly real.
    """
    if n < 2:
        raise ValueError("Type-I transform needs at least two data qubits")
    c = n
    pool = _scratch_pool(n)

    def payload(root):  # D^dag followed by the phase-clearing S^dag
        return [Gate("CH", (root,), (c,)), Gate("CSdg", (root,), (c,)),
                Gate("CSdg", (root,), (c,))]

    gates = (_t_gates(n, c, pool) + qft_gates(range(n + 1))
             + inverse(cond_twos_complement_gates(c, range(n), pool))
             + _conditioned_rotation(range(n), pool, payload))
    return Circuit(2 * n, gates, pool, None, f"qcst1_{n}")


def build_qst1_optimized(n: int) -> Circuit:
    """Sine-only Type-I transform with no zero-detection anywhere.

    Valid on inputs 1..N-1 (the sine transform's domain); the ancilla wire n
    returns to |0> there.  Contains no gate with more than two controls.
    """
    if n < 2:
        raise ValueError("optimized sine transform needs at least two data qubits")
    a = n
    carries = _carry_wires(n)
    negate = cond_twos_complement_gates(a, range(n), carries)
    gates = ([Gate("X", targets=(a,)), Gate("H", targets=(a,))]
             + negate + qft_gates(range(n + 1)) + negate
             + [Gate("H", targets=(a,)), Gate("Sdg", targets=(a,)), Gate("X", targets=(a,))])
    return Circuit(2 * n - 1, gates, carries, None, f"qst1_opt_{n}")


# ---------------------------------------------------------------------------
# diagonal phase ladders (Type II / IV)
# ---------------------------------------------------------------------------


def _l_ladder(n: int, c: int, control_zero: bool, conjugate: bool) -> list[Gate]:
    """Per-bit phase ladder diag(1, w_4N^{2^j}) on each data wire, applied on
    the chosen control branch; ``conjugate`` negates the angles."""
    N = 1 << n
    sign = -1.0 if conjugate else 1.0
    gates = []
    for j in range(n):
        theta = sign * 2.0 * math.pi * (1 << j) / (4 * N)
        if control_zero:
            gates += [Gate("X", targets=(c,)),
                      Gate("CPhase", (c,), (j,), theta),
                      Gate("X", targets=(c,))]
        else:
            gates.append(Gate("CPhase", (c,), (j,), theta))
    return gates


def _k_ladder(n: int, c: int) -> list[Gate]:
    """K_j = X L_j^* X on each data wire, applied on the control-1 branch."""
    N = 1 << n
    gates = []
    for j in range(n):
        theta = -2.0 * math.pi * (1 << j) / (4 * N)
        gates += [Gate("X", targets=(j,)),
                  Gate("CPhase", (c,), (j,), theta),
                  Gate("X", targets=(j,))]
    return gates


def _d1_gates(n: int, c: int) -> list[Gate]:
    N = 1 << n
    gates = _l_ladder(n, c, control_zero=True, conjugate=False)
    gates += _k_ladder(n, c)
    gates.append(Gate("Phase", targets=(c,), angle=-2.0 * math.pi / (4 * N)))
    return gates


def _d2_gates(n: int, c: int, corrected: bool) -> list[Gate]:
    if not corrected:
        return _d1_gates(n, c)
    N = 1 << n
    gates = _l_ladder(n, c, control_zero=True, conjugate=False)
    gates += _l_ladder(n, c, control_zero=False, conjugate=True)
    gates.append(Gate("Phase", targets=(c,), angle=-2.0 * math.pi / (4 * N)))
    return gates


# ---------------------------------------------------------------------------
# Type II / III
# ---------------------------------------------------------------------------


def _g_gates(n: int, c: int, pool) -> list[Gate]:
    """G: H then S on the control, undone (as S^dag H S^dag) when the data
    register is zero.  One or-tree evaluation serves compute and recovery."""
    def payload(root):
        return [Gate("X", targets=(root,)),
                Gate("CSdg", (root,), (c,)),
                Gate("CH", (root,), (c,)),
                Gate("CSdg", (root,), (c,)),
                Gate("X", targets=(root,))]
    return [Gate("H", targets=(c,)), Gate("S", targets=(c,))] + \
        _conditioned_rotation(range(n), pool, payload)


def build_qcst_type2(n: int) -> Circuit:
    """Type-II transforms: H, P_1C, QFT_2N, D1, P_2C, G, dec, Z.

    Control-0 block equals the Type-II cosine matrix, control-1 block the
    Type-II sine matrix (the final Z clears the identity's minus sign).
    """
    if n < 2:
        raise ValueError("Type-II transform needs at least two data qubits")
    c = n
    pool = _scratch_pool(n)
    gates = ([Gate("H", targets=(c,))] + cond_ones_complement_gates(c, range(n))
             + qft_gates(range(n + 1)) + _d1_gates(n, c)
             + cond_twos_complement_gates(c, range(n), pool) + _g_gates(n, c, pool)
             # controlled decrement = adjoint of the controlled increment
             + inverse(cond_increment_gates(c, range(n), pool))
             + [Gate("Z", targets=(c,))])
    return Circuit(2 * n, gates, pool, None, f"qcst2_{n}")


def build_qcst_type3(n: int) -> Circuit:
    """Type-III transforms as the inverse of the Type-II circuit; the blocks
    are the transposes of the Type-II blocks."""
    if n < 2:
        raise ValueError("Type-III transform needs at least two data qubits")
    return Circuit(2 * n, inverse(build_qcst_type2(n).gates), _scratch_pool(n), None,
                   f"qcst3_{n}")


# ---------------------------------------------------------------------------
# Type IV
# ---------------------------------------------------------------------------


def build_qcst_type4(n: int, corrected: bool = True) -> Circuit:
    """Type-IV transforms; no or-tree and no carry ancillas are needed.

    The closing global phase is pi/(4N); pi/(2N) leaves a residual phase
    that breaks the block identity.
    """
    if n < 1:
        raise ValueError("Type-IV transform needs at least one data qubit")
    N = 1 << n
    c = n
    label = f"qcst4_{n}" if corrected else f"qcst4_incorrect_{n}"
    d2 = _d2_gates(n, c, corrected)
    flip = cond_ones_complement_gates(c, range(n))
    gates = ([Gate("Sdg", targets=(c,)), Gate("H", targets=(c,))]
             + d2 + flip + qft_gates(range(n + 1)) + flip + d2
             + [Gate("H", targets=(c,)), Gate("Sdg", targets=(c,)),
                Gate("GlobalPhase", angle=math.pi / (4 * N)), Gate("S", targets=(c,))])
    return Circuit(n + 1, gates, label=label)


# ---------------------------------------------------------------------------
# block verification
# ---------------------------------------------------------------------------


def _block_error(start: int, chunk: np.ndarray, spec: oracle.TransformSpec,
                 lo: int, phase: complex) -> float:
    """Max deviation of one block of ``check_blocks`` over the columns of
    ``chunk`` (register columns ``start..``); 0.0 when it has none of them."""
    hi = lo + spec.dim
    first, stop = max(start, lo), min(start + chunk.shape[1], hi)
    if first >= stop:
        return 0.0
    cols = chunk[:, first - start:stop - start]
    target = oracle.reference_columns(spec, first - lo, stop - lo)
    if phase != 1:
        target = phase * target
    real = not np.iscomplexobj(target)  # |a - b| = |b - a| goes into the fresh oracle
    diff = cols[lo:hi] - target if real else np.subtract(target, cols[lo:hi], out=target)
    inside = np.max(np.abs(diff, out=target if real else None))
    outside = max(np.max(np.abs(cols[:lo]), initial=0.0),
                  np.max(np.abs(cols[hi:]), initial=0.0))
    return float(max(inside, outside))


def check_blocks(circuit: Circuit, blocks):
    """Check the circuit's data register against oracle blocks declared on
    it, and return the max error of each block and the ancilla residual.

    Each block ``(spec, lo, phase)`` sits on register labels
    ``lo..lo+spec.dim-1``: in each of its columns, those rows must carry
    ``phase`` times the oracle's column and every other row must vanish.
    Nothing is searched for, so a circuit that puts a block anywhere else
    fails with a large error.  Columns no block declares are not checked,
    and the register runs one column chunk at a time.
    """
    dim = 1 << len(circuit.data_wires)
    if any(lo < 0 or lo + spec.dim > dim for spec, lo, _ in blocks):
        raise ValueError("a declared block does not fit in the data register")

    def check(start, chunk):
        return [_block_error(start, chunk, spec, lo, phase) for spec, lo, phase in blocks]

    errors, residual = [0.0] * len(blocks), 0.0
    for _, chunk_errors, residual in data_register_chunks(circuit, check):
        errors = [max(a, b) for a, b in zip(errors, chunk_errors)]
    return errors, residual
