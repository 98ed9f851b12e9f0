"""Shared test utilities: the block check of a cosine/sine pair, with a
phase on the sine block, the expected labels of a controlled classical
map, the simulator's full unitary of a small circuit and each engine's
action on its data register, textbook matrices of the gate set and an
independent brute-force unitary builder on them, the stage circuits the
transforms are assembled from, the amplification check of the LCU Hartley
construction, reference matrices the circuits are compared against, and
the float-angle oracle, with its own Hartley kernel, that the library's
angle table is cross-checked with."""
import cmath
import dataclasses
import math

import numpy as np

from qrt_kit import gadgets, hartley, simcore, trig
from qrt_kit.gadgets import (
    build_cond_increment,
    cond_ones_complement_gates,
    or_gate_gates,
    or_tree_gates,
)
from qrt_kit.oracle import TransformSpec, reference_columns
from qrt_kit.qft import qft_gates
from qrt_kit.simcore import Circuit, Gate, data_register_action, inverse
from qrt_kit.trig import check_blocks


def phased_block_errors(circuit, blocks):
    """``trig.check_blocks`` on blocks ``(spec, lo, phase)``, whose rows
    must carry ``phase`` times the oracle's column.  Where a phase is not 1,
    ``data_register_action`` is compared with the embedding of the phased
    blocks, by the same max-abs measure over each block's columns."""
    if all(phase == 1 for _, _, phase in blocks):
        return check_blocks(circuit, [(spec, lo) for spec, lo, _ in blocks])
    matrix, residual = data_register_action(circuit)
    errors = []
    for spec, lo, phase in blocks:
        want = np.zeros((len(matrix), spec.dim), dtype=complex)
        want[lo:lo + spec.dim] = phase * reference_matrix(spec)
        errors.append(float(np.max(np.abs(matrix[:, lo:lo + spec.dim] - want))))
    return errors, residual


def block_errors(circuit, cos_kind: str, sin_kind: str, phase=1):
    """The cosine block on the low register labels and ``phase`` times the
    sine block above it: (max error, residual)."""
    N = 1 << (len(circuit.data_wires) - 1)
    cos = TransformSpec(cos_kind, N)
    errors, residual = phased_block_errors(
        circuit, [(cos, 0, 1), (TransformSpec(sin_kind, N), cos.dim, phase)])
    return max(errors), residual


def controlled_map(n: int, fn):
    """Expected labels of (c, x) -> (c, fn(c, x)) for
    ``gadgets.classical_map_error``, with x on data wires 0..n-1 and the
    control c on wire n.  ``fn`` is called once per control value, with an
    int ``c`` and the array of all x."""
    def want(labels):
        x = labels[:1 << n]
        return np.concatenate([np.asarray(fn(c, x), dtype=np.int64) | (c << n)
                               for c in (0, 1)])
    return want


def full_register(circuit) -> Circuit:
    """The circuit with every wire taken as data."""
    return dataclasses.replace(circuit, ancillas=frozenset())


def unitary(circuit) -> np.ndarray:
    """The circuit's full matrix from the simulator: its action on the full
    register, in wire order (column j is the image of |j>)."""
    return data_register_action(full_register(circuit))[0]


def no_check(start, block):
    """A check that keeps nothing, where only the chunk starts and
    residuals count."""


def _copy(start, block):
    """A check that keeps each block: a route may reuse a block's buffer
    once its check returns."""
    return block.copy()


def _route_action(route):
    """``data_register_action`` on one route's ``(items, simulate)``, or
    None where the route's compile refused the circuit."""
    return None if route is None else simcore._assemble(simcore._in_order(*route, _copy))


def sparse_action(circuit):
    """The support-sparse engine's ``data_register_action``."""
    return _route_action(simcore._sparse_chunks(circuit, len(circuit.data_wires)))


def product_action(circuit):
    """The product route's ``data_register_action``, or None where its
    compile refuses the circuit."""
    return _route_action(simcore._product_chunks(circuit, len(circuit.data_wires)))


def folded_action(circuit):
    """The dense engine's ``data_register_action``, or None where its
    compile refuses the circuit."""
    return _route_action(simcore._dense_chunks(circuit, len(circuit.data_wires)))


_X = [[0, 1], [1, 0]]
_H = [[math.sqrt(0.5), math.sqrt(0.5)], [math.sqrt(0.5), -math.sqrt(0.5)]]
_S = [[1, 0], [0, 1j]]
_SDG = [[1, 0], [0, -1j]]


def _phase(angle):
    return [[1, 0], [0, cmath.exp(1j * angle)]]


# The gate set as textbook matrices, written out here rather than taken from
# qrt_kit, so that brute_unitary is a reference independent of the library:
# kind -> the matrix on the gate's targets as a function of its angle,
# applied where every control is 1.
REFERENCE_MATRICES = {
    "X": lambda angle: _X,
    "Z": lambda angle: [[1, 0], [0, -1]],
    "H": lambda angle: _H,
    "S": lambda angle: _S,
    "Sdg": lambda angle: _SDG,
    "Phase": _phase,
    "Rz": lambda angle: [[cmath.exp(-0.5j * angle), 0], [0, cmath.exp(0.5j * angle)]],
    "CPhase": _phase,
    "CNOT": lambda angle: _X,
    "CH": lambda angle: _H,
    "CS": lambda angle: _S,
    "CSdg": lambda angle: _SDG,
    "Toffoli": lambda angle: _X,
    "SWAP": lambda angle: [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
    "GlobalPhase": lambda angle: [[cmath.exp(1j * angle)]],
}


def operand_matrix(gate):
    """Full matrix over the gate's operand wires, first operand = most
    significant bit of the matrix index (textbook layout): the identity,
    with the target matrix in the corner where every control is 1."""
    tgt = np.array(REFERENCE_MATRICES[gate.kind](gate.angle), dtype=complex)
    dim = (1 << len(gate.controls)) * len(tgt)
    full = np.eye(dim, dtype=complex)
    full[dim - len(tgt):, dim - len(tgt):] = tgt
    return full


def brute_unitary(circuit):
    """Full circuit unitary built by explicit basis-permutation embedding.

    Independent of the simulator's slice arithmetic: each nonzero entry of
    a gate's operand matrix maps the rows of the running product whose
    operand bits are its input to the rows whose operand bits are its
    output, over every value of the other wires (a gate with no operand,
    GlobalPhase, scales every row); the relabeling then permutes the rows.
    """
    width = circuit.width
    dim = 1 << width
    labels = np.arange(dim)
    total = np.eye(dim, dtype=complex)
    for gate in circuit.gates:
        ops = gate.operands
        mat = operand_matrix(gate)
        k = len(ops)
        rest = [w for w in range(width) if w not in ops]
        extras = sum(((labels[:1 << len(rest)] >> j) & 1) << w for j, w in enumerate(rest))
        new = np.zeros_like(total)
        for sub_out, sub_in in zip(*np.nonzero(mat)):
            # operand bit i of the matrix index is wire ops[k-1-i]
            base_out = sum(((sub_out >> (k - 1 - i)) & 1) << ops[i] for i in range(k))
            base_in = sum(((sub_in >> (k - 1 - i)) & 1) << ops[i] for i in range(k))
            new[base_out | extras] += mat[sub_out, sub_in] * total[base_in | extras]
        total = new
    if circuit.relabeling is not None:
        out = sum(((labels >> w) & 1) << dest for w, dest in enumerate(circuit.relabeling))
        relabeled = np.empty_like(total)
        relabeled[out] = total
        total = relabeled
    return total


# ---------------------------------------------------------------------------
# stage circuits: the private fragments the transforms are assembled from,
# each on a register of its own, with the width, ancillas and label that
# tests/golden/builders.json records for it.  The transform control, or the
# gadget control, sits on wire n, right above the n data wires.
# ---------------------------------------------------------------------------


def t_gate(n: int) -> Circuit:
    """The doubling unitary T: |0,0> and |1,0> fixed, |0,x> spread into
    (|0,x> + |1,N-x>)/sqrt(2) and |1,x> into i(|0,x> - |1,N-x>)/sqrt(2)."""
    pool = trig._scratch_pool(n)
    return Circuit(2 * n, trig._t_gates(n, n, pool), pool, None, f"t_gate_{n}")


def type1_core(n: int) -> Circuit:
    """The bare doubled-Fourier sandwich T^dag QFT_2N T, whose blocks are
    the Type-I cosine matrix and i times the Type-I sine matrix."""
    pool = trig._scratch_pool(n)
    t = trig._t_gates(n, n, pool)
    return Circuit(2 * n, t + qft_gates(range(n + 1)) + inverse(t), pool, None,
                   f"qcst1_core_{n}")


def d1(n: int) -> Circuit:
    """The Type-II diagonal: w_4N^x on control 0 and w_4N^{x-N} on control 1."""
    return Circuit(n + 1, trig._d1_gates(n, n), label=f"d1_{n}")


def d2(n: int, corrected: bool = True) -> Circuit:
    """The Type-IV diagonal, or with ``corrected=False`` the defective one."""
    label = f"d2_{n}" if corrected else f"d2_incorrect_{n}"
    return Circuit(n + 1, trig._d2_gates(n, n, corrected), label=label)


def g_gate(n: int) -> Circuit:
    """The Type-II entangling unitary G."""
    pool = trig._scratch_pool(n)
    return Circuit(2 * n, trig._g_gates(n, n, pool), pool, None, f"g_gate_{n}")


def unitary_w(n: int) -> Circuit:
    """The LCU block unitary W on data 0..n-1, select n and carries above:
    projecting onto select=0 gives exactly V/sqrt(2)."""
    carries = gadgets._carry_wires(n)
    return Circuit(2 * n - 1, hartley._w_gates(n, n, carries), carries, None, f"w_{n}")


def unitary_ur(n: int) -> Circuit:
    """U_R on wires (b=0, y=1..n, c=n+1), rotation angle 2*pi*b*y/2^(n+1)."""
    return Circuit(n + 2, hartley.ur_gates(n + 1, range(1, n + 1), 0, 1 << (n + 1)),
                   label=f"ur_{n}")


def cx_zero_detect(n: int) -> Circuit:
    """Flip b iff c=1 and the n-qubit y register is zero, on wires (b=0,
    y=1..n, c=n+1), with the or-tree's n-1 ancillas above c."""
    tree = range(n + 2, 2 * n + 1)
    return Circuit(2 * n + 1, hartley.flip_if_zero_gates(n + 1, range(1, n + 1), 0, tree),
                   tree, None, f"cx_zero_{n}")


def cond_decrement(n: int) -> Circuit:
    """The conditional decrement: the adjoint of the increment."""
    inc = build_cond_increment(n)
    return Circuit(inc.width, inverse(inc.gates), inc.ancillas, None, f"dec_{n}")


def cond_ones_complement(n: int) -> Circuit:
    """The conditional bitwise NOT of the n data wires."""
    return Circuit(n + 1, cond_ones_complement_gates(n, range(n)), label=f"p1c_{n}")


def or_gate() -> Circuit:
    """One or-gate on wires (0, 1), result on wire 2."""
    return Circuit(3, or_gate_gates(0, 1, 2), label="or")


def or_tree_rounds(n: int, rounds: int) -> Circuit:
    """``rounds`` times the or-tree pass over n data wires and its inverse:
    6(n-1) gates a round, each restoring every tree ancilla."""
    ancillas = range(n, 2 * n - 1)
    tree, _ = or_tree_gates(range(n), ancillas)
    return Circuit(2 * n - 1, (tree + inverse(tree)) * rounds, ancillas, None, f"or_tree_{n}")


# ---------------------------------------------------------------------------
# oblivious amplitude amplification of the LCU Hartley construction
# ---------------------------------------------------------------------------


def twos_complement_permutation(N: int) -> np.ndarray:
    """Permutation matrix of x -> (N - x) mod N."""
    T = np.zeros((N, N))
    T[(N - np.arange(N)) % N, np.arange(N)] = 1.0
    return T


def lcu_target_v(N: int) -> np.ndarray:
    """Dense V = (e^{-i pi/4} I + e^{i pi/4} T)/sqrt(2), T the modular
    negation."""
    T = twos_complement_permutation(N)
    return (np.exp(-1j * math.pi / 4) * np.eye(N) + np.exp(1j * math.pi / 4) * T) / math.sqrt(2)


def amplification_overlap(n: int, rounds: int, seed: int = 20240901):
    """The overlap of S'^k W' |00>|psi> with |00> V|psi> for k = ``rounds``
    and a random |psi>, and sin((2k+1) pi/6), the value the amplification
    law predicts for it.

    One round is the library's circuit, ``hartley._amplified``, which
    ``build_qht_lcu`` uses.  Any other count is built here on the same
    wires from ``hartley._w_gates``: W', then ``rounds`` rounds of
    -R W'^dag R W', with R, the reflection of the two select wires about
    |00>, written out as Z, Z and a controlled phase of pi."""
    assert n >= 2 and rounds >= 0
    sel, p = n, n + 1
    if rounds == 1:
        gates = hartley._amplified(n)
    else:
        w_prime = [Gate("H", targets=(p,))] + hartley._w_gates(n, sel, range(n + 2, 2 * n))
        reflect = [Gate("Z", targets=(p,)), Gate("Z", targets=(sel,)),
                   Gate("CPhase", (p,), (sel,), math.pi)]
        one_round = (reflect + inverse(w_prime) + reflect
                     + [Gate("GlobalPhase", angle=math.pi)] + w_prime)
        gates = w_prime + one_round * rounds
    N = 1 << n
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=N) + 1j * rng.normal(size=N)
    psi /= np.linalg.norm(psi)
    # the ideal branch has the wires above the data register at 0, so only
    # the circuit's action on that subspace enters the overlap
    matrix, _ = data_register_action(Circuit(2 * n, gates, range(n, 2 * n)))
    overlap = complex(np.vdot(lcu_target_v(N) @ psi, matrix @ psi))
    return overlap, math.sin((2 * rounds + 1) * math.pi / 6)


def rotation_r(y, b, N):
    """The real rotation U_R applies to the recursion ancilla: angle
    2*pi*b*y/N for register value y and low bit b, so b = 0 is the
    identity."""
    th = 2.0 * math.pi * b * y / N
    return np.array([[math.cos(th), math.sin(th)],
                     [-math.sin(th), math.cos(th)]])


def reference_matrix(spec: TransformSpec) -> np.ndarray:
    """The whole oracle matrix of ``spec``."""
    return reference_columns(spec, 0, spec.dim)


def _checked_unitary(mat: np.ndarray) -> np.ndarray:
    defect = np.max(np.abs(mat.conj().T @ mat - np.eye(mat.shape[0])))
    assert defect < 1e-12, f"matrix is not unitary (defect {defect:.3e})"
    return mat


def build_reference_matrix(spec: TransformSpec) -> np.ndarray:
    """Oracle matrix for the given transform, checked unitary at 1e-12."""
    return _checked_unitary(reference_matrix(spec))


def build_dht_from_dft(N: int) -> np.ndarray:
    """The Hartley matrix assembled from the Fourier matrix and its conjugate:
    H = (1-i)/2 F + (1+i)/2 F*, checked unitary at 1e-12."""
    F = reference_matrix(TransformSpec("DFT", N))
    return _checked_unitary((1 - 1j) / 2 * F + (1 + 1j) / 2 * F.conj())


def compare_unitaries(a, b) -> float:
    """Max-entry absolute difference; no phase forgiveness."""
    am, bm = np.asarray(a), np.asarray(b)
    if am.shape != bm.shape:
        raise ValueError(f"dimension mismatch: {am.shape} vs {bm.shape}")
    return float(np.max(np.abs(am - bm)))


def dump_csv(matrix, stream) -> None:
    """Write a matrix as comma-separated "re,im" pairs, one row per line."""
    for row in np.atleast_2d(np.asarray(matrix)):
        stream.write(",".join(f"{z.real:.17g},{z.imag:.17g}" for z in row) + "\n")


# The defining formulas evaluated on float angles, one kernel per kind: an
# independent check of the library's integer-reduced angle table.
# Boundary weights: k_j = 1/sqrt(2) when j is 0 or N (whichever occurs in
# the transform's index range), else 1.


def cas(x):
    """cos(x) + sin(x), the Hartley kernel."""
    return np.cos(x) + np.sin(x)


def _boundary_weight(j, N: int):
    return np.where((j == 0) | (j == N), 1.0 / math.sqrt(2.0), 1.0)


def _dft(N, r, c):
    return np.exp(2j * np.pi * (r * c) / N) / np.sqrt(N)


def _dht(N, r, c):
    return cas(2.0 * np.pi * (r * c) / N) / np.sqrt(N)


def _dct1(N, r, c):
    return (np.sqrt(2.0 / N) * (_boundary_weight(r, N) * _boundary_weight(c, N))
            * np.cos(np.pi * (r * c) / N))


def _dst1(N, r, c):
    return np.sqrt(2.0 / N) * np.sin(np.pi * ((r + 1) * (c + 1)) / N)


def _dct2(N, r, c):
    return np.sqrt(2.0 / N) * _boundary_weight(r, N) * np.cos(np.pi * (r * (c + 0.5)) / N)


def _dst2(N, r, c):
    return (np.sqrt(2.0 / N) * _boundary_weight(r + 1, N)
            * np.sin(np.pi * ((r + 1) * (c + 0.5)) / N))


def _dct4(N, r, c):
    return np.sqrt(2.0 / N) * np.cos(np.pi * ((r + 0.5) * (c + 0.5)) / N)


def _dst4(N, r, c):
    return np.sqrt(2.0 / N) * np.sin(np.pi * ((r + 0.5) * (c + 0.5)) / N)


_KERNELS = {
    "DFT": _dft,
    "DHT": _dht,
    "DCT1": _dct1,
    "DST1": _dst1,
    "DCT2": _dct2,
    "DST2": _dst2,
    # Type III is the transpose of Type II: the index roles swap
    "DCT3": lambda N, r, c: _dct2(N, c, r),
    "DST3": lambda N, r, c: _dst2(N, c, r),
    "DCT4": _dct4,
    "DST4": _dst4,
}


def naive_reference(spec: TransformSpec) -> np.ndarray:
    """The whole oracle matrix from the float-angle formulas."""
    rows = np.arange(spec.dim)[:, None]
    cols = np.arange(spec.dim)[None, :]
    return _KERNELS[spec.kind](spec.N, rows, cols)
