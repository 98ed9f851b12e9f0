"""Shared test utilities: the block check of a cosine/sine pair, the
expected labels of a controlled classical map, the simulator's full unitary
of a small circuit, an independent brute-force unitary builder, reference
matrices the circuits are compared against, and the float-angle oracle the
library's angle table is cross-checked with."""
import math

import numpy as np

from qrt_kit.oracle import TransformSpec, cas, reference_matrix
from qrt_kit.simcore import _target_matrix, data_register_action
from qrt_kit.trig import check_blocks


def block_errors(circuit, cos_kind: str, sin_kind: str, phase=1):
    """``trig.check_blocks`` on the cosine block on the low register labels
    and ``phase`` times the sine block above it: (max error, residual)."""
    N = 1 << (len(circuit.data_wires) - 1)
    cos = TransformSpec(cos_kind, N)
    errors, residual = check_blocks(
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


def unitary(circuit) -> np.ndarray:
    """The circuit's full matrix from the simulator: its action on a data
    register of every wire, in wire order (column j is the image of |j>)."""
    return data_register_action(circuit, range(circuit.width))[0]


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
