"""Classical reference transform matrices, built entry by entry.

These are the ground truth for every circuit verification, so they stay
deliberately naive: O(N^2) direct evaluation of the defining formulas, no
FFT-style shortcuts shared with the circuits under test.

Boundary weights: k_j = 1/sqrt(2) when j is 0 or N (whichever occurs in the
transform's index range), else 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .simcore import DenseUnitary

KINDS = ("DFT", "DHT", "DCT1", "DCT2", "DCT3", "DCT4", "DST1", "DST2", "DST3", "DST4")


def cas(x):
    """cos(x) + sin(x), the Hartley kernel."""
    return np.cos(x) + np.sin(x)


@dataclass(frozen=True)
class TransformSpec:
    """A classical reference transform: kind plus the size parameter N=2^n."""

    kind: str
    N: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown transform kind {self.kind!r}")
        if self.N < 2 or self.N & (self.N - 1):
            raise ValueError(f"N must be a power of two >= 2, got {self.N}")

    @property
    def dim(self) -> int:
        if self.kind == "DCT1":
            return self.N + 1
        if self.kind == "DST1":
            return self.N - 1
        return self.N


def _boundary_weight(j, N: int):
    return np.where((j == 0) | (j == N), 1.0 / math.sqrt(2.0), 1.0)


# Each kernel gives the entries at row indices ``r`` and column indices
# ``c`` of its matrix, as broadcast against each other; indices count from
# the first row or column of the matrix.


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


def reference_columns(spec: TransformSpec, start: int, stop: int) -> np.ndarray:
    """Columns ``start..stop-1`` of the oracle matrix, all rows, each entry
    evaluated from the transform's defining formula."""
    if not 0 <= start <= stop <= spec.dim:
        raise ValueError(f"columns {start}..{stop} outside 0..{spec.dim}")
    rows = np.arange(spec.dim)[:, None]
    cols = np.arange(start, stop)[None, :]
    return _KERNELS[spec.kind](spec.N, rows, cols)


def reference_matrix(spec: TransformSpec) -> np.ndarray:
    return reference_columns(spec, 0, spec.dim)


def build_reference_matrix(spec: TransformSpec) -> DenseUnitary:
    """Oracle matrix for the given transform, validated unitary at 1e-12."""
    return DenseUnitary(reference_matrix(spec), tolerance=1e-12)


def build_dht_from_dft(N: int) -> DenseUnitary:
    """The Hartley matrix assembled from the Fourier matrix and its conjugate:
    H = (1-i)/2 F + (1+i)/2 F*."""
    F = reference_matrix(TransformSpec("DFT", N))
    return DenseUnitary((1 - 1j) / 2 * F + (1 + 1j) / 2 * F.conj(), tolerance=1e-12)


def twos_complement_permutation(N: int) -> np.ndarray:
    """Permutation matrix of x -> (N - x) mod N."""
    T = np.zeros((N, N))
    T[(N - np.arange(N)) % N, np.arange(N)] = 1.0
    return T


def compare_unitaries(a, b) -> float:
    """Max-entry absolute difference; no phase forgiveness."""
    am = a.entries if isinstance(a, DenseUnitary) else np.asarray(a)
    bm = b.entries if isinstance(b, DenseUnitary) else np.asarray(b)
    if am.shape != bm.shape:
        raise ValueError(f"dimension mismatch: {am.shape} vs {bm.shape}")
    return float(np.max(np.abs(am - bm)))


def dump_csv(matrix, stream) -> None:
    """Write a matrix as comma-separated "re,im" pairs, one row per line."""
    mat = matrix.entries if isinstance(matrix, DenseUnitary) else np.asarray(matrix)
    for row in np.atleast_2d(mat):
        stream.write(",".join(f"{z.real:.17g},{z.imag:.17g}" for z in row) + "\n")
