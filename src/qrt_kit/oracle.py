"""Classical reference transform matrices, built entry by entry.

These are the ground truth for every circuit verification, so they stay
deliberately naive: each entry is a direct function of its own row and
column, with no FFT-style shortcuts shared with the circuits under test.

Every kind's defining angle is pi * (row factor) * (column factor) / N with
integer factors, so it is reduced exactly in int64: entry (r, c) is
``w(r) * w(c) * T[k]`` with ``k = (a*r + b) * (g*c + h) mod M`` for a modulus
M in {N, 2N, 4N, 8N} above both factors, and ``T[k] = scale * f(2*pi*k / M)``
for the kind's kernel f (exp(i.), cas, cos or sin) and normalisation.  The
only float rounding left is one evaluation of f on an angle in [0, 2*pi).
Type III is Type II with the index roles swapped.

Boundary weights (DCT1, DCT2/DST2 and their transposes): w = 1/sqrt(2) where
the index factor ``a*j + b`` is 0 or N, else 1.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


def _cas(x):
    """cos(x) + sin(x), the Hartley kernel."""
    return np.cos(x) + np.sin(x)


def _expi(x):
    return np.exp(1j * x)


# kind: (row a, b), (column g, h), M / N, kernel f, boundary-weighted
_RULES = {
    "DFT": ((1, 0), (1, 0), 1, _expi, False),
    "DHT": ((1, 0), (1, 0), 1, _cas, False),
    "DCT1": ((1, 0), (1, 0), 2, np.cos, True),
    "DCT2": ((1, 0), (2, 1), 4, np.cos, True),
    "DCT3": ((2, 1), (1, 0), 4, np.cos, True),
    "DCT4": ((2, 1), (2, 1), 8, np.cos, False),
    "DST1": ((1, 1), (1, 1), 2, np.sin, False),
    "DST2": ((1, 1), (2, 1), 4, np.sin, True),
    "DST3": ((2, 1), (1, 1), 4, np.sin, True),
    "DST4": ((2, 1), (2, 1), 8, np.sin, False),
}

KINDS = tuple(_RULES)


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
        if self._modulus ** 2 > np.iinfo(np.int64).max:
            raise ValueError(f"N = {self.N} is too large for int64 angle indices "
                             f"of {self.kind}")

    @property
    def dim(self) -> int:
        if self.kind == "DCT1":
            return self.N + 1
        if self.kind == "DST1":
            return self.N - 1
        return self.N

    @property
    def _modulus(self) -> int:
        return _RULES[self.kind][2] * self.N

    @functools.cached_property
    def _table(self) -> np.ndarray:
        """T[k] = scale * f(2*pi*k / M) for k = 0..M-1."""
        M = self._modulus
        # DFT and DHT (M = N) are normalised by 1/sqrt(N), the cosine and
        # sine transforms by sqrt(2/N)
        scale = math.sqrt((1 if M == self.N else 2) / self.N)
        return scale * _RULES[self.kind][3](np.arange(M) * (2 * np.pi / M))


def reference_columns(spec: TransformSpec, start: int, stop: int) -> np.ndarray:
    """Columns ``start..stop-1`` of the oracle matrix, all rows, each entry
    evaluated from the transform's defining formula."""
    if not 0 <= start <= stop <= spec.dim:
        raise ValueError(f"columns {start}..{stop} outside 0..{spec.dim}")
    (a, b), (g, h), _, _, weighted = _RULES[spec.kind]
    M = spec._modulus
    # both index factors already lie below M, and M is a power of two
    u = a * np.arange(spec.dim, dtype=np.int64) + b
    v = g * np.arange(start, stop, dtype=np.int64) + h
    k = np.multiply.outer(u, v)
    k &= M - 1
    out = spec._table[k]
    if weighted:
        out[(u == 0) | (u == spec.N)] *= math.sqrt(0.5)
        out[:, (v == 0) | (v == spec.N)] *= math.sqrt(0.5)
    return out

