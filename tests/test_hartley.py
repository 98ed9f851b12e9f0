"""Both Hartley constructions, the LCU block structure, and amplification."""
import math

import numpy as np
import pytest

from qrt_kit import oracle
from qrt_kit.hartley import build_qht_lcu, build_qht_recursive
from qrt_kit.qft import build_qft
from qrt_kit.simcore import Circuit, Gate, count_gates, data_register_action

from helpers import (
    amplification_overlap,
    cx_zero_detect,
    lcu_target_v,
    rotation_r,
    unitary,
    unitary_ur,
    unitary_w,
)

# the N=4 Hartley matrix, frozen from evaluating cas(2 pi a y / 4) by hand
H4 = 0.5 * np.array([
    [1, 1, 1, 1],
    [1, 1, -1, -1],
    [1, -1, 1, -1],
    [1, -1, -1, 1],
], dtype=float)


def dht(N):
    return oracle.reference_matrix(oracle.TransformSpec("DHT", N))


# ---------------------------------------------------------------------------
# LCU target
# ---------------------------------------------------------------------------


def test_v_is_unitary_and_factors_hartley():
    for n in range(1, 7):
        N = 1 << n
        V = lcu_target_v(N)
        np.testing.assert_allclose(V.conj().T @ V, np.eye(N), atol=1e-12)
        F = oracle.reference_matrix(oracle.TransformSpec("DFT", N))
        np.testing.assert_allclose(F @ V, dht(N), atol=1e-12)


# ---------------------------------------------------------------------------
# W and its block structure
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4])
def test_w_select_zero_block_is_v_over_sqrt2(n):
    N = 1 << n
    circ = unitary_w(n)
    matrix, residual = data_register_action(circ)
    assert residual < 1e-12
    np.testing.assert_allclose(matrix[:N, :N], lcu_target_v(N) / math.sqrt(2),
                               atol=1e-12)


def test_w_on_zero_input_amplitude():
    n = 3
    N = 1 << n
    matrix, _ = data_register_action(unitary_w(n))
    want = lcu_target_v(N)[:, 0] * math.sin(math.pi / 4)
    np.testing.assert_allclose(matrix[:N, 0], want, atol=1e-12)


def test_block_encoding_projection_on_random_states():
    rng = np.random.default_rng(3)
    n = 3
    N = 1 << n
    matrix, _ = data_register_action(unitary_w(n))
    V = lcu_target_v(N)
    for _ in range(5):
        psi = rng.normal(size=N) + 1j * rng.normal(size=N)
        psi /= np.linalg.norm(psi)
        np.testing.assert_allclose(matrix[:N, :N] @ psi, V @ psi / math.sqrt(2),
                                   atol=1e-12)


# ---------------------------------------------------------------------------
# U_R and the zero detector
# ---------------------------------------------------------------------------


def test_rotation_r_trivial_cases():
    np.testing.assert_allclose(rotation_r(0, 1, 8), np.eye(2), atol=1e-15)
    np.testing.assert_allclose(rotation_r(5, 0, 8), np.eye(2), atol=1e-15)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ur_blocks_match_rotation(n):
    U = unitary(unitary_ur(n))
    N = 1 << (n + 1)
    for y in range(1 << n):
        for b in (0, 1):
            R = rotation_r(y, b, N)
            for ci in (0, 1):
                for co in (0, 1):
                    lab_i = b | (y << 1) | (ci << (n + 1))
                    lab_o = b | (y << 1) | (co << (n + 1))
                    assert abs(U[lab_o, lab_i] - R[co, ci]) < 1e-12


def test_cx_zero_detect_defining_cases():
    n = 2
    circ = cx_zero_detect(n)
    matrix, residual = data_register_action(circ)
    assert residual < 1e-12
    c_bit = 1 << (n + 1)
    # c=1, y=0, b=0 -> b flips
    assert abs(matrix[c_bit | 1, c_bit | 0] - 1) < 1e-12
    # c=0 leaves every basis state alone
    for lab in range(c_bit):
        assert abs(matrix[lab, lab] - 1) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_cx_variants_identical(n):
    # the or-tree detector against one MCX on c and the negated y wires
    flips = [Gate("X", targets=(q,)) for q in range(1, n + 1)]
    mcx = Circuit(n + 2, flips + [Gate("MCX", (n + 1, *range(1, n + 1)), (0,))] + flips)
    a, _ = data_register_action(mcx)
    b, rb = data_register_action(cx_zero_detect(n))
    assert rb < 1e-12
    np.testing.assert_allclose(a, b, atol=1e-12)


# ---------------------------------------------------------------------------
# the two Hartley constructions
# ---------------------------------------------------------------------------


def test_qht_recursive_base_case():
    circ = build_qht_recursive(1)
    assert [g.kind for g in circ.gates] == ["H"]


def test_qht_lcu_n2_matches_frozen_matrix():
    matrix, residual = data_register_action(build_qht_lcu(2))
    assert residual < 1e-10
    np.testing.assert_allclose(matrix, H4, atol=1e-10)


def test_qht_recursive_n2_matches_frozen_matrix():
    matrix, residual = data_register_action(build_qht_recursive(2))
    assert residual < 1e-10
    np.testing.assert_allclose(matrix, H4, atol=1e-10)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_qht_lcu_matches_oracle(n):
    matrix, residual = data_register_action(build_qht_lcu(n))
    assert residual < 1e-10
    np.testing.assert_allclose(matrix, dht(1 << n), atol=1e-10)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_qht_recursive_matches_oracle(n):
    matrix, residual = data_register_action(build_qht_recursive(n))
    assert residual < 1e-10
    np.testing.assert_allclose(matrix, dht(1 << n), atol=1e-10)


def test_qht_uniform_column():
    for n in (2, 3, 4):
        matrix, _ = data_register_action(build_qht_lcu(n))
        np.testing.assert_allclose(matrix[:, 0], np.full(1 << n, (1 << n) ** -0.5),
                                   atol=1e-10)


def test_qht_involution_on_data():
    for n in (2, 3, 4):
        matrix, _ = data_register_action(build_qht_lcu(n))
        np.testing.assert_allclose(matrix @ matrix, np.eye(1 << n), atol=1e-10)


def test_qht_builders_agree():
    for n in (2, 3, 4):
        a, _ = data_register_action(build_qht_lcu(n))
        b, _ = data_register_action(build_qht_recursive(n))
        np.testing.assert_allclose(a, b, atol=1e-10)


def test_qht_size_errors():
    with pytest.raises(ValueError):
        build_qht_lcu(1)
    with pytest.raises(ValueError):
        build_qht_recursive(0)


# ---------------------------------------------------------------------------
# amplification and complexity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("rounds,expected", [(0, 0.5), (1, 1.0), (2, 0.5)])
def test_amplification_overlaps(rounds, expected):
    overlap, law = amplification_overlap(3, rounds)
    assert law == pytest.approx(expected)
    assert abs(overlap - law) < 1e-10


def test_amplification_independent_of_state_seed():
    for seed in (1, 2, 3):
        overlap, law = amplification_overlap(2, 1, seed=seed)
        assert abs(overlap - law) < 1e-10


def test_lcu_overhead_over_qft_is_linear():
    ns = np.arange(4, 15)
    extra = np.array([count_gates(build_qht_lcu(n)).total
                      - count_gates(build_qft(n)).total for n in ns])
    slope, intercept = np.polyfit(ns, extra, 1)
    fit = slope * ns + intercept
    assert np.max(np.abs(fit - extra)) < 1.0  # linear up to rounding
    assert slope > 0


def test_recursive_ancilla_budget():
    for n in (2, 3, 4, 5):
        circ = build_qht_recursive(n)
        # n-1 recursion ancillas plus the scratch pool, all documented clean
        assert len(circ.ancillas) == circ.width - n
        assert circ.width == (3 * n - 3 if n > 1 else 1)
