"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured numbers.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""
import numpy as np

from qrt_kit import oracle
from qrt_kit.cli import quadratic_fit, verify_transform
from qrt_kit.gadgets import (
    build_cond_increment,
    build_cond_twos_complement,
    build_or_tree,
    classical_map_error,
)
from qrt_kit.hartley import build_qht_lcu, build_qht_recursive
from qrt_kit.qft import build_qft, qft_gates
from qrt_kit.simcore import (
    Circuit,
    Gate,
    count_gates,
    data_register_action,
)
from qrt_kit.trig import (
    build_qcst_type2,
    build_qcst_type3,
    build_qcst_type4,
    build_qst1_optimized,
)

from helpers import (
    amplification_overlap,
    block_errors,
    cas,
    cond_decrement,
    cond_ones_complement,
    controlled_map,
    or_tree_rounds,
    reference_matrix,
    twos_complement_permutation,
    type1_core,
)

TOL = 1e-10


def spec(kind, N):
    return oracle.TransformSpec(kind, N)


def report(name, value, threshold=TOL, mode="<"):
    ok = value < threshold if mode == "<" else value > threshold
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {value:.3e} "
          f"({'max allowed' if mode == '<' else 'min required'} {threshold:g})")
    assert ok, f"{name}: {value}"


def test_criterion_1_qht_both_variants():
    """Both Hartley constructions match the classical matrix for n = 2..6."""
    worst_err = 0.0
    worst_resid = 0.0
    for n in range(2, 7):
        target = reference_matrix(spec("DHT", 1 << n))
        for build in (build_qht_recursive, build_qht_lcu):
            matrix, resid = data_register_action(build(n))
            worst_err = max(worst_err, float(np.max(np.abs(matrix - target))))
            worst_resid = max(worst_resid, resid)
    report("criterion 1: QHT matrix error (rec+lcu, n=2..6)", worst_err)
    report("criterion 1: QHT ancilla residual", worst_resid)


def test_criterion_2_amplification_law():
    """One amplification round lands exactly; 0 and 2 rounds give 1/2."""
    worst = 0.0
    for rounds in (0, 1, 2):
        overlap, law = amplification_overlap(3, rounds)
        worst = max(worst, abs(overlap - law))
    report("criterion 2: amplification overlap error (k=0,1,2)", worst)


def test_criterion_3_type1_block_identity():
    """T^dag QFT_2N T splits into the Type-I cosine block and i times the
    sine block for n = 2..4."""
    worst = 0.0
    for n in (2, 3, 4):
        worst = max(worst, *block_errors(type1_core(n), "DCT1", "DST1", phase=1j))
    report("criterion 3: Type-I block identity error (n=2..4)", worst)


def test_criterion_4_optimized_sine():
    """The sine-only circuit matches the Type-I sine matrix on its domain and
    contains nothing with three or more controls."""
    worst = 0.0
    for n in range(2, 6):
        N = 1 << n
        circ = build_qst1_optimized(n)
        assert all(len(g.controls) < 3 for g in circ.gates)
        matrix, _ = data_register_action(circ)
        S1 = reference_matrix(spec("DST1", N))
        worst = max(worst, float(np.max(np.abs(matrix[1:N, 1:N] - S1))))
        worst = max(worst, float(np.max(np.abs(matrix[N:, 1:N]))))
    report("criterion 4: optimized QST-I error on 1..N-1 (n=2..5)", worst)


def test_criterion_5_type2_and_type3():
    """Type-II blocks match, and the Type-III circuit gives the transposes."""
    worst = 0.0
    for n in (2, 3, 4):
        worst = max(worst, *block_errors(build_qcst_type2(n), "DCT2", "DST2"),
                    *block_errors(build_qcst_type3(n), "DCT3", "DST3"))
    report("criterion 5: Type-II/III block identity error (n=2..4)", worst)


def test_criterion_6_type4_correction():
    """Corrected diagonal passes at every size; the defective one fails."""
    worst = 0.0
    for n in (1, 2, 3, 4):
        worst = max(worst, *block_errors(build_qcst_type4(n), "DCT4", "DST4"))
    report("criterion 6: Type-IV corrected-diagonal error (n=1..4)", worst)
    regression = min(block_errors(build_qcst_type4(n, corrected=False), "DCT4", "DST4")[0]
                     for n in (2, 3))
    report("criterion 6: Type-IV uncorrected-diagonal error", regression,
           threshold=0.1, mode=">")


def test_criterion_7_gadget_exhaustives():
    """Every arithmetic gadget reproduces its classical map on all basis
    inputs up to n = 16, at the expected gate counts."""
    worst = 0.0
    for n in range(1, 17):
        N = 1 << n
        checks = [
            (build_cond_increment(n), lambda c, x: (x + c) % N),
            (cond_decrement(n), lambda c, x: (x - c) % N),
            (cond_ones_complement(n), lambda c, x: (N - 1 - x) if c else x),
        ]
        if n >= 2:
            checks.append((build_cond_twos_complement(n),
                           lambda c, x: (N - x) % N if c else x))
        for circ, fn in checks:
            worst = max(worst, *classical_map_error(circ, n + 1, controlled_map(n, fn)))
    report("criterion 7: gadget classical-map error (n<=16)", worst)

    for n in range(3, 17):
        assert count_gates(build_cond_twos_complement(n))["total"] == 4 * n - 4
    for n in range(2, 17):
        assert count_gates(build_or_tree(n))["total"] == 3 * (n - 1)
        assert count_gates(or_tree_rounds(n, 1))["total"] == 6 * (n - 1)
        assert count_gates(or_tree_rounds(n, 2))["total"] == 12 * (n - 1)
    print("PASS  criterion 7: two's complement 4n-4 and or-tree 3/6/12(n-1) counts exact")

    # or-tree root value on every basis input up to n = 16, as the CLI checks it
    worst_root = max(verify_transform("or-tree", n, TOL)["max_error"] for n in range(2, 17))
    report("criterion 7: or-tree root exhaustive error (n<=16)", worst_root)


def test_criterion_8_complexity_comparison():
    """Quadratic cost coefficients over n = 6..14: the LCU construction sits
    on the Fourier ladder (1/2 n^2) and undercuts the recursion by > 3x."""
    ns = list(range(6, 15))
    rec = [count_gates(build_qht_recursive(n))["total"] for n in ns]
    lcu = [count_gates(build_qht_lcu(n))["total"] for n in ns]
    assert all(a <= b for a, b in zip(rec, rec[1:]))
    assert all(a <= b for a, b in zip(lcu, lcu[1:]))
    a_rec = quadratic_fit(ns, rec)[0]
    a_lcu = quadratic_fit(ns, lcu)[0]
    print(f"      fitted quadratic coefficients: rec {a_rec:.3f}, lcu {a_lcu:.3f}")
    report("criterion 8: |lcu quadratic coefficient - 0.5|", abs(a_lcu - 0.5),
           threshold=0.1)
    report("criterion 8: rec/lcu quadratic ratio", a_rec / a_lcu,
           threshold=3.0, mode=">")


def test_criterion_9_identity_suite():
    """Eq.-style matrix identities at N <= 64 and their circuit versions."""
    worst = 0.0
    for N in (2, 4, 8, 16, 32, 64):
        F = reference_matrix(spec("DFT", N))
        H = reference_matrix(spec("DHT", N))
        T = twos_complement_permutation(N)
        worst = max(worst, float(np.max(np.abs(
            (1 - 1j) / 2 * F + (1 + 1j) / 2 * F.conj() - H))))
        worst = max(worst, float(np.max(np.abs(F @ T - F.conj()))))
        worst = max(worst, float(np.max(np.abs(H @ H - np.eye(N)))))
        x = np.arange(N)
        omega = np.exp(2j * np.pi * x / N)
        worst = max(worst, float(np.max(np.abs(
            cas(2 * np.pi * x / N)
            - ((1 - 1j) / 2 * omega + (1 + 1j) / 2 * omega.conj())))))
    report("criterion 9: matrix identity suite (N<=64)", worst)

    # circuit level: F_N T = F_N^* and the Hartley involution, n <= 6
    worst_circ = 0.0
    for n in range(2, 7):
        N = 1 << n
        base = build_cond_twos_complement(n)
        force = Gate("X", targets=(n,))
        circ = Circuit(base.width, [force, *base.gates, force, *qft_gates(range(n))],
                       ancillas=range(n, base.width))
        matrix, resid = data_register_action(circ)
        want = reference_matrix(spec("DFT", N)).conj()
        worst_circ = max(worst_circ, resid, float(np.max(np.abs(matrix - want))))
        hart, resid = data_register_action(build_qht_lcu(n))
        worst_circ = max(worst_circ, resid,
                         float(np.max(np.abs(hart @ hart - np.eye(N)))))
    report("criterion 9: circuit identity suite (n<=6)", worst_circ)
