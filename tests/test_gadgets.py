"""Exhaustive classical-equivalence and gate-count checks for the
reversible-arithmetic gadgets."""
import numpy as np
import pytest

from qrt_kit.cli import _TABLE
from qrt_kit.gadgets import (
    build_cond_increment,
    build_cond_twos_complement,
    build_or_tree,
    classical_map_error,
)
from qrt_kit.simcore import Circuit, Gate, count_gates, data_register_action

from helpers import (
    cond_decrement,
    cond_ones_complement,
    controlled_map,
    or_gate,
    or_tree_rounds,
    unitary,
)


def identity(labels):
    return labels


# ---------------------------------------------------------------------------
# increment / decrement / complements
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 7))
def test_increment_exhaustive(n):
    err = classical_map_error(build_cond_increment(n), n + 1,
                              controlled_map(n, lambda c, x: (x + c) % (1 << n)))
    assert err == (0.0, 0.0)


@pytest.mark.parametrize("n", range(1, 7))
def test_decrement_exhaustive(n):
    err = classical_map_error(cond_decrement(n), n + 1,
                              controlled_map(n, lambda c, x: (x - c) % (1 << n)))
    assert err == (0.0, 0.0)


def test_increment_wraparound_case():
    # n=3, c=1, x=7 -> 0
    err = classical_map_error(build_cond_increment(3), 4,
                              controlled_map(3, lambda c, x: (x + c) % 8))
    assert err == (0.0, 0.0)


def test_decrement_then_increment_is_identity():
    for n in range(1, 6):
        inc = build_cond_increment(n)
        dec = cond_decrement(n)
        both = Circuit(inc.width, inc.gates + dec.gates, inc.ancillas)
        err = classical_map_error(both, n + 1, identity)
        assert err == (0.0, 0.0)


@pytest.mark.parametrize("n", range(1, 7))
def test_ones_complement_exhaustive(n):
    err = classical_map_error(cond_ones_complement(n), n + 1,
                              controlled_map(n, lambda c, x: ((1 << n) - 1 - x) if c else x))
    assert err == (0.0, 0.0)


def test_ones_complement_involution():
    for n in range(1, 6):
        circ = cond_ones_complement(n)
        both = Circuit(circ.width, circ.gates + circ.gates)
        assert classical_map_error(both, n + 1, identity) == (0.0, 0.0)


@pytest.mark.parametrize("n", range(2, 7))
def test_twos_complement_exhaustive(n):
    err = classical_map_error(build_cond_twos_complement(n), n + 1,
                              controlled_map(n, lambda c, x: ((1 << n) - x) % (1 << n) if c else x))
    assert err == (0.0, 0.0)


def test_twos_complement_fixed_point_and_negation():
    # n=3: c=1 maps 3 -> 5 and 0 -> 0
    circ = build_cond_twos_complement(3)
    matrix, _ = data_register_action(circ)
    assert abs(matrix[8 + 5, 8 + 3] - 1) < 1e-12
    assert abs(matrix[8 + 0, 8 + 0] - 1) < 1e-12


@pytest.mark.parametrize("n", range(2, 11))
def test_twos_complement_gate_count(n):
    assert count_gates(build_cond_twos_complement(n))["total"] == 4 * n - 4


def test_gadget_size_errors():
    with pytest.raises(ValueError):
        build_cond_increment(0)
    with pytest.raises(ValueError):
        build_cond_twos_complement(1)


def test_gadget_unitaries_are_permutations():
    for circ in (build_cond_increment(3), build_cond_twos_complement(3),
                 build_or_tree(3)):
        U = unitary(circ)
        mags = np.abs(U)
        assert np.all((mags < 1e-12) | (np.abs(mags - 1) < 1e-12))
        np.testing.assert_allclose(np.abs(U.imag).max(), 0, atol=1e-12)


# ---------------------------------------------------------------------------
# or gate / or tree
# ---------------------------------------------------------------------------


def test_or_gate_truth_table():
    U = unitary(or_gate())
    for q0 in (0, 1):
        for q1 in (0, 1):
            for r in (0, 1):
                lab_in = q0 | (q1 << 1) | (r << 2)
                lab_out = q0 | (q1 << 1) | ((r ^ (q0 | q1)) << 2)
                assert abs(U[lab_out, lab_in] - 1) < 1e-12


def test_or_gate_count():
    report = count_gates(or_gate())
    assert report["total"] == 3
    assert report["counts"] == {"CNOT": 2, "Toffoli": 1}


def test_or_tree_root_exhaustive_n4():
    circ = build_or_tree(4)
    root = circ.width - 1
    matrix, residual = data_register_action(circ)
    assert residual == 0
    for x in range(16):
        column = matrix[:, x]
        lab = int(np.argmax(np.abs(column)))
        assert abs(column[lab] - 1) < 1e-12
        assert (lab >> root) & 1 == (1 if x else 0)
        assert lab & 15 == x  # data wires untouched


@pytest.mark.parametrize("n", range(2, 11))
def test_or_tree_gate_tiers(n):
    assert count_gates(build_or_tree(n))["total"] == 3 * (n - 1)
    assert count_gates(or_tree_rounds(n, 1))["total"] == 6 * (n - 1)
    assert count_gates(or_tree_rounds(n, 2))["total"] == 12 * (n - 1)


def test_or_tree_uncompute_restores_all_ancillas():
    for n in (2, 3, 5):
        circ = or_tree_rounds(n, 1)
        err = classical_map_error(circ, n, identity)  # identity map
        assert err == (0.0, 0.0)


def test_classical_map_error_flags_a_wrong_map_and_a_dirty_ancilla():
    # the increment is not the identity; its carries come back clean
    assert classical_map_error(build_cond_increment(4), 5, identity) == (1.0, 0.0)
    # the bare tree leaves its ancillas dirty whatever the map
    assert classical_map_error(build_or_tree(4), 4, identity) == (1.0, 1.0)
    # only the lowest ancilla, right above the control, is dirtied
    copy_control = Circuit(4, (Gate("CNOT", (2,), (3,)),))
    assert classical_map_error(copy_control, 3, identity) == (1.0, 1.0)


def test_or_tree_error_checks_data_and_root():
    # the CLI's or-tree check: data kept, root set, internal nodes don't-care
    check = _TABLE["or-tree"][1]
    for n in (2, 3, 5):
        assert check(build_or_tree(n), n)[0] == 0.0
        # the full uncompute clears the root again
        assert check(or_tree_rounds(n, 1), n)[0] == 1.0


def test_or_tree_degenerate_two_inputs():
    assert build_or_tree(2).gates == or_gate().gates


def test_or_tree_size_error():
    with pytest.raises(ValueError):
        build_or_tree(1)


def test_bare_or_tree_documents_dirty_ancillas():
    assert build_or_tree(5).ancillas == frozenset()
