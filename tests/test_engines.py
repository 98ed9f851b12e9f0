"""The two engines behind ``data_register_action``: the support-sparse one
(data register narrower than the circuit) against the dense statevector one
and against the brute-force unitary, on random circuits; and
``classical_image`` against the brute-force unitary on random classical
circuits."""
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qrt_kit.simcore import (
    Circuit,
    Gate,
    _dense_register_action,
    _sparse_register_action,
    classical_image,
    data_register_action,
)

from helpers import brute_unitary, unitary

ARITY = {
    "X": (0, 1), "Y": (0, 1), "Z": (0, 1), "H": (0, 1), "S": (0, 1),
    "Sdg": (0, 1), "Phase": (0, 1), "Rz": (0, 1), "CPhase": (1, 1),
    "CNOT": (1, 1), "CH": (1, 1), "CS": (1, 1), "CSdg": (1, 1),
    "Toffoli": (2, 1), "SWAP": (0, 2), "GlobalPhase": (0, 0), "MCX": (1, 1),
}
ANGLED = {"Phase", "Rz", "CPhase", "GlobalPhase"}


@st.composite
def gates(draw, width, kinds=tuple(ARITY)):
    kind = draw(st.sampled_from(
        [k for k in kinds if sum(ARITY[k]) <= width]))
    n_ctrl, n_tgt = ARITY[kind]
    if kind == "MCX":
        n_ctrl = draw(st.integers(1, width - 1))
    wires = draw(st.permutations(range(width)))[:n_ctrl + n_tgt]
    angle = None
    if kind in ANGLED:
        angle = draw(st.floats(-2 * math.pi, 2 * math.pi))
    return Gate(kind, tuple(wires[:n_ctrl]), tuple(wires[n_ctrl:]), angle)


@st.composite
def cases(draw, max_width=10, max_gates=12, min_width=1, kinds=tuple(ARITY)):
    """A random circuit over the given gate kinds, optionally followed by
    its own inverse (so ancillas come back clean through exact
    cancellations), with an optional relabeling, and a random data
    register."""
    width = draw(st.integers(min_width, max_width))
    body = draw(st.lists(gates(width, kinds), max_size=max_gates))
    if draw(st.booleans()):
        body += [g.inverse() for g in reversed(body)]
    relabeling = None
    if draw(st.booleans()):
        relabeling = tuple(draw(st.permutations(range(width))))
    data = draw(st.lists(st.integers(0, width - 1), unique=True, max_size=width))
    return Circuit(width, tuple(body), relabeling=relabeling), data


def restricted_action(unitary, width, data_wires):
    """(matrix, residual) of data_register_action, read off a full unitary:
    the data-register block with every other wire at |0>, and the largest
    amplitude those columns put outside that subspace."""
    d = len(data_wires)
    labels = np.arange(1 << width)
    on = np.ones(1 << width, dtype=bool)
    for w in range(width):
        if w not in data_wires:
            on &= ((labels >> w) & 1) == 0
    in_labels = [sum(((c >> pos) & 1) << w for pos, w in enumerate(data_wires))
                 for c in range(1 << d)]
    rows = [sum(((lab >> w) & 1) << pos for pos, w in enumerate(data_wires))
            for lab in labels[on]]
    cols = unitary[:, in_labels]
    matrix = np.zeros((1 << d, 1 << d), dtype=complex)
    matrix[rows, :] = cols[on, :]
    off = np.abs(cols[~on, :])
    return matrix, float(off.max()) if off.size else 0.0


def brute_action(circuit, data_wires):
    return restricted_action(brute_unitary(circuit), circuit.width, data_wires)


def dense_action(circuit, data_wires):
    """The same, read off the dense engine's full-register run (the dense
    engine itself only takes a permutation of all wires)."""
    unitary, residual = _dense_register_action(circuit, list(range(circuit.width)))
    assert residual == 0.0
    return restricted_action(unitary, circuit.width, data_wires)


SETTINGS = dict(derandomize=True, database=None, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@settings(max_examples=40, **SETTINGS)
@given(cases())
def test_sparse_dense_and_brute_force_agree(case):
    circuit, data = case
    m_sparse, r_sparse = _sparse_register_action(circuit, data)
    m_dense, r_dense = dense_action(circuit, data)
    m_brute, r_brute = brute_action(circuit, data)
    np.testing.assert_allclose(m_sparse, m_brute, rtol=0, atol=1e-12)
    np.testing.assert_allclose(m_dense, m_brute, rtol=0, atol=1e-12)
    assert abs(r_sparse - r_brute) < 1e-12
    assert abs(r_dense - r_brute) < 1e-12


@settings(max_examples=150, **SETTINGS)
@given(cases(max_gates=40))
def test_sparse_and_dense_agree_on_longer_circuits(case):
    circuit, data = case
    m_sparse, r_sparse = _sparse_register_action(circuit, data)
    m_dense, r_dense = dense_action(circuit, data)
    np.testing.assert_allclose(m_sparse, m_dense, rtol=0, atol=1e-12)
    assert abs(r_sparse - r_dense) < 1e-12


# The dense engine compiles a circuit into monomial layers (each maximal run
# of gates other than H and CH, plus the final relabeling, as one gather and
# one multiply) and H/CH butterflies.  The tests below pin the compiled
# program against the brute-force unitary.

BUTTERFLY = ("H", "CH")
MONOMIAL = tuple(k for k in ARITY if k not in BUTTERFLY)


@settings(max_examples=10, **SETTINGS)
@given(cases(min_width=8, max_gates=8), st.randoms(use_true_random=False))
def test_dense_engine_reuses_its_layers_across_batches(case, rnd):
    # width 8-10: 8-32 batches of _DENSE_BATCH (32) columns run through one
    # compiled program on two threads; the data register is a random order
    # of all wires
    circuit, _ = case
    data = list(range(circuit.width))
    rnd.shuffle(data)
    matrix, residual = _dense_register_action(circuit, data)
    want, _ = brute_action(circuit, data)
    np.testing.assert_allclose(matrix, want, rtol=0, atol=1e-12)
    assert residual == 0.0


@pytest.mark.parametrize("kinds", [MONOMIAL, BUTTERFLY], ids=["monomial", "butterfly"])
@settings(max_examples=30, **SETTINGS)
@given(data=st.data())
def test_one_layer_kind_agrees_with_brute_force(kinds, data):
    # without H/CH the whole circuit is one monomial layer; with only H/CH
    # it is butterflies and, at most, a relabeling
    circuit, wires = data.draw(cases(max_width=7, kinds=kinds))
    want = brute_unitary(circuit)
    np.testing.assert_allclose(unitary(circuit), want, rtol=0, atol=1e-12)
    for engine in (_sparse_register_action, dense_action):
        matrix, residual = engine(circuit, wires)
        m_want, r_want = restricted_action(want, circuit.width, wires)
        np.testing.assert_allclose(matrix, m_want, rtol=0, atol=1e-12)
        assert abs(residual - r_want) < 1e-12


@settings(max_examples=20, **SETTINGS)
@given(st.integers(1, 7).flatmap(lambda width: st.permutations(range(width))))
def test_relabeling_only_circuit_agrees_with_brute_force(perm):
    circuit = Circuit(len(perm), relabeling=tuple(perm))
    want = brute_unitary(circuit)
    matrix, _ = _dense_register_action(circuit, list(range(circuit.width)))
    np.testing.assert_array_equal(matrix, want)


@pytest.mark.parametrize("kind", sorted(ARITY))
@settings(max_examples=5, **SETTINGS)
@given(data=st.data())
def test_every_kind_through_every_entry_point(kind, data):
    circuit = Circuit(3, [data.draw(gates(3, (kind,)))])
    want = brute_unitary(circuit)
    for engine in (data_register_action, _sparse_register_action, _dense_register_action):
        matrix, residual = engine(circuit, [0, 1, 2])
        np.testing.assert_allclose(matrix, want, rtol=0, atol=1e-12)
        assert residual < 1e-12


H0, H1, S1 = Gate("H", targets=(0,)), Gate("H", targets=(1,)), Gate("S", targets=(1,))


@pytest.mark.parametrize("circuit", [
    # the scale an uncontrolled H leaves for later is applied at the end
    Circuit(2, [Gate("X", targets=(1,)), H0]),
    # or after a gather that multiplies no phase
    Circuit(3, [H0, H1], relabeling=(2, 0, 1)),
    # CH scales itself, between H on the same wires whose scale waits
    Circuit(2, [H0, Gate("CH", (0,), (1,)), H1, S1, Gate("CH", (1,), (0,)), H0, H1]),
    # more H than may wait unscaled (2^1050 would overflow), with and
    # without a phase between
    Circuit(1, [H0] * 2101),
    Circuit(2, [H0] * 70 + [S1] + [H1] * 61),
], ids=["ends-in-h", "h-then-relabel", "ch-among-h", "long-h-run", "long-h-runs-and-phase"])
def test_deferred_h_scale_agrees_with_brute_force(circuit):
    want = brute_unitary(circuit)
    matrix, _ = _dense_register_action(circuit, list(range(circuit.width)))
    np.testing.assert_allclose(matrix, want, rtol=0, atol=1e-12)


def _leaky(eps, rounds=1):
    """Data wire 0 untouched; ancilla 1 rotated off |0> by about eps/2 per
    round."""
    h = Gate("H", targets=(1,))
    return Circuit(2, [h, Gate("Phase", targets=(1,), angle=eps), h] * rounds,
                   ancillas=[1])


@pytest.mark.parametrize("eps", [1e-9, 1e-15])
def test_leak_is_reported_by_both_engines(eps):
    # at 1e-15 the leaked amplitude is below the pruning threshold: the
    # sparse engine drops it and reports it through the pruning bound
    circuit = _leaky(eps)
    for engine in (_sparse_register_action, dense_action):
        matrix, residual = engine(circuit, [0])
        assert residual >= eps / 4
        np.testing.assert_allclose(np.abs(matrix), np.eye(2), atol=1e-12)


def test_pruning_bound_covers_an_accumulated_leak():
    # 1000 rounds of a 5e-16 leak, each pruned on its own, add up coherently
    rounds, eps = 1000, 1e-15
    _, residual = _sparse_register_action(_leaky(eps, rounds), [0])
    assert residual >= 0.9 * math.sin(rounds * eps / 2)


def test_narrow_data_register_runs_sparse_past_the_width_cap():
    fan_out = Gate("CNOT", (0,), (39,))
    toffoli = Gate("Toffoli", (0, 1), (20,))
    circuit = Circuit(40, [Gate("H", targets=(0,)), fan_out, toffoli, toffoli, fan_out],
                      ancillas=range(2, 40))
    matrix, residual = data_register_action(circuit, [0, 1])
    want = np.kron(np.eye(2), np.array([[1, 1], [1, -1]]) / math.sqrt(2))
    np.testing.assert_allclose(matrix, want, atol=1e-15)
    assert residual < 1e-15
    with pytest.raises(ValueError, match="cap"):
        data_register_action(circuit, range(40))


@pytest.mark.parametrize("data_wires", [
    [0, 1, 1], [0, 2, 3], [2, 1, 0, 1],  # as wide as the circuit: dense
    [0, 0], [5], [-1],                   # narrower: sparse
])
def test_bad_data_wires_are_refused(data_wires):
    circuit = Circuit(3, (Gate("H", targets=(0,)),))
    with pytest.raises(ValueError, match="data wires"):
        data_register_action(circuit, data_wires)


def test_key_overflow_is_refused():
    circuit = Circuit(60, (Gate("X", targets=(59,)),))
    with pytest.raises(ValueError, match="int64"):
        data_register_action(circuit, [0, 1, 2])


def test_unknown_kind_is_refused_by_both_engines():
    gate = Gate("X", targets=(0,))
    object.__setattr__(gate, "kind", "Bogus")
    circuit = Circuit(2, (gate,))
    for engine in (_sparse_register_action, _dense_register_action):
        with pytest.raises(ValueError, match="Bogus"):
            engine(circuit, [0, 1])


CLASSICAL = ("X", "CNOT", "Toffoli", "MCX", "SWAP")


@st.composite
def classical_cases(draw, max_width=10, max_gates=12):
    """A random X/CNOT/Toffoli/MCX/SWAP circuit with an optional relabeling;
    when ``extra`` is drawn, one gate of another kind is inserted."""
    width = draw(st.integers(1, max_width))
    body = draw(st.lists(gates(width, CLASSICAL), max_size=max_gates))
    extra = draw(st.booleans())
    if extra:
        other = [k for k in ARITY if k not in CLASSICAL]
        body.insert(draw(st.integers(0, len(body))), draw(gates(width, other)))
    relabeling = None
    if draw(st.booleans()):
        relabeling = tuple(draw(st.permutations(range(width))))
    return Circuit(width, tuple(body), relabeling=relabeling), extra


@settings(max_examples=40, **SETTINGS)
@given(classical_cases())
def test_classical_image_agrees_with_brute_force(case):
    circuit, extra = case
    labels = np.arange(1 << circuit.width)
    if extra:
        with pytest.raises(ValueError, match="classical"):
            classical_image(circuit, labels)
        return
    # column j of the unitary is the basis vector at the predicted label
    image = classical_image(circuit, labels)
    want = np.zeros((1 << circuit.width,) * 2)
    want[image, labels] = 1.0
    np.testing.assert_array_equal(brute_unitary(circuit), want)


def test_classical_image_refuses_a_width_above_the_key_cap():
    circuit = Circuit(63, (Gate("X", targets=(62,)),))
    with pytest.raises(ValueError, match="cap"):
        classical_image(circuit, [0])
