"""The three routes behind ``data_register_action``: the product route,
which holds each column as a few product states, the support-sparse
engine, the dense one on the full register, and the dense one folded onto
a data register narrower than the circuit, against each other and against
the brute-force unitary, on random circuits; the circuits the folded
compile must refuse, a relabeled one among them, since only the sparse
route relabels; the route and term count of every oracle transform;
the sparse engine on every transform with ancillas, and on an H or CH
whose ancilla target is fresh or was last set by an X, CNOT, Toffoli or
SWAP; and
``gadgets.classical_map_error`` against the brute-force unitary on random
classical circuits."""
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from qrt_kit import cli, simcore
from qrt_kit.gadgets import classical_map_error
from qrt_kit.oracle import TransformSpec
from qrt_kit.simcore import _KINDS, Circuit, Gate, data_register_action

from helpers import (
    brute_unitary,
    folded_action,
    full_register,
    no_check,
    product_action,
    reference_matrix,
    sparse_action,
    unitary,
)

# The gate set as the random circuits draw it, read off the rows of _KINDS.
KINDS = tuple(_KINDS)
BUTTERFLY = tuple(k for k in KINDS if _KINDS[k].action == "H")
MONOMIAL = tuple(k for k in KINDS if k not in BUTTERFLY)
CLASSICAL = tuple(k for k in KINDS if _KINDS[k].action in ("X", "SWAP"))
DIAGONAL = tuple(k for k in KINDS if callable(_KINDS[k].action)
                 or _KINDS[k].action == "GlobalPhase")
FLIPS = tuple(k for k in KINDS if _KINDS[k].action in ("X", "H"))


def arity(kind):
    """(controls, targets) of a gate of the kind."""
    return _KINDS[kind].controls, _KINDS[kind].targets


@st.composite
def gates(draw, wires, kinds=KINDS):
    """A gate of one of ``kinds`` on distinct wires drawn from ``wires``."""
    kind = draw(st.sampled_from(
        [k for k in kinds if sum(arity(k)) <= len(wires)]))
    n_ctrl, n_tgt = arity(kind)
    ops = draw(st.permutations(wires))[:n_ctrl + n_tgt]
    angle = None
    if _KINDS[kind].takes_angle:
        angle = draw(st.floats(-2 * math.pi, 2 * math.pi))
    return Gate(kind, tuple(ops[:n_ctrl]), tuple(ops[n_ctrl:]), angle)


@st.composite
def cases(draw, max_width=10, max_gates=12, min_width=1, kinds=KINDS):
    """A random circuit over the given gate kinds, optionally followed by
    its own inverse (so ancillas come back clean through exact
    cancellations), with an optional relabeling, and a random data
    register: the lowest wires, with the ancillas above it."""
    width = draw(st.integers(min_width, max_width))
    body = draw(st.lists(gates(range(width), kinds), max_size=max_gates))
    if draw(st.booleans()):
        body += [g.inverse() for g in reversed(body)]
    relabeling = None
    if draw(st.booleans()):
        relabeling = tuple(draw(st.permutations(range(width))))
    d = draw(st.integers(0, width))
    return Circuit(width, tuple(body), range(d, width), relabeling)


def restricted_action(unitary, d):
    """(matrix, residual) of data_register_action on data wires 0..d-1, read
    off a full unitary: the data-register block with every other wire at
    |0>, and the largest amplitude those columns put outside that
    subspace."""
    cols = unitary[:, :1 << d]
    off = np.abs(cols[1 << d:])
    return cols[:1 << d], float(off.max()) if off.size else 0.0


def brute_action(circuit):
    return restricted_action(brute_unitary(circuit), len(circuit.data_wires))


def dense_action(circuit):
    """The same, read off the dense engine's run on every wire, which the
    compile takes unless the circuit has a final relabeling."""
    unitary, residual = folded_action(full_register(circuit))
    assert residual == 0.0
    return restricted_action(unitary, len(circuit.data_wires))


def assert_relabeled_runs_sparse(circuit, want=None):
    """Only the sparse route relabels: the dense compile, on the data
    register and on every wire, and the product compile refuse a circuit
    with a final relabeling, and ``data_register_action``, which runs it
    sparse, agrees with ``want`` (by default the brute-force action).
    Returns that action."""
    assert circuit.relabeling is not None
    assert folded_action(circuit) is None
    assert folded_action(full_register(circuit)) is None
    assert product_action(circuit) is None
    m_want, r_want = brute_action(circuit) if want is None else want
    matrix, residual = data_register_action(circuit)
    np.testing.assert_allclose(matrix, m_want, rtol=0, atol=1e-12)
    assert abs(residual - r_want) < 1e-12
    return matrix, residual


def assert_folded_agrees(circuit, matrix, residual):
    """The folded route, where its compile takes the circuit, against
    ``(matrix, residual)``; returns whether it ran."""
    folded = folded_action(circuit)
    if folded is not None:
        np.testing.assert_allclose(folded[0], matrix, rtol=0, atol=1e-12)
        assert abs(folded[1] - residual) < 1e-12
    return folded is not None


def assert_product_agrees(circuit, matrix, residual):
    """The product route, where its compile takes the circuit, against
    ``(matrix, residual)``; returns whether it ran."""
    product = product_action(circuit)
    if product is not None:
        np.testing.assert_allclose(product[0], matrix, rtol=0, atol=1e-12)
        assert abs(product[1] - residual) < 1e-12
    return product is not None


SETTINGS = dict(derandomize=True, database=None, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@settings(max_examples=40, **SETTINGS)
@given(cases())
def test_sparse_dense_and_brute_force_agree(circuit):
    m_sparse, r_sparse = sparse_action(circuit)
    m_brute, r_brute = brute_action(circuit)
    np.testing.assert_allclose(m_sparse, m_brute, rtol=0, atol=1e-12)
    assert abs(r_sparse - r_brute) < 1e-12
    if circuit.relabeling is not None:
        assert_relabeled_runs_sparse(circuit, (m_brute, r_brute))
        return
    m_dense, r_dense = dense_action(circuit)
    np.testing.assert_allclose(m_dense, m_brute, rtol=0, atol=1e-12)
    assert abs(r_dense - r_brute) < 1e-12
    assert_folded_agrees(circuit, m_brute, r_brute)
    assert_product_agrees(circuit, m_brute, r_brute)


@settings(max_examples=150, **SETTINGS)
@given(cases(max_gates=40))
def test_sparse_and_dense_agree_on_longer_circuits(circuit):
    m_sparse, r_sparse = sparse_action(circuit)
    if circuit.relabeling is not None:
        matrix, residual = assert_relabeled_runs_sparse(circuit)
        np.testing.assert_allclose(m_sparse, matrix, rtol=0, atol=1e-12)
        assert abs(r_sparse - residual) < 1e-12
        return
    m_dense, r_dense = dense_action(circuit)
    np.testing.assert_allclose(m_sparse, m_dense, rtol=0, atol=1e-12)
    assert abs(r_sparse - r_dense) < 1e-12
    assert_folded_agrees(circuit, m_dense, r_dense)
    assert_product_agrees(circuit, m_dense, r_dense)


# The product route holds each column as at most simcore._MAX_TERMS product
# states.  Its compile refuses a circuit that would need more, or that puts
# an ancilla in superposition; every circuit below that it takes must agree
# with the brute-force unitary and with the dense engine on every wire.

def assert_product_route_is_right(circuit):
    m_brute, r_brute = brute_action(circuit)
    assert assert_product_agrees(circuit, m_brute, r_brute)
    m_dense, r_dense = dense_action(circuit)
    np.testing.assert_allclose(m_dense, m_brute, rtol=0, atol=1e-12)
    assert abs(r_dense - r_brute) < 1e-12


@settings(max_examples=80, **SETTINGS)
@given(cases(max_width=7, max_gates=16))
def test_product_route_agrees_with_brute_force_and_dense(circuit):
    assume(simcore._product_program(circuit, len(circuit.data_wires)) is not None)
    assert_product_route_is_right(circuit)


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=10, **SETTINGS)
@given(data=st.data())
def test_product_route_runs_every_kind_on_superposed_and_classical_wires(kind, data):
    # H makes a drawn set of wires superposed, X sets some of the others;
    # the gate then splits on at most its two controls (4 terms), and a
    # closing layer of H mixes what it left classical
    width = data.draw(st.integers(max(1, sum(arity(kind))), 4))
    superposed = data.draw(st.sets(st.sampled_from(range(width))))
    flipped = data.draw(st.sets(st.sampled_from(range(width))))
    closing = data.draw(st.sets(st.sampled_from(range(width))))
    body = ([Gate("H", targets=(w,)) for w in sorted(superposed)]
            + [Gate("X", targets=(w,)) for w in sorted(flipped - superposed)]
            + [data.draw(gates(range(width), (kind,)))]
            + [Gate("H", targets=(w,)) for w in sorted(closing)])
    assert_product_route_is_right(Circuit(width, body))


H = {w: Gate("H", targets=(w,)) for w in range(4)}
PRODUCT_CASES = {
    "ch-with-a-superposed-control": Circuit(2, [H[0], Gate("CH", (0,), (1,))]),
    "ch-with-both-superposed": Circuit(2, [H[0], H[1], Gate("CH", (0,), (1,))]),
    "cphase-with-both-superposed": Circuit(2, [H[0], H[1], Gate("CPhase", (0,), (1,), 0.7)]),
    "cs-with-both-superposed": Circuit(2, [H[0], H[1], Gate("CS", (1,), (0,))]),
    "csdg-with-both-superposed": Circuit(2, [H[0], H[1], Gate("CSdg", (0,), (1,))]),
    # wire 1 then holds the factor, wire 0 the bit wire 1 had
    "swap-of-a-superposed-and-a-classical-wire": Circuit(3, [
        H[0], Gate("SWAP", targets=(0, 1)), Gate("S", targets=(1,)),
        Gate("CNOT", (0,), (2,)), Gate("CPhase", (0,), (1,), 0.3)]),
    "x-on-a-superposed-wire": Circuit(2, [H[0], Gate("X", targets=(0,)), Gate("CH", (1,), (0,))]),
    # wire 0 holds x0 ^ x1 when the H comes
    "h-on-a-wire-that-differs-per-column": Circuit(2, [Gate("CNOT", (1,), (0,)), H[0]]),
    "toffoli-with-superposed-controls": Circuit(3, [H[0], H[1], Gate("Toffoli", (0, 1), (2,)), H[2]]),
}


@pytest.mark.parametrize("name", sorted(PRODUCT_CASES))
def test_product_route_on_each_split_and_factor_rule(name):
    assert_product_route_is_right(PRODUCT_CASES[name])


def test_product_route_reports_the_dense_engines_leak():
    # ancilla 2 ends at x0: set in half the columns, with data wire 1 mixed
    circuit = Circuit(3, [H[1], Gate("CNOT", (0,), (2,)), Gate("S", targets=(1,))], ancillas=[2])
    product, dense = product_action(circuit), folded_action(circuit)
    np.testing.assert_allclose(product[0], dense[0], rtol=0, atol=1e-12)
    assert dense[1] > 0.5
    assert abs(product[1] - dense[1]) < 1e-12
    assert_product_route_is_right(circuit)


def test_product_route_sums_the_leak_of_terms_that_meet():
    # the split on wire 1 leaves ancilla 2 set in one of two terms, and the
    # last H spreads each term over both values of wire 1
    circuit = Circuit(3, [H[1], Gate("CNOT", (1,), (2,)), H[1]], ancillas=[2])
    assert route(circuit) == ("product", 2)
    assert_product_route_is_right(circuit)
    assert abs(product_action(circuit)[1] - 0.5) < 1e-12


LEAKS = {
    # four terms whose ancilla labels 0, 4, 8 and 12 differ: leak rows apart
    "distinct-ancilla-labels": Circuit(4, [H[0], H[1], Gate("CNOT", (0,), (2,)),
                                           Gate("CNOT", (1,), (3,)), H[0], H[1]], ancillas=[2, 3]),
    # two terms that both leave ancilla 2 set and meet on the same rows
    "shared-ancilla-label": Circuit(3, [Gate("X", targets=(2,)), H[0], Gate("CNOT", (0,), (1,)),
                                        H[0], H[1]], ancillas=[2]),
}


@pytest.mark.parametrize("name", sorted(LEAKS))
def test_product_route_groups_the_leak_by_ancilla_label(name):
    circuit = LEAKS[name]
    assert route(circuit)[0] == "product"
    assert_product_route_is_right(circuit)


@pytest.mark.parametrize("name", ["qft", "qct3", "qct4"])
@pytest.mark.parametrize("n", [3, 5])
def test_product_chunks_match_one_chunk_exactly(name, n):
    circuit = cli.build_transform(name, n)
    dim = 1 << len(circuit.data_wires)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simcore, "_DENSE_BATCH", dim)
        whole, residual = product_action(circuit)
        for batch, blocks in ((1, 1), (3, 2), (32, 16)):
            patch.setattr(simcore, "_DENSE_BATCH", batch)
            patch.setattr(simcore, "_PRODUCT_BLOCKS", blocks)
            starts = [start for start, _, _ in simcore.data_register_chunks(circuit, no_check)]
            assert starts == list(range(0, dim, batch))
            chunked, chunked_residual = product_action(circuit)
            assert np.array_equal(chunked, whole)
            assert chunked_residual == residual == 0.0


# The folded route: the dense engine on 2^d rows, one per data-register
# value, whose ancilla bits the compile tracks as classical functions of the
# data.  The circuits below are built so that its three rules hold: the
# ancillas are computed from a set of data wires that no later gate flips,
# and every H, CH and other flip targets one of the remaining data wires.
# None has a final relabeling, which the compile refuses.

@st.composite
def gate_onto(draw, targets, controls):
    """A flip or butterfly onto one of ``targets``, controlled by wires of
    ``controls``; X when there are too few controls."""
    target = draw(st.sampled_from(targets))
    pool = [w for w in controls if w != target]
    kind = draw(st.sampled_from(FLIPS))
    k = _KINDS[kind].controls
    if k > len(pool):
        kind, k = "X", 0
    wires = draw(st.permutations(pool))[:k]
    return Gate(kind, tuple(wires), (target,))


@st.composite
def folded_cases(draw, max_width=8, max_gates=12):
    width = draw(st.integers(2, max_width))
    d = draw(st.integers(1, width - 1))
    data, ancillas = draw(st.permutations(range(d))), list(range(d, width))
    fixed = data[:draw(st.integers(0, d - 1))]  # the data the ancillas read
    free = data[len(fixed):]
    compute = draw(st.lists(
        gate_onto(ancillas, fixed + ancillas).filter(lambda g: g.kind not in BUTTERFLY),
        max_size=max_gates))
    middle = draw(st.lists(st.one_of(gate_onto(free, range(width)), gate_onto(free, ancillas),
                                     gates(range(width), DIAGONAL)), max_size=max_gates))
    body = compute + middle
    if draw(st.booleans()):
        body += [g.inverse() for g in reversed(compute)]
    return Circuit(width, tuple(body), ancillas)


@settings(max_examples=60, **SETTINGS)
@given(folded_cases())
def test_folded_sparse_and_brute_force_agree(circuit):
    m_brute, r_brute = brute_action(circuit)
    assert assert_folded_agrees(circuit, m_brute, r_brute)
    m_sparse, r_sparse = sparse_action(circuit)
    np.testing.assert_allclose(m_sparse, m_brute, rtol=0, atol=1e-12)
    assert abs(r_sparse - r_brute) < 1e-12


@settings(max_examples=20, **SETTINGS)
@given(folded_cases())
def test_folded_chunks_of_random_circuits_match_one_chunk_exactly(circuit):
    dim = 1 << len(circuit.data_wires)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simcore, "_DENSE_BATCH", dim)
        whole, residual = folded_action(circuit)
        for batch in (1, 3, 32):
            patch.setattr(simcore, "_DENSE_BATCH", batch)
            starts = [start for start, _, _ in simcore.data_register_chunks(circuit, no_check)]
            assert starts == list(range(0, dim, batch))
            chunked, chunked_residual = folded_action(circuit)
            assert np.array_equal(chunked, whole)
            assert chunked_residual == residual


# Each pattern below breaks one rule of the folded compile, on ancilla
# ``a``, data wire ``x`` and any other wire ``y``: the circuit must fall
# back to the sparse engine, which still gets it right.
BREAKERS = {
    "h-on-ancilla": lambda a, x, y: [Gate("H", targets=(a,))],
    "ch-on-ancilla": lambda a, x, y: [Gate("CH", (y,), (a,))],
    # x ends at 0 on every row: the run is not one to one on the rows
    "run-not-one-to-one": lambda a, x, y: [Gate("CNOT", (x,), (a,)), Gate("CNOT", (a,), (x,)),
                                           Gate("H", targets=(x,))],
    # a holds x, so each pair the butterfly on x mixes differs in a
    "ch-partners-differ": lambda a, x, y: [Gate("CNOT", (x,), (a,)), Gate("CH", (a,), (x,))],
    "h-partners-differ": lambda a, x, y: [Gate("Toffoli", (x, y), (a,)), Gate("H", targets=(x,))],
}


@pytest.mark.parametrize("pattern", sorted(BREAKERS))
@settings(max_examples=12, **SETTINGS)
@given(data=st.data())
def test_rule_breakers_fall_back_and_agree_with_brute_force(pattern, data):
    width = data.draw(st.integers(3, 7))
    d = data.draw(st.integers(2, width - 1))
    x, y, *low = data.draw(st.permutations(range(d)))
    a, *high = data.draw(st.permutations(range(d, width)))
    rest = low + high
    before = data.draw(st.lists(gates(rest), max_size=6)) if rest else []
    body = before + BREAKERS[pattern](a, x, y) + data.draw(st.lists(gates(range(width)), max_size=6))
    if data.draw(st.booleans()):
        body += [g.inverse() for g in reversed(body)]
    circuit = Circuit(width, tuple(body), range(d, width))
    assert simcore._layers(circuit, d) is None
    assert folded_action(circuit) is None
    matrix, residual = data_register_action(circuit)
    m_brute, r_brute = brute_action(circuit)
    np.testing.assert_allclose(matrix, m_brute, rtol=0, atol=1e-12)
    assert abs(residual - r_brute) < 1e-12


# The route of every oracle transform, with the term count of the product
# route: the QFT holds each column as one product state, and the Type III
# and IV circuits split it once on the control before the QFT and once
# after.  The other cosine and sine circuits need more than _MAX_TERMS
# terms (qst1-opt from n = 3 on: at n = 2 its 8 terms fit) and run dense;
# the Hartley pair puts its ancillas in superposition and stays sparse.
ROUTES = {"qft": ("product", 1), "qct3": ("product", 4), "qst3": ("product", 4),
          "qct4": ("product", 4), "qst4": ("product", 4), "qct1": ("dense", None),
          "qst1": ("dense", None), "qct2": ("dense", None), "qst2": ("dense", None),
          "qst1-opt": ("dense", None), "qht-lcu": ("sparse", None), "qht-rec": ("sparse", None)}


def route(circuit):
    """The route ``data_register_chunks`` takes, as ``simcore._route``
    names it, and the product route's term count."""
    d = len(circuit.data_wires)
    name, _, _ = simcore._route(circuit, d)
    return name, simcore._product_program(circuit, d)[1] if name == "product" else None


@pytest.mark.parametrize("name", cli.TRANSFORMS[:12])
def test_engine_choice_on_every_oracle_transform(name):
    assert sorted(ROUTES) == sorted(cli.TRANSFORMS[:12])
    for n in range(2, 8):
        circuit = cli.build_transform(name, n)
        want = ("product", 8) if (name, n) == ("qst1-opt", 2) else ROUTES[name]
        assert route(circuit) == want, n
        if name in cli._INCORRECT_D2:
            assert route(cli.build_transform(name, n, incorrect_d2=True)) == want, n
        if want[0] == "product" and n <= 5:
            assert data_register_action(circuit)[1] == 0.0


# The sparse engine runs each H and CH as a merge, which pairs the entries
# that differ in the target bit and sums the pairs that meet.  Each pattern
# below puts an H or CH on ancilla ``a`` in a different relation to the
# chunk's keys: fresh, set, a copy of data wire ``x``, a function of ``x``
# and ``y``, or swapped with ``x``; wire ``x`` is a data wire, ``y`` any
# other wire, and the random gates before the pattern leave all three
# alone.

BOUNDARY = {
    "h-on-fresh": lambda a, x, y: [Gate("H", targets=(a,))],
    "x-then-h": lambda a, x, y: [Gate("X", targets=(a,)), Gate("H", targets=(a,))],
    "cnot-then-h": lambda a, x, y: [Gate("CNOT", (x,), (a,)), Gate("H", targets=(a,))],
    "toffoli-then-h": lambda a, x, y: [Gate("Toffoli", (x, y), (a,)), Gate("H", targets=(a,))],
    "swap-then-h": lambda a, x, y: [Gate("SWAP", targets=(a, x)), Gate("H", targets=(a,))],
    "ch-on-fresh": lambda a, x, y: [Gate("CH", (x,), (a,))],
}


@st.composite
def boundary_cases(draw, pattern):
    """A circuit of width 3-7: random gates on the wires other than a, x
    and y, the pattern, random gates on any wires, and optionally all of
    it undone; a data register that holds x and not a."""
    width = draw(st.integers(3, 7))
    d = draw(st.integers(1, width - 1))
    x, *low = draw(st.permutations(range(d)))
    a, *high = draw(st.permutations(range(d, width)))
    y, *rest = draw(st.permutations(low + high))
    before = draw(st.lists(gates(rest), max_size=6)) if rest else []
    body = before + BOUNDARY[pattern](a, x, y)
    body += draw(st.lists(gates(range(width)), max_size=6))
    if draw(st.booleans()):
        body += [g.inverse() for g in reversed(body)]
    return Circuit(width, tuple(body), range(d, width))


@pytest.mark.parametrize("chunk_bits", [None, 1, 2], ids=["one-chunk", "chunks-of-2", "chunks-of-4"])
@pytest.mark.parametrize("pattern", sorted(BOUNDARY))
@settings(max_examples=12, **SETTINGS)
@given(data=st.data())
def test_split_boundary_agrees_with_dense_and_brute_force(pattern, chunk_bits, data):
    circuit = data.draw(boundary_cases(pattern))
    with pytest.MonkeyPatch.context() as patch:
        if chunk_bits is not None:  # chunks of at most 2^chunk_bits columns
            patch.setattr(simcore, "_sparse_chunk_bits", lambda d: min(d, chunk_bits))
        m_sparse, r_sparse = sparse_action(circuit)
    m_dense, r_dense = dense_action(circuit)
    m_brute, r_brute = brute_action(circuit)
    np.testing.assert_allclose(m_sparse, m_brute, rtol=0, atol=1e-12)
    np.testing.assert_allclose(m_dense, m_brute, rtol=0, atol=1e-12)
    assert abs(r_sparse - r_brute) < 1e-12
    assert abs(r_dense - r_brute) < 1e-12


# Every transform with ancillas, on the sparse engine against the route
# data_register_action takes: the product or dense route for all but the
# Hartley pair, which runs sparse there and is held to the DHT oracle at
# the 1e-10 of tests/test_hartley.py instead.
SPARSE_CIRCUITS = {f"{name}-{n}": circuit for name in cli.TRANSFORMS for n in range(2, 8)
                   if len((circuit := cli.build_transform(name, n)).data_wires) < circuit.width}


@pytest.mark.parametrize("name", sorted(SPARSE_CIRCUITS))
def test_split_tags_hold_on_every_sparse_transform(name):
    circuit = SPARSE_CIRCUITS[name]
    m_sparse, r_sparse = sparse_action(circuit)
    d = len(circuit.data_wires)
    if simcore._route(circuit, d)[0] == "sparse":
        np.testing.assert_allclose(m_sparse, reference_matrix(TransformSpec("DHT", 1 << d)),
                                   rtol=0, atol=1e-10)
        assert r_sparse < 1e-10
        return
    matrix, residual = data_register_action(circuit)
    np.testing.assert_allclose(m_sparse, matrix, rtol=0, atol=1e-12)
    assert abs(r_sparse - residual) < 1e-12


# The dense engine compiles a circuit into monomial layers (each maximal run
# of gates other than H and CH as one gather and one multiply) and H/CH
# butterflies.  The tests below pin the compiled program against the
# brute-force unitary; a relabeled draw, which the compile refuses, runs
# sparse.

@settings(max_examples=10, **SETTINGS)
@given(cases(min_width=8, max_gates=8))
def test_dense_engine_reuses_its_layers_across_batches(circuit):
    # width 8-10: 8-32 batches of _DENSE_BATCH (32) columns run through one
    # compiled program on two threads; the data register is every wire
    circuit = full_register(circuit)
    if circuit.relabeling is not None:
        assert_relabeled_runs_sparse(circuit)
        return
    matrix, residual = folded_action(circuit)
    want, _ = brute_action(circuit)
    np.testing.assert_allclose(matrix, want, rtol=0, atol=1e-12)
    assert residual == 0.0


@pytest.mark.parametrize("kinds", [MONOMIAL, BUTTERFLY], ids=["monomial", "butterfly"])
@settings(max_examples=30, **SETTINGS)
@given(data=st.data())
def test_one_layer_kind_agrees_with_brute_force(kinds, data):
    # without H/CH the whole circuit is one monomial layer; with only H/CH
    # it is butterflies; a relabeled draw runs sparse only
    circuit = data.draw(cases(max_width=7, kinds=kinds))
    want = brute_unitary(circuit)
    np.testing.assert_allclose(unitary(circuit), want, rtol=0, atol=1e-12)
    m_want, r_want = restricted_action(want, len(circuit.data_wires))
    engines = [sparse_action]
    if circuit.relabeling is None:
        engines.append(dense_action)
    else:
        assert_relabeled_runs_sparse(circuit, (m_want, r_want))
    for engine in engines:
        matrix, residual = engine(circuit)
        np.testing.assert_allclose(matrix, m_want, rtol=0, atol=1e-12)
        assert abs(residual - r_want) < 1e-12


@settings(max_examples=20, **SETTINGS)
@given(st.integers(1, 7).flatmap(lambda width: st.permutations(range(width))))
def test_relabeling_only_circuit_agrees_with_brute_force(perm):
    circuit = Circuit(len(perm), relabeling=tuple(perm))
    want = brute_unitary(circuit)
    matrix, _ = assert_relabeled_runs_sparse(circuit, (want, 0.0))
    np.testing.assert_array_equal(matrix, want)


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=5, **SETTINGS)
@given(data=st.data())
def test_every_kind_through_every_entry_point(kind, data):
    circuit = Circuit(3, [data.draw(gates(range(3), (kind,)))])
    want = brute_unitary(circuit)
    for engine in (data_register_action, sparse_action, folded_action):
        matrix, residual = engine(circuit)
        np.testing.assert_allclose(matrix, want, rtol=0, atol=1e-12)
        assert residual < 1e-12


H0, H1, S1 = Gate("H", targets=(0,)), Gate("H", targets=(1,)), Gate("S", targets=(1,))


@pytest.mark.parametrize("circuit", [
    # the scale an uncontrolled H leaves for later is applied at the end
    Circuit(2, [Gate("X", targets=(1,)), H0]),
    # or after a gather that multiplies no phase
    Circuit(3, [H0, H1, Gate("SWAP", targets=(0, 2))]),
    # CH scales itself, between H on the same wires whose scale waits
    Circuit(2, [H0, Gate("CH", (0,), (1,)), H1, S1, Gate("CH", (1,), (0,)), H0, H1]),
    # more H than may wait unscaled (2^1050 would overflow), with and
    # without a phase between
    Circuit(1, [H0] * 2101),
    Circuit(2, [H0] * 70 + [S1] + [H1] * 61),
], ids=["ends-in-h", "h-then-swap", "ch-among-h", "long-h-run", "long-h-runs-and-phase"])
def test_deferred_h_scale_agrees_with_brute_force(circuit):
    want = brute_unitary(circuit)
    matrix, _ = folded_action(circuit)
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
    for engine in (sparse_action, dense_action):
        matrix, residual = engine(circuit)
        assert residual >= eps / 4
        np.testing.assert_allclose(np.abs(matrix), np.eye(2), atol=1e-12)


def test_pruning_bound_covers_an_accumulated_leak():
    # 1000 rounds of a 5e-16 leak, each pruned on its own, add up coherently
    rounds, eps = 1000, 1e-15
    _, residual = sparse_action(_leaky(eps, rounds))
    assert residual >= 0.9 * math.sin(rounds * eps / 2)


def test_narrow_data_register_runs_sparse_past_the_width_cap():
    fan_out = Gate("CNOT", (0,), (39,))
    toffoli = Gate("Toffoli", (0, 1), (20,))
    circuit = Circuit(40, [Gate("H", targets=(0,)), fan_out, toffoli, toffoli, fan_out],
                      ancillas=range(2, 40))
    want = np.kron(np.eye(2), np.array([[1, 1], [1, -1]]) / math.sqrt(2))
    # the folded route takes it too, and runs on 2^2 rows
    for engine in (data_register_action, sparse_action):
        matrix, residual = engine(circuit)
        np.testing.assert_allclose(matrix, want, atol=1e-15)
        assert residual < 1e-15
    with pytest.raises(ValueError, match="cap"):
        data_register_action(full_register(circuit))


def test_key_overflow_is_refused():
    circuit = Circuit(60, (Gate("X", targets=(59,)),), range(3, 60))
    with pytest.raises(ValueError, match="int64"):
        sparse_action(circuit)


@st.composite
def classical_cases(draw, max_width=10, max_gates=12):
    """A random X/CNOT/Toffoli/SWAP circuit with an optional relabeling;
    when ``extra`` is drawn, one gate of another kind is inserted."""
    width = draw(st.integers(1, max_width))
    body = draw(st.lists(gates(range(width), CLASSICAL), max_size=max_gates))
    extra = draw(st.booleans())
    if extra:
        other = [k for k in KINDS if k not in CLASSICAL]
        body.insert(draw(st.integers(0, len(body))), draw(gates(range(width), other)))
    relabeling = None
    if draw(st.booleans()):
        relabeling = tuple(draw(st.permutations(range(width))))
    return Circuit(width, tuple(body), relabeling=relabeling), extra


@settings(max_examples=40, **SETTINGS)
@given(classical_cases(), st.data())
def test_classical_map_error_agrees_with_brute_force(case, data):
    circuit, extra = case
    if extra:
        with pytest.raises(ValueError, match="classical"):
            classical_map_error(circuit, circuit.width, lambda labels: labels)
        return
    # the brute-force unitary is a permutation matrix: column j is the
    # basis vector at the image of label j
    labels, brute = np.arange(1 << circuit.width), brute_unitary(circuit)
    image = np.argmax(np.abs(brute), axis=0)
    want = np.zeros((1 << circuit.width,) * 2)
    want[image, labels] = 1.0
    np.testing.assert_array_equal(brute, want)
    assert classical_map_error(circuit, circuit.width, lambda x: image[x]) == (0.0, 0.0)
    perturbed = image.copy()
    perturbed[data.draw(st.sampled_from(labels))] ^= 1 << data.draw(st.integers(0, circuit.width - 1))
    assert classical_map_error(circuit, circuit.width, lambda x: perturbed[x])[0] == 1.0


def test_classical_map_error_refuses_a_width_above_the_key_cap():
    # refused before the 2^63 labels of its inputs are allocated
    circuit = Circuit(63, (Gate("X", targets=(62,)),))
    with pytest.raises(ValueError, match="cap"):
        classical_map_error(circuit, 63, lambda labels: labels)
