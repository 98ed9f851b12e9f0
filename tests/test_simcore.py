"""Simulator, circuit IR, inverse, gate counting and the textual format."""
import math
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import helpers
import test_golden_builders as golden_builders
from qrt_kit import cli
from qrt_kit.simcore import (
    _KINDS,
    MAX_WIDTH,
    Circuit,
    Gate,
    _basis_columns,
    _layers,
    _run_flat,
    count_gates,
    data_register_action,
    export_circuit,
    inverse,
    parse_circuit,
)

from helpers import REFERENCE_MATRICES, brute_unitary, unitary

RNG = np.random.default_rng(1234)


def random_circuit(width, n_gates, rng, allow_relabel=False):
    """Gates of every kind of ``_KINDS``, each with the controls, targets and
    angle its row asks for (an MCX with two controls); a gate wider than
    the circuit is skipped."""
    gates = []
    for _ in range(n_gates):
        kind = rng.choice(list(_KINDS))
        n_ctrl, n_tgt, takes_angle, _, _ = _KINDS[kind]
        n_ctrl = 2 if n_ctrl is None else n_ctrl
        theta = float(rng.uniform(-2 * math.pi, 2 * math.pi))
        need = n_ctrl + n_tgt
        if need > width:
            continue
        wires = rng.choice(width, size=need, replace=False).tolist() if need else []
        gates.append(Gate(kind, tuple(wires[:n_ctrl]), tuple(wires[n_ctrl:]),
                          theta if takes_angle else None))
    relab = None
    if allow_relabel:
        relab = tuple(rng.permutation(width).tolist())
    return Circuit(width, gates, relabeling=relab)


# ---------------------------------------------------------------------------
# engine vs brute force
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_engine_matches_brute_force(width):
    for trial in range(6):
        circ = random_circuit(width, 12, RNG, allow_relabel=(trial % 2 == 0))
        got = unitary(circ)
        want = brute_unitary(circ)
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_reference_matrices_name_every_kind():
    # a kind enters the gate set only with a reference matrix of its own
    assert sorted(REFERENCE_MATRICES) == sorted(_KINDS)


# ---------------------------------------------------------------------------
# single gates
# ---------------------------------------------------------------------------


def test_hadamard_on_zero():
    out = unitary(Circuit(1, [Gate("H", targets=(0,))]))[:, 0]
    np.testing.assert_allclose(out, np.array([1, 1]) / math.sqrt(2), atol=1e-15)


def test_cnot_control_one_target_zero():
    # |q1 q0> = |10> -> |11>
    out = unitary(Circuit(2, [Gate("CNOT", (1,), (0,))]))[:, 0b10]
    np.testing.assert_allclose(out, [0, 0, 0, 1], atol=1e-15)


def test_global_phase_scales_everything():
    np.testing.assert_allclose(unitary(Circuit(1, [Gate("GlobalPhase", angle=math.pi / 4)])),
                               np.exp(1j * math.pi / 4) * np.eye(2), atol=1e-15)


# ---------------------------------------------------------------------------
# whole circuits
# ---------------------------------------------------------------------------


def test_empty_circuit_is_identity():
    np.testing.assert_array_equal(unitary(Circuit(3)), np.eye(8))


def test_double_hadamard_is_identity():
    h = Gate("H", targets=(0,))
    np.testing.assert_allclose(unitary(Circuit(1, [h, h])), np.eye(2), atol=1e-15)


def test_parallel_x_gates():
    circ = Circuit(2, [Gate("X", targets=(0,)), Gate("X", targets=(1,))])
    np.testing.assert_allclose(unitary(circ)[:, 0], [0, 0, 0, 1], atol=1e-15)


def test_relabeling_moves_wire_content():
    # content of wire 0 ends up on wire 1
    circ = Circuit(2, [Gate("X", targets=(0,))], relabeling=(1, 0))
    np.testing.assert_allclose(unitary(circ)[:, 0], [0, 0, 1, 0], atol=1e-15)


def test_relabeling_matches_permutation_matrix():
    rng = np.random.default_rng(7)
    for _ in range(4):
        base = random_circuit(3, 8, rng)
        perm = tuple(rng.permutation(3).tolist())
        relabeled = Circuit(3, base.gates, relabeling=perm)
        got = unitary(relabeled)
        np.testing.assert_allclose(got, brute_unitary(relabeled), atol=1e-12)


# ---------------------------------------------------------------------------
# full unitaries
# ---------------------------------------------------------------------------


def test_unitary_single_hadamard():
    np.testing.assert_allclose(unitary(Circuit(1, [Gate("H", targets=(0,))])),
                               np.array([[1, 1], [1, -1]]) / math.sqrt(2), atol=1e-15)


def test_unitary_swap():
    circ = Circuit(2, [Gate("SWAP", targets=(0, 1))])
    want = np.eye(4)[[0, 2, 1, 3]]
    np.testing.assert_allclose(unitary(circ), want, atol=1e-15)


def test_unitary_qft2_formula():
    # oracle: direct evaluation of omega_4^{a y} / 2
    from qrt_kit.qft import build_qft
    want = np.array([[np.exp(2j * np.pi * a * y / 4) for y in range(4)]
                     for a in range(4)]).T / 2.0
    # the DFT matrix is symmetric, so orientation does not matter here
    np.testing.assert_allclose(unitary(build_qft(2)), want, atol=1e-12)


def test_norm_preserved_on_random_circuits():
    rng = np.random.default_rng(5)
    for trial in range(100):
        width = int(rng.integers(1, 7))
        circ = random_circuit(width, 10, rng)
        amps = rng.normal(size=1 << width) + 1j * rng.normal(size=1 << width)
        amps /= np.linalg.norm(amps)
        assert abs(np.linalg.norm(unitary(circ) @ amps) - 1.0) < 1e-10


def test_batched_columns_agree_with_single_runs():
    rng = np.random.default_rng(77)
    for _ in range(4):
        circ = random_circuit(4, 12, rng, allow_relabel=True)
        U = unitary(circ)  # all 16 columns in one batch
        layers, _ = _layers(circ, 4)
        for value in range(16):
            out = _run_flat(_basis_columns(16, [value]), layers)  # a batch of one
            np.testing.assert_allclose(U[:, value], out[:, 0], atol=1e-12)


def test_data_register_action_agrees_with_unitary_block():
    rng = np.random.default_rng(78)
    circ = random_circuit(3, 10, rng)  # no ancillas: action = full unitary
    matrix, residual = data_register_action(circ)
    np.testing.assert_allclose(matrix, brute_unitary(circ), atol=1e-12)
    assert residual == 0.0


# ---------------------------------------------------------------------------
# adjoint: the inverse of a gate fragment
# ---------------------------------------------------------------------------


def test_adjoint_s_gate():
    assert inverse([Gate("S", targets=(0,))])[0].kind == "Sdg"


def test_adjoint_h_self_inverse():
    assert inverse([Gate("H", targets=(0,))])[0].kind == "H"


def test_adjoint_involution():
    rng = np.random.default_rng(11)
    for _ in range(5):
        circ = random_circuit(3, 10, rng)
        assert tuple(inverse(inverse(circ.gates))) == circ.gates


def test_adjoint_inverts_unitary():
    rng = np.random.default_rng(21)
    for _ in range(5):
        circ = random_circuit(4, 12, rng)
        U = unitary(circ)
        Ud = unitary(Circuit(4, inverse(circ.gates)))
        np.testing.assert_allclose(Ud @ U, np.eye(16), atol=1e-10)


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------


def test_count_or_gate_total():
    from qrt_kit.gadgets import or_gate_gates
    assert count_gates(Circuit(3, or_gate_gates(0, 1, 2))).total == 3


def test_count_empty():
    report = count_gates(Circuit(4))
    assert report.total == 0 and report.counts == {}


def test_count_twos_complement_n5():
    from qrt_kit.gadgets import build_cond_twos_complement
    assert count_gates(build_cond_twos_complement(5)).total == 16


def test_count_mcx_penalty():
    report = count_gates(Circuit(6, [
        Gate("MCX", (0, 1, 2, 3, 4), (5,)),  # 5 controls -> 2*5-3
        Gate("MCX", (0, 1), (5,)),           # Toffoli-sized, counts 1
    ]))
    assert report.total == 7 + 1
    assert report.counts == {"MCX": 8}
    assert report.notes["mcx_instances"] == 2


def test_count_notes_track_swaps():
    from qrt_kit.qft import build_qft
    report = count_gates(build_qft(4))
    assert report.notes["swap_gates"] == 2
    assert report.notes["total_without_swaps"] == report.total - 2
    assert report.total == 4 * 5 // 2 + 2


def test_count_report_total_invariant():
    with pytest.raises(ValueError):
        from qrt_kit.simcore import GateCountReport
        GateCountReport(counts={"H": 2}, total=3, width=1, ancilla_count=0)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("Q", targets=(0,))
    with pytest.raises(ValueError):
        Gate("CNOT", (0,), (0,))
    with pytest.raises(ValueError):
        Gate("Rz", targets=(0,), angle=float("inf"))
    with pytest.raises(ValueError):
        Gate("H", targets=(0,), angle=1.0)
    with pytest.raises(ValueError):
        Gate("Phase", targets=(0,))
    for wire in (1.5, 1.0, "1", None):
        with pytest.raises(ValueError, match="integers"):
            Gate("X", targets=(wire,))
    with pytest.raises(ValueError, match="integers"):
        Gate("CNOT", (0.5,), (1,))


def test_circuit_validation():
    with pytest.raises(ValueError):
        Circuit(1, (Gate("X", targets=(3,)),))
    with pytest.raises(ValueError):
        Circuit(2, (), relabeling=(0, 0))
    with pytest.raises(ValueError):
        Circuit(2, (), ancillas={5})
    for bad in ({"width": 2.5}, {"width": 3, "ancillas": [0.5]},
                {"width": 2, "relabeling": (1.0, 0.0)}):
        with pytest.raises(ValueError, match="integers"):
            Circuit(**bad)


def test_ancillas_must_be_the_top_wires():
    for ancillas in ([0], [1], [-1], [3]):
        with pytest.raises(ValueError, match="top wires"):
            Circuit(3, (), ancillas=ancillas)
    assert Circuit(3, (), ancillas=[1, 2]).data_wires == range(1)
    # every CLI transform and every stage of tests/helpers.py builds under
    # the rule, from the smallest n it accepts
    for name in cli.TRANSFORMS:
        for n in range(1, 9):
            for incorrect_d2 in (False, True) if name in ("qct4", "qst4") else (False,):
                try:
                    cli.build_transform(name, n, incorrect_d2)
                except ValueError as exc:
                    assert "needs at least" in str(exc), (name, n)
    helpers.or_gate()
    for first, build in golden_builders._STAGES.values():
        for n in range(first, 9):
            build(n)


def test_numpy_integer_wires_still_build():
    w = np.int64(1)
    circ = Circuit(np.int64(3), [Gate("CNOT", (np.int32(0),), (w,))], ancillas=[np.int64(2)],
                   relabeling=np.array([1, 0, 2]))
    assert circ.width == 3 and circ.ancillas == {2} and circ.relabeling == (1, 0, 2)
    matrix, residual = data_register_action(circ)
    assert matrix.shape == (4, 4) and residual == 0.0


# ---------------------------------------------------------------------------
# data-register extraction
# ---------------------------------------------------------------------------


def test_data_register_action_reports_dirty_ancilla():
    # ancilla wire left in |1>
    matrix, residual = data_register_action(Circuit(2, [Gate("X", targets=(1,))], ancillas=[1]))
    assert residual == pytest.approx(1.0)
    assert np.all(matrix == 0)


def test_data_register_action_identity_on_clean_ancilla():
    gates = [Gate("H", targets=(0,)), Gate("CNOT", (0,), (1,))]
    matrix, residual = data_register_action(Circuit(3, gates, ancillas=[2]))
    assert residual < 1e-15
    want = unitary(Circuit(2, gates))
    np.testing.assert_allclose(matrix, want, atol=1e-12)


# ---------------------------------------------------------------------------
# textual export / import
# ---------------------------------------------------------------------------


def test_export_format_exact():
    text = export_circuit(Circuit(4, [Gate("CPhase", (0,), (3,), math.pi / 2),
                                      Gate("H", targets=(1,)),
                                      Gate("GlobalPhase", angle=math.pi)]))
    assert text == ("cphase(1.5707963267948966) q[0],q[3]\n"
                    "h q[1]\n"
                    "globalphase(3.1415926535897931)\n")


def test_export_relabel_comment():
    circ = Circuit(3, (Gate("H", targets=(0,)),), relabeling=(2, 0, 1))
    text = export_circuit(circ)
    assert text.endswith("# relabel: 0->2,1->0,2->1\n")


def test_export_controls_before_targets():
    circ = Circuit(3, [Gate("Toffoli", (2, 1), (0,))])
    assert export_circuit(circ) == "toffoli q[2],q[1],q[0]\n"


def test_round_trip_random_circuits():
    rng = np.random.default_rng(31)
    for _ in range(5):
        circ = random_circuit(4, 14, rng, allow_relabel=True)
        back = parse_circuit(export_circuit(circ), width=4)
        np.testing.assert_allclose(unitary(back),
                                   unitary(circ), atol=1e-12)


def test_parse_angle_17_digits_round_trip():
    circ = Circuit(1, [Gate("Rz", targets=(0,), angle=1.0 / 3.0)])
    back = parse_circuit(export_circuit(circ))
    assert back.gates[0].angle == 1.0 / 3.0


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_circuit("frobnicate q[0]\n")
    with pytest.raises(ValueError):
        parse_circuit("h qubit0\n")
    with pytest.raises(ValueError):
        parse_circuit("phase(1.57 q[0]\n")
    with pytest.raises(ValueError):
        parse_circuit("phase(0.5] q[0]\n")


def test_parse_rejects_a_huge_relabel_at_once():
    # the moves do not map onto themselves: refused before a tuple as long
    # as the named wire is built
    start = time.perf_counter()
    with pytest.raises(ValueError):
        parse_circuit("x q[0]\n# relabel: 0->99999999999\n")
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("text", [
    "x q[99999999999]\n# relabel: 0->1,1->0\n",
    "x q[99999999999]\n",
])
def test_parse_rejects_a_huge_wire_at_once(text):
    # refused by the width bound, before the relabeling tuple or the
    # circuit is built
    start = time.perf_counter()
    with pytest.raises(ValueError, match="bound"):
        parse_circuit(text)
    assert time.perf_counter() - start < 1.0


def test_circuit_width_is_bounded():
    assert parse_circuit(f"x q[{MAX_WIDTH - 1}]\n").width == MAX_WIDTH
    for width in (-1, MAX_WIDTH + 1):
        with pytest.raises(ValueError, match="width"):
            Circuit(width)
    with pytest.raises(ValueError, match="bound"):
        parse_circuit("x q[0]\n", width=MAX_WIDTH + 1)


def test_parse_rejects_a_second_relabel_line():
    with pytest.raises(ValueError, match="relabel"):
        parse_circuit("x q[0]\n# relabel: 0->1,1->0\n# relabel: 0->0,1->1\n")


def test_parse_rejects_a_repeated_relabel_source():
    with pytest.raises(ValueError, match="relabel"):
        parse_circuit("x q[1]\n# relabel: 0->1,0->0\n")


_NAMES = sorted(kind.lower() for kind in _KINDS) + ["bogus"]
_WIRE = st.integers(-2, 12)
_LINES = st.one_of(
    st.text(max_size=24),
    st.tuples(st.sampled_from(_NAMES),
              st.one_of(st.none(), st.floats().map(repr), st.text(max_size=6)),
              st.lists(st.one_of(_WIRE.map("q[{}]".format), st.text(max_size=5)),
                       max_size=4)).map(
        lambda t: (t[0] if t[1] is None else f"{t[0]}({t[1]})") + " " + ",".join(t[2])),
    st.lists(st.one_of(st.tuples(_WIRE, _WIRE).map("{0[0]}->{0[1]}".format),
                       st.text(max_size=5)), max_size=5).map(
        lambda moves: "# relabel: " + ",".join(moves)),
)


@settings(max_examples=100, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(_LINES, max_size=6).map("\n".join),
       st.one_of(st.none(), st.integers(0, 16)))
def test_parse_returns_a_circuit_or_raises_value_error(text, width):
    try:
        circuit = parse_circuit(text, width=width)
    except ValueError:
        return
    assert isinstance(circuit, Circuit)


def test_every_builder_survives_export_round_trip():
    from qrt_kit import gadgets, hartley, qft, trig
    builders = [
        gadgets.build_cond_increment(3),
        gadgets.build_cond_twos_complement(3),
        gadgets.build_or_tree(4),
        qft.build_qft(3),
        hartley.build_qht_lcu(3),
        hartley.build_qht_recursive(3),
        trig.build_qcst_type1(2),
        trig.build_qcst_type2(2),
        trig.build_qcst_type3(2),
        trig.build_qcst_type4(2),
        trig.build_qcst_type4(2, corrected=False),
        trig.build_qst1_optimized(3),
    ]
    for circ in builders:
        back = parse_circuit(export_circuit(circ), width=circ.width)
        assert back.gates == circ.gates
        assert (back.relabeling or tuple(range(circ.width))) == \
            (circ.relabeling or tuple(range(circ.width)))
