"""Type I-IV cosine/sine transform circuits against the classical oracles."""
import json
import math
import pathlib

import numpy as np
import pytest

from qrt_kit import cli, oracle
from qrt_kit.simcore import (
    Circuit,
    Gate,
    count_gates,
    data_register_action,
)
from qrt_kit.qft import build_qft
from qrt_kit.trig import (
    build_qcst_type1,
    build_qcst_type2,
    build_qcst_type3,
    build_qcst_type4,
    build_qst1_optimized,
    check_blocks,
)

from helpers import (block_errors, d1, d2, g_gate, phased_block_errors, reference_matrix,
                     t_gate, type1_core, unitary)

GOLDEN = pathlib.Path(__file__).parent / "golden"


def spec(kind, N):
    return oracle.TransformSpec(kind, N)


def case_matrix_t(N):
    """T_N assembled directly from its four-case definition."""
    T = np.zeros((2 * N, 2 * N), dtype=complex)
    T[0, 0] = 1
    T[N, N] = 1
    s = 1 / math.sqrt(2)
    for x in range(1, N):
        T[x, x] = s
        T[N + (N - x), x] = s
        T[x, N + x] = 1j * s
        T[N + (N - x), N + x] = -1j * s
    return T


def case_matrix_g(N):
    """G assembled from its four-case definition."""
    G = np.zeros((2 * N, 2 * N), dtype=complex)
    G[0, 0] = 1
    G[N, N] = -1j
    s = 1 / math.sqrt(2)
    for x in range(1, N):
        G[x, x] = s
        G[N + x, x] = 1j * s
        G[x, N + x] = s
        G[N + x, N + x] = -1j * s
    return G


# ---------------------------------------------------------------------------
# T gate
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3])
def test_t_gate_matches_case_matrix(n):
    N = 1 << n
    matrix, residual = data_register_action(t_gate(n))
    assert residual < 1e-12
    np.testing.assert_allclose(matrix, case_matrix_t(N), atol=1e-12)


def test_t_gate_zero_value_cases():
    matrix, _ = data_register_action(t_gate(2))
    assert abs(matrix[0, 0] - 1) < 1e-12      # |00> fixed
    assert abs(matrix[4, 4] - 1) < 1e-12      # |1,0> fixed
    # |0,x> -> (|0,x> + |1,N-x>)/sqrt(2)
    assert abs(matrix[1, 1] - 1 / math.sqrt(2)) < 1e-12
    assert abs(matrix[4 + 3, 1] - 1 / math.sqrt(2)) < 1e-12


# ---------------------------------------------------------------------------
# Type I
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4])
def test_type1_core_block_identity(n):
    error, residual = block_errors(type1_core(n), "DCT1", "DST1", phase=1j)
    assert error < 1e-10 and residual < 1e-10


@pytest.mark.parametrize("n", [2, 3, 4])
def test_type1_full_block_identity(n):
    error, residual = block_errors(build_qcst_type1(n), "DCT1", "DST1")
    assert error < 1e-10 and residual < 1e-10


def test_type1_cosine_zero_column():
    # input |0>|0>: amplitudes proportional to the boundary weights k_y
    n = 2
    N = 1 << n
    matrix, _ = data_register_action(build_qcst_type1(n))
    col = matrix[:, 0]
    k = np.array([1 / math.sqrt(2), 1, 1, 1, 1 / math.sqrt(2)])
    np.testing.assert_allclose(col[:N + 1], k / math.sqrt(N), atol=1e-12)
    np.testing.assert_allclose(col[N + 1:], 0, atol=1e-12)


def test_type1_sine_columns_match_oracle():
    n = 3
    N = 1 << n
    matrix, _ = data_register_action(build_qcst_type1(n))
    S1 = reference_matrix(spec("DST1", N))
    for a in range(1, N):
        col = matrix[:, N + a]
        np.testing.assert_allclose(col[N + 1:], S1[:, a - 1], atol=1e-10)


def test_type1_embedding_puts_extra_cosine_index_on_control_one():
    # DCT1 has N+1 rows, so its last one is register label N: control 1, data 0
    errors, _ = check_blocks(type1_core(3), [(spec("DCT1", 8), 0)])
    assert errors[0] < 1e-10
    embedding = cli.verify_transform("qct1", 3, 1e-10)["embedding"]
    assert embedding["cos_block"][-1] == [1, 0]
    assert embedding["sin_block"][0] == [1, 1]


# ---------------------------------------------------------------------------
# optimized Type-I sine
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4])
def test_qst1_optimized_on_sine_domain(n):
    N = 1 << n
    matrix, _ = data_register_action(build_qst1_optimized(n))
    S1 = reference_matrix(spec("DST1", N))
    np.testing.assert_allclose(matrix[1:N, 1:N], S1, atol=1e-10)
    # ancilla stays clean over the domain
    np.testing.assert_allclose(matrix[N:, 1:N], 0, atol=1e-10)


def test_qst1_optimized_half_point_column():
    # a = N/2: output sqrt(2/N) sin(pi y / 2), odd y only, alternating signs
    n = 3
    N = 1 << n
    matrix, _ = data_register_action(build_qst1_optimized(n))
    want = np.array([math.sqrt(2 / N) * math.sin(math.pi * y / 2) for y in range(1, N)])
    np.testing.assert_allclose(matrix[1:N, N // 2], want, atol=1e-12)


def test_qst1_optimized_involution():
    n = 3
    N = 1 << n
    matrix, _ = data_register_action(build_qst1_optimized(n))
    block = matrix[1:N, 1:N]
    np.testing.assert_allclose(block @ block, np.eye(N - 1), atol=1e-10)


def test_qst1_optimized_has_no_multi_controlled_gates():
    for n in (2, 3, 4, 5):
        circ = build_qst1_optimized(n)
        assert all(len(g.controls) < 3 for g in circ.gates)


def test_qst1_optimized_gate_total():
    # QFT on n+1 wires, two negation gadgets, five single-qubit gates
    for n in (2, 3, 4, 6):
        total = count_gates(build_qst1_optimized(n))["total"]
        qft_total = count_gates(build_qft(n + 1))["total"]
        assert total == qft_total + 2 * (4 * n - 4) + 5


def test_qst1_optimized_intermediate_state():
    """After the QFT the state is (i/sqrt(N)) sum_y sin(pi a y / N)|y>."""
    n = 3
    N = 1 << n
    full = build_qst1_optimized(n)
    cut = next(i for i, g in enumerate(full.gates) if g.kind == "SWAP")
    # keep gates through the full QFT block (ends after the swap layer)
    qft_gate_count = count_gates(build_qft(n + 1))["total"]
    start = 2 + (4 * n - 4)  # X, H, then the first negation gadget
    prefix = Circuit(full.width, full.gates[:start + qft_gate_count], full.ancillas)
    matrix, _ = data_register_action(prefix)
    for a in range(1, N):
        want = np.array([1j / math.sqrt(N) * math.sin(math.pi * a * y / N)
                         for y in range(2 * N)])
        np.testing.assert_allclose(matrix[:, a], want, atol=1e-12)


# ---------------------------------------------------------------------------
# diagonal phase ladders
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_d1_diagonal(n):
    N = 1 << n
    U = unitary(d1(n))
    w = np.exp(2j * np.pi / (4 * N))
    want = np.diag([w ** x for x in range(N)] + [w ** (x - N) for x in range(N)])
    np.testing.assert_allclose(U, want, atol=1e-12)
    assert np.max(np.abs(U - np.diag(np.diagonal(U)))) < 1e-15


def test_d1_phase_cases():
    # control=0: w^x; control=1, x=N-1: w^{-1}
    n = 2
    N = 1 << n
    U = unitary(d1(n))
    w = np.exp(2j * np.pi / (4 * N))
    assert abs(U[3, 3] - w ** 3) < 1e-12
    assert abs(U[N + N - 1, N + N - 1] - w ** -1) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_d2_corrected_and_incorrect_diagonals(n):
    N = 1 << n
    w = np.exp(2j * np.pi / (4 * N))
    U = unitary(d2(n, corrected=True))
    want = np.diag([w ** x for x in range(N)] + [w ** (-1 - x) for x in range(N)])
    np.testing.assert_allclose(U, want, atol=1e-12)
    U_bad = unitary(d2(n, corrected=False))
    # defective variant: control-1 entry at x=0 is w^{-1} w^{-N+1} = w^{-N}
    assert abs(U_bad[N, N] - w ** -N) < 1e-12
    np.testing.assert_allclose(np.abs(np.diagonal(U_bad)), 1, atol=1e-12)


# ---------------------------------------------------------------------------
# Type II / III
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3])
def test_g_gate_matches_case_matrix(n):
    matrix, residual = data_register_action(g_gate(n))
    assert residual < 1e-12
    np.testing.assert_allclose(matrix, case_matrix_g(1 << n), atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_type2_block_identity(n):
    N = 1 << n
    (cos_error, sin_error), residual = check_blocks(
        build_qcst_type2(n), [(spec("DCT2", N), 0), (spec("DST2", N), N)])
    assert cos_error < 1e-10
    assert sin_error < 1e-10
    assert residual < 1e-10


def test_type2_eq5_phase_without_final_z():
    """Dropping the closing Z exposes the identity's minus sign on the sine
    block."""
    n = 2
    circ = build_qcst_type2(n)
    assert circ.gates[-1].kind == "Z"
    core = Circuit(circ.width, circ.gates[:-1], circ.ancillas)
    error, residual = block_errors(core, "DCT2", "DST2", phase=-1)
    assert error < 1e-10 and residual < 1e-10


def test_type2_constant_column():
    n = 2
    N = 1 << n
    matrix, _ = data_register_action(build_qcst_type2(n))
    C2 = reference_matrix(spec("DCT2", N))
    np.testing.assert_allclose(matrix[:N, 0], C2[:, 0], atol=1e-10)
    assert abs(C2[0, 0] - 1 / math.sqrt(N) / math.sqrt(2) * math.sqrt(2)) < 1e-12


def test_type2_sine_row_weight_at_top_frequency():
    # the m=N sine row lands on register value N-1 with weight k_N = 1/sqrt(2)
    n = 2
    N = 1 << n
    matrix, _ = data_register_action(build_qcst_type2(n))
    S2 = reference_matrix(spec("DST2", N))
    np.testing.assert_allclose(matrix[N + N - 1, N:], S2[N - 1, :], atol=1e-10)
    assert abs(abs(S2[N - 1, 0]) - math.sqrt(2 / N) / math.sqrt(2)) < 1e-12


def test_type2_unitarity():
    U = unitary(build_qcst_type2(2))
    dim = U.shape[0]
    np.testing.assert_allclose(U.conj().T @ U, np.eye(dim), atol=1e-10)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_type3_block_identity(n):
    error, residual = block_errors(build_qcst_type3(n), "DCT3", "DST3")
    assert error < 1e-10 and residual < 1e-10


def test_type3_composes_with_type2_to_identity():
    n = 2
    m2, _ = data_register_action(build_qcst_type2(n))
    m3, _ = data_register_action(build_qcst_type3(n))
    np.testing.assert_allclose(m3 @ m2, np.eye(2 << n), atol=1e-10)


# ---------------------------------------------------------------------------
# Type IV
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_type4_corrected_block_identity(n):
    error, residual = block_errors(build_qcst_type4(n), "DCT4", "DST4")
    assert error < 1e-10 and residual < 1e-10


def test_type4_n1_blocks_match_formula():
    matrix, _ = data_register_action(build_qcst_type4(1))
    want_cos = np.array([[math.cos((m + .5) * (a + .5) * math.pi / 2)
                          for a in range(2)] for m in range(2)])
    want_sin = np.array([[math.sin((m + .5) * (a + .5) * math.pi / 2)
                          for a in range(2)] for m in range(2)])
    np.testing.assert_allclose(matrix[:2, :2], want_cos, atol=1e-12)
    np.testing.assert_allclose(matrix[2:, 2:], want_sin, atol=1e-12)


def test_dct4_symmetric_involution():
    for N in (2, 4, 8, 16):
        C4 = reference_matrix(spec("DCT4", N))
        np.testing.assert_array_equal(C4, C4.T)
        np.testing.assert_allclose(C4 @ C4, np.eye(N), atol=1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_type4_incorrect_diagonal_regression(n):
    error, _ = block_errors(build_qcst_type4(n, corrected=False), "DCT4", "DST4")
    assert error > 0.1


def test_type4_needs_no_scratch():
    circ = build_qcst_type4(3)
    assert circ.width == 4
    assert circ.ancillas == frozenset()


# ---------------------------------------------------------------------------
# verification machinery
# ---------------------------------------------------------------------------


def test_ancilla_cleanliness_all_builders():
    for n in (2, 3):
        for build in (build_qcst_type1, build_qcst_type2, build_qcst_type3,
                      build_qcst_type4, t_gate, g_gate):
            circ = build(n)
            _, residual = data_register_action(circ)
            assert residual < 1e-10, build.__name__


def test_verify_negative_control_reports_without_raising():
    error, residual = block_errors(Circuit(3), "DCT1", "DST1", phase=1j)
    assert error > 0.5
    assert residual == 0.0


def test_verify_rejects_bad_phase():
    # a phase the circuit does not carry fails the check
    error, _ = block_errors(build_qcst_type2(2), "DCT2", "DST2", phase=0.5)
    assert error > 0.1


def test_verify_rejects_mismatched_blocks():
    # DCT1 on 4 points has 5 rows; DST1 on 8 points, 7, would end at label 12
    with pytest.raises(ValueError):
        check_blocks(Circuit(3), [(spec("DCT1", 4), 0), (spec("DST1", 8), 5)])
    with pytest.raises(ValueError):
        check_blocks(Circuit(3), [(spec("DFT", 8), -1)])


def test_blocks_off_the_declared_embedding_fail(monkeypatch):
    # a control flip after a correct Type-II circuit moves the cosine block
    # onto the high labels: the declared embedding does not follow it
    circ = build_qcst_type2(2)
    flipped = Circuit(circ.width, circ.gates + (Gate("X", targets=(2,)),),
                      circ.ancillas)
    error, _ = block_errors(flipped, "DCT2", "DST2")
    assert error > 0.5
    monkeypatch.setattr(cli, "build_transform", lambda name, n, incorrect_d2=False: flipped)
    report = cli.verify_transform("qct2", 2, 1e-10)
    assert report["passed"] is False
    assert report["embedding"]["cos_block"] == [[0, x] for x in range(4)]


# ---------------------------------------------------------------------------
# golden embeddings
# ---------------------------------------------------------------------------

_GOLDEN_BUILDS = {
    "qct1-core": (type1_core, "DCT1", "DST1"),
    "qct1": (build_qcst_type1, "DCT1", "DST1"),
    "qct2": (build_qcst_type2, "DCT2", "DST2"),
    "qct3": (build_qcst_type3, "DCT3", "DST3"),
    "qct4": (build_qcst_type4, "DCT4", "DST4"),
}
_GOLDEN_PHASES = {"1": 1, "i": 1j, "-1": -1, "-i": -1j}


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*_n*.json")),
                         ids=lambda p: p.stem)
def test_golden_embeddings(path):
    """Each file's blocks, read back as register labels (control, data),
    pass ``check_blocks`` on the circuit (through
    ``helpers.phased_block_errors``, for the phase of qct1-core's sine
    block), and the CLI reports the same embedding."""
    frozen = json.loads(path.read_text())
    build, cos_kind, sin_kind = _GOLDEN_BUILDS[frozen["transform"]]
    n = frozen["n"]
    blocks = []
    for key, kind, phase in (("cos_block", cos_kind, 1),
                             ("sin_block", sin_kind, _GOLDEN_PHASES[frozen["phase"]])):
        labels = [c << n | x for c, x in frozen[key]]
        assert labels == list(range(labels[0], labels[0] + len(labels)))
        blocks.append((spec(kind, 1 << n), labels[0], phase))
    errors, residual = phased_block_errors(build(n), blocks)
    assert max(errors) < 1e-10 and residual < 1e-10
    if frozen["transform"] != "qct1-core":
        assert cli.verify_transform(frozen["transform"], n, 1e-10)["embedding"] == frozen
