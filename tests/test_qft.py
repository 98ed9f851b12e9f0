"""QFT circuit against the Fourier oracle, plus the negation identity."""
import numpy as np
import pytest

from qrt_kit import oracle
from qrt_kit.gadgets import build_cond_twos_complement
from qrt_kit.qft import build_qft, qft_gates
from qrt_kit.simcore import Circuit, Gate, count_gates, data_register_action, inverse

from helpers import reference_matrix, unitary


@pytest.mark.parametrize("n", range(1, 6))
def test_qft_matches_fourier_matrix(n):
    got = unitary(build_qft(n))
    want = reference_matrix(oracle.TransformSpec("DFT", 1 << n))
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_qft_n1_is_hadamard():
    circ = build_qft(1)
    assert [g.kind for g in circ.gates] == ["H"]


@pytest.mark.parametrize("n", range(1, 7))
def test_qft_on_zero_is_uniform(n):
    out = unitary(build_qft(n))[:, 0]
    np.testing.assert_allclose(out, np.full(1 << n, (1 << n) ** -0.5),
                               atol=1e-12)


@pytest.mark.parametrize("n", range(1, 6))
def test_qft_inverse(n):
    got = unitary(Circuit(n, inverse(build_qft(n).gates)))
    want = reference_matrix(oracle.TransformSpec("DFT", 1 << n)).conj().T
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_qft_inverse_undoes_qft():
    for n in range(1, 6):
        U = unitary(build_qft(n))
        Ui = unitary(Circuit(n, inverse(build_qft(n).gates)))
        np.testing.assert_allclose(Ui @ U, np.eye(1 << n), atol=1e-10)


@pytest.mark.parametrize("n", range(1, 9))
def test_qft_gate_count(n):
    assert count_gates(build_qft(n))["total"] == n * (n + 1) // 2 + n // 2


def test_qft_size_error():
    with pytest.raises(ValueError):
        build_qft(0)


@pytest.mark.parametrize("n", range(2, 6))
def test_fourier_times_negation_is_conjugate(n):
    """F_N T = F_N^* at circuit level: the two's complement gadget with its
    control forced on, then the QFT, equals the conjugated Fourier matrix."""
    N = 1 << n
    base = build_cond_twos_complement(n)
    force = Gate("X", targets=(n,))  # force the gadget control on
    circ = Circuit(base.width, [force, *base.gates, force, *qft_gates(range(n))],
                   ancillas=range(n, base.width))
    matrix, residual = data_register_action(circ)
    want = reference_matrix(oracle.TransformSpec("DFT", N)).conj()
    assert residual < 1e-12
    np.testing.assert_allclose(matrix, want, atol=1e-10)


def test_parseval_on_random_states():
    rng = np.random.default_rng(17)
    for n in (2, 4, 6):
        U = unitary(build_qft(n))
        for _ in range(10):
            amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            amps /= np.linalg.norm(amps)
            assert abs(np.linalg.norm(U @ amps) - 1) < 1e-10
