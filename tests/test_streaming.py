"""Streamed verification: ``verify`` runs the engines one column chunk at a
time, compares each chunk with the oracle's matching columns and keeps
running maxima, so no N x N array is built on its path."""
import tracemalloc

import numpy as np
import pytest

import test_verify_reports as golden
from qrt_kit import cli, simcore
from qrt_kit.simcore import Circuit, Gate


def _chunk_bits(monkeypatch, bits):
    """Run the sparse engine 2^bits columns at a time (all at once on a
    narrower data register)."""
    monkeypatch.setattr(simcore, "_sparse_chunk_bits", lambda d: min(d, bits))


@pytest.fixture
def small_chunks(monkeypatch):
    """Chunks of 3 dense and 4 sparse columns: from n = 3 on, a chunk edge
    falls inside every cosine and sine block, and a dense register of 2^k
    columns ends in a short chunk."""
    monkeypatch.setattr(simcore, "_DENSE_BATCH", 3)
    _chunk_bits(monkeypatch, 2)


def test_small_chunks_give_the_golden_reports(small_chunks):
    golden.assert_match_golden(golden.current_reports())


@pytest.mark.parametrize("name", ["qht-lcu", "qht-rec", "qct1", "qst1-opt", "qct2", "qct3"])
@pytest.mark.parametrize("n", [3, 5])
def test_sparse_chunks_match_one_chunk_exactly(name, n, monkeypatch):
    circuit = cli.build_transform(name, n)
    data = circuit.data_wires if name in cli._BLOCK_SPECS else list(range(n + (name == "qst1-opt")))
    assert len(data) < circuit.width  # the sparse engine runs
    _chunk_bits(monkeypatch, len(data))
    whole, residual = simcore.data_register_action(circuit, data)
    for bits in (1, 2):
        _chunk_bits(monkeypatch, bits)
        starts = [start for start, _, _ in simcore.data_register_chunks(circuit, data)]
        assert starts == list(range(0, 1 << len(data), 1 << bits))
        chunked, chunked_residual = simcore.data_register_action(circuit, data)
        assert np.array_equal(chunked, whole)
        assert chunked_residual == residual


@pytest.mark.parametrize("eps", [1.0, 1e-15], ids=["leak-kept", "leak-pruned"])
def test_a_leak_in_the_first_chunk_alone_sets_the_residual(eps, monkeypatch):
    # ancilla 2 is rotated off |0> only where data wire 1 is 0: in columns
    # 0 and 1, the first of two 2-column chunks.  At 1e-15 the leaked
    # amplitude is pruned and reaches the residual through the pruning bound.
    x1, ch = Gate("X", targets=(1,)), Gate("CH", (1,), (2,))
    circuit = Circuit(3, [x1, ch, Gate("CPhase", (1,), (2,), eps), ch, x1], ancillas=[2])
    _, whole = simcore.data_register_action(circuit, [0, 1])
    _chunk_bits(monkeypatch, 1)
    residuals = [residual for _, _, residual in simcore.data_register_chunks(circuit, [0, 1])]
    assert residuals[-1] == whole >= eps / 4
    assert residuals == sorted(residuals)


def _traced_peak(fn, *args) -> int:
    """Peak bytes traced while ``fn(*args)`` runs (this process only)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", ["qft", "qct4"])
def test_dense_verify_holds_less_than_half_a_matrix(name):
    n = 10
    half_matrix = (1 << 2 * n) * 16 // 2  # half of one N x N complex array
    assert _traced_peak(cli.verify_transform, name, n, 1e-10) < half_matrix


def test_sparse_verify_holds_less_than_half_a_matrix():
    # qct2 n=10 has a data register of d = 11 wires, run in 32 chunks of 64
    # columns.  A chunk's working set is about 2^(6+d) entries times a few
    # temporaries, so it halves against the bound with each wire less:
    # d = 11 is the smallest register that stays below it (16.5 MB against
    # 32 MB; d = 10 traces 8.3 MB against 8 MB).
    d = 11
    assert simcore._sparse_chunk_bits(d) < d
    half_matrix = (1 << 2 * d) * 16 // 2
    assert _traced_peak(cli.verify_transform, "qct2", 10, 1e-10) < half_matrix
