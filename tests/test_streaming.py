"""Streamed verification: ``verify`` runs the engines one column chunk at a
time, compares each chunk with the oracle's matching columns and keeps
running maxima, so no N x N array is built on its path.  A register of
more than one chunk runs on a pool of two threads, each chunk checked on
the thread that simulated it."""
import math
import os
import pathlib
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

import test_verify_reports as golden
from qrt_kit import cli, simcore
from qrt_kit.simcore import Circuit, Gate

from helpers import no_check, sparse_action


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
    d = len(circuit.data_wires)
    assert d < circuit.width  # the sparse engine runs
    _chunk_bits(monkeypatch, d)
    whole, residual = sparse_action(circuit)
    for bits in (1, 2):
        _chunk_bits(monkeypatch, bits)
        starts = list(simcore._sparse_chunks(circuit, d)[0])
        assert starts == list(range(0, 1 << d, 1 << bits))
        chunked, chunked_residual = sparse_action(circuit)
        assert np.array_equal(chunked, whole)
        assert chunked_residual == residual


@pytest.mark.parametrize("name", ["qct1", "qst1-opt", "qct2", "qct3"])
@pytest.mark.parametrize("n", [3, 5])
def test_folded_chunks_match_one_chunk_exactly(name, n, monkeypatch):
    circuit = cli.build_transform(name, n)
    d = len(circuit.data_wires)
    assert simcore._layers(circuit, d) is not None  # the folded route runs
    monkeypatch.setattr(simcore, "_DENSE_BATCH", 1 << d)
    whole, residual = simcore.data_register_action(circuit)
    assert residual == 0.0
    for batch in (1, 3, 32):
        monkeypatch.setattr(simcore, "_DENSE_BATCH", batch)
        starts = [start for start, _, _ in simcore.data_register_chunks(circuit, no_check)]
        assert starts == list(range(0, 1 << d, batch))
        chunked, chunked_residual = simcore.data_register_action(circuit)
        assert np.array_equal(chunked, whole)
        assert chunked_residual == residual


@pytest.mark.parametrize("eps", [1.0, 1e-15], ids=["leak-kept", "leak-pruned"])
def test_a_leak_in_the_first_chunk_alone_sets_the_residual(eps, monkeypatch):
    # ancilla 2 is rotated off |0> only where data wire 1 is 0: in columns
    # 0 and 1, the first of two 2-column chunks.  At 1e-15 the leaked
    # amplitude is pruned and reaches the residual through the pruning bound.
    x1, ch = Gate("X", targets=(1,)), Gate("CH", (1,), (2,))
    circuit = Circuit(3, [x1, ch, Gate("CPhase", (1,), (2,), eps), ch, x1], ancillas=[2])
    _, whole = simcore.data_register_action(circuit)
    _chunk_bits(monkeypatch, 1)
    residuals = [residual for _, _, residual in simcore.data_register_chunks(circuit, no_check)]
    assert residuals[-1] == whole >= eps / 4
    assert residuals == sorted(residuals)


def _rising_leak() -> Circuit:
    """Data wires 0..3 and ancilla 4, which ends off |0> by sin(0.05 k) in
    the columns whose data value is 2k or 2k + 1: in 2-column chunks the
    leak rises chunk by chunk."""
    gates = []
    for w in (1, 2, 3):
        ch = Gate("CH", (w,), (4,))
        gates += [ch, Gate("CPhase", (w,), (4,), 0.1 * 2 ** (w - 1)), ch]
    return Circuit(5, gates, ancillas=[4])


def test_chunks_finishing_out_of_order_are_yielded_in_column_order(monkeypatch):
    circuit = _rising_leak()
    whole, _ = simcore.data_register_action(circuit)
    _chunk_bits(monkeypatch, 1)
    finished = []

    def slow_on_even_chunks(start, block):
        time.sleep(0.1 if start % 4 == 0 else 0.0)
        finished.append(start)
        return block

    stream = list(simcore.data_register_chunks(circuit, slow_on_even_chunks))
    assert finished != sorted(finished)  # the workers did finish out of order
    assert [start for start, _, _ in stream] == list(range(0, 16, 2))
    residuals = [residual for _, _, residual in stream]
    assert residuals == sorted(residuals)
    assert residuals == pytest.approx([math.sin(0.05 * k) for k in range(8)], abs=1e-12)
    assert np.array_equal(np.concatenate([block for _, block, _ in stream], axis=1), whole)


def test_chunks_run_on_two_threads_and_a_single_chunk_runs_inline():
    def thread_of(start, block):
        time.sleep(0.01)
        return threading.current_thread()

    qft = cli.build_transform("qft", 7)  # 4 blocks of the product route
    threads = {t for _, t, _ in simcore.data_register_chunks(qft, thread_of)}
    assert len(threads) == simcore._WORKERS == 2
    assert threading.main_thread() not in threads
    qht = cli.build_transform("qht-lcu", 5)  # d = 5: one sparse chunk
    before = threading.active_count()
    [(_, thread, _)] = simcore.data_register_chunks(qht, thread_of)
    assert thread is threading.main_thread()
    assert threading.active_count() == before


def test_a_one_chunk_verify_in_a_fresh_process_never_imports_the_thread_pool():
    # the benchmark's set-up time is this path: import the CLI, then its
    # warm-up verify, whose register is one chunk
    code = ("import sys\n"
            "from qrt_kit import cli\n"
            "code = cli.main(['verify', '--transform', 'qft', '--n', '2'])\n"
            "print(code, 'concurrent.futures' in sys.modules)\n")
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.stderr == ""
    assert proc.stdout.splitlines()[-1] == "0 False"


def test_closing_the_stream_cancels_the_queued_chunks():
    circuit = cli.build_transform("qft", 8)
    n_chunks = (1 << 8) // simcore._DENSE_BATCH
    checked = []

    def check(start, block):
        checked.append(start)
        time.sleep(0.01)
        return start

    before = threading.active_count()
    stream = simcore.data_register_chunks(circuit, check)
    assert next(stream)[1] == 0
    stream.close()
    assert threading.active_count() == before
    # the first chunk, the chunks in flight with it and the one submitted
    # when it was taken: never the rest
    assert len(checked) <= simcore._WORKERS + 2 < n_chunks


@pytest.mark.parametrize("name,n", [("qft", 8), ("qct4", 7)])
def test_a_chunk_out_of_memory_exits_2_and_leaves_no_thread(name, n, monkeypatch, capsys):
    reference_columns = cli.oracle.reference_columns

    def fail_on_the_third_chunk(spec, start, stop):
        if start == 2 * simcore._DENSE_BATCH:
            raise MemoryError("Unable to allocate the third chunk")
        return reference_columns(spec, start, stop)

    monkeypatch.setattr(cli.oracle, "reference_columns", fail_on_the_third_chunk)
    before = threading.active_count()
    assert cli.main(["verify", "--transform", name, "--n", str(n)]) == 2
    assert threading.active_count() == before
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["error: Unable to allocate the third chunk"]


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
    # d = 11 is the smallest register that stays below it (with chunks on
    # two worker threads, 19.6-20.5 MiB traced against 32 MiB; d = 10
    # traces 8.3-11.0 MiB against 8 MiB).
    d = 11
    assert simcore._sparse_chunk_bits(d) < d
    half_matrix = (1 << 2 * d) * 16 // 2
    assert _traced_peak(cli.verify_transform, "qct2", 10, 1e-10) < half_matrix


def test_sparse_verify_of_the_hartley_pair_holds_less_than_half_a_matrix():
    # qht-lcu keeps its ancillas in superposition, so it stays on the sparse
    # engine: n = 11 is a data register of d = 11 wires, run in 32 chunks of
    # 64 columns, traced at 24.4 MiB against 32 MiB on a 2-core Xeon
    n = d = 11
    circuit = cli.build_transform("qht-lcu", n)
    assert len(circuit.data_wires) == d and simcore._layers(circuit, d) is None
    assert simcore._sparse_chunk_bits(d) < d
    half_matrix = (1 << 2 * d) * 16 // 2
    assert _traced_peak(cli.verify_transform, "qht-lcu", n, 1e-10) < half_matrix
