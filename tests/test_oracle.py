"""Reference-matrix module: orthogonality, defining identities, symmetries,
and agreement with the float-angle formulas in ``helpers``."""
import io
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from helpers import (build_dht_from_dft, build_reference_matrix, cas, compare_unitaries,
                     dump_csv, naive_reference, reference_matrix, twos_complement_permutation,
                     unitary)
from qrt_kit import cli, oracle
from qrt_kit.oracle import TransformSpec

SIZES = (2, 4, 8, 16, 32, 64)
ALL_KINDS = oracle.KINDS


@pytest.mark.parametrize("N", SIZES)
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_all_matrices_orthogonal(kind, N):
    if kind == "DST1" and N == 2:
        spec = TransformSpec(kind, N)
        assert spec.dim == 1
    mat = reference_matrix(TransformSpec(kind, N))
    np.testing.assert_allclose(mat.conj().T @ mat, np.eye(mat.shape[0]), atol=1e-12)
    if kind != "DFT":
        assert np.abs(mat.imag).max() == 0  # real transforms stay real


@pytest.mark.parametrize("N", SIZES)
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_columns_are_the_matrix_columns_bit_for_bit(kind, N):
    spec = TransformSpec(kind, N)
    whole = reference_matrix(spec)
    for width in (1, 3, 7):  # uneven splits: edges fall anywhere in the matrix
        for start in range(0, spec.dim, width):
            stop = min(start + width, spec.dim)
            assert np.array_equal(oracle.reference_columns(spec, start, stop),
                                  whole[:, start:stop]), (start, stop)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_angle_table_agrees_with_float_angle_formulas(kind):
    # the float-angle kernels round r*c before reducing it, so they differ
    # from the exactly reduced table by a few ulps of the largest angle
    for n in range(1, 11):
        spec = TransformSpec(kind, 1 << n)
        got, want = reference_matrix(spec), naive_reference(spec)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-13, n


@pytest.mark.parametrize("n", (7, 8, 9))
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_large_matrices_unitary_to_1e_13(kind, n):
    mat = reference_matrix(TransformSpec(kind, 1 << n))
    assert np.max(np.abs(mat.conj().T @ mat - np.eye(mat.shape[0]))) <= 1e-13


def test_threads_sharing_a_fresh_spec_get_the_matrix_columns():
    # verify's worker threads share one spec, whose angle table is built on
    # its first use; eight threads race for that first use here
    whole = reference_matrix(TransformSpec("DCT4", 256))
    spec = TransformSpec("DCT4", 256)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            futures = [pool.submit(oracle.reference_columns, spec, start, start + 32)
                       for start in range(0, 256, 32)]
            chunks = [future.result(timeout=30) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(np.hstack(chunks), whole)


@pytest.mark.parametrize("name", ("qft", "qht-lcu", "qct4"))
def test_verify_error_measures_the_circuit_not_the_angles(name):
    # float angles alone put 1.5e-14 to 3e-14 into these reports at n = 10
    assert cli.verify_transform(name, 10, 1e-10)["max_error"] < 1e-15


@pytest.mark.parametrize("kind,N", [("DFT", 1 << 32), ("DHT", 1 << 32),
                                    ("DCT1", 1 << 31), ("DST1", 1 << 31),
                                    ("DCT2", 1 << 30), ("DST3", 1 << 30),
                                    ("DCT4", 1 << 29), ("DST4", 1 << 29)])
def test_sizes_past_the_int64_angle_bound_are_refused(kind, N):
    # the index product runs up to M^2, M = N, 2N, 4N or 8N by kind: N is
    # the first size whose M^2 passes 2^63, and N/2 the last that fits
    with pytest.raises(ValueError, match="int64"):
        TransformSpec(kind, N)
    with pytest.raises(ValueError, match="int64"):
        TransformSpec(kind, N << 20)
    assert TransformSpec(kind, N // 2).N == N // 2


@pytest.mark.parametrize("start,stop", [(-1, 2), (3, 2), (0, 9)])
def test_columns_outside_the_matrix_are_refused(start, stop):
    with pytest.raises(ValueError, match="outside"):
        oracle.reference_columns(TransformSpec("DCT2", 8), start, stop)


def test_build_reference_matrix_validates():
    unit = build_reference_matrix(TransformSpec("DCT2", 8))
    assert unit.shape == (8, 8)


def test_dht_2_is_hadamard():
    mat = reference_matrix(TransformSpec("DHT", 2))
    np.testing.assert_allclose(mat, np.array([[1, 1], [1, -1]]) / math.sqrt(2),
                               atol=1e-15)


def test_dst1_2_is_scalar_one():
    mat = reference_matrix(TransformSpec("DST1", 2))
    np.testing.assert_allclose(mat, [[1.0]], atol=1e-15)


def test_dct4_2_entries():
    # direct evaluation of cos((m+1/2)(n+1/2)pi/2)
    want = np.array([[math.cos(math.pi / 8), math.cos(3 * math.pi / 8)],
                     [math.cos(3 * math.pi / 8), math.cos(9 * math.pi / 8)]])
    np.testing.assert_allclose(reference_matrix(TransformSpec("DCT4", 2)),
                               want, atol=1e-15)


def test_hartley_matrix_via_cas_loop():
    # independent evaluation of the defining sum, including the 1-based dims
    for N in (2, 4, 8):
        want = np.array([[cas(2 * math.pi * a * y / N) for y in range(N)]
                         for a in range(N)]) / math.sqrt(N)
        np.testing.assert_allclose(
            reference_matrix(TransformSpec("DHT", N)), want, atol=1e-14)


def test_dht_from_dft_4_matches_hand_matrix():
    want = 0.5 * np.array([[1, 1, 1, 1], [1, 1, -1, -1],
                           [1, -1, 1, -1], [1, -1, -1, 1]])
    np.testing.assert_allclose(build_dht_from_dft(4), want,
                               atol=1e-14)


@pytest.mark.parametrize("N", SIZES)
def test_dht_from_dft_identity(N):
    direct = reference_matrix(TransformSpec("DHT", N))
    assembled = build_dht_from_dft(N)
    np.testing.assert_allclose(assembled, direct, atol=1e-12)
    assert np.abs(assembled.imag).max() < 1e-12


@pytest.mark.parametrize("N", SIZES)
def test_cas_identity(N):
    x = np.arange(N)
    lhs = cas(2 * np.pi * x / N)
    omega = np.exp(2j * np.pi * x / N)
    rhs = (1 - 1j) / 2 * omega + (1 + 1j) / 2 * omega.conj()
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_type3_matrices_are_transposes():
    for N in (2, 4, 8, 16):
        np.testing.assert_array_equal(
            reference_matrix(TransformSpec("DCT3", N)),
            reference_matrix(TransformSpec("DCT2", N)).T)
        np.testing.assert_array_equal(
            reference_matrix(TransformSpec("DST3", N)),
            reference_matrix(TransformSpec("DST2", N)).T)


def test_dht_involution():
    for N in SIZES:
        mat = reference_matrix(TransformSpec("DHT", N))
        np.testing.assert_allclose(mat @ mat, np.eye(N), atol=1e-12)


def test_spec_validation():
    with pytest.raises(ValueError):
        TransformSpec("DCT9", 4)
    with pytest.raises(ValueError):
        TransformSpec("DCT1", 12)
    with pytest.raises(ValueError):
        TransformSpec("DCT1", 1)
    assert TransformSpec("DCT1", 8).dim == 9
    assert TransformSpec("DST1", 8).dim == 7
    assert TransformSpec("DFT", 8).dim == 8


def test_compare_unitaries():
    eye = np.eye(2)
    assert compare_unitaries(eye, eye) == 0
    flip = np.array([[0, 1], [1, 0]])
    assert compare_unitaries(eye, flip) == 1
    with pytest.raises(ValueError):
        compare_unitaries(np.eye(2), np.eye(4))


def test_compare_qft_circuit_to_oracle():
    from qrt_kit.qft import build_qft
    err = compare_unitaries(
        unitary(build_qft(3)),
        build_reference_matrix(TransformSpec("DFT", 8)))
    assert err < 1e-10


def test_twos_complement_permutation():
    T = twos_complement_permutation(4)
    np.testing.assert_array_equal(T @ np.array([1, 0, 0, 0]), [1, 0, 0, 0])
    np.testing.assert_array_equal(T @ np.array([0, 1, 0, 0]), [0, 0, 0, 1])


def test_csv_dump_round_trip():
    mat = reference_matrix(TransformSpec("DFT", 4))
    buf = io.StringIO()
    dump_csv(mat, buf)
    lines = buf.getvalue().strip().split("\n")
    assert len(lines) == 4
    parsed = np.array([[complex(float(row[2 * i]), float(row[2 * i + 1]))
                        for i in range(4)]
                       for row in (line.split(",") for line in lines)])
    np.testing.assert_allclose(parsed, mat, atol=0)
