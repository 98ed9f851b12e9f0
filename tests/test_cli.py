"""Command-line interface: outputs, exit codes, determinism, round trips."""
import contextlib
import dataclasses
import hashlib
import io
import json
import pathlib
import resource
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qrt_kit import cli, trig
from qrt_kit.hartley import ccry_gates
from qrt_kit.simcore import Circuit, Gate, data_register_action, export_circuit, parse_circuit

from helpers import unitary


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_qft_n1_exact_bytes(capsys):
    code, out, _ = run_cli(["build", "--transform", "qft", "--n", "1"], capsys)
    assert code == 0
    assert out == "h q[0]\n"


def test_build_or_tree_n4_has_nine_gates(capsys):
    code, out, _ = run_cli(["build", "--transform", "or-tree", "--n", "4"], capsys)
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert len(lines) == 9


def test_build_round_trip_qht_lcu(capsys):
    code, out, _ = run_cli(["build", "--transform", "qht-lcu", "--n", "3"], capsys)
    assert code == 0
    circ = cli.build_transform("qht-lcu", 3)
    back = parse_circuit(out, width=circ.width)
    got = unitary(back)
    want = unitary(circ)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_build_round_trip_with_relabeling(capsys):
    # the recursive circuit carries a relabel comment; it must survive parsing
    code, out, _ = run_cli(["build", "--transform", "qht-rec", "--n", "3"], capsys)
    assert code == 0
    assert "# relabel:" in out
    circ = cli.build_transform("qht-rec", 3)
    back = parse_circuit(out, width=circ.width)
    matrix_a, _ = data_register_action(circ, [0, 1, 2])
    matrix_b, _ = data_register_action(back, [0, 1, 2])
    np.testing.assert_allclose(matrix_a, matrix_b, atol=1e-12)


def test_build_deterministic(capsys):
    a = run_cli(["build", "--transform", "qct2", "--n", "3"], capsys)[1]
    b = run_cli(["build", "--transform", "qct2", "--n", "3"], capsys)[1]
    assert a == b


def test_build_to_file(tmp_path, capsys):
    path = tmp_path / "circ.txt"
    code, out, _ = run_cli(["build", "--transform", "inc", "--n", "3",
                            "--out", str(path)], capsys)
    assert code == 0 and out == ""
    assert path.read_text().startswith("toffoli")


@pytest.mark.parametrize("name,n", [
    ("qht-lcu", 3), ("qht-rec", 3), ("qct1", 2), ("qst1", 2), ("qst1-opt", 2),
    ("qct2", 2), ("qst2", 2), ("qct3", 2), ("qst3", 2), ("qct4", 2),
    ("qst4", 2), ("qft", 3), ("inc", 3), ("twos-comp", 3), ("or-tree", 3),
])
def test_verify_passes_for_every_transform(name, n, capsys):
    code, out, _ = run_cli(["verify", "--transform", name, "--n", str(n)], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["schema"] == 1
    assert report["max_error"] < 1e-10
    assert report["ancilla_residual"] < 1e-10
    assert out.endswith("\n")


def test_verify_incorrect_d2_fails_with_exit_one(capsys):
    code, out, _ = run_cli(["verify", "--transform", "qct4", "--n", "2",
                            "--incorrect-d2"], capsys)
    assert code == 1
    report = json.loads(out)
    assert report["passed"] is False
    assert report["max_error"] > 0.1
    assert "embedding" in report


def test_incorrect_d2_error_is_unchanged():
    report = cli.verify_transform("qct4", 9, 1e-10, incorrect_d2=True)
    assert report["passed"] is False
    assert abs(report["max_error"] - 0.07433550768664207) < 1e-15


def test_qst1_opt_amplitude_on_register_value_zero_fails(monkeypatch):
    # a doubly controlled Ry(1e-5), conditioned on wires 1 and 2 both 0,
    # moves about 3.5e-6 of each sine-domain column onto register value 0,
    # the control's row that the sine block must leave empty
    circuit = trig.build_qst1_optimized(2)
    flips = [Gate("X", targets=(1,)), Gate("X", targets=(2,))]
    leaky = Circuit(circuit.width, circuit.gates + tuple(flips + ccry_gates(1, 2, 0, 1e-5) + flips),
                    circuit.ancillas)
    monkeypatch.setattr(cli, "build_transform", lambda name, n, incorrect_d2=False: leaky)
    report = cli.verify_transform("qst1-opt", 2, 1e-10)
    assert report["max_error"] == pytest.approx(3.5355e-6, rel=1e-4)
    assert report["passed"] is False


def test_verify_deterministic(capsys):
    a = run_cli(["verify", "--transform", "qct2", "--n", "2"], capsys)[1]
    b = run_cli(["verify", "--transform", "qct2", "--n", "2"], capsys)[1]
    assert a == b


def test_verify_beyond_statevector_width(capsys):
    # width 21, above STATEVECTOR_WIDTH_CAP: the sparse engine has no width cap
    assert cli.build_transform("qht-rec", 8).width == 21
    code, out, _ = run_cli(["verify", "--transform", "qht-rec", "--n", "8"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["max_error"] < 1e-10 and report["ancilla_residual"] < 1e-10


def test_verify_cap_exceeded_is_usage_error(capsys):
    # width 57 plus the sparse engine's 8 column bits overflow its int64 key
    assert cli.build_transform("qht-rec", 20).width == 57
    code, _, err = run_cli(["verify", "--transform", "qht-rec", "--n", "20"], capsys)
    assert code == 2
    assert "cap" in err


@pytest.mark.parametrize("name,n", [
    ("qft", 21),      # no ancillas: dense engine, width above STATEVECTOR_WIDTH_CAP
    ("qct2", 21),     # a 22-wire data register, refused before anything 2^d-sized
])
def test_dense_verify_cap_exceeded_is_usage_error(name, n, capsys):
    code, _, err = run_cli(["verify", "--transform", name, "--n", str(n)], capsys)
    assert code == 2
    assert "cap" in err
    assert err.startswith("error:") and err.count("\n") == 1


def test_verify_or_tree_beyond_statevector_width(capsys):
    # width 21: gadgets are checked on integer labels, with no statevector
    assert cli.build_transform("or-tree", 11).width == 21
    code, out, _ = run_cli(["verify", "--transform", "or-tree", "--n", "11"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["max_error"] == 0.0 and report["ancilla_residual"] == 0.0


def test_classical_verify_cap_exceeded_is_usage_error(capsys):
    # width 63 does not fit one int64 label
    assert cli.build_transform("or-tree", 32).width == 63
    code, _, err = run_cli(["verify", "--transform", "or-tree", "--n", "32"], capsys)
    assert code == 2
    assert "cap" in err


def test_small_builds_match_recorded_digests():
    # perfbench/digests.json pins the build output of every transform; the
    # items with n <= 9 are cheap enough to rebuild here
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "digests.json"
    recorded = json.loads(path.read_text())["items"]
    small = {key: item for key, item in recorded.items()
             if int(key.split("/")[1]) <= 9}
    assert len(small) == 16
    for key, item in small.items():
        name, n = key.split("/")
        text = export_circuit(cli.build_transform(name, int(n)))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == item["sha256"], key


def test_unknown_transform_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["build", "--transform", "nope", "--n", "2"])
    assert exc.value.code == 2


def test_build_transform_rejects_an_unknown_name():
    with pytest.raises(ValueError):
        cli.build_transform("nope", 2)


def test_transform_names_and_order():
    assert cli.TRANSFORMS == (
        "qht-lcu", "qht-rec", "qct1", "qst1", "qst1-opt", "qct2", "qst2",
        "qct3", "qst3", "qct4", "qst4", "qft", "inc", "twos-comp", "or-tree",
    )


@pytest.mark.parametrize("name", ["inc", "twos-comp", "or-tree"])
def test_gadget_check_rejects_a_missing_last_gate(name, monkeypatch, capsys):
    build, check = cli._TABLE[name]

    def truncated(n):
        circuit = build(n)
        return dataclasses.replace(circuit, gates=circuit.gates[:-1])

    monkeypatch.setitem(cli._TABLE, name, (truncated, check))
    report = cli.verify_transform(name, 4, 1e-10)
    assert report["passed"] is False
    assert report["max_error"] == 1.0
    assert run_cli(["verify", "--transform", name, "--n", "4"], capsys)[0] == 1


def test_incorrect_d2_limited_to_type4(capsys):
    code, out, err = run_cli(["verify", "--transform", "qct2", "--n", "2", "--incorrect-d2"],
                             capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: --incorrect-d2") and err.count("\n") == 1
    with pytest.raises(ValueError, match="qct4/qst4 only"):
        cli.verify_transform("qft", 3, 1e-10, incorrect_d2=True)


def test_invalid_size_is_usage_error(capsys):
    code, _, err = run_cli(["build", "--transform", "twos-comp", "--n", "1"], capsys)
    assert code == 2
    assert "two" in err


@pytest.mark.parametrize("argv", [
    ["counts", "--transform", "qft", "--n", str(cli.MAX_N + 1)],
    ["counts", "--transform", "qft", "--n-range", f"2:{cli.MAX_N + 1}"],
    ["build", "--transform", "qft", "--n", "0"],
    ["verify", "--transform", "qct4", "--n", "-3"],
])
def test_size_outside_bounds_is_usage_error(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: n must lie within") and err.count("\n") == 1


@pytest.mark.parametrize("tolerance", ["inf", "nan", "0", "-1", "1"])
def test_tolerance_outside_unit_interval_is_usage_error(tolerance, capsys):
    # inf would pass the defective circuit; nan would print non-standard JSON
    code, out, err = run_cli(["verify", "--transform", "qct4", "--n", "3",
                              "--incorrect-d2", "--tolerance", tolerance], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: tolerance") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["build", "--transform", "qct4", "--n", "3"],
    ["verify", "--transform", "qct4", "--n", "3"],
    ["counts", "--transform", "qct4", "--n", "3"],
])
def test_unwritable_output_exits_two_without_traceback(argv, tmp_path):
    path = tmp_path / "missing" / "x.txt"
    proc = subprocess.run(
        [sys.executable, "-m", "qrt_kit.cli", *argv, "--out", str(path)],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1


def test_huge_size_exits_two_without_traceback():
    proc = subprocess.run(
        [sys.executable, "-m", "qrt_kit.cli", "counts", "--transform", "qft",
         "--n", "100000"],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1


def test_size_beyond_memory_exits_two_without_traceback():
    # inc at n=29 (width 57) checks 2^30 int64 labels (8 GiB); under a 3 GiB
    # address-space limit the allocation fails at once
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "qrt_kit.cli", "verify", "--transform", "inc",
         "--n", "29"],
        capture_output=True, text=True, preexec_fn=limit_memory)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1


def test_largest_size_builds(capsys):
    code, out, _ = run_cli(["counts", "--transform", "qft", "--n", str(cli.MAX_N),
                            "--format", "json"], capsys)
    assert code == 0
    n = cli.MAX_N
    assert json.loads(out)["rows"][0]["total"] == n * (n + 1) // 2 + n // 2


def test_counts_json(capsys):
    code, out, _ = run_cli(["counts", "--transform", "qft", "--n-range", "2:4",
                            "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    totals = [row["total"] for row in payload["rows"]]
    assert totals == [n * (n + 1) // 2 + n // 2 for n in (2, 3, 4)]


def test_counts_text(capsys):
    code, out, _ = run_cli(["counts", "--transform", "or-tree", "--n", "4"], capsys)
    assert code == 0
    assert "9" in out


def test_counts_needs_size(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["counts", "--transform", "qft"])
    assert exc.value.code == 2


def test_counts_refuses_both_sizes(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["counts", "--transform", "qft", "--n", "5", "--n-range", "2:3"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "not allowed with" in err


def test_table1_json_fit(capsys):
    code, out, _ = run_cli(["table1", "--n-range", "6:14", "--format", "json"],
                           capsys)
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["fit_lcu"]["a"] - 0.5) <= 0.1
    assert payload["quadratic_ratio_rec_over_lcu"] >= 3
    totals = payload["qht_rec_total"]
    assert all(a <= b for a, b in zip(totals, totals[1:]))  # monotone


def test_table1_range_validation(capsys):
    code, _, err = run_cli(["table1", "--n-range", "4:5"], capsys)
    assert code == 2 and "three points" in err
    code, _, err = run_cli(["table1", "--n-range", "2:8"], capsys)
    assert code == 2


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qrt_kit.cli", "build", "--transform", "qft",
         "--n", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "h q[0]\n"


# Argument lists for the contract fuzz: each command with its own options,
# whose values mix valid and invalid entries, and now and then an option
# that does not belong.  Sizes that pass validation stay at n <= 8 so that a
# drawn build, count or verify finishes in milliseconds.
_TRANSFORM = st.sampled_from([*(("--transform", name) for name in
                                 (*cli.TRANSFORMS, "qct5", "QFT", "")), ()])
_N = st.sampled_from([*(("--n", size) for size in
                        (*"123456", "0", "-1", "513", "2.5", "1e3", "x", "")), ()])
_RANGES = ("2:4", "4:6", "4:8", "1:3", "6:4", "0:3", "-1:2", "3:513", "a:b", "5", "")
_STRAY = st.sampled_from([(), (), (), (), ("--incorrect-d2",), ("--incorrect-d2",),
                          ("--bogus",), ("--tolerance", "0.5"), ("--n-range", "2:4")])


def _maybe(flag, values):
    """The option with one of ``values``, or (half the time) no option."""
    return st.one_of(st.just(()), st.tuples(st.just(flag), st.sampled_from(values)))


def _argv(command, *options):
    return st.builds(lambda *parts: [command, *(token for part in parts for token in part)],
                     *options)


_FORMAT = _maybe("--format", ("text", "json", "xml"))
_ARGV = st.one_of(
    _argv("build", _TRANSFORM, _N, _STRAY),
    _argv("verify", _TRANSFORM, _N, _STRAY,
          _maybe("--tolerance", ("1e-300", "1e-10", "0.5", "0", "-1", "1", "inf", "nan", "abc"))),
    _argv("counts", _TRANSFORM, _maybe("--n", ("0", "3", "513", "x")),
          _maybe("--n-range", _RANGES), _FORMAT, _STRAY),
    _argv("table1", _maybe("--n-range", _RANGES), _FORMAT, _STRAY),
    _argv("simulate", _TRANSFORM, _N),
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_ARGV)
def test_cli_contract_fuzz(argv):
    # exit 0; exit 1 with a JSON report; or exit 2 with one error line and
    # no traceback (argparse puts its usage text above its error line)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    if code == 0:
        assert err == ""
        if argv[0] == "verify":
            assert json.loads(out)["passed"] is True
    elif code == 1:
        assert argv[0] == "verify" and err == ""
        assert json.loads(out)["passed"] is False
    else:
        assert code == 2 and out == "", (code, out)
        lines = err.splitlines()
        assert "Traceback" not in err
        assert sum("error:" in line for line in lines) == 1 and "error:" in lines[-1], err
        if not err.startswith("usage:"):
            assert len(lines) == 1 and err.startswith("error:"), err
