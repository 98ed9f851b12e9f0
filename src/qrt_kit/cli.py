"""Command-line front end: build and export circuits, verify them against
the classical oracles, and tabulate gate counts.

Exit codes: 0 success, 1 verification failure, 2 usage error (including a
size whose matrices do not fit in memory).

Every ``--n`` (and both ends of ``--n-range``) must lie within 1..MAX_N.
MAX_N sits below the QFT angle overflow (``1 << k`` stops converting to a
float at k = 1024) and keeps the largest build, qht-rec with ~3M gates,
under a gigabyte.
"""
from __future__ import annotations

import argparse
import json
import sys
from functools import partial

import numpy as np

from . import gadgets, hartley, oracle, qft, trig
from .simcore import count_gates, export_circuit

SCHEMA_VERSION = 1
MAX_N = 512


def _blocks(first: int, *kinds: str):
    """Check against the oracle blocks declared on the data register: the
    block of the first kind starts at label ``first`` and the others follow
    end to end."""
    def check(circuit, n):
        blocks, lo = [], first
        for kind in kinds:
            spec = oracle.TransformSpec(kind, 1 << n)
            blocks.append((spec, lo))
            lo += spec.dim
        errors, residual = trig.check_blocks(circuit, blocks)
        return max(errors), residual, blocks
    return check


def _classical(inputs, want, dirty=lambda n: 0):
    """Check the classical map a gadget computes on every basis input of its
    first ``inputs(n)`` wires: ``want(n, labels)`` gives the expected output
    labels, and ``dirty(n)`` masks the wires it may leave in any state."""
    def check(circuit, n):
        error, residual = gadgets.classical_map_error(circuit, inputs(n), partial(want, n), dirty(n))
        return error, residual, ()
    return check


def _increment(n, lab):
    """(c, x) -> (c, x + c mod 2^n), with x on wires 0..n-1 and c on wire n."""
    c = lab >> n
    return c << n | (lab + c) & ((1 << n) - 1)


def _negate(n, lab):
    """(c, x) -> (c, -x mod 2^n) when c = 1, else (c, x)."""
    c = lab >> n
    return c << n | np.where(c, -lab, lab) & ((1 << n) - 1)


def _or_root(n, lab):
    """x kept, and the root (the last tree ancilla) set to [x != 0]."""
    return lab | (lab != 0) << (2 * n - 2)


# name -> (builder, check); a check returns (max_error, residual, blocks).
# qst1-opt's sine domain is register values 1..N-1, with the control at 0.
# The or-tree leaves its internal nodes, wires n..2n-3, dirty.
_TABLE = {
    "qht-lcu": (hartley.build_qht_lcu, _blocks(0, "DHT")),
    "qht-rec": (hartley.build_qht_recursive, _blocks(0, "DHT")),
    "qct1": (trig.build_qcst_type1, _blocks(0, "DCT1", "DST1")),
    "qst1": (trig.build_qcst_type1, _blocks(0, "DCT1", "DST1")),
    "qst1-opt": (trig.build_qst1_optimized, _blocks(1, "DST1")),
    "qct2": (trig.build_qcst_type2, _blocks(0, "DCT2", "DST2")),
    "qst2": (trig.build_qcst_type2, _blocks(0, "DCT2", "DST2")),
    "qct3": (trig.build_qcst_type3, _blocks(0, "DCT3", "DST3")),
    "qst3": (trig.build_qcst_type3, _blocks(0, "DCT3", "DST3")),
    "qct4": (trig.build_qcst_type4, _blocks(0, "DCT4", "DST4")),
    "qst4": (trig.build_qcst_type4, _blocks(0, "DCT4", "DST4")),
    "qft": (qft.build_qft, _blocks(0, "DFT")),
    "inc": (gadgets.build_cond_increment, _classical(lambda n: n + 1, _increment)),
    "twos-comp": (gadgets.build_cond_twos_complement, _classical(lambda n: n + 1, _negate)),
    "or-tree": (gadgets.build_or_tree,
                _classical(lambda n: n, _or_root, lambda n: (1 << 2 * n - 2) - (1 << n))),
}
TRANSFORMS = tuple(_TABLE)
_INCORRECT_D2 = ("qct4", "qst4")  # the transforms --incorrect-d2 applies to


def build_transform(name: str, n: int, incorrect_d2: bool = False):
    if name not in _TABLE:
        raise ValueError(f"unknown transform {name!r}")
    if incorrect_d2:
        if name not in _INCORRECT_D2:
            raise ValueError(f"--incorrect-d2 applies to qct4/qst4 only, not {name}")
        return trig.build_qcst_type4(n, corrected=False)
    return _TABLE[name][0](n)


def verify_transform(name: str, n: int, tolerance: float, incorrect_d2: bool = False) -> dict:
    """Run the declared check of one transform; returns the report dict.

    ``tolerance`` must lie strictly between 0 and 1: entries of two
    unitaries differ by at most 2, so a tolerance of 1 or more (or inf)
    cannot reject anything, and nan rejects everything.  A cosine/sine pair
    reports its embedding: the cosine block on the low register labels and
    the sine block above them, each label as (control, data).
    """
    if not 0 < tolerance < 1:
        raise ValueError(f"tolerance must lie strictly between 0 and 1, got {tolerance}")
    circuit = build_transform(name, n, incorrect_d2)
    max_error, residual, blocks = _TABLE[name][1](circuit, n)
    report = {"schema": SCHEMA_VERSION, "transform": name, "n": n, "tolerance": tolerance}
    if len(blocks) == 2:
        pairs = [[lab >> n, lab & ((1 << n) - 1)] for lab in range(2 << n)]
        cos_dim = blocks[0][0].dim
        report["embedding"] = {"transform": name, "n": n, "phase": "1",
                               "cos_block": pairs[:cos_dim], "sin_block": pairs[cos_dim:]}
    report["max_error"] = max_error
    report["ancilla_residual"] = residual
    report["passed"] = bool(max_error < tolerance and residual < tolerance)
    return report


def quadratic_fit(ns, totals):
    """Least-squares a*n^2 + b*n + c through the count series."""
    coeffs = np.polyfit(np.asarray(ns, dtype=float), np.asarray(totals, dtype=float), 2)
    return tuple(float(c) for c in coeffs)


def _parse_range(text: str):
    try:
        lo, hi = text.split(":")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LO:HI, got {text!r}")
    if lo > hi:
        raise argparse.ArgumentTypeError("empty range")
    return lo, hi


def _write_output(text: str, path):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _json_line(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True) + "\n"


def cmd_build(args) -> int:
    circuit = build_transform(args.transform, args.n, args.incorrect_d2)
    _write_output(export_circuit(circuit), args.output)
    return 0


def cmd_verify(args) -> int:
    report = verify_transform(args.transform, args.n, args.tolerance, args.incorrect_d2)
    _write_output(_json_line(report), args.output)
    return 0 if report["passed"] else 1


def cmd_counts(args) -> int:
    lo, hi = args.n_range if args.n_range else (args.n, args.n)
    rows = []
    for n in range(lo, hi + 1):
        rows.append({"transform": args.transform, "n": n,
                     **count_gates(build_transform(args.transform, n, args.incorrect_d2))})
    if args.format == "json":
        _write_output(_json_line({"schema": SCHEMA_VERSION, "rows": rows}), args.output)
    else:
        lines = [f"{'n':>3} {'total':>8} {'width':>6} {'ancillas':>8}  per-kind"]
        for row in rows:
            kinds = " ".join(f"{k}:{v}" for k, v in row["counts"].items())
            lines.append(f"{row['n']:>3} {row['total']:>8} {row['width']:>6} "
                         f"{row['ancillas']:>8}  {kinds}")
        _write_output("\n".join(lines) + "\n", args.output)
    return 0


def cmd_table1(args) -> int:
    lo, hi = args.n_range
    if not (4 <= lo and hi <= 20):
        raise ValueError("table1 range must lie within 4..20")
    if hi - lo + 1 < 3:
        raise ValueError("table1 needs at least three points to fit")
    ns = list(range(lo, hi + 1))
    rec = [count_gates(hartley.build_qht_recursive(n))["total"] for n in ns]
    lcu = [count_gates(hartley.build_qht_lcu(n))["total"] for n in ns]
    fit_rec = quadratic_fit(ns, rec)
    fit_lcu = quadratic_fit(ns, lcu)
    ratio = fit_rec[0] / fit_lcu[0]
    payload = {
        "schema": SCHEMA_VERSION,
        "n": ns,
        "qht_rec_total": rec,
        "qht_lcu_total": lcu,
        "fit_rec": {"a": fit_rec[0], "b": fit_rec[1], "c": fit_rec[2]},
        "fit_lcu": {"a": fit_lcu[0], "b": fit_lcu[1], "c": fit_lcu[2]},
        "quadratic_ratio_rec_over_lcu": ratio,
    }
    if args.format == "json":
        _write_output(_json_line(payload), args.output)
        return 0
    lines = [f"{'n':>3} {'qht-rec':>9} {'qht-lcu':>9}"]
    for n, r, l in zip(ns, rec, lcu):
        lines.append(f"{n:>3} {r:>9} {l:>9}")
    lines.append(f"fit rec: {fit_rec[0]:.3f} n^2 + {fit_rec[1]:.3f} n + {fit_rec[2]:.3f}")
    lines.append(f"fit lcu: {fit_lcu[0]:.3f} n^2 + {fit_lcu[1]:.3f} n + {fit_lcu[2]:.3f}")
    lines.append(f"quadratic coefficient ratio rec/lcu: {ratio:.2f}")
    _write_output("\n".join(lines) + "\n", args.output)
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrt-kit",
        description="Build, export and verify quantum real-transform circuits.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_n=True):
        p.add_argument("--transform", required=True, choices=TRANSFORMS)
        if needs_n:
            p.add_argument("--n", type=int, required=True, help="qubit count")
        p.add_argument("--incorrect-d2", action="store_true",
                       help="use the uncorrected Type-IV diagonal (qct4/qst4 only)")
        p.add_argument("--out", dest="output", default=None, help="output path")

    p_build = sub.add_parser("build", help="export a circuit as a gate list")
    common(p_build)
    p_build.set_defaults(func=cmd_build)

    p_verify = sub.add_parser("verify", help="check a circuit against its oracle")
    common(p_verify)
    p_verify.add_argument("--tolerance", type=float, default=1e-10)
    p_verify.set_defaults(func=cmd_verify)

    p_counts = sub.add_parser("counts", help="gate-count table for a transform")
    common(p_counts, needs_n=False)
    sizes = p_counts.add_mutually_exclusive_group(required=True)
    sizes.add_argument("--n", type=int)
    sizes.add_argument("--n-range", type=_parse_range, metavar="LO:HI")
    p_counts.add_argument("--format", choices=("text", "json"), default="text")
    p_counts.set_defaults(func=cmd_counts)

    p_table = sub.add_parser("table1", help="recursive vs LCU complexity comparison")
    p_table.add_argument("--n-range", type=_parse_range, required=True, metavar="LO:HI")
    p_table.add_argument("--format", choices=("text", "json"), default="text")
    p_table.add_argument("--out", dest="output", default=None)
    p_table.set_defaults(func=cmd_table1)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    sizes = [args.n] if getattr(args, "n", None) is not None else []
    sizes += list(getattr(args, "n_range", None) or ())
    try:
        for n in sizes:
            if not 1 <= n <= MAX_N:
                raise ValueError(f"n must lie within 1..{MAX_N}, got {n}")
        return args.func(args)
    except (ValueError, MemoryError, OSError) as exc:
        # a size too large for this machine, or an --out path that cannot be
        # written, is a usage error, not a failed verification
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
