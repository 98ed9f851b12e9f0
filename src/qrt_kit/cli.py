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

import numpy as np

from . import gadgets, hartley, oracle, qft, trig
from .simcore import count_gates, export_circuit

SCHEMA_VERSION = 1
MAX_N = 512

TRANSFORMS = (
    "qht-lcu", "qht-rec", "qct1", "qst1", "qst1-opt", "qct2", "qst2",
    "qct3", "qst3", "qct4", "qst4", "qft", "inc", "twos-comp", "or-tree",
)

# transforms checked against oracle blocks on their data register: the label
# of the first block, then the oracle kind of each block, laid end to end
# from there.  qst1-opt's sine domain is register values 1..N-1, with the
# control at 0; a cosine/sine pair is checked by ``trig.verify_block_identity``.
_ORACLE_BLOCKS = {
    "qht-lcu": (0, "DHT"), "qht-rec": (0, "DHT"), "qft": (0, "DFT"),
    "qst1-opt": (1, "DST1"),
    "qct1": (0, "DCT1", "DST1"), "qst1": (0, "DCT1", "DST1"),
    "qct2": (0, "DCT2", "DST2"), "qst2": (0, "DCT2", "DST2"),
    "qct3": (0, "DCT3", "DST3"), "qst3": (0, "DCT3", "DST3"),
    "qct4": (0, "DCT4", "DST4"), "qst4": (0, "DCT4", "DST4"),
}


def build_transform(name: str, n: int, incorrect_d2: bool = False):
    if name == "qht-lcu":
        return hartley.build_qht_lcu(n)
    if name == "qht-rec":
        return hartley.build_qht_recursive(n)
    if name in ("qct1", "qst1"):
        return trig.build_qcst_type1(n)
    if name == "qst1-opt":
        return trig.build_qst1_optimized(n)
    if name in ("qct2", "qst2"):
        return trig.build_qcst_type2(n)
    if name in ("qct3", "qst3"):
        return trig.build_qcst_type3(n)
    if name in ("qct4", "qst4"):
        return trig.build_qcst_type4(n, corrected=not incorrect_d2)
    if name == "qft":
        return qft.build_qft(n)
    if name == "inc":
        return gadgets.build_cond_increment(n)
    if name == "twos-comp":
        return gadgets.build_cond_twos_complement(n)
    if name == "or-tree":
        return gadgets.build_or_tree(n)
    raise ValueError(f"unknown transform {name!r}")


def verify_transform(name: str, n: int, tolerance: float, incorrect_d2: bool = False) -> dict:
    """Run the oracle check for one transform; returns the report dict.

    ``tolerance`` must lie strictly between 0 and 1: entries of two
    unitaries differ by at most 2, so a tolerance of 1 or more (or inf)
    cannot reject anything, and nan rejects everything.
    """
    if not 0 < tolerance < 1:
        raise ValueError(f"tolerance must lie strictly between 0 and 1, got {tolerance}")
    circuit = build_transform(name, n, incorrect_d2)
    report = {
        "schema": SCHEMA_VERSION,
        "transform": name,
        "n": n,
        "tolerance": tolerance,
    }
    N = 1 << n
    if name in _ORACLE_BLOCKS:
        first, *kinds = _ORACLE_BLOCKS[name]
        specs = [oracle.TransformSpec(kind, N) for kind in kinds]
        if len(specs) == 2:
            block_report = trig.verify_block_identity(circuit, *specs)
            max_error = block_report.max_error()
            residual = block_report.ancilla_residual
            report["embedding"] = trig.embedding_as_json_dict(block_report, name, n)
        else:
            (max_error,), residual = trig._check_blocks(circuit, [(specs[0], first, 1)])
    elif name in ("inc", "twos-comp"):
        wrap = (lambda c, x: (x + c) % N) if name == "inc" else \
            (lambda c, x: (N - x) % N if c else x)
        max_error, residual = gadgets.classical_map_error(circuit, n, wrap)
    elif name == "or-tree":
        max_error, residual = gadgets.or_tree_error(circuit, n), 0.0
    else:
        raise ValueError(f"unknown transform {name!r}")
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
        rep = count_gates(build_transform(args.transform, n, args.incorrect_d2))
        rows.append({
            "transform": args.transform, "n": n, "total": rep.total,
            "width": rep.width, "ancillas": rep.ancilla_count,
            "counts": dict(sorted(rep.counts.items())), "notes": rep.notes,
        })
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
    rec = [count_gates(hartley.build_qht_recursive(n)).total for n in ns]
    lcu = [count_gates(hartley.build_qht_lcu(n)).total for n in ns]
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
    p_counts.add_argument("--n", type=int, default=None)
    p_counts.add_argument("--n-range", type=_parse_range, default=None,
                          metavar="LO:HI")
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
    if getattr(args, "command", None) == "counts" and args.n is None and args.n_range is None:
        parser.error("counts needs --n or --n-range")
    if getattr(args, "incorrect_d2", False) and args.transform not in ("qct4", "qst4"):
        parser.error("--incorrect-d2 applies to qct4/qst4 only")
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
