"""Pinned ``qrt-kit verify`` reports.

``tests/golden/verify_reports.json`` holds the verify JSON of every
transform at n = 2..6, plus ``qct4 --n 5 --incorrect-d2``.  Every field must
stay identical, except ``max_error`` and ``ancilla_residual``: a change to
the simulator may reorder floating-point products, so those two may move by
at most ``ROUNDING``.

Regenerate (only when a report is meant to change) with
``PYTHONPATH=src python tests/test_verify_reports.py``.
"""
import json
import pathlib

from qrt_kit import cli

GOLDEN = pathlib.Path(__file__).parent / "golden" / "verify_reports.json"
SIZES = range(2, 7)
ROUNDING = 1e-15
_NUMERIC = ("max_error", "ancilla_residual")


def _cases():
    cases = [(name, n, False) for name in cli.TRANSFORMS for n in SIZES]
    return cases + [("qct4", 5, True)]


def _key(name, n, incorrect_d2):
    return f"{name}/{n}" + ("/incorrect-d2" if incorrect_d2 else "")


def current_reports() -> dict:
    out = {}
    for name, n, incorrect_d2 in _cases():
        report = cli.verify_transform(name, n, 1e-10, incorrect_d2)
        # the exact text ``qrt-kit verify`` prints, read back
        out[_key(name, n, incorrect_d2)] = json.loads(cli._json_line(report))
    return out


def test_verify_reports_match_golden():
    assert_match_golden(current_reports())


def assert_match_golden(current: dict):
    """``current`` holds the golden keys, each report within the rule above."""
    recorded = json.loads(GOLDEN.read_text())
    assert sorted(current) == sorted(recorded)
    for key, want in recorded.items():
        got = current[key]
        assert sorted(got) == sorted(want), key
        for field, value in want.items():
            if field in _NUMERIC:
                assert abs(got[field] - value) <= ROUNDING, (key, field, got[field], value)
            else:
                assert got[field] == value, (key, field)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(current_reports(), indent=1, sort_keys=True) + "\n")
