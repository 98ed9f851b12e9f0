"""The README's library example runs as printed, and the package exports
exactly the names it documents."""
import contextlib
import io
import pathlib
import types

import qrt_kit

README = pathlib.Path(__file__).parent.parent / "README.md"


def _library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_example_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_library_example(), str(README), "exec"), {})
    error, residual = (float(word) for word in out.getvalue().split())
    assert error < 1e-12
    assert residual < 1e-12


def test_public_names():
    names = sorted(name for name, value in vars(qrt_kit).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == [
        "AmplificationReport", "BlockIdentityReport", "Circuit", "Gate",
        "GateCountReport", "TransformSpec", "adjoint", "build_cond_decrement",
        "build_cond_increment", "build_cond_ones_complement",
        "build_cond_twos_complement", "build_cx_zero_detect", "build_d1",
        "build_d2", "build_g_gate", "build_or_gate", "build_or_tree",
        "build_qcst_type1", "build_qcst_type2", "build_qcst_type3",
        "build_qcst_type4", "build_qft", "build_qft_inverse", "build_qht_lcu",
        "build_qht_recursive", "build_qst1_optimized", "build_t_gate",
        "build_type1_core", "build_unitary_ur", "build_unitary_w", "cas",
        "check_oblivious_amplification", "classical_image",
        "classical_map_error", "count_gates", "data_register_action",
        "data_register_chunks", "export_circuit", "or_tree_error",
        "parse_circuit", "reference_columns", "reference_matrix",
        "verify_block_identity",
    ]
