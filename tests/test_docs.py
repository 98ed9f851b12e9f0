"""The README's library example runs as printed, the names it cites
exist, and the package exports exactly the names it documents."""
import contextlib
import importlib
import io
import pathlib
import pkgutil
import re
import types

import qrt_kit
from qrt_kit import cli

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


def test_readme_names_resolve():
    # every backticked `module.name` (a module of the package) and
    # `qrt_kit.name` must name something the package has
    modules = {info.name for info in pkgutil.iter_modules(qrt_kit.__path__)}
    cited = re.findall(r"`([A-Za-z_]\w*)\.([A-Za-z_]\w*)`", README.read_text(encoding="utf-8"))
    checked = [(owner, name) for owner, name in cited if owner in modules | {"qrt_kit"}]
    assert len(checked) >= 5
    for owner, name in checked:
        if owner == "qrt_kit":
            assert hasattr(qrt_kit, name) or name in modules, f"qrt_kit.{name}"
        else:
            assert hasattr(importlib.import_module(f"qrt_kit.{owner}"), name), f"{owner}.{name}"


def test_public_names():
    names = sorted(name for name, value in vars(qrt_kit).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == [
        "Circuit", "Gate", "TransformSpec",
        "build_cond_increment", "build_cond_twos_complement", "build_or_tree",
        "build_qcst_type1", "build_qcst_type2", "build_qcst_type3",
        "build_qcst_type4", "build_qft", "build_qht_lcu", "build_qht_recursive",
        "build_qst1_optimized", "check_blocks", "classical_map_error",
        "count_gates", "data_register_chunks",
        "export_circuit", "parse_circuit", "reference_columns",
    ]


def test_exported_builders_are_the_cli_builders():
    # a builder only tests call is built in the tests from the fragments
    exported = {value for name, value in vars(qrt_kit).items() if name.startswith("build_")}
    assert exported == {build for build, _ in cli._TABLE.values()}
