"""qrt-kit: gate-level circuits for quantum real transforms.

Circuit constructions for the quantum Hartley transform (recursive and LCU)
and the Type I-IV quantum cosine and sine transforms, the reversible
arithmetic they need, classical reference matrices, and a simulator that
checks every circuit against its oracle.
"""
from .simcore import (
    Circuit,
    Gate,
    count_gates,
    data_register_chunks,
    export_circuit,
    parse_circuit,
)
from .gadgets import (
    build_cond_increment,
    build_cond_twos_complement,
    build_or_tree,
    classical_map_error,
)
from .qft import build_qft
from .oracle import TransformSpec, reference_columns
from .hartley import (
    build_qht_lcu,
    build_qht_recursive,
)
from .trig import (
    build_qcst_type1,
    build_qcst_type2,
    build_qcst_type3,
    build_qcst_type4,
    build_qst1_optimized,
    check_blocks,
)

__version__ = "0.1.0"
