"""qrt-kit: gate-level circuits for quantum real transforms.

Circuit constructions for the quantum Hartley transform (recursive and LCU)
and the Type I-IV quantum cosine and sine transforms, the reversible
arithmetic they need, classical reference matrices, and a simulator that
checks every circuit against its oracle.
"""
from .simcore import (
    Circuit,
    Gate,
    GateCountReport,
    adjoint,
    classical_image,
    count_gates,
    data_register_action,
    data_register_chunks,
    export_circuit,
    parse_circuit,
)
from .gadgets import (
    build_cond_decrement,
    build_cond_increment,
    build_cond_ones_complement,
    build_cond_twos_complement,
    build_or_gate,
    build_or_tree,
    classical_map_error,
)
from .qft import build_qft, build_qft_inverse
from .oracle import (
    TransformSpec,
    cas,
    reference_columns,
    reference_matrix,
)
from .hartley import (
    AmplificationReport,
    build_cx_zero_detect,
    build_qht_lcu,
    build_qht_recursive,
    build_unitary_ur,
    build_unitary_w,
    check_oblivious_amplification,
)
from .trig import (
    build_d1,
    build_d2,
    build_g_gate,
    build_qcst_type1,
    build_qcst_type2,
    build_qcst_type3,
    build_qcst_type4,
    build_qst1_optimized,
    build_t_gate,
    build_type1_core,
    check_blocks,
)

__version__ = "0.1.0"
