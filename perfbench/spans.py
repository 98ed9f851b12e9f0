"""Span tracing of the program's layers from outside the program.

``Tracer.install`` wraps every public function of the given modules and
patches the wrapper into every module namespace that binds the original,
so that a call through ``cli.data_register_action`` or
``trig.data_register_action`` is traced as well as one through
``simcore``.  Spans are kept in memory, one list per pass, and reduced to
per-layer metrics after the pass.  Classes (``Gate``, ``Circuit``,
``CircuitBuilder``) and private functions are not wrapped, so their time
counts as self time of the public function that called them.
"""
from __future__ import annotations

import functools
import inspect
import statistics
import time
from collections import defaultdict

LAYER_MODULES = ("simcore", "oracle", "trig", "hartley", "gadgets", "qft", "cli")

KINDS = ("X", "H", "S", "Sdg", "Phase", "CPhase", "CNOT", "Toffoli", "SWAP", "GlobalPhase")
"""Gate kinds reported one by one: those of the widest simulated circuit of
some workload.  Any other kind is reported under ``simcore.kind_s.other``."""

PER_LAYER_UNITS = {
    "simcore.simulate_s": "s",
    "simcore.simulate_calls": "count",
    "simcore.dense_amp_gates": "count",
    "simcore.ns_per_amp_gate": "ns",
    **{f"simcore.kind_s.{kind}": "s" for kind in KINDS},
    "simcore.kind_s.other": "s",
    "simcore.ir_s": "s",
    "simcore.export_s": "s",
    "simcore.parse_s": "s",
    "simcore.count_s": "s",
    "simcore.other_s": "s",
    "oracle.reference_s": "s",
    "oracle.reference_calls": "count",
    "trig.block_compare_s": "s",
    "trig.build_s": "s",
    "hartley.build_s": "s",
    "gadgets.build_s": "s",
    "qft.build_s": "s",
    "build.gates": "count",
    "cli.verify_self_s": "s",
    "cli.io_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

_SIMCORE_LAYERS = {
    "data_register_action": "simcore.simulate_s",
    "export_circuit": "simcore.export_s",
    "parse_circuit": "simcore.parse_s",
    "count_gates": "simcore.count_s",
}


def layer_of(span_name: str) -> str:
    """The per-layer time metric a span's self time is charged to."""
    module, func = span_name.split(".", 1)
    if module == "simcore":
        return _SIMCORE_LAYERS.get(func, "simcore.other_s")
    if module == "oracle":
        return "oracle.reference_s"
    if module == "trig":
        if func in ("verify_block_identity", "embedding_as_json_dict"):
            return "trig.block_compare_s"
        return "trig.build_s"
    if module == "cli":
        return "cli.verify_self_s" if func == "verify_transform" else "cli.io_s"
    return f"{module}.build_s"


def _simulated(args, kwargs):
    circuit = args[0] if args else kwargs["circuit"]
    data_wires = args[1] if len(args) > 1 else kwargs.get("data_wires")
    if data_wires is None:
        data_wires = circuit.data_wires
    return circuit, list(data_wires)


class Tracer:
    """Records one span per call of a wrapped function:
    ``[name, parent index, start, end, item, extra]``, where ``extra`` is
    (circuit, data wires) for a simulation and the gate count for a build."""

    def __init__(self):
        self.spans: list[list] = []
        self.built: list = []  # circuits from cli.build_transform, until taken
        self.item = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        keep_args = name == "simcore.data_register_action"
        keep_result = name == "cli.build_transform"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, self.item, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if keep_args:
                span[5] = _simulated(args, kwargs)
            elif keep_result:
                span[5] = len(result.gates)
                self.built.append(result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap the public functions of ``package``'s layer modules."""
        modules = [getattr(package, name) for name in LAYER_MODULES]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn))
        for mod in [package, *modules]:
            for attr, value in list(vars(mod).items()):
                pair = wrappers.get(id(value))
                if pair is not None and pair[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, pair[1])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.built.clear()

    def take_built(self) -> list:
        built = list(self.built)
        self.built.clear()
        return built


def layer_metrics(spans) -> dict:
    """Per-layer self times, call counts and work counts of one pass."""
    child = [0.0] * len(spans)
    for _, parent, start, end, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = defaultdict(float)
    out.update({"simcore.simulate_calls": 0, "oracle.reference_calls": 0,
                "simcore.dense_amp_gates": 0, "build.gates": 0})
    for i, (name, _, start, end, _, extra) in enumerate(spans):
        out[layer_of(name)] += (end - start) - child[i]
        if name == "simcore.data_register_action":
            circuit, data_wires = extra
            out["simcore.simulate_calls"] += 1
            out["simcore.dense_amp_gates"] += (
                len(circuit.gates) << (circuit.width + len(data_wires)))
        elif name == "oracle.reference_matrix":
            out["oracle.reference_calls"] += 1
        elif name == "cli.build_transform":
            out["build.gates"] += extra
    amp_gates = out["simcore.dense_amp_gates"]
    out["simcore.ns_per_amp_gate"] = (
        out["simcore.simulate_s"] * 1e9 / amp_gates if amp_gates else 0.0)
    return dict(out)


def widest_simulated(spans):
    """(circuit, data_wires) of the widest circuit simulated in a pass, ties
    broken by dense work; None when nothing was simulated."""
    calls = [extra for name, *_, extra in spans if name == "simcore.data_register_action"]
    if not calls:
        return None
    return max(calls, key=lambda cw: (cw[0].width, len(cw[0].gates) << len(cw[1])))


def rebuild_seconds(circuits, gate_cls, circuit_cls) -> float:
    """Time to rebuild the Gate and Circuit objects of the given circuits."""
    t0 = time.perf_counter()
    for c in circuits:
        gates = tuple(gate_cls(g.kind, g.controls, g.targets, g.angle) for g in c.gates)
        circuit_cls(c.width, gates, c.ancillas, c.relabeling, c.label)
    return time.perf_counter() - t0


def kind_seconds(circuit, data_wires, circuit_cls, simulate) -> dict:
    """Simulation time of each kind-filtered copy of ``circuit``."""
    out = {f"simcore.kind_s.{kind}": 0.0 for kind in KINDS}
    out["simcore.kind_s.other"] = 0.0
    for kind in sorted({g.kind for g in circuit.gates}):
        only = tuple(g for g in circuit.gates if g.kind == kind)
        copy = circuit_cls(circuit.width, only, circuit.ancillas)
        t0 = time.perf_counter()
        simulate(copy, data_wires)
        name = f"simcore.kind_s.{kind}" if kind in KINDS else "simcore.kind_s.other"
        out[name] += time.perf_counter() - t0
    return out


def median_metrics(per_pass: list[dict]) -> dict:
    names = {name for p in per_pass for name in p}
    return {name: statistics.median(p.get(name, 0.0) for p in per_pass) for name in names}
