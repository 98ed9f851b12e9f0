"""Elementary gate set, circuit IR, and the simulation of a circuit's action on
a data register: one stream of column chunks, each checked as it is made,
from the first of three routes (``_route``) whose compile takes the circuit.

Conventions used throughout the package:

* qubit 0 is the least significant bit of a register value, so the basis
  label of a classical assignment is ``sum(bit[w] << w)``;
* a ``Circuit``'s ancillas are its top wires, so its data register is
  wires 0..d-1 (``Circuit.data_wires``); control qubits sit on higher wire
  indices than the data register they serve;
* a ``Circuit`` may carry a final ``relabeling`` -- a gate-free renaming of
  wires applied after the last gate.
"""
from __future__ import annotations

import math
import operator
from collections import Counter, deque
from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple

import numpy as np

SQRT2_INV = 1.0 / math.sqrt(2.0)


class _Kind(NamedTuple):
    """What a gate kind is.  ``action`` is what the gate does to its
    targets where every control is 1: "X" or "SWAP" (a basis permutation),
    "H" (the butterfly), "GlobalPhase" (e^{i angle} on every label), or for
    a diagonal gate the function of the angle that gives its phases on |0>
    and |1>."""

    controls: int
    targets: int
    takes_angle: bool
    inverse: str  # of the same operands; an angle is negated
    action: object


def _diagonal(on0, on1):
    return lambda angle: (on0, on1)


def _phase(angle):
    return 1, np.exp(1j * angle)


_S, _SDG = _diagonal(1, 1j), _diagonal(1, -1j)

# The elementary gate set, one row per kind.  The export name of a kind is
# its name in lower case.
_KINDS = {
    "X": _Kind(0, 1, False, "X", "X"),
    "Z": _Kind(0, 1, False, "Z", _diagonal(1, -1)),
    "H": _Kind(0, 1, False, "H", "H"),
    "S": _Kind(0, 1, False, "Sdg", _S),
    "Sdg": _Kind(0, 1, False, "S", _SDG),
    "Phase": _Kind(0, 1, True, "Phase", _phase),
    "Rz": _Kind(0, 1, True, "Rz", lambda angle: (np.exp(-0.5j * angle), np.exp(0.5j * angle))),
    "CPhase": _Kind(1, 1, True, "CPhase", _phase),
    "CNOT": _Kind(1, 1, False, "CNOT", "X"),
    "CH": _Kind(1, 1, False, "CH", "H"),
    "CS": _Kind(1, 1, False, "CSdg", _S),
    "CSdg": _Kind(1, 1, False, "CS", _SDG),
    "Toffoli": _Kind(2, 1, False, "Toffoli", "X"),
    "SWAP": _Kind(0, 2, False, "SWAP", "SWAP"),
    "GlobalPhase": _Kind(0, 0, True, "GlobalPhase", "GlobalPhase"),
}
_BUTTERFLIES = frozenset(k for k, row in _KINDS.items() if row.action == "H")
_PERMUTATIONS = frozenset(k for k, row in _KINDS.items() if row.action in ("X", "SWAP"))
_BY_NAME = {kind.lower(): kind for kind in _KINDS}

MAX_WIDTH = 1 << 16
"""Widest register a ``Circuit`` may have.  It sits far above the widest
built circuit (qht-rec at the CLI's largest n, 512, has 1533 wires) and
keeps every width-sized structure (the relabeling, a parsed circuit) small,
whatever wire index a gate list names."""


@dataclass(frozen=True)
class Gate:
    """One elementary gate instance: kind, control wires, target wires, angle."""

    kind: str
    controls: tuple[int, ...] = ()
    targets: tuple[int, ...] = ()
    angle: float | None = None

    def __post_init__(self):
        row = _KINDS.get(self.kind)
        if row is None:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        n_ctrl, n_tgt, takes_angle, _, _ = row
        if len(self.controls) != n_ctrl:
            raise ValueError(f"{self.kind} takes {n_ctrl} controls, got {len(self.controls)}")
        if len(self.targets) != n_tgt:
            raise ValueError(f"{self.kind} takes {n_tgt} targets, got {len(self.targets)}")
        if takes_angle:
            if self.angle is None or not math.isfinite(self.angle):
                raise ValueError(f"{self.kind} requires a finite angle")
        elif self.angle is not None:
            raise ValueError(f"{self.kind} takes no angle")
        ops = self.controls + self.targets
        try:
            for q in ops:
                operator.index(q)
        except TypeError:
            raise ValueError(f"gate operands must be integers, got {ops}") from None
        if len(set(ops)) != len(ops):
            raise ValueError(f"gate operands must be distinct, got {ops}")
        if any(q < 0 for q in ops):
            raise ValueError("negative wire index")

    @property
    def operands(self) -> tuple[int, ...]:
        return self.controls + self.targets

    def inverse(self) -> "Gate":
        kind = _KINDS[self.kind].inverse
        if self.angle is not None:
            return Gate(kind, self.controls, self.targets, -self.angle)
        return self if kind == self.kind else Gate(kind, self.controls, self.targets)


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list over a fixed-width register.

    ``ancillas`` are the wires that enter and leave in |0>, and must be the
    top wires, so the data register is wires 0..d-1; ``relabeling`` maps
    each wire to its final name (``relabeling[w]`` is where the content of
    wire ``w`` ends up).
    """

    width: int
    gates: tuple[Gate, ...] = ()
    ancillas: frozenset[int] = frozenset()
    relabeling: tuple[int, ...] | None = None
    label: str = ""

    def __post_init__(self):
        try:
            object.__setattr__(self, "width", operator.index(self.width))
            object.__setattr__(self, "ancillas", frozenset(map(operator.index, self.ancillas)))
            if self.relabeling is not None:
                object.__setattr__(self, "relabeling", tuple(map(operator.index, self.relabeling)))
        except TypeError:
            raise ValueError("width, ancillas and relabeling must be integers") from None
        if not 0 <= self.width <= MAX_WIDTH:
            raise ValueError(f"width {self.width} outside 0..{MAX_WIDTH}")
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            for q in g.operands:
                if q >= self.width:
                    raise ValueError(f"gate operand {q} outside width {self.width}")
        if self.ancillas != set(range(self.width - len(self.ancillas), self.width)):
            raise ValueError(f"ancillas must be the top wires of width {self.width}, "
                             f"got {sorted(self.ancillas)}")
        if self.relabeling is not None:
            if sorted(self.relabeling) != list(range(self.width)):
                raise ValueError("relabeling must be a permutation of the wires")

    @property
    def data_wires(self) -> range:
        """The data register: every wire below the ancillas."""
        return range(self.width - len(self.ancillas))


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------


def _butterfly(flat: np.ndarray, t: int, scratch: np.ndarray) -> None:
    """Apply an H on row bit ``t`` in place on a C-contiguous (2^d, B)
    batch, as a butterfly over the two halves of the 3-D view ``(rest, bit
    t, lower rows and columns)``, through ``scratch`` (at least half the
    batch's size); the 1/sqrt(2) is left for the caller."""
    view = flat.reshape(-1, 2, flat.shape[1] << t)
    a, b = view[:, 0], view[:, 1]
    diff = scratch[:a.size].reshape(a.shape)
    np.subtract(a, b, out=diff)
    a += b
    b[...] = diff


def _layers(circuit: Circuit, d: int):
    """The dense engine's program for ``circuit`` on the data register of
    wires 0..d-1, as ``(layers, leak)`` over 2^d rows; None where the rules
    below fail, and the sparse engine runs instead.

    Row ``r`` stands for one basis label, ``keys[r]``, whose low d bits are
    ``r``; its other (ancilla) bits start at 0 and then hold classical
    functions of the data.  Each maximal run of gates other than H and CH
    goes through ``_monomial`` on those 2^d keys and is one
    ``_monomial_layer``.  An H is a butterfly on its row bit, the layer an
    ``int``; a CH is a (2, m) array of the row pairs it mixes.  ``leak``
    holds the rows whose final label has an ancilla bit set.  The rules, all
    checked in integers: the circuit has no final relabeling (only the
    sparse route relabels), each run maps the rows one to one, every
    butterfly targets a data wire, and the two rows of every pair a
    butterfly mixes hold the same ancilla bits.  With no ancilla the keys
    stay the row numbers."""
    # checked before anything 2^d-sized
    if circuit.width > _KEY_BITS or circuit.relabeling is not None or any(
            g.kind in _BUTTERFLIES and g.targets[0] >= d for g in circuit.gates):
        return None
    rows = np.arange(1 << d, dtype=np.int64)
    keys, layers, run = rows.copy(), [], []
    for gate in circuit.gates + (None,):  # None: the end, which closes the last run
        last = gate is None
        if not last and gate.kind not in _BUTTERFLIES:
            run.append(gate)
            continue
        if run:
            step = _monomial_layer(run, keys, rows)
            if step is None:
                return None
            keys, layer = step
            layers.append(layer)
            run = []
        if last:
            return layers, np.flatnonzero(keys >> d)
        ctrl, bit = _masks(gate, 0)
        on = np.flatnonzero((keys & ctrl) == ctrl) if ctrl else rows
        if circuit.width > d and np.any((keys[on] ^ keys[on ^ bit]) >> d):
            return None
        if ctrl:
            lo = on[(on & bit) == 0]
            layers.append(np.stack((lo, lo | bit)))
        else:
            layers.append(gate.targets[0])


def _monomial_layer(run, keys, rows):
    """One run of ``_layers`` on ``keys``, which it consumes: the keys after
    it and its ``(inv, phase)`` layer, where output row ``i`` takes the
    amplitude of input row ``inv[i]`` times ``phase[i]``; None when the run
    does not map the rows one to one.  ``inv`` is None when the run permutes
    no row, ``phase`` None when it multiplies by no phase."""
    phase = np.ones(len(keys), dtype=complex)
    for gate in run:
        phase = _monomial(gate, 0)(keys, phase)
    phase = None if np.all(phase == 1) else phase
    dest = keys & (len(rows) - 1)
    if np.array_equal(dest, rows):
        return keys, (None, phase)
    inv = np.full_like(rows, -1)
    inv[dest] = rows
    if inv.min() < 0:
        return None
    return keys[inv], (inv, None if phase is None else phase[inv])


_MAX_DEFERRED_H = 64
"""H layers whose 1/sqrt(2) may wait: 2^32 of growth, far
from overflow."""


def _h_scale(count: int) -> float:
    """sqrt(1/2)^count, exact in its power-of-two part."""
    return 0.5 ** (count // 2) * (SQRT2_INV if count % 2 else 1.0)


def _run_flat(flat: np.ndarray, layers) -> np.ndarray:
    """Run compiled ``_layers`` on a C-contiguous (2^d, B) batch of
    amplitude columns, which it consumes: callers pass arrays they own.

    An H is an add and a subtract; its 1/sqrt(2) is folded into the next
    phase multiply, or applied once at the end, which saves a pass over the
    block per H.  Against a butterfly that scales its own halves, medians
    of 12 alternating pairs of in-process verifies on a 2-core Xeon: 0.678
    against 0.722 s on qct2 7 plus qst1-opt 7 run 50 times (the plain
    butterfly won 1 pair) and 2.86 against 3.23 s on qct2 12 (won none)."""
    scratch = np.empty(flat.size // 2, dtype=complex)
    deferred = 0
    for layer in layers:
        if isinstance(layer, tuple):
            inv, phase = layer
            if inv is not None:
                flat = flat[inv]
            if phase is not None:
                if deferred:
                    phase, deferred = phase * _h_scale(deferred), 0
                flat *= phase[:, None]
        elif isinstance(layer, np.ndarray):  # the row pairs of a CH
            a, b = flat[layer[0]], flat[layer[1]]
            flat[layer[0]] = (a + b) * SQRT2_INV
            flat[layer[1]] = (a - b) * SQRT2_INV
        else:  # the row bit of an H
            _butterfly(flat, layer, scratch)
            deferred += 1
            if deferred == _MAX_DEFERRED_H:
                flat *= _h_scale(deferred)
                deferred = 0
    if deferred:
        flat *= _h_scale(deferred)
    return flat


STATEVECTOR_WIDTH_CAP = 20

_DENSE_BATCH = 32
"""Columns per chunk of the dense route, and the product route's block
width: a 1024-row batch is 0.5 MB, and on a pooled register ``_WORKERS``
run at once (a dense register of d <= ``_SMALL_D`` runs its at most 8
chunks on the calling thread: qct2 7 took 10.5 ms pooled against 8.2 ms
inline, see ``data_register_chunks``).  No width wins on every size, and 32 is
never the slowest of three.  Medians of 12 alternating rounds of fresh
in-process verifies on a 2-core Xeon, 32 against 16 and 64 columns (all
rounds on the pool):

* dense route, qct2 7 plus qst1-opt 7 run 50 times: 0.65 s, 1.10 s and
  0.54 s (64 faster in all 12), peaking at 31, 31 and 32 MB;
* dense route, qct2 12: 2.65 s, 3.09 s and 2.67 s, at 59, 45 and 85 MB;
* product route, qct4 9 plus qft 10 run 25 times: 0.84 s, 1.13 s and
  0.74 s (64 faster in all 12), at 36, 34 and 39 MB;
* product route, qct4 13: 4.12 s, 3.45 s (16 faster in 9 of 12) and
  4.84 s, at 76, 52 and 117 MB."""

_WORKERS = 2
"""Threads that run the column chunks of a register its route pools (see
``data_register_chunks``), one per core of a 2-core host; never sized from
the input.  Below the pool's boundary a worker does no work the calling
thread would not: qft 8 spent 6.3 ms of CPU in 5.3 ms on the pool against
3.8 ms in 3.8 ms inline.  Above it the pool pays: pool against inline,
qct2 9 (d = 10) 55.4 against 78.1 ms and qft 11 50.9 against 62.7 ms
(medians of 9 alternating in-process verifies on a 2-core Xeon).  In the rounds of
``_DENSE_BATCH``, one thread took 5.06 s against 2.65 s on qct2 12 (dense
route), but 2.92 s against 4.12 s on qct4 13 (product route), faster in
all 12 rounds there and peaking at 57 against 76 MB."""

_SMALL_D = 8
"""Widest data register the dense and sparse routes run on the calling
thread: the sparse route as one chunk of all 2^d columns
(``_sparse_chunk_bits``), the dense route chunk after chunk."""


def _sparse_chunk_bits(d: int) -> int:
    """log2 of the columns the sparse route runs at a time on a d-wire data
    register.  Up to d = ``_SMALL_D`` all 2^d columns run as one chunk,
    where one pass over the gate list costs least; a wider register runs
    2^6 columns at a time.  Timed on the route's traffic, the Hartley pair,
    in ten alternating in-process runs on a 2-core Xeon: 2^6 columns from
    d = 7 on were slower at d = 7 (qht-lcu 7 plus qht-rec 7: 0.0315 against
    0.0519 s) and d = 8 (qht-lcu 8 plus qht-rec 8: 0.0999 against 0.117 s),
    losing all ten; 2^8 columns at d = 10-11 (qht-lcu 11 plus qht-rec 10)
    were slower too, 1.55 against 1.71 s, losing eight of ten."""
    return d if d <= _SMALL_D else 6


def data_register_action(circuit: Circuit):
    """Action of the circuit on its data register with the ancillas in |0>.

    Returns ``(matrix, residual)`` where ``matrix[r, c]`` is the amplitude of
    data basis state r given input c, and ``residual`` bounds the output
    amplitude outside the all-ancillas-zero subspace.  A residual at
    rounding level certifies that the ancillas are returned clean and that
    ``matrix`` is the whole story.  This is ``data_register_chunks``
    concatenated, under a check that copies each block (a route may reuse
    its buffer); see there for the routes and the residual.
    """
    return _assemble(data_register_chunks(circuit, lambda _, block: block.copy()))


def data_register_chunks(circuit: Circuit, check):
    """``data_register_action`` as a stream of checked column chunks.

    Yields ``(start, check(start, block), residual)`` in increasing
    ``start``, one per (2^d, k) block of matrix columns
    ``start..start+k-1``; ``check`` runs on the thread that simulated the
    chunk, and the block is only valid until it returns.  ``residual`` is
    the bound for every column yielded so far, so it never decreases and
    the last one covers the whole matrix.

    The route decides where the chunks run.  A register that leaves a
    second thread nothing to overlap runs on the calling thread, chunk
    after chunk, and starts no thread: on the product route one run of the
    terms (2^d <= ``_DENSE_BATCH * _PRODUCT_BLOCKS``, d <= 10), which the
    calling thread computes before the first block; on the dense and
    sparse routes d <= ``_SMALL_D`` (on the sparse route, one chunk).  In
    medians of 9 alternating in-process verifies on a 2-core Xeon, pool
    against inline: qft 10 16.4 against 14.1 ms (21 rounds), qct2 7 10.5
    against 8.2 ms, but qct2 8 (d = 9) 21.3 against 24.8 ms.  A larger register runs on ``_WORKERS``
    threads, at most ``_WORKERS + 1`` chunks in flight, and is yielded in
    column order whatever order the chunks finish in; ``check`` must
    therefore be safe to call from two threads at once.  An exception from
    a chunk or its check is raised here, and closing the stream early
    cancels the chunks not yet started: no thread outlives the stream.

    The data register is ``circuit.data_wires``, wires 0..d-1, at most
    ``STATEVECTOR_WIDTH_CAP`` of them, checked before anything is compiled;
    the ancillas above it start in |0>.  ``_route`` compiles the circuit
    once, before any chunk, and the threads share its program read-only.
    The residual is the largest leak plus the largest pruned norm of any
    chunk, as if all columns ran at once.  On the product and dense routes
    a label left with an ancilla bit set is leak and nothing is pruned, so
    a clean circuit reports exactly 0.0.  The sparse route drops amplitudes
    below 1e-14 and reports the per-column L2 norm it dropped, so the
    residual bounds the true leak and the pruning error of every entry:
    every caller fails a run whose residual reaches its tolerance, so
    pruning hides no leak.
    """
    d = len(circuit.data_wires)
    if d > STATEVECTOR_WIDTH_CAP:
        raise ValueError(f"data registers are capped at {STATEVECTOR_WIDTH_CAP} qubits, "
                         f"got {d}")
    _, *route = _route(circuit, d)
    return _in_order(*route, check)


def _route(circuit: Circuit, d: int):
    """``(name, items, simulate, inline)`` of the first route whose compile
    takes the circuit on data wires 0..d-1, where ``simulate(item, check)``
    gives ``(start, check's result, leak, pruned)`` and ``inline`` says the
    items run on the calling thread (see ``data_register_chunks``):
    "product" when each column stays a sum of at most ``_MAX_TERMS``
    product states and every ancilla classical (the QFT, Types III and
    IV); "dense" on 2^d rows when
    ``_layers`` proves in integers that the ancillas only ever hold
    classical functions of the data (the other cosine and sine circuits);
    else "sparse" (the Hartley pair, whose ancillas go superposed, and any
    circuit with a final relabeling, which only the sparse route runs)."""
    for name, compile_route in (("product", _product_chunks), ("dense", _dense_chunks),
                                ("sparse", _sparse_chunks)):
        if (route := compile_route(circuit, d)) is not None:
            return name, *route


def _assemble(chunks):
    """``(matrix, residual)`` from a stream of ``(start, block, residual)``."""
    blocks, residual = [], 0.0
    for _, block, residual in chunks:
        blocks.append(block)
    return np.concatenate(blocks, axis=1), residual


def _in_order(items, simulate, inline, check):
    """The stream of ``data_register_chunks`` over ``items``, taken lazily,
    from ``simulate(item, check)`` on the calling thread where ``inline``,
    else on the pool."""
    leak = pruned = 0.0

    def fold(start, result, chunk_leak, chunk_pruned):
        nonlocal leak, pruned
        leak, pruned = max(leak, chunk_leak), max(pruned, chunk_pruned)
        return start, result, leak + pruned

    if inline:
        for item in items:
            yield fold(*simulate(item, check))
        return
    # imported here: an inline run never pays for the import
    from concurrent.futures import ThreadPoolExecutor
    pool, queue = ThreadPoolExecutor(_WORKERS), iter(items)
    try:
        pending = deque(pool.submit(simulate, item, check) for item in islice(queue, _WORKERS + 1))
        while pending:
            done = pending.popleft().result()
            pending.extend(pool.submit(simulate, item, check) for item in islice(queue, 1))
            yield fold(*done)
    finally:
        pool.shutdown(cancel_futures=True)


def _dense_chunks(circuit: Circuit, d: int):
    """Dense route of ``_route``, or None where ``_layers`` refuses the
    circuit: ``_DENSE_BATCH`` columns per item run through the 2^d rows of
    its program.  The leak rows are zeroed; their largest amplitude is the
    chunk's leak."""
    if (program := _layers(circuit, d)) is None:
        return None
    layers, leak = program
    dim, batch = 1 << d, _DENSE_BATCH

    def simulate(start, check):
        cols = np.arange(start, min(start + batch, dim))
        # the basis block is passed as a temporary, so that _run_flat's
        # first gather frees it
        block = _run_flat(_basis_columns(dim, cols), layers)
        out = float(np.max(np.abs(block[leak]), initial=0.0))
        block[leak] = 0.0
        return start, check(start, block), out, 0.0

    return range(0, dim, batch), simulate, d <= _SMALL_D


def _basis_columns(dim: int, labels) -> np.ndarray:
    """(dim, len(labels)) block whose column j is basis state labels[j]."""
    block = np.zeros((dim, len(labels)), dtype=complex)
    block[labels, np.arange(len(labels))] = 1.0
    return block


_MAX_TERMS = 8  # most product states the product route holds a column as
_PRODUCT_BLOCKS = 32  # blocks per run of the product route's terms; see _product_chunks
_CH = np.array([np.eye(2), SQRT2_INV * np.array([[1, 1], [1, -1]])])  # off, on


def _product_program(circuit: Circuit, d: int):
    """The product route's ``(steps, terms)`` for ``circuit`` on data wires
    0..d-1, or None when a column would need more than ``_MAX_TERMS``
    terms, an ancilla would be superposed, or the circuit has a final
    relabeling.  A term is an int64 label of the classical wires, a 2-vector
    per superposed wire and an amplitude (Griffiths & Niu,
    arXiv:quant-ph/9511007); which wires are superposed follows from the
    gate list alone.  A gate splits every term on its superposed controls
    (a diagonal gate on all its superposed operands but the last), one term
    per value; H or CH makes a classical wire superposed; any other gate
    acts on one factor (``_local``) or on the labels (``_monomial``)."""
    if circuit.width > _KEY_BITS or circuit.relabeling is not None:
        return None
    sup, terms, plan, probes = set(), 1, [], {}
    for gate in circuit.gates:  # a step's argument is built once the plan passes
        action, ops = _KINDS[gate.kind].action, gate.operands
        splits = ([w for w in ops if w in sup][:-1] if callable(action)
                  else [w for w in gate.controls if w in sup])
        terms <<= len(splits)
        plan += [("split", w, None) for w in splits]
        sup.difference_update(splits)
        if action == "H" and gate.targets[0] not in sup:
            plan.append(("promote", gate.targets[0], None))
            sup.add(gate.targets[0])
        live, mask = [w for w in ops if w in sup], sum(1 << w for w in ops if w not in sup)
        if action == "H":
            plan.append(("local", gate.targets[0], lambda m=mask: (m, _CH)))
        elif live and action != "SWAP":
            plan.append(("local", live[0], lambda a=(gate, live[0], mask, probes): _local(*a)))
        else:  # on the labels; a SWAP may move a superposed wire, and its factor row
            rows = list(gate.targets) if live else []
            plan.append(("label", rows, lambda g=gate: _monomial(g, 0)))
            sup = {sum(rows) - w if w in rows else w for w in sup}
        if terms > _MAX_TERMS or max(sup, default=0) >= d:
            return None
    plan += [("promote", w, None) for w in range(d) if w not in sup]
    return [(op, w, make and make()) for op, w, make in plan], terms


def _local(gate: Gate, w: int, mask: int, probes: dict):
    """``(mask, u)``: the gate is ``u[1]`` on its one superposed operand
    ``w`` where the wires of ``mask`` are all 1, ``u[0]`` elsewhere, read
    off ``_monomial`` on four labels; a diagonal ``u`` as its diagonals."""
    key = (gate.kind, gate.angle, gate.operands.index(w))
    if key not in probes:  # all that u depends on
        keys = np.array([0, 1 << w, mask, mask | 1 << w], dtype=np.int64)
        phase = _monomial(gate, 0)(keys, np.ones(4, dtype=complex))
        u = np.zeros((2, 2, 2), dtype=complex)
        u[[0, 0, 1, 1], (keys >> w) & 1, [0, 1, 0, 1]] = phase
        probes[key] = u if u[:, 0, 1].any() or u[:, 1, 0].any() else u[:, [0, 1], [0, 1]]
    return mask, probes[key]


def _run_terms(steps, labels, amps, f):
    """Run ``_product_program``'s steps on the terms of B columns: labels
    and amplitudes (B, terms), factors (d, 2, B, terms).  A gate on the
    labels runs the one rule of every route, ``_monomial``, and no product
    is in place (see there), so no column depends on B."""
    for op, w, arg in steps:
        if op == "split":
            labels = np.concatenate((labels, labels | 1 << w), axis=1)
            amps = np.concatenate((amps * f[w, 0], amps * f[w, 1]), axis=1)
            f = np.concatenate((f, f), axis=3)
        elif op == "promote":
            bit = (labels >> w) & 1
            f[w, 0], f[w, 1] = 1 - bit, bit
            labels &= ~(1 << w)
        elif op == "local":
            mask, u = arg
            on = labels & mask == mask
            if u.ndim == 2:  # diagonal: a multiply per component it moves
                for v in (0, 1):
                    if u[0, v] != 1 or u[1, v] != 1:
                        f[w, v] = f[w, v] * (np.where(on, u[1, v], u[0, v]) if mask else u[1, v])
            else:  # u[1] @ f[w] where on, u[0] @ f[w] elsewhere, entry by entry
                f[w] = np.where(on, *(v[:, :1, None] * f[w, 0] + v[:, 1:, None] * f[w, 1]
                                      for v in u[::-1]))
        else:  # a gate on the labels; a SWAP also swaps the factor rows ``w``
            amps = arg(labels, amps)
            if w:
                f[w] = f[w[::-1]]
    return labels, amps, f


def _product_chunks(circuit: Circuit, d: int):
    """Product route of ``_route``, or None where ``_product_program``
    refuses the circuit.  The terms run on the calling thread as items are
    drawn, ``_PRODUCT_BLOCKS`` blocks of ``_DENSE_BATCH`` columns at a time
    (in 10 alternating rounds of verify-dense's verifies on a 2-core Xeon,
    16, 32 and 64 blocks took 108.8, 101.3 and 101.1 ms, all at 36 MB; at
    qct4 n=13, 64 and 128 peaked 8 and 22 MB above 32).  An item is one
    block: a batched matmul over the terms of half-products over the low
    and the high data wires, into the buffer of a finished check.  A
    register of one run (d <= 10) is inline: its terms are all computed
    before the first block, and its blocks are too short for a second
    thread to overlap (pool against inline: qft 10 16.4 against 14.1 ms,
    qct4 9 20.3 against 18.1 ms, medians of 21 alternating in-process
    verifies on a 2-core Xeon)."""
    if (program := _product_program(circuit, d)) is None:
        return None
    steps, _ = program
    dim, batch, spare = 1 << d, _DENSE_BATCH, []

    def blocks():
        for start in range(0, dim, run := batch * _PRODUCT_BLOCKS):
            labels = np.arange(start, min(start + run, dim), dtype=np.int64)[:, None]
            labels, amps, f = _run_terms(steps, labels, np.ones(labels.shape, dtype=complex),
                                         np.empty((d, 2) + labels.shape, dtype=complex))
            for cols in (slice(i, i + batch) for i in range(0, len(labels), batch)):
                yield start + cols.start, f[:, :, cols], labels[cols], amps[cols]

    def simulate(item, check):
        start, f, labels, amps = item
        halves = [np.ones(labels.shape + (1,), dtype=complex)] * 2
        for w in range(d):
            halves[w >= d // 2] = (f[w].transpose(1, 2, 0)[..., None]
                                   * halves[w >= d // 2][..., None, :]).reshape(*labels.shape, -1)
        lo, hi = halves[0], halves[1].transpose(0, 2, 1)

        def expand(weights, out=None):
            return np.matmul(hi, lo * weights[..., None], out=out).reshape(len(labels), -1).T

        bad, leak = labels != 0, 0.0  # leaked terms are summed per ancilla label
        for s in np.flatnonzero(bad.any(axis=0)):
            group = np.where((labels == labels[:, s:s + 1]) & bad[:, s:s + 1], amps, 0)
            leak = max(leak, float(np.max(np.abs(expand(group)))))
        try:
            out = spare.pop()
        except IndexError:  # no check has finished yet
            out = np.empty((batch, dim), dtype=complex)
        block = expand(np.where(bad, 0, amps), out[:len(labels)].reshape(hi.shape[:2] + (-1,)))
        result = check(start, block)
        spare.append(out)  # the check is done with the block
        return start, result, leak, 0.0

    return blocks(), simulate, dim <= batch * _PRODUCT_BLOCKS


_PRUNE_BELOW = 1e-14
_KEY_BITS = 62


def _sparse_chunks(circuit: Circuit, d: int):
    """Support-sparse route of ``_route``, on data wires 0..d-1.

    A chunk of 2^c columns runs in one pass, each nonzero amplitude of each
    of its columns one entry: an int64 key ``(label << c) | column`` (the
    column counted within the chunk) and a complex amplitude, so wire ``w``
    is key bit ``w + c``; a key left with no ancilla bit is its entry's
    flat index in the chunk's (2^d, 2^c) block.  The circuit is compiled
    once, before any chunk, by ``_sparse_program``; the chunks share that
    program read-only.  Each H or CH is a merge (``_merge``), which pairs
    the entries that differ in the target bit and sums each pair.  Entries
    below ``_PRUNE_BELOW`` are dropped after each butterfly and the
    per-column L2 norm dropped is summed over the run; a chunk reports the
    largest of these sums as its pruned norm.

    The column sits in the low key bits, so the entries of one label stay
    2^c-long runs in the diagonal gates' boolean selections.  With it above
    the wires (``label | column << width``, the same blocks bit for bit),
    qht-lcu 7 verified 6.5% slower (in 279 of 300 runs interleaved in one
    process on a 2-core Xeon), its CPhase steps 44% and Z steps 26% slower.
    """
    c = _sparse_chunk_bits(d)
    if circuit.width + c > _KEY_BITS:
        raise ValueError(
            f"sparse simulation packs {circuit.width} wires and {c} column bits into one "
            f"int64 key, above the {_KEY_BITS}-bit cap")
    in_chunk = np.arange(1 << c, dtype=np.int64)
    program = _sparse_program(circuit, c)

    def simulate(start, check):
        keys = ((in_chunk + start) << c) | in_chunk
        amps = np.ones(1 << c, dtype=complex)
        pruned = np.zeros(1 << c)
        for step in program:
            keys, amps = step(keys, amps, pruned)
        if circuit.relabeling is not None:
            keys = _relabel_keys(keys, circuit.relabeling, c)
        on = keys >> (d + c) == 0
        block = np.zeros((1 << d, 1 << c), dtype=complex)
        block.reshape(-1)[keys[on]] = amps[on]
        leak, pruned = float(np.max(np.abs(amps[~on]), initial=0.0)), float(np.max(pruned))
        del keys, amps, on  # the entries are freed before the check runs
        return start, check(start, block), leak, pruned

    return range(0, 1 << d, 1 << c), simulate, c == d


def _sparse_program(circuit: Circuit, c: int) -> list:
    """The sparse engine's program for ``circuit`` run 2^c columns at a
    time on a data register of wires 0..d-1, c <= d: one ``step(keys,
    amps, pruned) -> (keys, amps)`` per gate, with its masks and factors
    computed here, once, rather than per chunk."""
    return [_butterfly_step(gate, c) if gate.kind in _BUTTERFLIES else _monomial_step(gate, c)
            for gate in circuit.gates]


def _monomial_step(gate: Gate, c: int):
    """Sparse step of a gate other than H and CH: its ``_monomial`` rule."""
    rule = _monomial(gate, c)
    return lambda keys, amps, pruned: (keys, rule(keys, amps))


def _butterfly_step(gate: Gate, c: int):
    """Sparse step of an H or CH: ``_merge`` on the entries its controls
    select, whose small results are then pruned; entries whose controls
    are off pass through unchanged."""
    ctrl, bit = _masks(gate, c)

    def step(keys, amps, pruned):
        if ctrl:
            sel = (keys & ctrl) == ctrl
            k, a = keys[sel], amps[sel]
        else:
            k, a = keys, amps
        k, a = _prune(*_merge(k, a, bit), c, pruned)
        if ctrl:
            k = np.concatenate((keys[~sel], k))
            a = np.concatenate((amps[~sel], a))
        return k, a
    return step


def _merge(k, a, bit: int):
    """The H butterfly on ``bit`` of distinct keys, summing the entries that
    meet: keys ``b`` and then ``b | bit`` for each base ``b`` present, in
    increasing ``b``.  The entries are sorted by ``(base, bit)``, which puts
    each pair's entry without the bit just before its partner, and laid out
    as one ``(without, with)`` row per base, with 0 for a missing partner.
    Where every entry met its partner the sorted entries are those rows
    already: on qht-lcu 10 plus qht-rec 10, in ten alternating in-process
    runs on a 2-core Xeon, that path took 1.33 s against 1.56 s without it
    and won nine."""
    ranked = (k & ~bit) << 1
    ranked |= (k & bit) != 0
    order = np.argsort(ranked, kind="stable")
    ranked = ranked[order]
    a = a[order]
    del order
    a *= SQRT2_INV
    base = ranked >> 1
    head = np.empty(len(base), dtype=bool)  # first entry of its base
    head[:1] = True
    np.not_equal(base[1:], base[:-1], out=head[1:])
    m = int(np.count_nonzero(head))
    if 2 * m == len(base):  # every entry met its partner
        rows, head = a.reshape(m, 2), slice(None, None, 2)
    else:
        slot = np.cumsum(head) - 1
        slot <<= 1
        slot |= ranked & 1
        rows = np.zeros((m, 2), dtype=complex)
        rows.reshape(-1)[slot] = a
    del a, ranked
    out_k = np.empty(2 * m, dtype=np.int64)
    out_k[:m] = base[head]
    np.bitwise_or(out_k[:m], bit, out=out_k[m:])
    out_a = np.empty(2 * m, dtype=complex)
    np.add(rows[:, 0], rows[:, 1], out=out_a[:m])
    np.subtract(rows[:, 0], rows[:, 1], out=out_a[m:])
    return out_k, out_a


def _monomial(gate: Gate, shift: int):
    """The one label and phase rule of the three routes and of
    ``gadgets.classical_map_error``, for a gate other than H and CH on int64
    keys that hold wire ``w`` in bit ``w + shift``: ``rule(keys, amps)``
    permutes the keys in place and returns ``amps`` (indexed like the keys,
    and overwritten) times the gate's phases; a permutation takes None."""
    action = _KINDS[gate.kind].action
    if action == "GlobalPhase":
        factor = complex(np.exp(1j * gate.angle))
        return lambda keys, amps: amps * factor
    if action == "SWAP":
        a, b = gate.targets[0] + shift, gate.targets[1] + shift

        def rule(keys, amps):
            keys ^= (((keys >> a) ^ (keys >> b)) & 1) * ((1 << a) | (1 << b))
            return amps
        return rule
    ctrl, bit = _masks(gate, shift)
    if action == "X":
        def rule(keys, amps):
            keys ^= ((keys & ctrl) == ctrl) * bit if ctrl else bit
            return amps
        return rule
    # every other kind is diagonal
    factors = [(ctrl | bit * value, complex(factor))
               for value, factor in enumerate(action(gate.angle)) if factor != 1]

    def rule(keys, amps):
        on = keys & (ctrl | bit)
        for value, factor in factors:
            sel = on == value
            # not in place: numpy's in-place multiply of a one-entry array
            # skips the fused multiply-add of its vector loop, and chunking
            # decides which selections hold one entry
            amps[sel] = amps[sel] * factor
        return amps
    return rule


def _masks(gate: Gate, shift: int) -> tuple[int, int]:
    """``(controls, target)`` key masks of a one-target gate whose keys hold
    wire ``w`` in bit ``w + shift``."""
    ctrl = 0  # a loop: the hot path of classical evaluation
    for w in gate.controls:
        ctrl |= 1 << (w + shift)
    return ctrl, 1 << (gate.targets[0] + shift)


def _relabel_keys(keys, relabeling, shift: int):
    """Keys with wire ``w``'s bit moved to wire ``relabeling[w]``; the low
    ``shift`` bits are kept."""
    moved = keys & ((1 << shift) - 1)
    for w, dest in enumerate(relabeling):
        moved |= ((keys >> (w + shift)) & 1) << (dest + shift)
    return moved


def _prune(keys, amps, c: int, pruned):
    """Drop the entries below ``_PRUNE_BELOW``, adding each column's dropped
    L2 norm to ``pruned``."""
    small = np.abs(amps) < _PRUNE_BELOW
    if small.any():
        cols = keys[small] & ((1 << c) - 1)
        pruned += np.sqrt(np.bincount(cols, np.abs(amps[small]) ** 2, len(pruned)))
        keys, amps = keys[~small], amps[~small]
    return keys, amps


# ---------------------------------------------------------------------------
# circuit-level operations
# ---------------------------------------------------------------------------


def inverse(gates) -> list[Gate]:
    """The inverse of a gate fragment: its gates reversed, each inverted."""
    return [g.inverse() for g in reversed(gates)]


def count_gates(circuit: Circuit) -> dict:
    """Elementary gate counts, one per instance: ``total``, ``width``,
    ``ancillas``, per-kind ``counts`` in name order, and ``notes`` on the
    SWAPs, which a relabeling could absorb."""
    counts = Counter(g.kind for g in circuit.gates)
    total, swaps = len(circuit.gates), counts["SWAP"]
    return {"total": total, "width": circuit.width, "ancillas": len(circuit.ancillas),
            "counts": dict(sorted(counts.items())),
            "notes": {"swap_gates": swaps, "total_without_swaps": total - swaps}}


# ---------------------------------------------------------------------------
# textual export / import
# ---------------------------------------------------------------------------

def export_circuit(circuit: Circuit) -> str:
    """One gate per line: lowercase kind, angle in radians to 17 significant
    digits, operands as q[i] with controls before targets."""
    lines = []
    for g in circuit.gates:
        name = g.kind.lower()
        head = f"{name}({g.angle:.17g})" if g.angle is not None else name
        ops = ",".join(f"q[{q}]" for q in g.operands)
        lines.append(f"{head} {ops}".rstrip())
    if circuit.relabeling is not None:
        moves = ",".join(f"{w}->{d}" for w, d in enumerate(circuit.relabeling))
        lines.append(f"# relabel: {moves}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_circuit(text: str, width: int | None = None) -> Circuit:
    """Parse the export format back into a Circuit.

    Width defaults to one past the highest wire mentioned; pass it explicitly
    for circuits whose top wires are untouched.  At most one ``# relabel:``
    line is allowed, and its moved wires must map onto themselves.
    """
    gates = []
    relabeling = None
    max_wire = -1
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("relabel:"):
                if relabeling is not None:
                    raise ValueError("more than one relabel line")
                relabeling = {}
                for item in body[len("relabel:"):].split(","):
                    src, dest = (int(w) for w in item.strip().split("->"))
                    if src in relabeling or src < 0:
                        raise ValueError(f"bad relabel source {src}")
                    relabeling[src] = dest
                # checked on the moves alone, before anything width-sized
                if sorted(relabeling) != sorted(relabeling.values()):
                    raise ValueError("relabel moves must permute the wires they name")
                max_wire = max(max_wire, *relabeling)
            continue
        head, _, ops = line.partition(" ")
        if "(" in head:
            if not head.endswith(")"):
                raise ValueError(f"bad gate head {head!r}")
            name, arg = head[:-1].split("(", 1)
            angle = float(arg)
        else:
            name, angle = head, None
        kind = _BY_NAME.get(name)
        if kind is None:
            raise ValueError(f"unknown gate name {name!r}")
        wires = []
        if ops.strip():
            for item in ops.split(","):
                item = item.strip()
                if not (item.startswith("q[") and item.endswith("]")):
                    raise ValueError(f"bad operand {item!r}")
                wires.append(int(item[2:-1]))
        n_ctrl = _KINDS[kind].controls
        gates.append(Gate(kind, tuple(wires[:n_ctrl]), tuple(wires[n_ctrl:]), angle))
        if wires:
            max_wire = max(max_wire, max(wires))
    if width is None:
        width = max_wire + 1
    if width > MAX_WIDTH:
        raise ValueError(f"width {width} above the {MAX_WIDTH}-wire bound")
    relab_tuple = None
    if relabeling is not None:
        if max(relabeling) >= width:
            raise ValueError(f"relabel names a wire outside width {width}")
        relab_tuple = tuple(relabeling.get(w, w) for w in range(width))
    return Circuit(width, tuple(gates), frozenset(), relab_tuple)
