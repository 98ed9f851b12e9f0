"""Elementary gate set, circuit IR, and the simulation of a circuit's action on
a data register, streamed in column chunks.

Conventions used throughout the package:

* qubit 0 is the least significant bit of a register value, so the basis
  label of a classical assignment is ``sum(bit[w] << w)``;
* control and ancilla qubits sit on higher wire indices than the data
  register they serve;
* a ``Circuit`` may carry a final ``relabeling`` -- a gate-free renaming of
  wires applied after the last gate.
"""
from __future__ import annotations

import math
import operator
from collections import Counter, deque
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

SQRT2_INV = 1.0 / math.sqrt(2.0)

# kind -> (n_controls, n_targets, parameterized); MCX is variadic and handled apart
_GATE_SIGNATURES = {
    "X": (0, 1, False),
    "Y": (0, 1, False),
    "Z": (0, 1, False),
    "H": (0, 1, False),
    "S": (0, 1, False),
    "Sdg": (0, 1, False),
    "Phase": (0, 1, True),
    "Rz": (0, 1, True),
    "CPhase": (1, 1, True),
    "CNOT": (1, 1, False),
    "CH": (1, 1, False),
    "CS": (1, 1, False),
    "CSdg": (1, 1, False),
    "Toffoli": (2, 1, False),
    "SWAP": (0, 2, False),
    "GlobalPhase": (0, 0, True),
    "MCX": (-1, 1, False),
}

MAX_WIDTH = 1 << 16
"""Widest register a ``Circuit`` may have.  It sits far above the widest
built circuit (qht-rec at the CLI's largest n, 512, has 1533 wires) and
keeps every width-sized structure (the relabeling, ``data_wires``, a
parsed circuit) small, whatever wire index a gate list names."""

_SELF_INVERSE = {"X", "Y", "Z", "H", "CNOT", "CH", "Toffoli", "SWAP", "MCX"}
_INVERSE_PAIRS = {"S": "Sdg", "Sdg": "S", "CS": "CSdg", "CSdg": "CS"}


@dataclass(frozen=True)
class Gate:
    """One elementary gate instance: kind, control wires, target wires, angle."""

    kind: str
    controls: tuple[int, ...] = ()
    targets: tuple[int, ...] = ()
    angle: float | None = None

    def __post_init__(self):
        sig = _GATE_SIGNATURES.get(self.kind)
        if sig is None:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        n_ctrl, n_tgt, parameterized = sig
        if self.kind == "MCX":
            if len(self.controls) < 1:
                raise ValueError("MCX requires at least one control")
        elif len(self.controls) != n_ctrl:
            raise ValueError(f"{self.kind} takes {n_ctrl} controls, got {len(self.controls)}")
        if len(self.targets) != n_tgt:
            raise ValueError(f"{self.kind} takes {n_tgt} targets, got {len(self.targets)}")
        if parameterized:
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
        if self.kind in _SELF_INVERSE:
            return self
        if self.kind in _INVERSE_PAIRS:
            return Gate(_INVERSE_PAIRS[self.kind], self.controls, self.targets)
        return Gate(self.kind, self.controls, self.targets, -self.angle)

    def remapped(self, wire_map) -> "Gate":
        return Gate(
            self.kind,
            tuple(wire_map[q] for q in self.controls),
            tuple(wire_map[q] for q in self.targets),
            self.angle,
        )


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list over a fixed-width register.

    ``ancillas`` documents wires that enter and leave in |0>; ``relabeling``
    maps each wire to its final name (``relabeling[w]`` is where the content
    of wire ``w`` ends up).
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
        if any(a >= self.width or a < 0 for a in self.ancillas):
            raise ValueError("ancilla index outside register")
        if self.relabeling is not None:
            if sorted(self.relabeling) != list(range(self.width)):
                raise ValueError("relabeling must be a permutation of the wires")

    @property
    def data_wires(self) -> tuple[int, ...]:
        return tuple(w for w in range(self.width) if w not in self.ancillas)

    def adjoint(self) -> "Circuit":
        """Inverse circuit: reversed inverted gates; a relabeling is inverted
        and pushed through the gates so it can stay in final position."""
        relab = self.relabeling
        gates = inverse(self.gates)
        if relab is None:
            inv_relab = None
        else:
            gates = [g.remapped(relab) for g in gates]
            inv_relab = [0] * self.width
            for w, dest in enumerate(relab):
                inv_relab[dest] = w
            inv_relab = tuple(inv_relab)
        label = self.label + "^dag" if self.label else ""
        return Circuit(self.width, gates, self.ancillas, inv_relab, label)


@dataclass(frozen=True)
class GateCountReport:
    """Per-kind and total elementary gate counts for one circuit."""

    counts: dict
    total: int
    width: int
    ancilla_count: int
    notes: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.total != sum(self.counts.values()):
            raise ValueError("total does not match per-kind counts")


# ---------------------------------------------------------------------------
# gate matrices
# ---------------------------------------------------------------------------

_FIXED_1Q = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.diag([1, -1]).astype(complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) * SQRT2_INV,
    "S": np.diag([1, 1j]).astype(complex),
    "Sdg": np.diag([1, -1j]).astype(complex),
}


# controlled kind -> the kind it applies to its target
_BASE_KIND = {"CPhase": "Phase", "CS": "S", "CSdg": "Sdg", "CH": "H",
              "CNOT": "X", "Toffoli": "X", "MCX": "X"}


def _target_matrix(gate: Gate) -> np.ndarray:
    """Unitary acting on the target wires alone (controls handled separately)."""
    kind = _BASE_KIND.get(gate.kind, gate.kind)
    if kind in _FIXED_1Q:
        return _FIXED_1Q[kind]
    if kind == "Phase":
        return np.diag([1, np.exp(1j * gate.angle)])
    if kind == "Rz":
        return np.diag([np.exp(-0.5j * gate.angle), np.exp(0.5j * gate.angle)])
    if kind == "SWAP":
        m = np.eye(4, dtype=complex)
        m[[1, 2]] = m[[2, 1]]
        return m
    raise ValueError(f"no matrix for kind {kind!r}")


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------


_DIAGONAL_KINDS = {"Z", "S", "Sdg", "Phase", "Rz", "CPhase", "CS", "CSdg"}
_CLASSICAL_KINDS = {"X", "CNOT", "Toffoli", "MCX", "SWAP"}
_BUTTERFLY_KINDS = {"H", "CH"}


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
    ``_monomial_layer``, with the final relabeling folded into the last run.
    An H is a butterfly on its row bit, the layer an ``int``; a CH is a
    (2, m) array of the row pairs it mixes.  ``leak`` holds the rows whose
    final label has an ancilla bit set.  The rules, all checked in integers:
    each run maps the rows one to one, every butterfly targets a data wire,
    and the two rows of every pair a butterfly mixes hold the same ancilla
    bits.  With no ancilla the keys stay the row numbers."""
    if circuit.width > _KEY_BITS or any(  # checked before anything 2^d-sized
            g.kind in _BUTTERFLY_KINDS and g.targets[0] >= d for g in circuit.gates):
        return None
    rows = np.arange(1 << d, dtype=np.int64)
    keys, layers, run = rows.copy(), [], []
    for gate in circuit.gates + (None,):  # None: the end, which closes the last run
        last = gate is None
        if not last and gate.kind not in _BUTTERFLY_KINDS:
            run.append(gate)
            continue
        if run or (last and circuit.relabeling is not None):
            relabeling = circuit.relabeling if last else None
            step = _monomial_layer(run, relabeling, keys, rows)
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


def _monomial_layer(run, relabeling, keys, rows):
    """One run of ``_layers`` on ``keys``, which it consumes: the keys after
    it and its ``(inv, phase)`` layer, where output row ``i`` takes the
    amplitude of input row ``inv[i]`` times ``phase[i]``; None when the run
    does not map the rows one to one.  ``inv`` is None when the run permutes
    no row, ``phase`` None when it multiplies by no phase."""
    phase = np.ones(len(keys), dtype=complex)
    for gate in run:
        for sel, factor in _monomial(gate, 0)(keys):
            phase[sel] *= factor
    if relabeling is not None:
        keys = _relabel_keys(keys, relabeling, 0)
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
    block per H."""
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
"""Columns the dense engine pushes through the statevector at a time: a
1024-row batch is 0.5 MB, and ``_WORKERS`` batches run at once.  Under
the two-thread pool, in ten alternating runs of verify-dense on a 2-core
Xeon, 64 columns were faster than 32 (median ``wall_s`` 0.287 against
0.333 s) but peaked at 45.2 MB against 41.2 MB, 10% above the 41.0 MB of
one thread at 64 columns; 32 stays within 1%."""

_WORKERS = 2
"""Threads that run the column chunks of a register with more than one
chunk, one per core of a 2-core host; never sized from the input.  The
pool pays on both engines: in fresh processes, qct4 n=11 (dense) took
1.33 s against 2.27 s on one thread, and qct2 n=11 (sparse) 7.5 s against
12.5 s."""


def _sparse_chunk_bits(d: int) -> int:
    """log2 of the columns the sparse engine runs at a time on a d-wire data
    register.  Up to d = 8 all 2^d columns run as one chunk, where one pass
    over the gate list costs least; a wider register runs 2^6 columns at a
    time, which was faster than 2^8 at every d from 9 to 12 that was timed,
    at half the peak memory or less."""
    return d if d <= 8 else 6


def data_register_action(circuit: Circuit, data_wires=None):
    """Action of the circuit on a data sub-register with all other wires |0>.

    Returns ``(matrix, residual)`` where ``matrix[r, c]`` is the amplitude of
    data basis state r given input c, and ``residual`` bounds the output
    amplitude outside the all-ancillas-zero subspace.  A residual at
    rounding level certifies that the ancillas are returned clean and that
    ``matrix`` is the whole story.  This is the concatenation of
    ``data_register_chunks``, which holds one column chunk at a time; see
    there for the engines and the residual.
    """
    return _assemble(data_register_chunks(circuit, data_wires))


def data_register_chunks(circuit: Circuit, data_wires=None, check=None):
    """``data_register_action`` as a stream of column chunks.

    Yields ``(start, result, residual)`` in increasing ``start``, one per
    chunk of matrix columns ``start..start+k-1`` (all 2^d rows).  With
    ``check`` None, ``result`` is that (2^d, k) block; otherwise it is
    ``check(start, block)``, called on the thread that simulated the chunk,
    so the block need never reach the caller.  ``residual`` is the bound for
    every column yielded so far, so it never decreases and the last one
    covers the whole matrix.

    A register of one chunk runs on the calling thread.  More chunks run on
    ``_WORKERS`` threads, at most ``_WORKERS + 1`` chunks in flight, and are
    yielded in column order whatever order they finish in; ``check`` must
    therefore be safe to call from two threads at once.  An exception from
    a chunk or its check is raised here, and closing the stream early
    cancels the chunks not yet started: no thread outlives the stream.

    Wires off the data register start in |0>.  The dense statevector engine
    runs on 2^d rows, ``_DENSE_BATCH`` columns at a time, whenever its
    compile (``_layers``) can prove in integers that those wires only ever
    hold classical functions of the data: then each row stands for one
    basis label, and a row left with an ancilla bit set is leak, so a clean
    circuit reports a residual of exactly 0.0.  Every full-width register
    and every cosine and sine circuit runs there.  A circuit that puts an
    ancilla in superposition (H or CH on it, as the Hartley pair does) or
    breaks another rule of ``_layers`` runs the support-sparse engine
    instead, ``2^_sparse_chunk_bits(d)`` columns at a time (see
    ``_sparse_chunks``).  That engine drops amplitudes below 1e-14 and adds
    the largest per-column L2 norm it dropped to ``residual``, so the
    residual bounds the true leak and the pruning error of every entry:
    every caller already fails a run whose residual reaches its tolerance,
    so pruning can never hide a leak.  Both engines compile the circuit
    once, before any chunk, and the threads share that program read-only.

    ``data_wires`` must name distinct integer wires of the circuit, at most
    ``STATEVECTOR_WIDTH_CAP`` of them; they are checked before anything is
    simulated or compiled, and ``_canonical`` then makes them wires 0..d-1.
    """
    if data_wires is None:
        data_wires = circuit.data_wires
    try:
        data_wires = [operator.index(w) for w in data_wires]
    except TypeError:
        raise ValueError(f"data wires must be integers, got {data_wires}") from None
    if len(set(data_wires)) != len(data_wires):
        raise ValueError(f"data wires repeat: {data_wires}")
    if any(not 0 <= w < circuit.width for w in data_wires):
        raise ValueError(f"data wires must lie within 0..{circuit.width - 1}")
    if len(data_wires) > STATEVECTOR_WIDTH_CAP:
        raise ValueError(f"data registers are capped at {STATEVECTOR_WIDTH_CAP} qubits, "
                         f"got {len(data_wires)}")
    circuit, d = _canonical(circuit, data_wires), len(data_wires)
    program = _layers(circuit, d)
    if program is None:
        return _sparse_chunks(circuit, d, check)
    return _dense_chunks(program, d, check)


def _canonical(circuit: Circuit, data_wires) -> Circuit:
    """``circuit`` renamed so that wire ``data_wires[p]`` is wire p and the
    other wires follow in wire order, its final relabeling conjugated by the
    same renaming.  A circuit whose data register already is wires 0..d-1,
    as every builder's is, comes back unchanged."""
    order = list(data_wires)
    if order == list(range(len(order))):
        return circuit
    order += sorted(set(range(circuit.width)) - set(order))
    rename = {old: new for new, old in enumerate(order)}
    relabeling = None if circuit.relabeling is None else [
        rename[circuit.relabeling[w]] for w in order]
    return Circuit(circuit.width, [g.remapped(rename) for g in circuit.gates],
                   frozenset(rename[a] for a in circuit.ancillas), relabeling, circuit.label)


def _assemble(chunks):
    """``(matrix, residual)`` from a stream of ``(start, block, residual)``."""
    blocks, residual = [], 0.0
    for _, block, residual in chunks:
        blocks.append(block)
    return np.concatenate(blocks, axis=1), residual


def _in_order(starts, simulate, check):
    """``(start, result, extra)`` for each chunk start, in the order of
    ``starts``: ``simulate(start)`` gives ``(block, extra)``, and ``result``
    is ``check(start, block)`` run on the same thread, or the block when
    ``check`` is None.  The threading is that of ``data_register_chunks``."""
    def run(start):
        block, extra = simulate(start)
        return start, block if check is None else check(start, block), extra

    if len(starts) == 1:
        yield run(starts[0])
        return
    # imported here: a single-chunk run never pays for the import
    from concurrent.futures import ThreadPoolExecutor
    pool = ThreadPoolExecutor(_WORKERS)
    try:
        queue = iter(starts)
        pending = deque(pool.submit(run, start) for start in islice(queue, _WORKERS + 1))
        while pending:
            done = pending.popleft().result()
            pending.extend(pool.submit(run, start) for start in islice(queue, 1))
            yield done
    finally:
        pool.shutdown(cancel_futures=True)


def _dense_register_action(circuit: Circuit, data_wires: list):
    """The dense engine's ``data_register_action``, or None where its
    compile refuses the circuit."""
    program = _layers(_canonical(circuit, data_wires), len(data_wires))
    return None if program is None else _assemble(_dense_chunks(program, len(data_wires)))


def _dense_chunks(program, d: int, check=None):
    """Statevector engine of ``data_register_chunks``: every column runs
    through the 2^d rows of the compiled ``_layers`` program, which the
    chunks share read-only.  The leak rows are zeroed, and their largest
    amplitude is the residual, so a circuit whose ancillas come back clean
    reports exactly 0.0."""
    layers, leak = program
    dim = 1 << d

    def simulate(start):
        cols = np.arange(start, min(start + _DENSE_BATCH, dim))
        # the basis block is passed as a temporary, so that _run_flat's
        # first gather frees it
        block = _run_flat(_basis_columns(dim, cols), layers)
        out = float(np.max(np.abs(block[leak]), initial=0.0))
        block[leak] = 0.0
        return block, out

    residual = 0.0
    for start, result, out in _in_order(range(0, dim, _DENSE_BATCH), simulate, check):
        residual = max(residual, out)
        yield start, result, residual


def _basis_columns(dim: int, labels) -> np.ndarray:
    """(dim, len(labels)) block whose column j is basis state labels[j]."""
    block = np.zeros((dim, len(labels)), dtype=complex)
    block[labels, np.arange(len(labels))] = 1.0
    return block


_PRUNE_BELOW = 1e-14
_KEY_BITS = 62


def _sparse_register_action(circuit: Circuit, data_wires: list):
    """The support-sparse engine's ``data_register_action``."""
    return _assemble(_sparse_chunks(_canonical(circuit, data_wires), len(data_wires)))


def _sparse_chunks(circuit: Circuit, d: int, check=None):
    """Support-sparse engine of ``data_register_chunks``, on data wires 0..d-1.

    A chunk of 2^c columns runs in one pass, each nonzero amplitude of each
    of its columns one entry: an int64 key ``(label << c) | column`` (the
    column counted within the chunk) and a complex amplitude, so wire ``w``
    is key bit ``w + c``; a key left with no ancilla bit is its entry's
    flat index in the chunk's (2^d, 2^c) block.  The circuit is compiled
    once, before any chunk, by ``_sparse_program``; the chunks share that
    program read-only.  Each H or CH is compiled as a split, which doubles
    the entries with no sort, or as a merge, which pairs the entries that
    differ in the target bit and sums each pair; the rule is in
    ``_sparse_program``.  Entries below ``_PRUNE_BELOW`` are dropped after
    each butterfly and the per-column L2 norm dropped is summed over the
    run.  Chunks run on the threads of ``data_register_chunks``, at most
    ``_WORKERS + 1`` in flight; each reports its largest leak and pruned
    sum, and these are folded in column order, kept apart across chunks and
    added for the residual, as if all columns ran at once.
    """
    c = _sparse_chunk_bits(d)
    if circuit.width + c > _KEY_BITS:
        raise ValueError(
            f"sparse simulation packs {circuit.width} wires and {c} column bits into one "
            f"int64 key, above the {_KEY_BITS}-bit cap")
    in_chunk = np.arange(1 << c, dtype=np.int64)
    program = _sparse_program(circuit, c)

    def simulate(start):
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
        leak = float(np.max(np.abs(amps[~on]), initial=0.0))
        return block, (leak, float(np.max(pruned)))

    leak = pruned_max = 0.0
    for start, result, (chunk_leak, chunk_pruned) in _in_order(
            range(0, 1 << d, 1 << c), simulate, check):
        leak = max(leak, chunk_leak)
        pruned_max = max(pruned_max, chunk_pruned)
        yield start, result, leak + pruned_max


def _sparse_program(circuit: Circuit, c: int) -> list:
    """The sparse engine's program for ``circuit`` run 2^c columns at a
    time on a data register of wires 0..d-1, c <= d: one ``step(keys,
    amps, pruned) -> (keys, amps)`` per gate, with its masks and factors
    computed here, once, rather than per chunk.

    Each H or CH is tagged a split or a merge from GF(2) parity
    constraints: key masks ``y`` such that the parity of ``key & y`` is
    the same for every live key of a chunk.  Each wire starts with one:
    ``e_{w+c}`` for a wire ``w >= c``, which is constant in a chunk, and
    ``e_{w+c} ^ e_w`` for a wire ``w < c``, which pairs with column bit
    ``w``.  X, Y, GlobalPhase and the diagonal gates keep the constraints;
    CNOT(x -> t) maps each ``y`` to ``y ^ (y_t << x)``; SWAP swaps two
    bits; H, CH, Toffoli and MCX on ``t`` eliminate bit ``t``.  A butterfly
    on ``t`` is a split when some constraint holds bit ``t``: then no two
    live keys differ in bit ``t`` alone, no entry meets its partner, and
    each entry becomes two with no sort.  Any other butterfly is a merge.

    The constraints are held by column: ``cols[b]`` is the set of
    constraints (one bit each) that hold key bit ``b``."""
    cols = [1 << w for w in range(c)] + [1 << w for w in range(circuit.width)]
    program = []
    for gate in circuit.gates:
        kind, wires = gate.kind, [w + c for w in gate.operands]
        if kind in _BUTTERFLY_KINDS:
            program.append(_butterfly_step(gate, c, split=cols[wires[-1]] != 0))
        else:
            program.append(_monomial_step(gate, c))
        if kind == "CNOT":
            x, t = wires
            cols[x] ^= cols[t]
        elif kind == "SWAP":
            a, b = wires
            cols[a], cols[b] = cols[b], cols[a]
        elif kind in ("H", "CH", "Toffoli", "MCX"):
            _eliminate(cols, wires[-1])
    return program


def _eliminate(cols: list, t: int) -> None:
    """Drop key bit ``t`` from the constraints held by column in ``cols``:
    the first constraint that holds it is XORed into the others that do,
    then dropped."""
    if not cols[t]:
        return
    pivot = cols[t] & -cols[t]
    others = cols[t] ^ pivot
    for b, col in enumerate(cols):
        if col & pivot:
            cols[b] = (col ^ others) & ~pivot


def _monomial_step(gate: Gate, c: int):
    """Sparse step of a gate other than H and CH, from ``_monomial``."""
    rule = _monomial(gate, c)

    def step(keys, amps, pruned):
        for sel, factor in rule(keys):
            # not in place: numpy's in-place multiply of a one-entry array
            # skips the fused multiply-add of its vector loop, and chunking
            # decides which selections hold one entry
            amps[sel] = amps[sel] * factor
        return keys, amps
    return step


def _butterfly_step(gate: Gate, c: int, split: bool):
    """Sparse step of an H or CH: each entry goes to both keys of its pair
    ``(base, base | bit)``, times 1/sqrt(2), and times -1 more on
    ``base | bit`` when the entry has the bit.  A split writes the two out
    as they are; a merge (``_merge``) also sums the entries that meet.
    Small results are then pruned, and entries whose controls are off pass
    through unchanged."""
    ctrl, bit = _masks(gate, c)
    t = gate.targets[0] + c

    def step(keys, amps, pruned):
        if ctrl:
            sel = (keys & ctrl) == ctrl
            k, a = keys[sel], amps[sel]
        else:
            k, a = keys, amps
        if split:
            n = len(k)
            out_k = np.empty(2 * n, dtype=np.int64)
            np.bitwise_and(k, ~bit, out=out_k[:n])
            np.bitwise_or(k, bit, out=out_k[n:])
            out_a = np.empty(2 * n, dtype=complex)
            np.multiply(a, SQRT2_INV, out=out_a[:n])
            # -1/sqrt(2) where the key has the bit, else 1/sqrt(2): a
            # product, which is faster than a select on a mask
            factor = ((k >> t) & 1) * (-2 * SQRT2_INV)
            factor += SQRT2_INV
            np.multiply(a, factor, out=out_a[n:])
            k, a = out_k, out_a
            # the halves differ by a sign at most, so their magnitudes agree
            small = np.abs(a[:n]) < _PRUNE_BELOW
            small = np.concatenate((small, small))
        else:
            k, a = _merge(k, a, bit)
            small = np.abs(a) < _PRUNE_BELOW
        k, a = _prune(k, a, small, c, pruned)
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
    as one ``(without, with)`` row per base, with 0 for a missing partner."""
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
    """The one label and phase rule of both engines, compiled for a gate
    other than H and CH on int64 keys that hold wire ``w`` in bit
    ``w + shift``: returns ``rule(keys)``, which permutes the keys in place
    and returns the phases as ``(select, factor)`` pairs, where the entries
    ``select`` picks out (indexed like the keys before the gate) are
    multiplied by ``factor``."""
    kind = gate.kind
    if kind == "GlobalPhase":
        phases = [(slice(None), complex(np.exp(1j * gate.angle)))]
        return lambda keys: phases
    if kind in _CLASSICAL_KINDS:
        permute = _key_permutation(gate, shift)

        def rule(keys):
            permute(keys)
            return []
        return rule
    ctrl, bit = _masks(gate, shift)
    m = _target_matrix(gate).tolist()
    if kind == "Y":  # |0> -> m[1,0] |1> and |1> -> m[0,1] |0>
        def rule(keys):
            phase = np.where(keys & bit, m[0][1], m[1][0])
            keys ^= bit
            return [(slice(None), phase)]
        return rule
    if kind in _DIAGONAL_KINDS:
        factors = [(ctrl | bit * value, m[value][value])
                   for value in (0, 1) if m[value][value] != 1]

        def rule(keys):
            on = keys & (ctrl | bit)
            return [(on == value, factor) for value, factor in factors]
        return rule
    raise ValueError(f"no simulation rule for gate kind {kind!r}")


def _key_permutation(gate: Gate, shift: int):
    """A gate of ``_CLASSICAL_KINDS`` compiled for int64 keys that hold wire
    ``w`` in bit ``w + shift``: returns ``permute(keys)``, which applies it
    in place.  The bit semantics shared by both engines and
    ``classical_image``."""
    if gate.kind == "SWAP":
        a, b = gate.targets[0] + shift, gate.targets[1] + shift
        both = (1 << a) | (1 << b)

        def permute(keys):
            keys ^= (((keys >> a) ^ (keys >> b)) & 1) * both
        return permute
    ctrl, bit = _masks(gate, shift)

    def permute(keys):
        keys ^= ((keys & ctrl) == ctrl) * bit if ctrl else bit
    return permute


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


def classical_image(circuit: Circuit, labels) -> np.ndarray:
    """Output basis label of each input basis label.

    The circuit may hold only X, CNOT, Toffoli, MCX and SWAP gates (plus a
    final relabeling), so it permutes basis labels; each gate is evaluated
    as a bit operation on an int64 array, with no statevector.
    """
    if circuit.width > _KEY_BITS:
        raise ValueError(
            f"classical evaluation packs {circuit.width} wires into one int64 "
            f"label, above the {_KEY_BITS}-bit cap")
    other = sorted({g.kind for g in circuit.gates} - _CLASSICAL_KINDS)
    if other:
        raise ValueError(f"not a classical circuit: it holds {', '.join(other)} gates")
    labels = np.array(labels, dtype=np.int64)
    for gate in circuit.gates:
        _key_permutation(gate, 0)(labels)
    if circuit.relabeling is not None:
        labels = _relabel_keys(labels, circuit.relabeling, 0)
    return labels


def _prune(keys, amps, small, c: int, pruned):
    """Drop the entries that ``small`` marks as below ``_PRUNE_BELOW``,
    adding each column's dropped L2 norm to ``pruned``."""
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


def count_gates(circuit: Circuit) -> GateCountReport:
    """Count elementary gates: every instance counts one, except MCX(k>=3)
    which is charged 2k-3 (ancilla-free decomposition estimate).  Per-kind
    counts carry the same weighting so they always sum to the total; the raw
    MCX instance count goes into the notes."""
    counts = Counter()
    swaps = 0
    mcx_instances = 0
    for g in circuit.gates:
        if g.kind == "MCX":
            mcx_instances += 1
            counts["MCX"] += max(2 * len(g.controls) - 3, 1)
        else:
            counts[g.kind] += 1
        if g.kind == "SWAP":
            swaps += 1
    total = sum(counts.values())
    notes = {"swap_gates": swaps, "total_without_swaps": total - swaps}
    if mcx_instances:
        notes["mcx_instances"] = mcx_instances
    return GateCountReport(
        counts=dict(counts),
        total=total,
        width=circuit.width,
        ancilla_count=len(circuit.ancillas),
        notes=notes,
    )


# ---------------------------------------------------------------------------
# textual export / import
# ---------------------------------------------------------------------------

_EXPORT_NAMES = {k: k.lower() for k in _GATE_SIGNATURES}
_IMPORT_NAMES = {v: k for k, v in _EXPORT_NAMES.items()}


def export_circuit(circuit: Circuit) -> str:
    """One gate per line: lowercase kind, angle in radians to 17 significant
    digits, operands as q[i] with controls before targets."""
    lines = []
    for g in circuit.gates:
        name = _EXPORT_NAMES[g.kind]
        head = f"{name}({g.angle:.17g})" if g.angle is not None else name
        ops = ",".join(f"q[{q}]" for q in g.operands)
        lines.append(f"{head} {ops}".rstrip())
    if circuit.relabeling is not None:
        moves = ",".join(f"{w}->{d}" for w, d in enumerate(circuit.relabeling))
        lines.append(f"# relabel: {moves}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_circuit(text: str, width: int | None = None, label: str = "") -> Circuit:
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
            name, arg = head[:-1].split("(", 1)
            angle = float(arg)
        else:
            name, angle = head, None
        kind = _IMPORT_NAMES.get(name)
        if kind is None:
            raise ValueError(f"unknown gate name {name!r}")
        wires = []
        if ops.strip():
            for item in ops.split(","):
                item = item.strip()
                if not (item.startswith("q[") and item.endswith("]")):
                    raise ValueError(f"bad operand {item!r}")
                wires.append(int(item[2:-1]))
        n_ctrl = _GATE_SIGNATURES[kind][0]
        if kind == "MCX":
            n_ctrl = len(wires) - 1
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
    return Circuit(width, tuple(gates), frozenset(), relab_tuple, label)
