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
        if not 0 <= self.width <= MAX_WIDTH:
            raise ValueError(f"width {self.width} outside 0..{MAX_WIDTH}")
        object.__setattr__(self, "gates", tuple(self.gates))
        object.__setattr__(self, "ancillas", frozenset(self.ancillas))
        for g in self.gates:
            for q in g.operands:
                if q >= self.width:
                    raise ValueError(f"gate operand {q} outside width {self.width}")
        if any(a >= self.width or a < 0 for a in self.ancillas):
            raise ValueError("ancilla index outside register")
        if self.relabeling is not None:
            object.__setattr__(self, "relabeling", tuple(self.relabeling))
            if sorted(self.relabeling) != list(range(self.width)):
                raise ValueError("relabeling must be a permutation of the wires")

    @property
    def data_wires(self) -> tuple[int, ...]:
        return tuple(w for w in range(self.width) if w not in self.ancillas)

    def adjoint(self) -> "Circuit":
        return adjoint(self)


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


def _slice(tensor, assignments):
    # length-1 slices keep the result an assignable view even when every
    # axis is pinned (integer indexing would collapse to a scalar)
    idx = [slice(None)] * tensor.ndim
    for axis, bit in assignments:
        idx[axis] = slice(bit, bit + 1)
    return tensor[tuple(idx)]


def _butterfly(tensor: np.ndarray, gate: Gate, width: int, scratch: np.ndarray) -> None:
    """Apply an H or CH gate in place on a (2,)*width [+ batch] tensor as a
    butterfly over the two target slices where the controls are on, through
    ``scratch`` (at least half the tensor's size).  A CH is scaled by
    1/sqrt(2) here; an H is left unnormalised for the caller to scale."""
    ctrl = [(width - 1 - w, 1) for w in gate.controls]
    axis = width - 1 - gate.targets[0]
    a = _slice(tensor, ctrl + [(axis, 0)])
    b = _slice(tensor, ctrl + [(axis, 1)])
    diff = scratch[:a.size].reshape(a.shape)
    np.subtract(a, b, out=diff)
    a += b
    b[...] = diff
    if gate.controls:
        a *= SQRT2_INV
        b *= SQRT2_INV


def _layers(circuit: Circuit):
    """The dense engine's program for a circuit, in order: each H or CH gate
    is a butterfly layer, and each maximal run of other gates is one
    monomial layer, with the final relabeling folded into the last run."""
    run = []
    for gate in circuit.gates:
        if gate.kind in _BUTTERFLY_KINDS:
            if run:
                yield _monomial_layer(run, None, circuit.width)
                run = []
            yield gate
        else:
            run.append(gate)
    if run or circuit.relabeling is not None:
        yield _monomial_layer(run, circuit.relabeling, circuit.width)


def _monomial_layer(run, relabeling, width: int):
    """``(inv, phase)`` of a run of gates other than H and CH: output label
    ``i`` takes the amplitude of input label ``inv[i]`` times ``phase[i]``.
    ``inv`` is None when the run permutes no label, ``phase`` None when it
    multiplies by no phase."""
    labels = np.arange(1 << width, dtype=np.int64)
    keys, phase = labels.copy(), np.ones(1 << width, dtype=complex)
    for gate in run:
        for sel, factor in _monomial(keys, gate, 0):
            phase[sel] *= factor
    if relabeling is not None:
        keys = _relabel_keys(keys, relabeling, 0)
    phase = None if np.all(phase == 1) else phase
    if np.array_equal(keys, labels):
        return None, phase
    inv = np.empty_like(keys)
    inv[keys] = labels
    return inv, None if phase is None else phase[inv]


_MAX_DEFERRED_H = 64
"""Uncontrolled H layers whose 1/sqrt(2) may wait: 2^32 of growth, far
from overflow."""


def _h_scale(count: int) -> float:
    """sqrt(1/2)^count, exact in its power-of-two part."""
    return 0.5 ** (count // 2) * (SQRT2_INV if count % 2 else 1.0)


def _run_flat(flat: np.ndarray, layers) -> np.ndarray:
    """Run compiled ``_layers`` on a C-contiguous (dim, B) batch of
    amplitude columns, which it consumes: callers pass arrays they own.

    An uncontrolled H is an add and a subtract; its 1/sqrt(2) is folded
    into the next phase multiply, or applied once at the end, which saves
    a pass over the block per H."""
    width = flat.shape[0].bit_length() - 1
    scratch = np.empty(flat.size // 2, dtype=complex)
    deferred = 0
    for layer in layers:
        if isinstance(layer, Gate):  # flat is C-contiguous, so this is a view
            _butterfly(flat.reshape((2,) * width + (-1,)), layer, width, scratch)
            deferred += not layer.controls
            if deferred == _MAX_DEFERRED_H:
                flat *= _h_scale(deferred)
                deferred = 0
            continue
        inv, phase = layer
        if inv is not None:
            flat = flat[inv]
        if phase is not None:
            if deferred:
                phase, deferred = phase * _h_scale(deferred), 0
            flat *= phase[:, None]
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

    When the data register is narrower than the circuit, some wires start in
    |0> and the support-sparse engine runs: it keeps only the nonzero
    amplitudes, at most 2^d per column for circuits whose ancillas hold
    classical functions of the data, ``2^_sparse_chunk_bits(d)`` columns at
    a time.  It drops entries below 1e-14 and adds the largest per-column L2
    norm it dropped to ``residual``, so the residual stays an upper bound on
    the true leak and on the pruning error of every matrix entry.  The
    bound is folded into ``residual`` rather than returned as a field of its
    own because every caller already fails a run whose residual reaches its
    tolerance: pruning can never hide a leak, and no caller has to learn a
    new field.  A full-width data register runs the dense statevector
    engine, ``_DENSE_BATCH`` columns at a time.

    ``data_wires`` must name distinct wires of the circuit; they are checked
    before anything is simulated.
    """
    if data_wires is None:
        data_wires = circuit.data_wires
    data_wires = list(data_wires)
    if len(set(data_wires)) != len(data_wires):
        raise ValueError(f"data wires repeat: {data_wires}")
    if any(not 0 <= w < circuit.width for w in data_wires):
        raise ValueError(f"data wires must lie within 0..{circuit.width - 1}")
    if len(data_wires) < circuit.width:
        return _sparse_chunks(circuit, data_wires, check)
    return _dense_chunks(circuit, data_wires, check)


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


def _spread(values, wires) -> np.ndarray:
    """Labels with bit ``pos`` of each value moved to wire ``wires[pos]``."""
    labels = np.zeros_like(values)
    for pos, w in enumerate(wires):
        labels |= ((values >> pos) & 1) << w
    return labels


def _dense_register_action(circuit: Circuit, data_wires: list):
    """The dense engine's ``data_register_action``."""
    return _assemble(_dense_chunks(circuit, data_wires))


def _dense_chunks(circuit: Circuit, data_wires: list, check=None):
    """Statevector engine of ``data_register_chunks``.  The data wires are
    a permutation of all wires, so every output is on the data register
    and the residual is 0.0; every column runs through the full 2^width
    state.  The compiled layers are shared, read-only, by the chunks."""
    if circuit.width > STATEVECTOR_WIDTH_CAP:
        raise ValueError(f"statevector runs are capped at {STATEVECTOR_WIDTH_CAP} qubits")
    dim = 1 << circuit.width
    # in_labels[r] is the circuit label of data-register value r; None when
    # the data wires are in wire order, so that the two coincide
    in_labels = None
    if data_wires != list(range(circuit.width)):
        in_labels = _spread(np.arange(dim, dtype=np.int64), data_wires)
    layers = list(_layers(circuit))

    def simulate(start):
        cols = np.arange(start, min(start + _DENSE_BATCH, dim))
        # the basis block is passed as a temporary, so that _run_flat's
        # first gather frees it
        block = _run_flat(_basis_columns(dim, cols if in_labels is None else in_labels[cols]),
                          layers)
        return block if in_labels is None else block[in_labels], None

    for start, result, _ in _in_order(range(0, dim, _DENSE_BATCH), simulate, check):
        yield start, result, 0.0


def _basis_columns(dim: int, labels) -> np.ndarray:
    """(dim, len(labels)) block whose column j is basis state labels[j]."""
    block = np.zeros((dim, len(labels)), dtype=complex)
    block[labels, np.arange(len(labels))] = 1.0
    return block


_PRUNE_BELOW = 1e-14
_KEY_BITS = 62


def _sparse_register_action(circuit: Circuit, data_wires: list):
    """The support-sparse engine's ``data_register_action``."""
    return _assemble(_sparse_chunks(circuit, data_wires))


def _sparse_chunks(circuit: Circuit, data_wires: list, check=None):
    """Support-sparse engine of ``data_register_chunks``.

    A chunk of 2^c columns runs in one pass, each nonzero amplitude of each
    of its columns one entry: an int64 key ``(label << c) | column`` (the
    column counted within the chunk) and a complex amplitude, so wire ``w``
    is key bit ``w + c``.  Entries below ``_PRUNE_BELOW`` are dropped after
    each split and the per-column L2 norm dropped is summed over the run.
    Chunks run on the threads of ``data_register_chunks``, at most
    ``_WORKERS + 1`` in flight; each reports its largest leak and pruned
    sum, and these are folded in column order, kept apart across chunks and
    added for the residual, as if all columns ran at once.
    """
    width, d = circuit.width, len(data_wires)
    c = _sparse_chunk_bits(d)
    if width + c > _KEY_BITS:
        raise ValueError(
            f"sparse simulation packs {width} wires and {c} column bits into one "
            f"int64 key, above the {_KEY_BITS}-bit cap")
    ancilla_mask = sum(1 << w for w in range(width) if w not in data_wires)
    in_chunk = np.arange(1 << c, dtype=np.int64)

    def simulate(start):
        keys = (_spread(in_chunk + start, data_wires) << c) | in_chunk
        amps = np.ones(1 << c, dtype=complex)
        pruned = np.zeros(1 << c)
        for gate in circuit.gates:
            keys, amps = _apply_gate_sparse(keys, amps, gate, c, pruned)
        if circuit.relabeling is not None:
            keys = _relabel_keys(keys, circuit.relabeling, c)
        labels, cols = keys >> c, keys & ((1 << c) - 1)
        on = (labels & ancilla_mask) == 0
        rows = np.zeros(int(np.count_nonzero(on)), dtype=np.int64)
        for pos, w in enumerate(data_wires):
            rows |= ((labels[on] >> w) & 1) << pos
        block = np.zeros((1 << d, 1 << c), dtype=complex)
        block[rows, cols[on]] = amps[on]
        leak = float(np.max(np.abs(amps[~on]), initial=0.0))
        return block, (leak, float(np.max(pruned)))

    leak = pruned_max = 0.0
    for start, result, (chunk_leak, chunk_pruned) in _in_order(
            range(0, 1 << d, 1 << c), simulate, check):
        leak = max(leak, chunk_leak)
        pruned_max = max(pruned_max, chunk_pruned)
        yield start, result, leak + pruned_max


def _apply_gate_sparse(keys, amps, gate: Gate, c: int, pruned):
    """Apply one gate to the (keys, amps) entries; returns the new arrays
    (the inputs may be updated in place)."""
    if gate.kind not in _BUTTERFLY_KINDS:
        for sel, factor in _monomial(keys, gate, c):
            # not in place: numpy's in-place multiply of a one-entry array
            # skips the fused multiply-add of its vector loop, and chunking
            # decides which selections hold one entry
            amps[sel] = amps[sel] * factor
        return keys, amps
    # each entry splits over its pair (base, base | bit); entries sharing a
    # base are summed, then small results are pruned
    ctrl = sum(1 << (w + c) for w in gate.controls)
    bit = 1 << (gate.targets[0] + c)
    m = _target_matrix(gate)
    if ctrl:
        sel = (keys & ctrl) == ctrl
        k, a = keys[sel], amps[sel]
    else:
        k, a = keys, amps
    one = (k & bit) != 0
    base, pair = np.unique(k & ~bit, return_inverse=True)
    k = np.concatenate((base, base | bit))
    a = np.concatenate((_sum_by(pair, np.where(one, m[0, 1], m[0, 0]) * a, len(base)),
                        _sum_by(pair, np.where(one, m[1, 1], m[1, 0]) * a, len(base))))
    k, a = _prune(k, a, c, pruned)
    if ctrl:  # entries whose controls are off pass through unchanged
        k = np.concatenate((keys[~sel], k))
        a = np.concatenate((amps[~sel], a))
    return k, a


def _monomial(keys, gate: Gate, shift: int) -> list:
    """Apply a gate other than H and CH to int64 keys that hold wire ``w``
    in bit ``w + shift``: permute the keys in place and return the phases
    as ``(select, factor)`` pairs, where the entries ``select`` picks out
    (indexed like the keys before the gate) are multiplied by ``factor``.
    The one label and phase rule of both engines."""
    kind = gate.kind
    if kind == "GlobalPhase":
        return [(slice(None), np.exp(1j * gate.angle))]
    if kind in _CLASSICAL_KINDS:
        _permute_keys(keys, gate, shift)
        return []
    ctrl = sum(1 << (w + shift) for w in gate.controls)
    bit = 1 << (gate.targets[0] + shift)
    m = _target_matrix(gate)
    if kind == "Y":  # |0> -> m[1,0] |1> and |1> -> m[0,1] |0>
        phase = np.where(keys & bit, m[0, 1], m[1, 0])
        keys ^= bit
        return [(slice(None), phase)]
    if kind in _DIAGONAL_KINDS:
        on = keys & (ctrl | bit)
        return [(on == (ctrl | bit * value), m[value, value])
                for value in (0, 1) if m[value, value] != 1]
    raise ValueError(f"no simulation rule for gate kind {kind!r}")


def _permute_keys(keys, gate: Gate, shift: int):
    """Apply a gate of ``_CLASSICAL_KINDS`` in place to int64 keys that hold
    wire ``w`` in bit ``w + shift``: the bit semantics shared by both
    engines and ``classical_image``."""
    if gate.kind == "SWAP":
        a, b = gate.targets[0] + shift, gate.targets[1] + shift
        keys ^= (((keys >> a) ^ (keys >> b)) & 1) * ((1 << a) | (1 << b))
        return keys
    ctrl = 0  # a loop: the hot path of classical evaluation
    for w in gate.controls:
        ctrl |= 1 << (w + shift)
    bit = 1 << (gate.targets[0] + shift)
    keys ^= ((keys & ctrl) == ctrl) * bit if ctrl else bit
    return keys


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
        _permute_keys(labels, gate, 0)
    if circuit.relabeling is not None:
        labels = _relabel_keys(labels, circuit.relabeling, 0)
    return labels


def _sum_by(index, values, size: int):
    return (np.bincount(index, values.real, size)
            + 1j * np.bincount(index, values.imag, size))


def _prune(keys, amps, c: int, pruned):
    """Drop entries below ``_PRUNE_BELOW``, adding each column's dropped L2
    norm to ``pruned``."""
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


def adjoint(circuit: Circuit) -> Circuit:
    """Inverse circuit: reversed inverted gates; a relabeling is inverted and
    pushed through the gates so it can stay in final position."""
    relab = circuit.relabeling
    gates = inverse(circuit.gates)
    if relab is None:
        inv_relab = None
    else:
        gates = [g.remapped(relab) for g in gates]
        inv_relab = [0] * circuit.width
        for w, dest in enumerate(relab):
            inv_relab[dest] = w
        inv_relab = tuple(inv_relab)
    label = circuit.label + "^dag" if circuit.label else ""
    return Circuit(circuit.width, gates, circuit.ancillas, inv_relab, label)


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
