"""Backend-compile stage: turn a CircuitProgram into an optimized tape.

This is the vector VM's optimizer.  :func:`compile_tape` runs a pipeline of
peephole passes over the SSA instruction list and emits a
:class:`~repro.backends.tape.CompiledTape`:

1. **Copy propagation** — ``ROTATE`` with an effective step of zero and
   ``OUTPUT`` markers are pure aliases; they are resolved away so aliases
   never materialise (an in-place write through an aliased register cannot
   corrupt its source by construction).
2. **Constant/load hoisting + dedup** — identical ``LOAD_PLAIN`` constants
   collapse into one read-only constant-pool entry, identical ``LOAD_INPUT``
   layouts into one load, and identical pure subexpressions are value
   numbered (CSE).  Dead values left behind are dropped.
3. **Demanded-slot narrowing** — a backward interval analysis starts from
   the output slots ``[0, length)`` and shifts demand through every
   rotation by its *signed* step, so the whole tape only needs the window
   ``[L, H)`` (the hull of every demanded interval).  Column ``j`` of the
   tape's ``(B, w)`` buffers holds ring slot ``(L + j) mod n``; constants
   and load templates are sliced to the window, output/input columns are
   remapped, and rotations become ``d mod w`` over the narrow ring.  A hull
   of ``n`` or more slots keeps the full ring ``[0, n)``.  Values equal on
   every window column (constants or loads differing only outside it,
   rotations whose steps agree mod ``w``) are then value-numbered into one.
4. **Superinstruction fusion** — the dominant reduction chains fuse:
   ``mul``/``mul_plain`` feeding a single-use ``add``/``sub`` becomes
   ``mul_add``/``mul_sub_*``, and a single-use ``rotate`` feeding ``mul``,
   ``add`` or a fused ``mul_add`` folds into ``rot_mul``/``rot_add``/
   ``rot_mul_add``.
5. **Register-arena coloring** — SSA values are liveness-colored onto
   reusable buffer slots.  Elementwise ops may write in place over an
   operand slot (numpy ufuncs are exact-aliasing safe); rotations and the
   multi-step fused ops get a destination slot disjoint from their operands.
6. **Accounting replay** — the *original* instruction sequence is replayed
   once through :class:`~repro.backends.base.NoiseLedger` and
   :class:`~repro.fhe.meter.ExecutionMeter`; the resulting latency,
   operation counts and noise budgets are input independent and therefore
   float-for-float identical to metering each execution.

Reduction *placement* is not decided here — it depends on input magnitudes,
so :meth:`CompiledTape.plan_for` schedules it per bucketed input bound at
execution time (cached per tape).

The module also owns the process-wide compiled-tape memo
(:func:`get_compiled_tape`): tapes are keyed by circuit fingerprint and BFV
parameters, so the JobServer's coalesced batches — and any number of backend
instances — reuse compiled tapes across ticks.  :func:`tape_cache_stats`
exposes hit/miss/compile counters for smoke tests and server telemetry.
"""

from __future__ import annotations

import threading
from collections import Counter, OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.backends.base import NoiseLedger, program_fingerprint
from repro.backends.tape import (
    CompiledTape,
    TapeAccounting,
    TapeLoad,
    TapeOp,
    TapeOutput,
)
from repro.compiler.circuit import CircuitProgram, Opcode
from repro.core.exceptions import CompilationError
from repro.fhe.meter import ExecutionMeter
from repro.fhe.params import BFVParameters

__all__ = [
    "compile_tape",
    "get_compiled_tape",
    "tape_cache_stats",
    "reset_tape_cache",
    "scheduling_cost_ms",
    "TapeVerificationError",
]


class TapeVerificationError(CompilationError):
    """The static tape verifier reported ERROR findings on a fresh compile.

    Carries the full :class:`~repro.analysis.AnalysisReport` so callers
    (CLI, server telemetry) can surface every finding, not just the first.
    """

    def __init__(self, name: str, report) -> None:
        self.report = report
        preview = "; ".join(f.render() for f in report.findings[:5])
        super().__init__(f"tape verification failed for {name!r}: {preview}")


@dataclass
class _Def:
    """One SSA value during optimization (mutable across passes)."""

    kind: str
    x: Optional[Tuple[str, int]] = None
    y: Optional[Tuple[str, int]] = None
    acc: Optional[Tuple[str, int]] = None
    step: int = 0
    load: int = -1


_BINARY_KINDS = {
    Opcode.ADD: "add",
    Opcode.SUB: "sub",
    Opcode.MUL: "mul",
    Opcode.ADD_PLAIN: "add",
    Opcode.SUB_PLAIN: "sub",
    Opcode.MUL_PLAIN: "mul",
}


# ---------------------------------------------------------------------------
# accounting replay (input independent, once per tape)
# ---------------------------------------------------------------------------
def _replay_accounting(
    program: CircuitProgram, params: BFVParameters
) -> Tuple[TapeAccounting, Dict[int, Tuple[bool, float]]]:
    """Replay the original tape through the ledger/meter formulas.

    Charges the same meter operations in the same order as the reference
    evaluator (:class:`~repro.fhe.evaluator.Evaluator` running the
    instruction list under an :class:`~repro.fhe.meter.ExecutionMeter`), so
    every float is identical to a metered reference execution.  Returns the
    aggregate accounting plus per-output-register ``(is_ciphertext,
    clamped_budget)`` pairs.
    """
    meter = ExecutionMeter(params=params)
    ledger = NoiseLedger(meter)
    encrypted_inputs = 0
    for instruction in program.instructions:
        opcode = instruction.opcode
        dst = instruction.result
        if opcode is Opcode.LOAD_INPUT:
            ledger.load_input(dst)
            encrypted_inputs += 1
        elif opcode is Opcode.LOAD_PLAIN:
            pass
        elif opcode is Opcode.ADD:
            ledger.add(dst, *instruction.operands, "add")
        elif opcode is Opcode.SUB:
            ledger.add(dst, *instruction.operands, "sub")
        elif opcode is Opcode.MUL:
            ledger.multiply_relinearize(dst, *instruction.operands)
        elif opcode is Opcode.ADD_PLAIN:
            ledger.add_plain(dst, instruction.operands[0], "add")
        elif opcode is Opcode.SUB_PLAIN:
            ledger.add_plain(dst, instruction.operands[0], "sub")
        elif opcode is Opcode.MUL_PLAIN:
            ledger.multiply_plain(dst, instruction.operands[0])
        elif opcode is Opcode.NEGATE:
            ledger.negate(dst, instruction.operands[0])
        elif opcode is Opcode.ROTATE:
            ledger.rotate(dst, instruction.operands[0], instruction.step)
        elif opcode is Opcode.OUTPUT:
            ledger.alias(dst, instruction.operands[0])
        else:  # pragma: no cover - defensive
            raise CompilationError(f"unknown opcode {opcode}")

    initial_budget = params.initial_noise_budget
    minimum_budget = initial_budget
    exhausted = False
    per_output: Dict[int, Tuple[bool, float]] = {}
    for register, _, _ in program.outputs:
        if not ledger.is_ciphertext(register):
            per_output[register] = (False, 0.0)
            continue
        budget = ledger.output_budget(register)
        minimum_budget = min(minimum_budget, budget)
        if budget <= 0.0:
            exhausted = True
        per_output[register] = (True, budget)
    remaining = max(0.0, minimum_budget)
    consumed = initial_budget - remaining
    accounting = TapeAccounting(
        latency_ms=meter.total_latency_ms,
        operation_counts=meter.operation_counts(),
        encrypted_inputs=encrypted_inputs,
        remaining_noise_budget=remaining,
        consumed_noise_budget=consumed,
        noise_budget_exhausted=exhausted,
    )
    return accounting, per_output


# ---------------------------------------------------------------------------
# demanded-slot narrowing
# ---------------------------------------------------------------------------
def _signed_step(step: int, n: int) -> int:
    """A rotation step normalized into ``[1, n)`` as the shortest signed shift.

    Steps past ``n // 2`` are rotations to the right, so their demand stays
    next to slot 0 instead of wrapping to the top of the ring.
    """
    return step if step <= n // 2 else step - n


def _demanded_window(
    values: List[_Def],
    order: List[int],
    output_refs: List[Tuple[str, Tuple[str, int], int, int]],
    n: int,
) -> Tuple[int, int]:
    """The window ``[L, H)`` of slots the outputs depend on.

    A backward interval analysis over the live SSA values (``order`` is
    topological, so walking it in reverse visits every consumer before its
    producers): each output demands ``[0, length)``, elementwise ops pass
    their demand to every operand, and a rotation by signed step ``d``
    shifts it by ``d``.  Per-value demand is an interval hull, which keeps
    the analysis linear in the tape.  The window is the hull of every
    demanded interval; one of ``n`` or more slots is the full ring
    ``[0, n)``, where no narrowing applies.
    """
    demand: Dict[int, Tuple[int, int]] = {}
    lo, hi = 0, 1

    def require(ref: Tuple[str, int], start: int, stop: int) -> None:
        nonlocal lo, hi
        lo, hi = min(lo, start), max(hi, stop)
        if ref[0] == "v":
            current = demand.get(ref[1])
            if current is not None:
                start, stop = min(start, current[0]), max(stop, current[1])
            demand[ref[1]] = (start, stop)

    for _, ref, length, _ in output_refs:
        # A zero-length output still reads one slot, so every live value
        # has a non-empty demand and every live rotation a non-zero step.
        require(ref, 0, max(length, 1))
    for vid in reversed(order):
        defn = values[vid]
        start, stop = demand[vid]
        if defn.kind == "rot":
            shift = _signed_step(defn.step, n)
            start, stop = start + shift, stop + shift
        for ref in (defn.x, defn.y):
            if ref is not None:
                require(ref, start, stop)
    if hi - lo >= n:
        return 0, n
    return lo, hi


def _row_bound(row: np.ndarray) -> int:
    """The largest magnitude in a centred constant row."""
    return int(np.max(np.abs(row)))


def _window_row(
    columns: Iterable[Tuple[int, int]], lo: int, width: int, n: int
) -> np.ndarray:
    """A ``(width,)`` row holding ``(ring_slot, value)`` pairs in the window."""
    row = np.zeros(width, dtype=np.int64)
    pairs = list(columns)
    if pairs:
        slots, entries = zip(*pairs)
        positions = (np.asarray(slots, dtype=np.int64) - lo) % n
        inside = positions < width
        row[positions[inside]] = np.asarray(entries, dtype=np.int64)[inside]
    return row


# ---------------------------------------------------------------------------
# the optimization pipeline
# ---------------------------------------------------------------------------
def compile_tape(
    program: CircuitProgram,
    params: BFVParameters,
    *,
    window: Optional[Tuple[int, int]] = None,
) -> CompiledTape:
    """Compile ``program`` into an optimized executable tape.

    ``window`` overrides the demanded-slot window ``[L, H)`` the analysis
    would pick; the mutation harness uses it to build tapes narrowed past
    what their outputs need, which the verifier must reject.
    """
    t = params.plain_modulus
    n = params.slot_count
    half = t // 2

    def centred(value: int) -> int:
        residue = int(value) % t
        return residue - t if residue > half else residue

    # Constants and load templates are recorded by slot and materialized
    # once the demanded window is known, so no full-ring row is ever built.
    raw_consts: List[Tuple[Optional[int], Tuple[int, ...]]] = []
    const_index: Dict[object, int] = {}
    raw_loads: List[
        Tuple[Tuple[Tuple[int, int], ...], Tuple[Tuple[int, str], ...]]
    ] = []
    values: List[_Def] = []
    ref_of: Dict[int, Tuple[str, int]] = {}
    numbering: Dict[object, int] = {}
    eliminated = Counter()

    def new_value(defn: _Def, key: object = None) -> Tuple[str, int]:
        vid = len(values)
        values.append(defn)
        if key is not None:
            numbering[key] = vid
        return ("v", vid)

    # -- pass 1+2: copy propagation, const/load dedup, value numbering ------
    for instruction in program.instructions:
        opcode = instruction.opcode
        dst = instruction.result
        if opcode is Opcode.LOAD_INPUT:
            key = ("load", instruction.layout)
            hit = numbering.get(key)
            if hit is not None:
                ref_of[dst] = ("v", hit)
                eliminated["dedup_loads"] += 1
                continue
            const_columns: List[Tuple[int, int]] = []
            var_columns: List[Tuple[int, str]] = []
            for column, slot in enumerate(instruction.layout):
                if slot.constant is not None:
                    const_columns.append((column, centred(slot.constant)))
                else:
                    var_columns.append((column, slot.name))
            raw_loads.append((tuple(const_columns), tuple(var_columns)))
            ref_of[dst] = new_value(_Def("load", load=len(raw_loads) - 1), key)
        elif opcode is Opcode.LOAD_PLAIN:
            key = ("plain", instruction.name == "broadcast", instruction.values)
            index = const_index.get(key)
            if index is None:
                index = len(raw_consts)
                if instruction.name == "broadcast":
                    raw_consts.append((centred(instruction.values[0]), ()))
                else:
                    raw_consts.append(
                        (None, tuple(centred(v) for v in instruction.values))
                    )
                const_index[key] = index
            else:
                eliminated["dedup_consts"] += 1
            ref_of[dst] = ("c", index)
        elif opcode is Opcode.ROTATE:
            source = ref_of[instruction.operands[0]]
            step = int(instruction.step) % n
            if step == 0:
                ref_of[dst] = source
                eliminated["aliases"] += 1
                continue
            key = ("rot", source, step)
            hit = numbering.get(key)
            if hit is not None:
                ref_of[dst] = ("v", hit)
                eliminated["cse"] += 1
            else:
                ref_of[dst] = new_value(_Def("rot", x=source, step=step), key)
        elif opcode is Opcode.OUTPUT:
            ref_of[dst] = ref_of[instruction.operands[0]]
            eliminated["aliases"] += 1
        elif opcode is Opcode.NEGATE:
            source = ref_of[instruction.operands[0]]
            key = ("neg", source)
            hit = numbering.get(key)
            if hit is not None:
                ref_of[dst] = ("v", hit)
                eliminated["cse"] += 1
            else:
                ref_of[dst] = new_value(_Def("neg", x=source), key)
        else:
            kind = _BINARY_KINDS.get(opcode)
            if kind is None:  # pragma: no cover - defensive
                raise CompilationError(f"unknown opcode {opcode}")
            lhs, rhs = instruction.operands
            x, y = ref_of[lhs], ref_of[rhs]
            if kind in ("add", "mul") and y < x:
                key = (kind, y, x)  # commutative: canonical operand order
            else:
                key = (kind, x, y)
            hit = numbering.get(key)
            if hit is not None:
                ref_of[dst] = ("v", hit)
                eliminated["cse"] += 1
            else:
                ref_of[dst] = new_value(_Def(kind, x=x, y=y), key)

    output_refs = [
        (name, ref_of[register], length, register)
        for register, name, length in program.outputs
    ]

    # -- dead-value elimination ---------------------------------------------
    live = [False] * len(values)
    stack = [ref[1] for _, ref, _, _ in output_refs if ref[0] == "v"]
    while stack:
        vid = stack.pop()
        if live[vid]:
            continue
        live[vid] = True
        defn = values[vid]
        for ref in (defn.x, defn.y, defn.acc):
            if ref is not None and ref[0] == "v" and not live[ref[1]]:
                stack.append(ref[1])
    eliminated["dead"] = sum(1 for flag in live if not flag)
    order = [vid for vid in range(len(values)) if live[vid]]

    # -- demanded-slot narrowing (rotations are still standalone here) -------
    if window is None:
        window = _demanded_window(values, order, output_refs, n)
    lo, hi = window
    width = hi - lo
    for vid in order:
        defn = values[vid]
        if defn.kind == "rot":
            defn.step = _signed_step(defn.step, n) % width

    # -- re-number over the window -------------------------------------------
    # Values that agree on every window column are one value on this tape:
    # constants and loads differing only outside the window merge, and so do
    # rotations whose steps agree mod w and everything computed from them.
    # The verifier's term domain identifies exactly these values, so the
    # single-use test of the fusion passes below agrees with its own.
    def window_column(slot: int) -> int:
        column = (slot - lo) % n
        return column if column < width else -1

    const_rows: List[np.ndarray] = []
    const_of: List[int] = []  # raw constant -> first raw constant with its row
    first_row: Dict[bytes, int] = {}
    for index, (broadcast, packed) in enumerate(raw_consts):
        if broadcast is not None:
            row = np.full(width, broadcast, dtype=np.int64)
        else:
            row = _window_row(enumerate(packed), lo, width, n)
        const_rows.append(row)
        const_of.append(first_row.setdefault(row.tobytes(), index))

    input_names: Dict[str, None] = {}  # every input a live load reads
    load_of: Dict[int, Tuple[np.ndarray, Tuple[Tuple[int, str], ...]]] = {}
    merged: Dict[int, int] = {}
    window_numbering: Dict[object, int] = {}

    def canonical(ref: Optional[Tuple[str, int]]) -> Optional[Tuple[str, int]]:
        if ref is None:
            return None
        if ref[0] == "c":
            return ("c", const_of[ref[1]])
        return ("v", merged.get(ref[1], ref[1]))

    kept: List[int] = []
    for vid in order:
        defn = values[vid]
        if defn.kind == "load":
            const_columns, var_columns = raw_loads[defn.load]
            input_names.update((name, None) for _, name in var_columns)
            template = _window_row(const_columns, lo, width, n)
            columns = tuple(
                (window_column(slot), name)
                for slot, name in var_columns
                if window_column(slot) >= 0
            )
            load_of[vid] = (template, columns)
            key: object = ("load", template.tobytes(), columns)
        else:
            defn.x, defn.y = canonical(defn.x), canonical(defn.y)
            x, y = defn.x, defn.y
            if defn.kind in ("add", "mul") and y < x:
                x, y = y, x
            key = (defn.kind, x, y, defn.step)
        hit = window_numbering.setdefault(key, vid)
        if hit == vid:
            kept.append(vid)
        else:
            merged[vid] = hit
            eliminated["cse"] += 1
    order = kept
    output_refs = [
        (name, canonical(ref), length, register)
        for name, ref, length, register in output_refs
    ]

    # -- fusion passes -------------------------------------------------------
    output_vids = {ref[1] for _, ref, _, _ in output_refs if ref[0] == "v"}
    fused = Counter()

    def use_counts() -> Counter:
        counts: Counter = Counter()
        for vid in order:
            defn = values[vid]
            for ref in (defn.x, defn.y, defn.acc):
                if ref is not None and ref[0] == "v":
                    counts[ref[1]] += 1
        for _, ref, _, _ in output_refs:
            if ref[0] == "v":
                counts[ref[1]] += 1
        return counts

    # Pass A: mul feeding a single-use add/sub -> mul_add / mul_sub_*.
    counts = use_counts()
    consumed: set = set()
    for vid in order:
        defn = values[vid]
        if defn.kind not in ("add", "sub"):
            continue
        for attr, other_attr in (("x", "y"), ("y", "x")):
            ref = getattr(defn, attr)
            if ref is None or ref[0] != "v":
                continue
            pvid = ref[1]
            producer = values[pvid]
            if (
                producer.kind == "mul"
                and counts[pvid] == 1
                and pvid not in output_vids
                and pvid not in consumed
            ):
                other = getattr(defn, other_attr)
                if defn.kind == "add":
                    defn.kind = "mul_add"
                else:
                    defn.kind = "mul_sub_l" if attr == "x" else "mul_sub_r"
                defn.x, defn.y, defn.acc = producer.x, producer.y, other
                consumed.add(pvid)
                fused[defn.kind] += 1
                break
    order = [vid for vid in order if vid not in consumed]

    # Pass B: single-use rotate folding into its consumer.
    counts = use_counts()
    consumed = set()
    for vid in order:
        defn = values[vid]
        if defn.kind in ("mul", "add"):
            for attr, other_attr in (("x", "y"), ("y", "x")):
                ref = getattr(defn, attr)
                if ref is None or ref[0] != "v":
                    continue
                pvid = ref[1]
                producer = values[pvid]
                if (
                    producer.kind == "rot"
                    and counts[pvid] == 1
                    and pvid not in output_vids
                    and pvid not in consumed
                ):
                    other = getattr(defn, other_attr)
                    defn.kind = "rot_mul" if defn.kind == "mul" else "rot_add"
                    defn.x, defn.y, defn.step = producer.x, other, producer.step
                    consumed.add(pvid)
                    fused[defn.kind] += 1
                    break
        elif defn.kind == "mul_add":
            for attr, other_attr in (("x", "y"), ("y", "x")):
                ref = getattr(defn, attr)
                if ref is None or ref[0] != "v":
                    continue
                pvid = ref[1]
                producer = values[pvid]
                if (
                    producer.kind == "rot"
                    and counts[pvid] == 1
                    and pvid not in output_vids
                    and pvid not in consumed
                ):
                    other = getattr(defn, other_attr)
                    defn.kind = "rot_mul_add"
                    defn.x, defn.y, defn.step = producer.x, other, producer.step
                    consumed.add(pvid)
                    fused["rot_mul_add"] += 1
                    break
    order = [vid for vid in order if vid not in consumed]

    # -- register-arena coloring --------------------------------------------
    load_vids = [vid for vid in order if values[vid].kind == "load"]
    op_vids = [vid for vid in order if values[vid].kind != "load"]

    last_use: Dict[int, int] = {}
    for position, vid in enumerate(op_vids):
        defn = values[vid]
        for ref in (defn.x, defn.y, defn.acc):
            if ref is not None and ref[0] == "v":
                last_use[ref[1]] = position
    forever = len(op_vids) + 1
    for _, ref, _, _ in output_refs:
        if ref[0] == "v":
            last_use[ref[1]] = forever

    slot_of: Dict[int, int] = {}
    free_slots: List[int] = []
    slot_count = 0

    def allocate(forbidden: set) -> int:
        nonlocal slot_count
        for index in range(len(free_slots) - 1, -1, -1):
            if free_slots[index] not in forbidden:
                return free_slots.pop(index)
        slot = slot_count
        slot_count += 1
        return slot

    for vid in load_vids:
        slot_of[vid] = allocate(set())

    _NO_ALIAS_ALL = {"rot", "rot_add", "rot_mul", "rot_mul_add"}
    _NO_ALIAS_ACC = {"mul_add", "mul_sub_l", "mul_sub_r"}
    for position, vid in enumerate(op_vids):
        defn = values[vid]
        operand_vids = {
            ref[1]
            for ref in (defn.x, defn.y, defn.acc)
            if ref is not None and ref[0] == "v"
        }
        for operand in operand_vids:
            if last_use.get(operand) == position:
                free_slots.append(slot_of[operand])
        if defn.kind in _NO_ALIAS_ALL:
            forbidden = {slot_of[operand] for operand in operand_vids}
        elif defn.kind in _NO_ALIAS_ACC and defn.acc is not None and defn.acc[0] == "v":
            forbidden = {slot_of[defn.acc[1]]}
        else:
            forbidden = set()
        slot_of[vid] = allocate(forbidden)

    # -- compact the constant pool to what the final tape references --------
    used_consts = sorted(
        {
            ref[1]
            for vid in order
            for ref in (values[vid].x, values[vid].y, values[vid].acc)
            if ref is not None and ref[0] == "c"
        }
        | {ref[1] for _, ref, _, _ in output_refs if ref[0] == "c"}
    )
    const_remap = {old: new for new, old in enumerate(used_consts)}
    final_consts = [const_rows[old] for old in used_consts]
    n_consts = len(final_consts)

    def buffer_of(ref: Tuple[str, int]) -> int:
        if ref[0] == "c":
            return const_remap[ref[1]]
        return n_consts + slot_of[ref[1]]

    tape_loads = [
        TapeLoad(
            buffer=n_consts + slot_of[vid],
            template=load_of[vid][0],
            var_columns=load_of[vid][1],
            const_bound=_row_bound(load_of[vid][0]),
        )
        for vid in load_vids
    ]

    ops: List[TapeOp] = []
    for vid in op_vids:
        defn = values[vid]
        dst = n_consts + slot_of[vid]
        if defn.kind in ("neg", "rot"):
            ops.append(TapeOp(defn.kind, dst, a=buffer_of(defn.x), step=defn.step))
        elif defn.kind in ("add", "sub", "mul", "rot_add", "rot_mul"):
            ops.append(
                TapeOp(
                    defn.kind,
                    dst,
                    a=buffer_of(defn.x),
                    b=buffer_of(defn.y),
                    step=defn.step,
                )
            )
        else:  # mul_add / mul_sub_l / mul_sub_r / rot_mul_add
            ops.append(
                TapeOp(
                    defn.kind,
                    dst,
                    a=buffer_of(defn.x),
                    b=buffer_of(defn.y),
                    c=buffer_of(defn.acc),
                    step=defn.step,
                )
            )

    accounting, per_output = _replay_accounting(program, params)
    outputs = [
        TapeOutput(
            name=name,
            buffer=buffer_of(ref),
            length=length,
            is_ciphertext=per_output[register][0],
            budget=per_output[register][1],
            column=window_column(0),
        )
        for name, ref, length, register in output_refs
    ]

    compute_before = sum(
        1 for instruction in program.instructions if instruction.is_compute()
    )
    stats: Dict[str, object] = {
        "instructions": len(program.instructions),
        "compute_ops": compute_before,
        "tape_ops": len(ops),
        "tape_entries": len(ops) + len(tape_loads),
        "loads": len(tape_loads),
        "consts": n_consts,
        "fused": dict(fused),
        "fused_total": sum(fused.values()),
        "eliminated": {key: eliminated[key] for key in sorted(eliminated)},
        "arena_slots": slot_count,
        "window": [lo, hi],
        "width": width,
    }
    return CompiledTape(
        params=params,
        consts=final_consts,
        const_bounds=[_row_bound(row) for row in final_consts],
        slot_count=slot_count,
        window=(lo, hi),
        input_names=tuple(input_names),
        loads=tape_loads,
        ops=ops,
        outputs=outputs,
        accounting=accounting,
        stats=stats,
    )


# ---------------------------------------------------------------------------
# the process-wide compiled-tape memo
# ---------------------------------------------------------------------------
_CACHE_CAPACITY = 64
#: Memo entries are ``(tape, verified)``: whether the tape verifier has
#: passed this tape, so a ``verify=True`` lookup never trusts a tape some
#: ``verify=False`` caller compiled first.
_cache: "OrderedDict[Tuple[str, BFVParameters], Tuple[CompiledTape, bool]]" = (
    OrderedDict()
)
_cache_lock = threading.Lock()
_counters = {"hits": 0, "misses": 0, "compiles": 0, "verified": 0, "findings": 0}


def get_compiled_tape(
    program: CircuitProgram,
    params: BFVParameters,
    *,
    verify: bool = False,
    fingerprint: Optional[str] = None,
) -> CompiledTape:
    """The compiled tape for ``(program, params)``, memoized process-wide.

    Keyed by circuit content fingerprint (name independent) plus the frozen
    BFV parameters — the same identity the service's measured-time table and
    the server's coalescer use, so coalesced batches hit the memo across
    ticks and across backend instances.

    ``verify=True`` runs the static tape verifier
    (:func:`repro.analysis.tape_check.verify_tape`) once per memo entry — on
    a fresh compile, or on the first ``verify=True`` hit of a tape that was
    compiled unverified — raising :class:`TapeVerificationError` on any
    ERROR finding and folding the verified/finding counts into the memo
    counters (the server's telemetry sync turns those into
    ``analysis_findings``).

    ``fingerprint`` is ``program_fingerprint(program)`` when the caller
    already holds it (the server computes it once per circuit); None hashes
    the circuit here.
    """
    key = (fingerprint or program_fingerprint(program), params)
    with _cache_lock:
        entry = _cache.get(key)
        if entry is None:
            _counters["misses"] += 1
        else:
            _cache.move_to_end(key)
            _counters["hits"] += 1
            tape, verified = entry
            if verified or not verify:
                return tape
    if entry is not None:
        # A verify=True hit on a tape compiled unverified: verify it once.
        _verify(program, tape)
        with _cache_lock:
            if _cache.get(key) is entry:
                _cache[key] = (tape, True)
        return tape
    tape = compile_tape(program, params)
    if verify:
        _verify(program, tape)
    with _cache_lock:
        _counters["compiles"] += 1
        _cache[key] = (tape, verify)
        _cache.move_to_end(key)
        while len(_cache) > _CACHE_CAPACITY:
            _cache.popitem(last=False)
    return tape


def _verify(program: CircuitProgram, tape: CompiledTape) -> None:
    """Run the tape verifier, count it, raise on any ERROR finding."""
    from repro.analysis.tape_check import verify_tape

    report = verify_tape(program, tape)
    with _cache_lock:
        _counters["verified"] += 1
        _counters["findings"] += len(report.findings)
    if not report.ok:
        raise TapeVerificationError(program.name, report)


def tape_cache_stats() -> Dict[str, int]:
    """Snapshot of the tape-memo counters (hits/misses/compiles/size)."""
    with _cache_lock:
        snapshot = dict(_counters)
        snapshot["size"] = len(_cache)
        return snapshot


def reset_tape_cache() -> None:
    """Clear the tape memo and its counters (tests and benchmarks)."""
    with _cache_lock:
        _cache.clear()
        for key in _counters:
            _counters[key] = 0


def scheduling_cost_ms(
    program: CircuitProgram,
    params: BFVParameters,
    latency_model,
    *,
    fingerprint: Optional[str] = None,
) -> float:
    """Analytical latency refined by the compiled tape's fused op count.

    The raw model prices the original instruction list; after fusion the
    tape executes fewer memory passes, so scheduling weights scale by the
    executed/original compute-op ratio.  Used by
    :meth:`ExecutionService.static_cost_ms` when the backend exposes it.
    """
    model_ms = program.estimated_latency_ms(latency_model)
    tape = get_compiled_tape(program, params, fingerprint=fingerprint)
    before = int(tape.stats["compute_ops"])  # type: ignore[arg-type]
    if before <= 0:
        return model_ms
    return model_ms * (int(tape.stats["tape_ops"]) / before)  # type: ignore[arg-type]
