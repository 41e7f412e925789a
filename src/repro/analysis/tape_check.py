"""Static verification of optimized tapes against their source circuits.

:func:`verify_tape` proves, per :class:`~repro.backends.tape.CompiledTape`
(and per reduction plan), the invariants the tape optimizer is supposed to
preserve:

``tape-arena`` (register-arena safety)
    Every buffer an op reads was written first (def-before-use over the
    re-derived def-use chains), nothing ever writes into the read-only
    constant pool, rotation steps are normalized into ``[1, w)`` for the
    tape's window width ``w`` (the slice-based rotate corrupts the buffer
    otherwise), and the no-alias
    constraints of the multi-step superinstructions hold: rotations write
    their destination before the source is fully read (``dst`` must not
    alias *any* operand) and the fused accumulator forms overwrite ``dst``
    before reading ``c``.

``tape-window`` (demanded-slot window soundness)
    Each output's dependency cone is recomputed from the *circuit* — an
    interval per register, shifted through every rotation by its signed
    step — independently of the optimizer's own analysis, and must lie
    inside the tape's window ``[L, H)`` with ``H - L <= n`` (a window of
    ``n`` columns is the exact ring and needs no proof).  Every output must
    read its slots from the column holding ring slot 0.  This is what makes
    the narrowed equivalence check below sound: a demanded column never
    reads a wrapped, undemanded one.

``tape-outputs`` (output coverage)
    Every output the circuit declares reaches exactly one
    :class:`~repro.backends.tape.TapeOutput` (same name, same slot length),
    and no tape output is orphaned.

``tape-bounds`` (reduction-schedule soundness)
    An independent interval analysis re-simulates magnitude bounds over the
    scheduled ops of each input-magnitude bucket — including the
    intermediate values materialized inside fused ops — and proves no
    intermediate can leave the signed 64-bit range of the arena's int64
    buffers.  This is exactly the property the lazy-reduction scheduler
    promises; the verifier recomputes it from scratch rather than trusting
    the scheduler's own bookkeeping.

``tape-equivalence`` (translation validation + fusion legality)
    Both the original circuit and the tape are executed symbolically over a
    normalized term domain (commutative operands sorted, rotation steps
    taken as the signed ring shift ``d`` reduced mod the window width
    ``w``, loads and constants keyed by their centred content over the
    window's slots, fused superinstructions unfolded, congruence-preserving
    reductions erased).  Every tape output's term must equal the circuit's
    term for that output — one oracle that catches swapped operands,
    clobbered lifetimes, dropped or reordered ops and illegal fusion.
    Fusion legality is additionally checked directly: the inner term a
    fused op consumed must be single-use in the live part of the original
    program, mirroring the optimizer's own precondition.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.analysis import AnalysisReport, Severity, register_checker
from repro.backends.tape import (
    _NO_ALIAS_ACC,
    _NO_ALIAS_ALL,
    REDUCE_LIMIT,
    CompiledTape,
    TapeOp,
)
from repro.compiler.circuit import CircuitProgram, Opcode

__all__ = ["verify_tape", "verify_plan_ops", "iter_op_bounds", "DEFAULT_BOUNDS"]


#: Input-magnitude bounds whose buckets the verifier checks by default: the
#: smallest bucket, a typical workload range, and the largest bucket
#: (centred inputs are clamped to ``t // 2``, so this covers the worst case).
DEFAULT_BOUNDS = (1, 7, 1 << 62)

#: Which operand fields each tape-op kind reads.
_READS: Dict[str, Tuple[str, ...]] = {
    "add": ("a", "b"),
    "sub": ("a", "b"),
    "mul": ("a", "b"),
    "neg": ("a",),
    "rot": ("a",),
    "rot_add": ("a", "b"),
    "rot_mul": ("a", "b"),
    "rot_mul_add": ("a", "b", "c"),
    "mul_add": ("a", "b", "c"),
    "mul_sub_l": ("a", "b", "c"),
    "mul_sub_r": ("a", "b", "c"),
    "reduce": ("dst",),
}


def _reads(op: TapeOp) -> List[int]:
    return [getattr(op, field) for field in _READS.get(op.kind, ())]


# ---------------------------------------------------------------------------
# tape-arena: def-before-use, const-pool writes, no-alias constraints
# ---------------------------------------------------------------------------
@register_checker(
    "tape-arena",
    "tape",
    "register-arena safety: def-before-use, no-alias, read-only const pool",
)
def check_arena(
    report: AnalysisReport,
    program: CircuitProgram,
    tape: CompiledTape,
    ops: Sequence[TapeOp],
    *,
    location: str,
) -> None:
    n_consts = len(tape.consts)
    n_buffers = n_consts + tape.slot_count
    defined: Set[int] = set(range(n_consts))
    defined.update(load.buffer for load in tape.loads)

    for load in tape.loads:
        if load.buffer < n_consts or load.buffer >= n_buffers:
            report.add(
                "tape-arena",
                "load-out-of-range",
                Severity.ERROR,
                f"load writes buffer {load.buffer} outside the arena "
                f"[{n_consts}, {n_buffers})",
                location=location,
            )

    for index, op in enumerate(ops):
        where = f"{location} op {index} ({op.kind})"
        if op.kind not in _READS:
            report.add(
                "tape-arena",
                "unknown-op",
                Severity.ERROR,
                f"unknown tape op kind {op.kind!r}",
                location=where,
            )
            continue
        for buffer in _reads(op):
            if buffer < 0 or buffer >= n_buffers:
                report.add(
                    "tape-arena",
                    "operand-out-of-range",
                    Severity.ERROR,
                    f"reads buffer {buffer} outside [0, {n_buffers})",
                    location=where,
                )
            elif buffer not in defined:
                report.add(
                    "tape-arena",
                    "use-before-def",
                    Severity.ERROR,
                    f"reads buffer {buffer} before any write defined it",
                    location=where,
                )
        if op.dst < 0 or op.dst >= n_buffers:
            report.add(
                "tape-arena",
                "dst-out-of-range",
                Severity.ERROR,
                f"writes buffer {op.dst} outside [0, {n_buffers})",
                location=where,
            )
            continue
        if op.dst < n_consts:
            report.add(
                "tape-arena",
                "const-pool-write",
                Severity.ERROR,
                f"writes constant-pool buffer c{op.dst} (shared, read-only)",
                location=where,
            )
        if op.kind in _NO_ALIAS_ALL:
            operands = {b for b in (op.a, op.b, op.c) if b >= 0}
            if op.dst in operands:
                report.add(
                    "tape-arena",
                    "alias-hazard",
                    Severity.ERROR,
                    f"{op.kind} destination r{op.dst - n_consts} aliases an "
                    "operand; the rotation writes dst before the source is "
                    "fully read",
                    location=where,
                )
        elif op.kind in _NO_ALIAS_ACC and op.c >= 0 and op.dst == op.c:
            report.add(
                "tape-arena",
                "alias-hazard",
                Severity.ERROR,
                f"{op.kind} destination aliases the accumulator c; the "
                "first ufunc overwrites dst before the second reads c",
                location=where,
            )
        if op.kind in ("rot", "rot_add", "rot_mul", "rot_mul_add"):
            if not 0 < op.step < tape.width:
                report.add(
                    "tape-arena",
                    "rotation-normalization",
                    Severity.ERROR,
                    f"rotation step {op.step} is not normalized into "
                    f"[1, {tape.width}) (the window width); the slice-based "
                    "rotate would corrupt the buffer",
                    location=where,
                )
        defined.add(op.dst)

    for output in tape.outputs:
        if output.buffer not in defined:
            report.add(
                "tape-arena",
                "undefined-output",
                Severity.ERROR,
                f"output {output.name!r} reads buffer {output.buffer} that "
                "no load or op ever defined",
                location=location,
            )
    report.mark_ran("tape-arena")


# ---------------------------------------------------------------------------
# tape-window: every output's dependency cone lies inside the window
# ---------------------------------------------------------------------------
def _signed_shift(step: int, n: int) -> int:
    """The ring rotation by ``step`` as a signed shift in ``(-n/2, n/2]``."""
    step = int(step) % n
    return step - n if step > n // 2 else step


def _output_cones(program: CircuitProgram, n: int) -> Dict[str, Tuple[int, int]]:
    """Per declared output, the slot hull ``[lo, hi)`` its value depends on.

    Walks the circuit backwards from each output (which reads slots
    ``[0, length)``, at least one), giving every register the hull of the
    slot intervals its consumers read and shifting an interval by the
    signed step at every rotation.  Slots are integers, not ring positions:
    a hull of ``n`` or more slots needs the whole ring.
    """
    cones: Dict[str, Tuple[int, int]] = {}
    for register, name, length in program.outputs:
        demand: Dict[int, Tuple[int, int]] = {register: (0, max(length, 1))}
        lo, hi = demand[register]
        for instruction in reversed(program.instructions):
            span = demand.get(instruction.result)
            if span is None:
                continue
            shift = (
                _signed_shift(instruction.step, n)
                if instruction.opcode is Opcode.ROTATE
                else 0
            )
            start, stop = span[0] + shift, span[1] + shift
            lo, hi = min(lo, start), max(hi, stop)
            for operand in instruction.operands:
                current = demand.get(operand)
                if current is None:
                    demand[operand] = (start, stop)
                else:
                    demand[operand] = (min(start, current[0]), max(stop, current[1]))
        cones[name] = (lo, hi)
    return cones


@register_checker(
    "tape-window",
    "tape",
    "demanded-slot window: every output's dependency cone lies in [L, H)",
)
def check_window(
    report: AnalysisReport,
    program: CircuitProgram,
    tape: CompiledTape,
    ops: Sequence[TapeOp],
    *,
    location: str,
) -> None:
    n, width = tape.n, tape.width
    lo, hi = tape.window
    if not 0 < width <= n:
        report.add(
            "tape-window",
            "window-shape",
            Severity.ERROR,
            f"window [{lo}, {hi}) is not a non-empty slot interval of at "
            f"most n={n} columns",
            location=location,
        )
        report.mark_ran("tape-window")
        return
    if width < n:  # a full-width window is the exact ring: nothing to prove
        for name, (start, stop) in _output_cones(program, n).items():
            if start < lo or stop > hi:
                report.add(
                    "tape-window",
                    "cone-outside-window",
                    Severity.ERROR,
                    f"output {name!r} depends on slots [{start}, {stop}), "
                    f"outside the executed window [{lo}, {hi})",
                    location=location,
                )
    slot0 = (0 - lo) % n
    for output in tape.outputs:
        if output.column != slot0 or output.column + output.length > width:
            report.add(
                "tape-window",
                "output-column",
                Severity.ERROR,
                f"output {output.name!r} reads columns [{output.column}, "
                f"{output.column + output.length}); ring slot 0 is column "
                f"{slot0} of a {width}-column window",
                location=location,
            )
    report.mark_ran("tape-window")


# ---------------------------------------------------------------------------
# tape-outputs: every circuit output reaches exactly one TapeOutput
# ---------------------------------------------------------------------------
@register_checker(
    "tape-outputs",
    "tape",
    "output coverage: each circuit output maps to exactly one tape output",
)
def check_outputs(
    report: AnalysisReport,
    program: CircuitProgram,
    tape: CompiledTape,
    ops: Sequence[TapeOp],
    *,
    location: str,
) -> None:
    declared = {(name, length) for _, name, length in program.outputs}
    tape_outputs: Dict[str, int] = {}
    for output in tape.outputs:
        tape_outputs[output.name] = tape_outputs.get(output.name, 0) + 1
        if (output.name, output.length) not in declared:
            report.add(
                "tape-outputs",
                "orphan-output",
                Severity.ERROR,
                f"tape output {output.name!r} (length {output.length}) does "
                "not match any declared circuit output",
                location=location,
            )
    for _, name, length in program.outputs:
        count = tape_outputs.get(name, 0)
        if count != 1:
            report.add(
                "tape-outputs",
                "missing-output" if count == 0 else "duplicate-output",
                Severity.ERROR,
                f"circuit output {name!r} reaches {count} tape outputs "
                "(expected exactly one)",
                location=location,
            )
    report.mark_ran("tape-outputs")


# ---------------------------------------------------------------------------
# tape-bounds: independent interval analysis of the reduction schedule
# ---------------------------------------------------------------------------
@register_checker(
    "tape-bounds",
    "tape",
    "reduction-schedule soundness via independent interval analysis",
)
def check_bounds(
    report: AnalysisReport,
    program: CircuitProgram,
    tape: CompiledTape,
    ops: Sequence[TapeOp],
    *,
    location: str,
    bucket: int,
) -> None:
    """Re-simulate magnitude bounds over the scheduled ops of one bucket.

    The abstract state maps each buffer to an upper bound on any value it
    can hold for inputs with ``|v| <= bucket``, re-derived independently of
    the scheduler.  Fused ops are unfolded, so the *intermediate* product
    written into ``dst`` before the accumulate step is bounds-checked too.
    Any bound reaching ``2**63`` means an int64 overflow is possible and
    the schedule is unsound.
    """
    def overflow(value: int, stage: str, where: str) -> None:
        if value >= REDUCE_LIMIT:
            report.add(
                "tape-bounds",
                "reduction-threshold",
                Severity.ERROR,
                f"{stage} magnitude bound {value} reaches the lazy-reduction "
                f"threshold 2**62; the schedule loses its int64 overflow "
                "headroom here",
                location=where,
                bucket=bucket,
                bound=value,
            )

    for index, op, product, result in iter_op_bounds(tape, ops, bucket=bucket):
        where = f"{location} op {index} ({op.kind})"
        if op.kind == "reduce":
            continue  # result is min(prior, t//2): always in range
        if product is not None:
            overflow(product, "fused intermediate product", where)
        overflow(result, "result", where)
    report.mark_ran("tape-bounds")


def iter_op_bounds(tape: CompiledTape, ops: Sequence[TapeOp], *, bucket: int):
    """The interval transfer function, one op at a time.

    Yields ``(index, op, product_bound, result_bound)`` per scheduled op:
    ``result_bound`` is an upper bound on the magnitude ``op.dst`` can hold
    after the op for any inputs with ``|v| <= bucket``, and
    ``product_bound`` bounds the intermediate product a fused multiply form
    materializes in ``dst`` before accumulating (None for all other kinds).
    :func:`check_bounds` consumes this to flag threshold violations; the
    interval-soundness property test consumes it to compare against
    concrete executions — both see the identical abstraction.
    """
    bounds: Dict[int, int] = {
        index: bound for index, bound in enumerate(tape.const_bounds)
    }
    for load in tape.loads:
        bounds[load.buffer] = max(
            load.const_bound, bucket if load.var_columns else 0
        )
    reduced = tape.half
    for index, op in enumerate(ops):
        kind = op.kind
        product: Optional[int] = None
        if kind == "reduce":
            result = min(bounds.get(op.dst, reduced), reduced)
        else:
            a = bounds.get(op.a, 0)
            b = bounds.get(op.b, 0)
            c = bounds.get(op.c, 0)
            if kind in ("add", "sub", "rot_add"):
                result = a + b
            elif kind in ("mul", "rot_mul"):
                result = a * b
            elif kind in ("mul_add", "mul_sub_l", "mul_sub_r", "rot_mul_add"):
                product = a * b
                result = product + c
            elif kind in ("neg", "rot"):
                result = a
            else:  # unknown kinds are reported by tape-arena
                continue
        bounds[op.dst] = result
        yield index, op, product, result


# ---------------------------------------------------------------------------
# tape-equivalence: symbolic translation validation + fusion legality
# ---------------------------------------------------------------------------
def _binary(kind: str, x: object, y: object) -> Tuple:
    if kind in ("add", "mul") and repr(y) < repr(x):
        x, y = y, x  # commutative: canonical operand order
    return (kind, x, y)


def _circuit_terms(
    program: CircuitProgram, t: int, n: int, window: Tuple[int, int]
) -> Dict[str, object]:
    """Symbolic terms of every declared circuit output over ``window``.

    The normalization mirrors what the tape optimizer is *allowed* to do:
    a rotation is its signed ring shift reduced mod the window width ``w``
    (a step of 0 mod ``n`` is the identity), commutative operands are
    sorted, OUTPUT markers are aliases, and loads and plaintext constants
    are keyed by their centred content over the window's ring slots
    ``(L + j) mod n`` — so deduplication and CSE become the identity in
    this domain.  Reducing rotations mod ``w`` is only sound because
    ``tape-window`` proves every output cone lies inside the window.
    """
    half = t // 2
    lo, hi = window
    width = hi - lo

    def centred(value: int) -> int:
        residue = int(value) % t
        return residue - t if residue > half else residue

    def column(slot: int) -> Optional[int]:
        position = (slot - lo) % n
        return position if position < width else None

    terms: Dict[int, object] = {}
    for instruction in program.instructions:
        opcode = instruction.opcode
        dst = instruction.result
        if opcode is Opcode.LOAD_INPUT:
            template = np.zeros(width, dtype=np.int64)
            var_columns: List[Tuple[int, str]] = []
            for slot_index, slot in enumerate(instruction.layout):
                position = column(slot_index)
                if position is None:
                    continue
                if slot.constant is not None:
                    template[position] = centred(slot.constant)
                else:
                    var_columns.append((position, slot.name))
            terms[dst] = ("load", tuple(var_columns), template.tobytes())
        elif opcode is Opcode.LOAD_PLAIN:
            if instruction.name == "broadcast":
                plain = np.full(
                    width, centred(instruction.values[0]), dtype=np.int64
                )
            else:
                plain = np.zeros(width, dtype=np.int64)
                for slot_index, value in enumerate(instruction.values):
                    position = column(slot_index)
                    if position is not None:
                        plain[position] = centred(value)
            terms[dst] = ("plain", plain.tobytes())
        elif opcode is Opcode.ROTATE:
            shift = _signed_shift(instruction.step, n)
            source = terms[instruction.operands[0]]
            terms[dst] = source if shift == 0 else ("rot", source, shift % width)
        elif opcode is Opcode.OUTPUT:
            terms[dst] = terms[instruction.operands[0]]
        elif opcode is Opcode.NEGATE:
            terms[dst] = ("neg", terms[instruction.operands[0]])
        else:
            kind = {
                Opcode.ADD: "add",
                Opcode.SUB: "sub",
                Opcode.MUL: "mul",
                Opcode.ADD_PLAIN: "add",
                Opcode.SUB_PLAIN: "sub",
                Opcode.MUL_PLAIN: "mul",
            }.get(opcode)
            if kind is None:
                raise ValueError(f"unknown opcode {opcode}")
            x = terms[instruction.operands[0]]
            y = terms[instruction.operands[1]]
            terms[dst] = _binary(kind, x, y)
    return {name: terms[register] for register, name, _ in program.outputs}


_LEAF_KINDS = ("load", "plain")


def _live_use_counts(outputs: Dict[str, object]) -> Dict[object, int]:
    """How many times each distinct term is consumed in the live term DAG.

    Terms are value-keyed (structural equality), so identical instructions
    collapse into one node exactly as the optimizer's CSE does, and the
    count per node is its number of consumers plus output references — the
    quantity the fusion passes gate on.
    """
    counts: Dict[object, int] = {}
    seen: Set[object] = set()
    stack: List[object] = []
    for term in outputs.values():
        counts[term] = counts.get(term, 0) + 1
        stack.append(term)
    while stack:
        term = stack.pop()
        if not isinstance(term, tuple) or term[0] in _LEAF_KINDS:
            continue
        if term in seen:
            continue
        seen.add(term)
        children = term[1:2] if term[0] in ("neg", "rot") else term[1:3]
        for child in children:
            counts[child] = counts.get(child, 0) + 1
            stack.append(child)
    return counts


@register_checker(
    "tape-equivalence",
    "tape",
    "symbolic translation validation of every output + fusion legality",
)
def check_equivalence(
    report: AnalysisReport,
    program: CircuitProgram,
    tape: CompiledTape,
    ops: Sequence[TapeOp],
    *,
    location: str,
) -> None:
    n, t, width = tape.n, tape.t, tape.width
    try:
        circuit_outputs = _circuit_terms(program, t, n, tape.window)
    except (KeyError, ValueError, ZeroDivisionError) as exc:
        report.add(
            "tape-equivalence",
            "circuit-malformed",
            Severity.ERROR,
            f"cannot build symbolic circuit terms: {exc}",
            location=location,
        )
        report.mark_ran("tape-equivalence")
        return

    # Symbolically execute the tape over the arena.  Buffer contents are
    # terms in the same domain: constants and loads keyed by centred
    # content, fused ops unfolded into the shapes the circuit side builds.
    buffers: Dict[int, object] = {
        index: ("plain", tape.consts[index].tobytes())
        for index in range(len(tape.consts))
    }
    for load in tape.loads:
        buffers[load.buffer] = (
            "load",
            tuple(load.var_columns),
            load.template.tobytes(),
        )

    fused_inner: List[Tuple[int, object]] = []
    for index, op in enumerate(ops):
        kind = op.kind
        if kind == "reduce":
            continue  # congruence-preserving: identity in the term domain
        a = buffers.get(op.a)
        b = buffers.get(op.b)
        c = buffers.get(op.c)
        if kind == "neg":
            term: object = ("neg", a)
        elif kind == "rot":
            term = ("rot", a, op.step % width)
        elif kind in ("add", "sub", "mul"):
            term = _binary(kind, a, b)
        elif kind == "rot_add":
            rotated = ("rot", a, op.step % width)
            fused_inner.append((index, rotated))
            term = _binary("add", rotated, b)
        elif kind == "rot_mul":
            rotated = ("rot", a, op.step % width)
            fused_inner.append((index, rotated))
            term = _binary("mul", rotated, b)
        elif kind == "rot_mul_add":
            rotated = ("rot", a, op.step % width)
            product = _binary("mul", rotated, b)
            fused_inner.append((index, rotated))
            fused_inner.append((index, product))
            term = _binary("add", product, c)
        elif kind == "mul_add":
            product = _binary("mul", a, b)
            fused_inner.append((index, product))
            term = _binary("add", product, c)
        elif kind == "mul_sub_l":
            product = _binary("mul", a, b)
            fused_inner.append((index, product))
            term = ("sub", product, c)
        elif kind == "mul_sub_r":
            product = _binary("mul", a, b)
            fused_inner.append((index, product))
            term = ("sub", c, product)
        else:
            continue  # unknown kinds are reported by tape-arena
        buffers[op.dst] = term

    tape_outputs = {
        output.name: buffers.get(output.buffer) for output in tape.outputs
    }
    for name, expected in circuit_outputs.items():
        if name not in tape_outputs:
            continue  # reported by tape-outputs
        if tape_outputs[name] != expected:
            report.add(
                "tape-equivalence",
                "output-mismatch",
                Severity.ERROR,
                f"output {name!r} computes a different value than the "
                "circuit (symbolic terms diverge)",
                location=location,
            )

    # Fusion legality: the inner term a fused op consumed (the product, and
    # the rotation for rot_* forms) must be single-use in the live part of
    # the original program — the optimizer's own precondition.  A fused
    # multi-use producer silently drops its other consumers.
    use_counts = _live_use_counts(circuit_outputs)
    for index, inner in fused_inner:
        uses = use_counts.get(inner, 0)
        if uses > 1:
            report.add(
                "tape-equivalence",
                "illegal-fusion",
                Severity.ERROR,
                f"fused op consumed a {inner[0]} term the circuit uses "
                f"{uses} times; fusing a multi-use producer drops its "
                "other consumers",
                location=f"{location} op {index}",
            )
    report.mark_ran("tape-equivalence")


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------
def verify_plan_ops(
    program: CircuitProgram,
    tape: CompiledTape,
    ops: Sequence[TapeOp],
    *,
    bucket: int,
    location: Optional[str] = None,
) -> AnalysisReport:
    """Verify one explicit op schedule (used by the mutation harness)."""
    where = location or f"tape:{program.name} plan[bucket={bucket}]"
    report = AnalysisReport()
    check_window(report, program, tape, ops, location=where)
    check_arena(report, program, tape, ops, location=where)
    check_bounds(report, program, tape, ops, location=where, bucket=bucket)
    check_equivalence(report, program, tape, ops, location=where)
    return report


def verify_tape(
    program: CircuitProgram,
    tape: CompiledTape,
    *,
    input_bounds: Sequence[int] = DEFAULT_BOUNDS,
    location: Optional[str] = None,
) -> AnalysisReport:
    """Statically verify ``tape`` against the circuit it was compiled from.

    The window proof, output coverage and translation validation run once
    over the raw tape; arena safety and the interval analysis run per
    reduction plan — one per bucketed ``input_bounds`` entry — since reduce
    placement depends on the input-magnitude bucket.
    """
    where = location or f"tape:{program.name}"
    report = AnalysisReport()
    check_window(report, program, tape, tape.ops, location=where)
    check_outputs(report, program, tape, tape.ops, location=where)
    check_equivalence(report, program, tape, tape.ops, location=where)
    seen_buckets: Set[int] = set()
    for bound in input_bounds:
        plan = tape.plan_for(bound)
        if plan.bucket in seen_buckets:
            continue
        seen_buckets.add(plan.bucket)
        plan_where = f"{where} plan[bucket={plan.bucket}]"
        check_arena(report, program, tape, plan.ops, location=plan_where)
        check_bounds(
            report, program, tape, plan.ops,
            location=plan_where, bucket=plan.bucket,
        )
    return report
