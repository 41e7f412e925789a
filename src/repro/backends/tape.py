"""Executable tape representation for the tape-compiled vector VM.

A :class:`CompiledTape` is what :mod:`repro.backends.tapeopt` produces from a
:class:`~repro.compiler.circuit.CircuitProgram`: a short, optimized list of
:class:`TapeOp` superinstructions over a fixed **register arena** (liveness
colored buffer slots plus a read-only constant pool), with every piece of
noise/latency accounting precomputed at compile time.  Every buffer spans
only the tape's demanded **window**: ``w`` columns, column ``j`` holding
ring slot ``(L + j) mod n``, so a batch runs over ``(B, w)`` rows rather
than the full ``(B, n)`` ring.  Executing a tape is then pure numpy: the
slots are checked out of a per-tape pool, every operation writes through
``out=`` into an existing buffer, and the hot loop carries no bound
arithmetic, no ledger calls and no allocations.

Three pieces live here:

* the tape data model (:class:`TapeOp`, :class:`TapeLoad`,
  :class:`TapeOutput`, :class:`TapeAccounting`, :class:`CompiledTape`);
* **reduction planning** — :meth:`CompiledTape.plan_for` simulates static
  magnitude bounds for a given input-magnitude bucket and interleaves
  congruence-preserving ``reduce`` ops exactly where an int64 overflow could
  occur, cached per bucket (reductions preserve values mod ``t`` and the
  final decode is centred mod ``t``, so reduction *placement* can never
  change the decoded outputs — any conservative schedule is bit-safe);
* the **per-tape specializer** — :meth:`TapePlan.function` emits a
  straight-line Python function with the dispatch unrolled (one generated
  line per tape op, buffers bound to locals), compiled once per
  (tape, reduction plan) and reused across executions.

The accounting figures attached to the tape are replayed from the *original*
instruction sequence through the same
:class:`~repro.backends.base.NoiseLedger`/:class:`~repro.fhe.meter.ExecutionMeter`
machinery the reference backend uses — noise accounting is input
independent, so replaying it once at compile time is float-for-float
identical to metering every execution.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.compiler.executor import ExecutionReport, Value
from repro.core.exceptions import CompilationError
from repro.fhe.params import BFVParameters

__all__ = [
    "REDUCE_LIMIT",
    "TapeOp",
    "TapeLoad",
    "TapeOutput",
    "TapeAccounting",
    "TapePlan",
    "TapeProfile",
    "CompiledTape",
    "set_tape_profiling",
    "tape_profiling_enabled",
]

#: Reduce operands once a projected magnitude bound reaches this limit; the
#: next operation is then guaranteed to stay inside signed 64-bit range.
REDUCE_LIMIT = 1 << 62

#: Tape ops whose destination buffer must not alias *any* operand buffer
#: (they write the destination before all operands have been read).
_NO_ALIAS_ALL = frozenset({"rot", "rot_add", "rot_mul", "rot_mul_add"})
#: Fused ops whose destination must not alias the accumulator operand ``c``
#: (the first ufunc overwrites ``dst`` before the second reads ``c``).
_NO_ALIAS_ACC = frozenset({"mul_add", "mul_sub_l", "mul_sub_r", "rot_mul_add"})

#: How many checked-in arenas a tape keeps per row capacity.  Arenas are
#: pooled by power-of-two capacity and a batch runs over the leading
#: ``[:B]`` rows, so a tape parks at most ``_POOL_DEPTH`` arenas for each
#: of the ``log2`` capacities however many distinct batch sizes it sees.
#: Two covers the steady state (one server tick in flight plus one warm
#: spare).
_POOL_DEPTH = 2

#: Opt-in per-superinstruction profiling.  Off by default; the only cost on
#: the disabled path is one module-global boolean check per *batch* (not per
#: op), so steady-state throughput is unaffected.
_PROFILING = False


def set_tape_profiling(enabled: bool) -> bool:
    """Toggle per-superinstruction tape profiling; returns the old value.

    When enabled, :meth:`CompiledTape.execute_batch` routes through the
    dispatch interpreter (:func:`_interpret`, one op at a time) with a
    ``perf_counter_ns`` sample around every tape op, accumulating counts and
    cumulative nanoseconds per opcode into the tape's :class:`TapeProfile`.
    Outputs stay bit-identical (the profiled path runs the same in-place
    numpy ops in the same order as the specialized function; tests pin both
    against the reference backend) and accounting stays float-identical (it
    is replayed at compile time, independent of the execution path).
    """
    global _PROFILING
    previous = _PROFILING
    _PROFILING = bool(enabled)
    return previous


def tape_profiling_enabled() -> bool:
    """Whether per-superinstruction profiling is currently on."""
    return _PROFILING


class TapeProfile:
    """Aggregated per-opcode timings for one tape (thread-safe)."""

    __slots__ = ("_lock", "op_counts", "op_ns", "batches", "rows")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.op_counts: Dict[str, int] = {}
        self.op_ns: Dict[str, int] = {}
        self.batches = 0
        self.rows = 0

    def observe(self, counts: Mapping[str, int], elapsed_ns: Mapping[str, int], rows: int) -> None:
        """Fold one profiled batch into the aggregate."""
        with self._lock:
            self.batches += 1
            self.rows += rows
            for kind, count in counts.items():
                self.op_counts[kind] = self.op_counts.get(kind, 0) + count
            for kind, ns in elapsed_ns.items():
                self.op_ns[kind] = self.op_ns.get(kind, 0) + ns

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot: per-opcode count/total_ns/mean_ns + totals."""
        with self._lock:
            ops = {
                kind: {
                    "count": count,
                    "total_ns": self.op_ns.get(kind, 0),
                    "mean_ns": self.op_ns.get(kind, 0) / count if count else 0.0,
                }
                for kind, count in sorted(self.op_counts.items())
            }
            return {
                "batches": self.batches,
                "rows": self.rows,
                "total_ns": sum(self.op_ns.values()),
                "ops": ops,
            }


@dataclass(frozen=True)
class TapeOp:
    """One optimized tape instruction over arena buffer indices.

    ``kind`` semantics (``R[i]`` is buffer ``i``; rotations are left
    rotations by ``step`` columns of the tape's window, matching
    ``np.roll(x, -step, axis=1)`` over ``(B, w)`` rows):

    ========== =====================================
    kind        effect
    ========== =====================================
    add         ``R[dst] = R[a] + R[b]``
    sub         ``R[dst] = R[a] - R[b]``
    mul         ``R[dst] = R[a] * R[b]``
    neg         ``R[dst] = -R[a]``
    rot         ``R[dst] = rot(R[a], step)``
    rot_add     ``R[dst] = rot(R[a], step) + R[b]``
    rot_mul     ``R[dst] = rot(R[a], step) * R[b]``
    rot_mul_add ``R[dst] = rot(R[a], step) * R[b] + R[c]``
    mul_add     ``R[dst] = R[a] * R[b] + R[c]``
    mul_sub_l   ``R[dst] = R[a] * R[b] - R[c]``
    mul_sub_r   ``R[dst] = R[c] - R[a] * R[b]``
    reduce      ``R[dst] = centred(R[dst] mod t)`` (in place)
    ========== =====================================
    """

    kind: str
    dst: int
    a: int = -1
    b: int = -1
    c: int = -1
    step: int = 0


@dataclass(frozen=True)
class TapeLoad:
    """One deduplicated encrypted input: fill ``buffer`` from a template.

    ``template`` holds the centred constant slots of the window (zero
    elsewhere) and is broadcast into the whole ``(B, w)`` buffer;
    ``var_columns`` are the ``(window_column, input_name)`` pairs
    overwritten per batch row afterwards.  Inputs packed outside the
    window are dropped: no output depends on them.
    """

    buffer: int
    template: np.ndarray
    var_columns: Tuple[Tuple[int, str], ...]
    const_bound: int


@dataclass(frozen=True)
class TapeOutput:
    """Where one declared program output lives after optimization.

    The output is ``length`` slots of ``buffer`` starting at window column
    ``column`` (the column holding ring slot 0).
    """

    name: str
    buffer: int
    length: int
    is_ciphertext: bool
    budget: float = 0.0
    column: int = 0


@dataclass(frozen=True)
class TapeAccounting:
    """Input-independent accounting, replayed once at tape-compile time."""

    latency_ms: float
    operation_counts: Dict[str, int]
    encrypted_inputs: int
    remaining_noise_budget: float
    consumed_noise_budget: float
    noise_budget_exhausted: bool


class TapePlan:
    """One executable schedule: tape ops with reduce ops interleaved.

    Plans are produced (and cached) per input-magnitude bucket by
    :meth:`CompiledTape.plan_for`; the optional specialized function is
    generated lazily by :meth:`function` and cached on the plan.
    """

    __slots__ = ("bucket", "ops", "_frame", "_fn", "_source", "_lock")

    def __init__(self, tape: "CompiledTape", bucket: int, ops: List[TapeOp]) -> None:
        # Keep only what the specializer reads, never the tape itself: a
        # tape <-> plan cycle would leave every tape the memo evicts, and
        # its pooled arenas, to the cyclic GC instead of freeing it at once.
        self._frame = (
            tape.width, tape.t, tape.half, [output.buffer for output in tape.outputs]
        )
        self.bucket = bucket
        self.ops = ops
        self._fn: Optional[Callable] = None
        self._source: Optional[str] = None
        self._lock = threading.Lock()

    @property
    def reductions(self) -> int:
        return sum(1 for op in self.ops if op.kind == "reduce")

    def function(self) -> Callable:
        """The specialized straight-line function for this plan (cached)."""
        fn = self._fn
        if fn is None:
            with self._lock:
                fn = self._fn
                if fn is None:
                    fn, source = _specialize(self)
                    self._source = source
                    self._fn = fn
        return fn

    def source(self) -> str:
        """Generated Python source of the specialized function."""
        self.function()
        return self._source or ""


class CompiledTape:
    """An optimized, directly executable form of one circuit.

    ``window`` is the demanded slot window ``(L, H)`` and ``width`` its
    column count ``H - L``; a full-ring tape has window ``(0, n)``.
    ``input_names`` lists every program input the live loads read, inside
    the window or not, so input validation does not depend on narrowing.
    """

    def __init__(
        self,
        *,
        params: BFVParameters,
        consts: List[np.ndarray],
        const_bounds: List[int],
        slot_count: int,
        window: Tuple[int, int],
        input_names: Tuple[str, ...],
        loads: List[TapeLoad],
        ops: List[TapeOp],
        outputs: List[TapeOutput],
        accounting: TapeAccounting,
        stats: Dict[str, object],
    ) -> None:
        self.params = params
        self.t = params.plain_modulus
        self.n = params.slot_count
        self.half = self.t // 2
        for const in consts:
            const.flags.writeable = False  # the pool is shared across runs
        self.consts = consts
        self.const_bounds = const_bounds
        self.slot_count = slot_count
        self.window = window
        self.width = window[1] - window[0]
        self.input_names = input_names
        self.loads = loads
        self.ops = ops
        self.outputs = outputs
        self.accounting = accounting
        self.stats = stats
        self._plans: Dict[int, TapePlan] = {}
        self._pool: Dict[int, List[List[np.ndarray]]] = {}
        self._lock = threading.Lock()
        #: Lazily created on the first profiled batch; ``None`` until then.
        self.profile: Optional[TapeProfile] = None

    # -- reduction planning --------------------------------------------------
    def plan_for(self, input_bound: int) -> TapePlan:
        """The reduction plan for inputs of magnitude ``<= input_bound``.

        Bounds are bucketed to the next power of two (clamped to the centred
        input range ``t // 2``) so one tape accumulates a handful of plans,
        not one per distinct batch.
        """
        bound = max(1, int(input_bound))
        cap = max(1, self.half)
        bucket = min(1 << (bound - 1).bit_length(), cap)
        plan = self._plans.get(bucket)
        if plan is None:
            with self._lock:
                plan = self._plans.get(bucket)
                if plan is None:
                    plan = TapePlan(self, bucket, self._schedule_reductions(bucket))
                    self._plans[bucket] = plan
        return plan

    def _schedule_reductions(self, bucket: int) -> List[TapeOp]:
        """Simulate magnitude bounds and interleave ``reduce`` ops.

        The simulation runs over arena buffers in execution order, so
        in-place writes and buffer reuse are modelled exactly; every bound is
        an upper bound of the live values, which makes any schedule that
        keeps the bounds below :data:`REDUCE_LIMIT` overflow-safe.  Constant
        buffers are never reduced (they are shared and already centred).
        """
        n_consts = len(self.consts)
        bounds = [0] * (n_consts + self.slot_count)
        for index, const_bound in enumerate(self.const_bounds):
            bounds[index] = const_bound
        for load in self.loads:
            bounds[load.buffer] = max(
                load.const_bound, bucket if load.var_columns else 0
            )
        reduced = self.half  # |centred residue| <= t // 2 after a reduce
        scheduled: List[TapeOp] = []

        def reduce_buffer(buffer: int) -> None:
            scheduled.append(TapeOp("reduce", dst=buffer))
            bounds[buffer] = reduced

        def reducible(buffer: int) -> bool:
            return buffer >= n_consts and bounds[buffer] > reduced

        def settle_product(x: int, y: int) -> int:
            if bounds[x] * bounds[y] >= REDUCE_LIMIT:
                larger, smaller = (x, y) if bounds[x] >= bounds[y] else (y, x)
                if reducible(larger):
                    reduce_buffer(larger)
                if bounds[larger] * bounds[smaller] >= REDUCE_LIMIT and reducible(
                    smaller
                ):
                    reduce_buffer(smaller)
            return bounds[x] * bounds[y]

        for op in self.ops:
            kind = op.kind
            if kind in ("add", "sub", "rot_add"):
                if bounds[op.a] + bounds[op.b] >= REDUCE_LIMIT:
                    for buffer in (op.a, op.b):
                        if reducible(buffer):
                            reduce_buffer(buffer)
                result = bounds[op.a] + bounds[op.b]
            elif kind in ("mul", "rot_mul"):
                result = settle_product(op.a, op.b)
            elif kind in ("mul_add", "mul_sub_l", "mul_sub_r", "rot_mul_add"):
                product = settle_product(op.a, op.b)
                if product + bounds[op.c] >= REDUCE_LIMIT:
                    if reducible(op.c):
                        reduce_buffer(op.c)
                    if product + bounds[op.c] >= REDUCE_LIMIT:
                        for buffer in (op.a, op.b):
                            if reducible(buffer):
                                reduce_buffer(buffer)
                        product = bounds[op.a] * bounds[op.b]
                result = product + bounds[op.c]
            else:  # neg, rot: magnitude-preserving
                result = bounds[op.a]
            scheduled.append(op)
            bounds[op.dst] = result
        return scheduled

    # -- arena pool ----------------------------------------------------------
    def _checkout(self, capacity: int) -> List[np.ndarray]:
        with self._lock:
            pool = self._pool.get(capacity)
            if pool:
                return pool.pop()
        return [
            np.empty((capacity, self.width), dtype=np.int64)
            for _ in range(self.slot_count)
        ]

    def _checkin(self, capacity: int, slots: List[np.ndarray]) -> None:
        with self._lock:
            pool = self._pool.setdefault(capacity, [])
            if len(pool) < _POOL_DEPTH:
                pool.append(slots)

    def pooled_arenas(self) -> int:
        """How many arenas are currently parked in the pool (all capacities)."""
        with self._lock:
            return sum(len(arenas) for arenas in self._pool.values())

    # -- profiling -----------------------------------------------------------
    def _profile(self) -> TapeProfile:
        profile = self.profile
        if profile is None:
            with self._lock:
                profile = self.profile
                if profile is None:
                    profile = self.profile = TapeProfile()
        return profile

    def profile_snapshot(self) -> Optional[Dict[str, object]]:
        """The aggregated opcode profile, or ``None`` if never profiled."""
        profile = self.profile
        return profile.as_dict() if profile is not None else None

    # -- execution -----------------------------------------------------------
    def execute_batch(
        self, inputs_list: Sequence[Mapping[str, Value]]
    ) -> List[ExecutionReport]:
        """Run the tape for a whole batch and assemble one report per row."""
        batch = len(inputs_list)
        if batch == 0:
            return []
        t, half = self.t, self.half

        # Marshal (and validate) every input the live loads read once per
        # name, including inputs packed outside the window, and track the
        # largest centred magnitude, which selects the reduction plan.
        name_values: Dict[str, np.ndarray] = {}
        input_bound = 0
        for name in self.input_names:
            values = np.empty(batch, dtype=np.int64)
            for row, inputs in enumerate(inputs_list):
                value = inputs.get(name)
                if value is None:
                    raise CompilationError(
                        f"missing value for program input {name!r}"
                    )
                if isinstance(value, (list, tuple)):
                    raise CompilationError(
                        f"input {name!r} is packed slot-wise and must be a scalar"
                    )
                residue = int(value) % t
                values[row] = residue - t if residue > half else residue
            name_values[name] = values
            input_bound = max(input_bound, int(np.max(np.abs(values))))

        plan = self.plan_for(input_bound)
        capacity = 1 << (batch - 1).bit_length()
        slots = self._checkout(capacity)
        try:
            rows = slots if capacity == batch else [slot[:batch] for slot in slots]
            buffers = self.consts + rows
            for load in self.loads:
                target = buffers[load.buffer]
                np.copyto(target, load.template)
                for column, name in load.var_columns:
                    target[:, column] = name_values[name]
            if _PROFILING:
                _interpret_profiled(
                    plan.ops, buffers, t, half, self.width, self._profile(), batch
                )
            else:
                plan.function()(buffers)
            reports = self._build_reports(buffers, batch)
        finally:
            self._checkin(capacity, slots)
        return reports

    def _build_reports(
        self, buffers: List[np.ndarray], batch: int
    ) -> List[ExecutionReport]:
        accounting = self.accounting
        t, half = self.t, self.half
        reports = [
            ExecutionReport(
                latency_ms=accounting.latency_ms,
                operation_counts=dict(accounting.operation_counts),
                encrypted_inputs=accounting.encrypted_inputs,
                consumed_noise_budget=accounting.consumed_noise_budget,
                remaining_noise_budget=accounting.remaining_noise_budget,
                noise_budget_exhausted=accounting.noise_budget_exhausted,
                backend="vector-vm",
                batch_size=batch,
            )
            for _ in range(batch)
        ]
        for output in self.outputs:
            array = buffers[output.buffer]
            columns = slice(output.column, output.column + output.length)
            if not output.is_ciphertext:
                raw = array[columns] % t
                decoded = [int(v - t) if v > half else int(v) for v in raw]
                for report in reports:
                    report.outputs[output.name] = list(decoded)
                continue
            raw = array[:, columns] % t
            centred = np.where(raw > half, raw - t, raw)
            for row, report in enumerate(reports):
                report.outputs[output.name] = [int(v) for v in centred[row]]
        return reports

    # -- inspection ----------------------------------------------------------
    def render(self, *, input_bound: int = 7) -> str:
        """Human-readable tape listing (the ``repro tape`` CLI output)."""
        n_consts = len(self.consts)

        def buf(index: int) -> str:
            if index < 0:
                return "-"
            if index < n_consts:
                return f"c{index}"
            return f"r{index - n_consts}"

        lines: List[str] = []
        stats = self.stats
        lines.append(
            "tape: {instr} instructions -> {after} tape entries "
            "({ops} ops, {loads} loads, {consts} consts), "
            "{fused} fused, arena {slots} x ({w},) rows, "
            "window [{lo}, {hi}) of {n}".format(
                instr=stats.get("instructions"),
                after=stats.get("tape_entries"),
                ops=stats.get("tape_ops"),
                loads=stats.get("loads"),
                consts=stats.get("consts"),
                fused=stats.get("fused_total"),
                slots=self.slot_count,
                w=self.width,
                lo=self.window[0],
                hi=self.window[1],
                n=self.n,
            )
        )
        eliminated = stats.get("eliminated", {})
        if isinstance(eliminated, dict) and any(eliminated.values()):
            parts = ", ".join(f"{k}={v}" for k, v in eliminated.items() if v)
            lines.append(f"eliminated: {parts}")
        for index, bound in enumerate(self.const_bounds):
            preview = np.array2string(
                self.consts[index][:6], separator=", ", threshold=6
            )
            lines.append(f"  c{index} = const {preview} ... |v|<={bound}")
        for load in self.loads:
            names = ", ".join(
                f"{name}@{column}" for column, name in load.var_columns[:4]
            )
            extra = "" if len(load.var_columns) <= 4 else ", ..."
            lines.append(
                f"  {buf(load.buffer)} = load_input [{names}{extra}] "
                f"(|const|<={load.const_bound})"
            )
        plan = self.plan_for(input_bound)
        for op in plan.ops:
            if op.kind == "reduce":
                lines.append(f"  reduce {buf(op.dst)}")
            elif op.kind == "neg":
                lines.append(f"  {buf(op.dst)} = neg {buf(op.a)}")
            elif op.kind == "rot":
                lines.append(f"  {buf(op.dst)} = rot {buf(op.a)} << {op.step}")
            elif op.kind in ("add", "sub", "mul"):
                lines.append(
                    f"  {buf(op.dst)} = {op.kind} {buf(op.a)}, {buf(op.b)}"
                )
            elif op.kind in ("rot_add", "rot_mul"):
                lines.append(
                    f"  {buf(op.dst)} = {op.kind} ({buf(op.a)} << {op.step}), "
                    f"{buf(op.b)}"
                )
            elif op.kind == "rot_mul_add":
                lines.append(
                    f"  {buf(op.dst)} = rot_mul_add ({buf(op.a)} << {op.step}) * "
                    f"{buf(op.b)} + {buf(op.c)}"
                )
            else:  # mul_add / mul_sub_l / mul_sub_r
                sign = {"mul_add": "+", "mul_sub_l": "-", "mul_sub_r": "-r"}[op.kind]
                lines.append(
                    f"  {buf(op.dst)} = {buf(op.a)} * {buf(op.b)} {sign} {buf(op.c)}"
                )
        for output in self.outputs:
            kind = "ct" if output.is_ciphertext else "plain"
            lines.append(
                f"  output {output.name!r} <- {buf(output.buffer)}"
                f"[{output.column}:{output.column + output.length}] ({kind})"
            )
        lines.append(
            f"plan[bucket={plan.bucket}]: {plan.reductions} scheduled reductions"
        )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# the dispatch interpreter (the profiled route, one op at a time)
# ---------------------------------------------------------------------------
def _rotate_into(dst: np.ndarray, src: np.ndarray, step: int, width: int) -> None:
    split = width - step
    dst[:, :split] = src[:, step:]
    dst[:, split:] = src[:, :step]


def _interpret(
    ops: Sequence[TapeOp], buffers: List[np.ndarray], t: int, half: int, width: int
) -> None:
    np_add, np_sub, np_mul = np.add, np.subtract, np.multiply
    for op in ops:
        kind = op.kind
        dst = buffers[op.dst]
        if kind == "add":
            np_add(buffers[op.a], buffers[op.b], out=dst)
        elif kind == "sub":
            np_sub(buffers[op.a], buffers[op.b], out=dst)
        elif kind == "mul":
            np_mul(buffers[op.a], buffers[op.b], out=dst)
        elif kind == "mul_add":
            np_mul(buffers[op.a], buffers[op.b], out=dst)
            np_add(dst, buffers[op.c], out=dst)
        elif kind == "mul_sub_l":
            np_mul(buffers[op.a], buffers[op.b], out=dst)
            np_sub(dst, buffers[op.c], out=dst)
        elif kind == "mul_sub_r":
            np_mul(buffers[op.a], buffers[op.b], out=dst)
            np_sub(buffers[op.c], dst, out=dst)
        elif kind == "rot":
            _rotate_into(dst, buffers[op.a], op.step, width)
        elif kind == "rot_add":
            _rotate_into(dst, buffers[op.a], op.step, width)
            np_add(dst, buffers[op.b], out=dst)
        elif kind == "rot_mul":
            _rotate_into(dst, buffers[op.a], op.step, width)
            np_mul(dst, buffers[op.b], out=dst)
        elif kind == "rot_mul_add":
            _rotate_into(dst, buffers[op.a], op.step, width)
            np_mul(dst, buffers[op.b], out=dst)
            np_add(dst, buffers[op.c], out=dst)
        elif kind == "neg":
            np.negative(buffers[op.a], out=dst)
        elif kind == "reduce":
            np.remainder(dst, t, out=dst)
            np_sub(dst, t, out=dst, where=dst > half)
        else:  # pragma: no cover - defensive
            raise CompilationError(f"unknown tape op kind {kind!r}")


def _interpret_profiled(
    ops: Sequence[TapeOp],
    buffers: List[np.ndarray],
    t: int,
    half: int,
    width: int,
    profile: TapeProfile,
    rows: int,
) -> None:
    """Like :func:`_interpret`, but samples ``perf_counter_ns`` per op.

    Delegates each op to :func:`_interpret` one at a time, so the executed
    numpy operations (and hence the outputs) are those of the specialized
    function; only the clock samples and the per-opcode accumulation are
    extra.
    """
    counts: Dict[str, int] = {}
    elapsed: Dict[str, int] = {}
    clock = time.perf_counter_ns
    for op in ops:
        start = clock()
        _interpret((op,), buffers, t, half, width)
        duration = clock() - start
        kind = op.kind
        counts[kind] = counts.get(kind, 0) + 1
        elapsed[kind] = elapsed.get(kind, 0) + duration
    profile.observe(counts, elapsed, rows)


# ---------------------------------------------------------------------------
# the per-tape specializer (the default route: generated straight-line code)
# ---------------------------------------------------------------------------
def _specialize(plan: TapePlan) -> Tuple[Callable, str]:
    """Generate one straight-line Python function for ``plan``.

    Every buffer is bound to a local once, every tape op becomes one or a
    few generated lines calling in-place numpy ufuncs, and rotation slices
    are baked in as constants — no dispatch, no indexing, no allocation in
    the generated body.
    """
    width, t, half, output_buffers = plan._frame
    used = set(output_buffers)
    for op in plan.ops:
        for index in (op.dst, op.a, op.b, op.c):
            if index >= 0:
                used.add(index)
    lines = ["def _tape_fn(buffers):"]
    for index in sorted(used):
        lines.append(f"    b{index} = buffers[{index}]")
    emitted = False
    for op in plan.ops:
        kind = op.kind
        dst, a, b, c = f"b{op.dst}", f"b{op.a}", f"b{op.b}", f"b{op.c}"
        if kind == "add":
            lines.append(f"    _add({a}, {b}, out={dst})")
        elif kind == "sub":
            lines.append(f"    _sub({a}, {b}, out={dst})")
        elif kind == "mul":
            lines.append(f"    _mul({a}, {b}, out={dst})")
        elif kind == "neg":
            lines.append(f"    _neg({a}, out={dst})")
        elif kind == "mul_add":
            lines.append(f"    _mul({a}, {b}, out={dst})")
            lines.append(f"    _add({dst}, {c}, out={dst})")
        elif kind == "mul_sub_l":
            lines.append(f"    _mul({a}, {b}, out={dst})")
            lines.append(f"    _sub({dst}, {c}, out={dst})")
        elif kind == "mul_sub_r":
            lines.append(f"    _mul({a}, {b}, out={dst})")
            lines.append(f"    _sub({c}, {dst}, out={dst})")
        elif kind in ("rot", "rot_add", "rot_mul", "rot_mul_add"):
            split = width - op.step
            lines.append(f"    {dst}[:, :{split}] = {a}[:, {op.step}:]")
            lines.append(f"    {dst}[:, {split}:] = {a}[:, :{op.step}]")
            if kind == "rot_add":
                lines.append(f"    _add({dst}, {b}, out={dst})")
            elif kind == "rot_mul":
                lines.append(f"    _mul({dst}, {b}, out={dst})")
            elif kind == "rot_mul_add":
                lines.append(f"    _mul({dst}, {b}, out={dst})")
                lines.append(f"    _add({dst}, {c}, out={dst})")
        elif kind == "reduce":
            lines.append(f"    _mod({dst}, {t}, out={dst})")
            lines.append(f"    _sub({dst}, {t}, out={dst}, where={dst} > {half})")
        else:  # pragma: no cover - defensive
            raise CompilationError(f"unknown tape op kind {kind!r}")
        emitted = True
    if not emitted and not used:
        lines.append("    pass")
    source = "\n".join(lines)
    namespace = {
        "_add": np.add,
        "_sub": np.subtract,
        "_mul": np.multiply,
        "_neg": np.negative,
        "_mod": np.remainder,
    }
    exec(compile(source, f"<tape-plan:{plan.bucket}>", "exec"), namespace)
    return namespace["_tape_fn"], source
