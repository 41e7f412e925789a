"""The batched vector VM: compiled tapes serve B users in one sweep.

The circuit's SSA instruction list is first **backend-compiled** by
:mod:`repro.backends.tapeopt` into an optimized executable tape
(:class:`~repro.backends.tape.CompiledTape`): alias-free, superinstruction
fused, narrowed to the window of ``w`` slots its outputs actually depend on
(rarely more than a few dozen of the ``n = 16384``), and liveness-colored
onto a fixed register arena of ``(B, w)`` int64 buffers, with all
noise/latency accounting replayed once at compile time.
Executing a batch is then a single pass of in-place numpy ops over the
arena — no ciphertext objects, no per-instruction ledger calls, and (at the
default opt level) no Python dispatch either: a per-tape specializer emits
one straight-line generated function per (tape, reduction plan).

Compiled tapes are memoized process-wide by circuit fingerprint + BFV
parameters (:func:`repro.backends.tapeopt.get_compiled_tape`), so the
JobServer's coalesced batches reuse tapes across ticks and across backend
instances.

Three opt levels, selectable via ``VectorVMBackend(opt_level=...)``:

* ``2`` (default) — optimized tape run through the per-tape specialized
  function;
* ``1`` — optimized tape run through the generic dispatch interpreter
  (:func:`repro.backends.tape._interpret`);
* ``0`` — the legacy per-instruction stacked-rows interpreter, registered
  separately as the ``vector-vm-interp`` backend so benchmarks and the
  ``vm-tapeopt`` ablation study can toggle the optimization off.

Two properties keep every level bit-compatible with the reference backend:

* **Congruence-preserving lazy reduction** — slot values are kept as signed
  int64 *centred* residues and only reduced modulo ``t`` when a tracked
  magnitude bound approaches the int64 range.  All intermediate values stay
  congruent mod ``t`` and the final decode is centred mod ``t``, so
  reduction *placement* (which the tape precomputes per input-magnitude
  bucket) can never change decoded outputs.
* **Shared accounting** — noise budgets and latency go through the same
  :class:`~repro.backends.base.NoiseLedger` /
  :class:`~repro.fhe.meter.ExecutionMeter` formulas in the same operation
  order as the reference evaluator.  Accounting is input independent, so
  the tape replays it once at compile time, float-for-float identical.

Simulated latency models the *circuit*, so every report in a batch carries
the same ``latency_ms`` as a single reference execution; the VM's win is
wall-clock throughput, measured by ``scripts/bench_backends.py``.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

import numpy as np

from repro.backends.base import BaseBackend, NoiseLedger
from repro.backends.registry import register_backend
from repro.backends.tapeopt import get_compiled_tape, scheduling_cost_ms
from repro.compiler.circuit import CircuitProgram, Opcode
from repro.compiler.executor import ExecutionReport, Value
from repro.core.exceptions import CompilationError
from repro.fhe.meter import ExecutionMeter
from repro.fhe.params import BFVParameters

__all__ = ["VectorVMBackend"]

#: Reduce operands once a projected magnitude bound reaches this limit; the
#: next operation is then guaranteed to stay inside signed 64-bit range.
_REDUCE_LIMIT = 1 << 62


@register_backend(
    "vector-vm",
    description=(
        "tape-compiled register VM: fused superinstructions over a "
        "liveness-colored arena, executing B input sets as stacked numpy rows"
    ),
    use_when="batched throughput: many users/trials of one circuit per tape pass",
)
class VectorVMBackend(BaseBackend):
    """Execute a circuit for a whole batch of input sets in one tape sweep."""

    name = "vector-vm"
    produces_outputs = True

    def __init__(self, opt_level: int = 2, verify: bool = False) -> None:
        self.opt_level = int(opt_level)
        #: Run the static tape verifier on every fresh tape compile; ERROR
        #: findings raise TapeVerificationError instead of executing a
        #: miscompiled tape.
        self.verify = bool(verify)

    def execute(
        self,
        program: CircuitProgram,
        inputs: Mapping[str, Value],
        params: Optional[BFVParameters] = None,
        context: Optional[object] = None,
    ) -> ExecutionReport:
        if params is None and context is not None:
            params = context.params
        report = self.execute_many(program, [inputs], params=params)[0]
        return report

    def execute_many(
        self,
        program: CircuitProgram,
        inputs_list: Sequence[Mapping[str, Value]],
        params: Optional[BFVParameters] = None,
    ) -> List[ExecutionReport]:
        if not inputs_list:
            return []
        if params is None:
            params = BFVParameters.default()
        if self.opt_level <= 0:
            return self._execute_legacy(program, inputs_list, params)
        tape = get_compiled_tape(program, params, verify=self.verify)
        return tape.execute_batch(
            inputs_list,
            specialize=self.opt_level >= 2,
            backend_name=self.name,
        )

    def scheduling_cost_ms(
        self,
        program: CircuitProgram,
        params: BFVParameters,
        latency_model,
    ) -> float:
        """Analytical scheduling weight refined by the compiled tape.

        At opt level >= 1 the executed tape is shorter than the instruction
        list (fusion, alias/dead elimination), so scheduling weights scale by
        the executed/original op ratio; the legacy interpreter runs the tape
        as written and keeps the raw model.
        """
        if self.opt_level <= 0:
            return program.estimated_latency_ms(latency_model)
        return scheduling_cost_ms(program, params, latency_model)

    # ------------------------------------------------------------------
    # opt level 0: the legacy per-instruction stacked-rows interpreter
    # ------------------------------------------------------------------
    def _execute_legacy(
        self,
        program: CircuitProgram,
        inputs_list: Sequence[Mapping[str, Value]],
        params: BFVParameters,
    ) -> List[ExecutionReport]:
        t = params.plain_modulus
        n = params.slot_count
        half = t // 2
        batch = len(inputs_list)
        meter = ExecutionMeter(params=params)
        ledger = NoiseLedger(meter)
        reduced_bound = half + 1  # centred residues lie in [-(t//2), t//2]

        count = len(program.instructions)
        registers: List[Optional[np.ndarray]] = [None] * count
        bounds: List[int] = [0] * count
        encrypted_inputs = 0

        # Aliases are explicit: ROTATE step==0 and OUTPUT produce no array of
        # their own, they resolve to their operand's canonical register.
        # Binding registers[dst] to the operand's array object (the old
        # behaviour) corrupts results the moment an in-place op lands on
        # either register; the canonical map cannot.
        canon = list(range(count))
        for instruction in program.instructions:
            if instruction.opcode is Opcode.OUTPUT or (
                instruction.opcode is Opcode.ROTATE and instruction.step == 0
            ):
                canon[instruction.result] = canon[instruction.operands[0]]

        # Liveness: drop each canonical register's array after its last use
        # so the working set stays cache-sized (holding every SSA register
        # alive costs ~100 us/op in page faults at realistic batch sizes).
        last_use = [0] * count
        for instruction in program.instructions:
            for operand in instruction.operands:
                last_use[canon[operand]] = instruction.result
        for register, _, _ in program.outputs:
            last_use[canon[register]] = count  # outputs live until decode

        def centred(value: int) -> int:
            residue = int(value) % t
            return residue - t if residue > half else residue

        def reduce_register(index: int) -> None:
            residues = registers[index] % t
            np.subtract(residues, t, out=residues, where=residues > half)
            registers[index] = residues
            bounds[index] = reduced_bound

        for instruction in program.instructions:
            opcode = instruction.opcode
            dst = instruction.result
            if opcode is Opcode.LOAD_INPUT:
                array = np.zeros((batch, n), dtype=np.int64)
                bound = 0
                for column, slot in enumerate(instruction.layout):
                    if slot.constant is not None:
                        value = centred(slot.constant)
                        array[:, column] = value
                        bound = max(bound, abs(value))
                    else:
                        name = slot.name
                        values = []
                        for inputs in inputs_list:
                            value = inputs.get(name)
                            if value is None:
                                raise CompilationError(
                                    f"missing value for program input {name!r}"
                                )
                            if isinstance(value, (list, tuple)):
                                raise CompilationError(
                                    f"input {name!r} is packed slot-wise and must be a scalar"
                                )
                            values.append(centred(value))
                        array[:, column] = values
                        bound = max(bound, max(abs(v) for v in values))
                registers[dst] = array
                bounds[dst] = bound
                ledger.load_input(dst)
                encrypted_inputs += 1
            elif opcode is Opcode.LOAD_PLAIN:
                if instruction.name == "broadcast":
                    value = centred(instruction.values[0])
                    plain = np.full(n, value, dtype=np.int64)
                    bound = abs(value)
                else:
                    plain = np.zeros(n, dtype=np.int64)
                    values = [centred(value) for value in instruction.values]
                    plain[: len(values)] = values
                    bound = max((abs(v) for v in values), default=0)
                registers[dst] = plain
                bounds[dst] = bound
            elif opcode is Opcode.ADD or opcode is Opcode.SUB:
                lhs, rhs = canon[instruction.operands[0]], canon[instruction.operands[1]]
                if bounds[lhs] + bounds[rhs] >= _REDUCE_LIMIT:
                    reduce_register(lhs)
                    reduce_register(rhs)
                if opcode is Opcode.ADD:
                    registers[dst] = registers[lhs] + registers[rhs]
                    ledger.add(dst, *instruction.operands, "add")
                else:
                    registers[dst] = registers[lhs] - registers[rhs]
                    ledger.add(dst, *instruction.operands, "sub")
                bounds[dst] = bounds[lhs] + bounds[rhs]
            elif opcode is Opcode.MUL:
                lhs, rhs = canon[instruction.operands[0]], canon[instruction.operands[1]]
                if bounds[lhs] * bounds[rhs] >= _REDUCE_LIMIT:
                    # Reducing the larger operand is usually enough.
                    larger, smaller = (
                        (lhs, rhs) if bounds[lhs] >= bounds[rhs] else (rhs, lhs)
                    )
                    reduce_register(larger)
                    if bounds[larger] * bounds[smaller] >= _REDUCE_LIMIT:
                        reduce_register(smaller)
                registers[dst] = registers[lhs] * registers[rhs]
                bounds[dst] = bounds[lhs] * bounds[rhs]
                ledger.multiply_relinearize(dst, *instruction.operands)
            elif opcode is Opcode.ADD_PLAIN or opcode is Opcode.SUB_PLAIN:
                lhs, plain = canon[instruction.operands[0]], canon[instruction.operands[1]]
                if bounds[lhs] + bounds[plain] >= _REDUCE_LIMIT:
                    reduce_register(lhs)
                if opcode is Opcode.ADD_PLAIN:
                    registers[dst] = registers[lhs] + registers[plain]
                    ledger.add_plain(dst, instruction.operands[0], "add")
                else:
                    registers[dst] = registers[lhs] - registers[plain]
                    ledger.add_plain(dst, instruction.operands[0], "sub")
                bounds[dst] = bounds[lhs] + bounds[plain]
            elif opcode is Opcode.MUL_PLAIN:
                lhs, plain = canon[instruction.operands[0]], canon[instruction.operands[1]]
                if bounds[lhs] * bounds[plain] >= _REDUCE_LIMIT:
                    reduce_register(lhs)
                registers[dst] = registers[lhs] * registers[plain]
                bounds[dst] = bounds[lhs] * bounds[plain]
                ledger.multiply_plain(dst, instruction.operands[0])
            elif opcode is Opcode.NEGATE:
                operand = canon[instruction.operands[0]]
                registers[dst] = -registers[operand]
                bounds[dst] = bounds[operand]
                ledger.negate(dst, instruction.operands[0])
            elif opcode is Opcode.ROTATE:
                operand = canon[instruction.operands[0]]
                step = instruction.step
                if step != 0:
                    registers[dst] = np.roll(registers[operand], -step, axis=1)
                    bounds[dst] = bounds[operand]
                ledger.rotate(dst, instruction.operands[0], step)
            elif opcode is Opcode.OUTPUT:
                ledger.alias(dst, instruction.operands[0])
            else:  # pragma: no cover - defensive
                raise CompilationError(f"unknown opcode {opcode}")
            for operand in instruction.operands:
                resolved = canon[operand]
                if last_use[resolved] == dst:
                    registers[resolved] = None

        # -- decode outputs and assemble one report per input set ------------
        initial_budget = params.initial_noise_budget
        minimum_budget = initial_budget
        exhausted = False
        half = t // 2
        latency_ms = meter.total_latency_ms
        counts = meter.operation_counts()
        reports = [
            ExecutionReport(
                latency_ms=latency_ms,
                operation_counts=dict(counts),
                encrypted_inputs=encrypted_inputs,
                backend=self.name,
                batch_size=batch,
            )
            for _ in range(batch)
        ]
        for register, name, length in program.outputs:
            array = registers[canon[register]]
            if not ledger.is_ciphertext(register):
                raw = array[:length] % t
                decoded = [int(v - t) if v > half else int(v) for v in raw]
                for report in reports:
                    report.outputs[name] = list(decoded)
                continue
            budget = ledger.output_budget(register)
            minimum_budget = min(minimum_budget, budget)
            if budget <= 0.0:
                exhausted = True
            raw = array[:, :length] % t
            centred = np.where(raw > half, raw - t, raw)
            for row, report in enumerate(reports):
                report.outputs[name] = [int(v) for v in centred[row]]

        remaining = max(0.0, minimum_budget)
        consumed = initial_budget - remaining
        for report in reports:
            report.remaining_noise_budget = remaining
            report.consumed_noise_budget = consumed
            report.noise_budget_exhausted = exhausted
        return reports


@register_backend(
    "vector-vm-interp",
    description=(
        "the vector VM with tape compilation disabled: legacy per-instruction "
        "stacked-rows interpreter (opt_level=0)"
    ),
    use_when="ablating the tape optimizer (vm-tapeopt study) and opt on/off benchmarks",
)
def _vector_vm_interp(**options):
    options.setdefault("opt_level", 0)
    backend = VectorVMBackend(**options)
    backend.name = "vector-vm-interp"
    return backend
