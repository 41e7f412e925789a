"""The cost-only simulator: noise/latency accounting without any crypto.

Walks the instruction tape running *only* the noise-budget and latency
models — no slot data is ever materialised, so a "run" costs a few
microseconds regardless of the ring dimension.  The report carries the same
latency, operation counts and noise figures as a reference execution (same
:class:`~repro.backends.base.NoiseLedger` formulas, same order) but an empty
``outputs`` dict, which is exactly what design-space exploration and RL
reward evaluation need: the question is "what would this circuit cost?",
not "what does it compute?".

Inputs are optional and ignored — the accounting of a BFV circuit is
input-independent.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

from repro.backends.base import BaseBackend, NoiseLedger
from repro.backends.registry import register_backend
from repro.compiler.circuit import CircuitProgram, Opcode
from repro.compiler.executor import ExecutionReport, Value
from repro.core.exceptions import CompilationError
from repro.fhe.meter import ExecutionMeter
from repro.fhe.params import BFVParameters

__all__ = ["CostSimBackend"]


@register_backend(
    "cost-sim",
    description="no-crypto simulator running only the noise/latency models",
    use_when="design-space exploration and RL reward evaluation (no outputs)",
    produces_outputs=False,
)
class CostSimBackend(BaseBackend):
    """Account for a circuit without executing it."""

    name = "cost-sim"
    produces_outputs = False

    def execute(
        self,
        program: CircuitProgram,
        inputs: Optional[Mapping[str, Value]] = None,
        params: Optional[BFVParameters] = None,
        context: Optional[object] = None,
    ) -> ExecutionReport:
        if params is None and context is not None:
            params = context.params
        if params is None:
            params = BFVParameters.default()
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
        for register, _, _ in program.outputs:
            if not ledger.is_ciphertext(register):
                continue
            budget = ledger.output_budget(register)
            minimum_budget = min(minimum_budget, budget)
            if budget <= 0.0:
                exhausted = True

        remaining = max(0.0, minimum_budget)
        return ExecutionReport(
            latency_ms=meter.total_latency_ms,
            operation_counts=meter.operation_counts(),
            consumed_noise_budget=initial_budget - remaining,
            remaining_noise_budget=remaining,
            noise_budget_exhausted=exhausted,
            encrypted_inputs=encrypted_inputs,
            backend=self.name,
        )

    def execute_many(
        self,
        program: CircuitProgram,
        inputs_list: Sequence[Mapping[str, Value]],
        params: Optional[BFVParameters] = None,
        *,
        fingerprint: Optional[str] = None,
    ) -> List[ExecutionReport]:
        if not inputs_list:
            return []
        # Accounting is input-independent: run the models once and replicate.
        template = self.execute(program, inputs_list[0], params=params)
        batch = len(inputs_list)
        reports = []
        for _ in range(batch):
            report = ExecutionReport(
                latency_ms=template.latency_ms,
                operation_counts=dict(template.operation_counts),
                consumed_noise_budget=template.consumed_noise_budget,
                remaining_noise_budget=template.remaining_noise_budget,
                noise_budget_exhausted=template.noise_budget_exhausted,
                encrypted_inputs=template.encrypted_inputs,
                backend=self.name,
                batch_size=batch,
            )
            reports.append(report)
        return reports
