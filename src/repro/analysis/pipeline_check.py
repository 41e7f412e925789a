"""Structural validation between compilation pipeline stages.

Every :class:`~repro.compiler.framework.PassPipeline` stage rewrites either
the expression or the circuit; this module provides the translation-
validation hooks that :meth:`PassPipeline.compile(..., verify=True)
<repro.compiler.framework.PassPipeline.compile>` runs after *each* stage, so
a broken invariant names the stage that broke it instead of failing the
whole pipeline opaquely.

``pipeline-expr``
    Invariants on the expression DAG: well-typed nodes, per-operator arity,
    acyclicity (the IR is immutable, but a pass that smuggles shared state
    through ``object.__setattr__`` can still tie a knot), and sane rotation
    steps.  Slot widths deliberately have *no* expression-level rule: mixed
    widths in element-wise ops zero-pad, and ``Vec`` elements may be
    vector-valued (the gather lowering masks out slot 0), so width
    consistency is only checkable after lowering — the circuit checker
    validates packing layouts and output lengths instead.  Rotation steps
    are likewise *not* required to lie in ``[0, n)`` here —
    circuits are parameter-independent and lowering legitimately emits
    negative steps; normalization into ``[1, w)`` over the tape's slot
    window happens at backend compile time and is enforced by the
    ``tape-arena`` checker.

``pipeline-circuit``
    Invariants on the lowered :class:`~repro.compiler.circuit.CircuitProgram`:
    dense SSA numbering, operands defined before use (acyclicity of the
    instruction DAG), per-opcode operand arity, well-formed packing layouts
    and plaintext loads, and output coverage (at least one output, every
    declared output register defined, no duplicate output names).
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.analysis import AnalysisReport, Severity, register_checker
from repro.compiler.circuit import CircuitProgram, Opcode
from repro.ir.nodes import Expr, Rotate

__all__ = ["check_expression", "check_circuit", "validate_state"]

#: Rotation steps beyond this are a sure sign of arithmetic gone wrong
#: (real steps are bounded by the vector width of the kernel).
_MAX_ROTATION_STEP = 1 << 31

#: Expected child count per operator mnemonic (None = variadic, checked
#: separately).
_EXPR_ARITY: Dict[str, Optional[int]] = {
    "var": 0,
    "const": 0,
    "+": 2,
    "-": 2,
    "*": 2,
    "neg": 1,
    "<<": 1,
    "Vec": None,
    "VecAdd": 2,
    "VecSub": 2,
    "VecMul": 2,
    "VecNeg": 1,
}

_BINARY_OPCODES = {
    Opcode.ADD,
    Opcode.SUB,
    Opcode.MUL,
    Opcode.ADD_PLAIN,
    Opcode.SUB_PLAIN,
    Opcode.MUL_PLAIN,
}
_UNARY_OPCODES = {Opcode.NEGATE, Opcode.ROTATE, Opcode.OUTPUT}


# ---------------------------------------------------------------------------
# pipeline-expr
# ---------------------------------------------------------------------------
@register_checker(
    "pipeline-expr",
    "pipeline",
    "expression invariants: arity, acyclicity, Vec widths, rotation steps",
)
def check_expression(
    expr: Expr,
    *,
    location: str = "expr",
    report: Optional[AnalysisReport] = None,
) -> AnalysisReport:
    report = report if report is not None else AnalysisReport()

    # Iterative DFS with an explicit on-path set: validates each node once
    # (shared subexpressions are fine — it is a DAG) and catches true cycles.
    done: Set[int] = set()
    on_path: Set[int] = set()
    stack = [(expr, False)]
    while stack:
        node, expanded = stack.pop()
        key = id(node)
        if expanded:
            on_path.discard(key)
            done.add(key)
            continue
        if key in done:
            continue
        if key in on_path:
            report.add(
                "pipeline-expr",
                "cycle",
                Severity.ERROR,
                f"expression graph contains a cycle through {node.op!r}",
                location=location,
            )
            done.add(key)
            continue
        if not isinstance(node, Expr):
            report.add(
                "pipeline-expr",
                "bad-node",
                Severity.ERROR,
                f"non-Expr child of type {type(node).__name__} in the tree",
                location=location,
            )
            done.add(key)
            continue
        expected = _EXPR_ARITY.get(node.op)
        if node.op not in _EXPR_ARITY:
            report.add(
                "pipeline-expr",
                "unknown-op",
                Severity.ERROR,
                f"unknown operator {node.op!r}",
                location=location,
            )
        elif expected is not None and node.arity != expected:
            report.add(
                "pipeline-expr",
                "arity",
                Severity.ERROR,
                f"{node.op!r} has {node.arity} children (expected {expected})",
                location=location,
            )
        elif expected is None and node.arity == 0:
            report.add(
                "pipeline-expr",
                "arity",
                Severity.ERROR,
                f"{node.op!r} requires at least one child",
                location=location,
            )
        if isinstance(node, Rotate) and abs(node.step) >= _MAX_ROTATION_STEP:
            report.add(
                "pipeline-expr",
                "rotation-step-range",
                Severity.ERROR,
                f"rotation step {node.step} is implausibly large",
                location=location,
            )
        on_path.add(key)
        stack.append((node, True))
        for child in node.children:
            if isinstance(child, Expr):
                stack.append((child, False))
    report.mark_ran("pipeline-expr")
    return report


# ---------------------------------------------------------------------------
# pipeline-circuit
# ---------------------------------------------------------------------------
@register_checker(
    "pipeline-circuit",
    "pipeline",
    "circuit invariants: dense SSA, def-before-use, layouts, outputs",
)
def check_circuit(
    program: CircuitProgram,
    *,
    location: str = "circuit",
    report: Optional[AnalysisReport] = None,
) -> AnalysisReport:
    report = report if report is not None else AnalysisReport()

    for index, instruction in enumerate(program.instructions):
        where = f"{location} instr {index} ({instruction.opcode.value})"
        if instruction.result != index:
            report.add(
                "pipeline-circuit",
                "ssa-numbering",
                Severity.ERROR,
                f"result register {instruction.result} breaks dense SSA "
                f"numbering (expected {index})",
                location=where,
            )
        for operand in instruction.operands:
            if not 0 <= operand < index:
                report.add(
                    "pipeline-circuit",
                    "use-before-def",
                    Severity.ERROR,
                    f"operand r{operand} is not defined before this "
                    "instruction (SSA requires operands < result)",
                    location=where,
                )
        opcode = instruction.opcode
        if opcode in _BINARY_OPCODES and len(instruction.operands) != 2:
            report.add(
                "pipeline-circuit",
                "arity",
                Severity.ERROR,
                f"{opcode.value} has {len(instruction.operands)} operands "
                "(expected 2)",
                location=where,
            )
        elif opcode in _UNARY_OPCODES and len(instruction.operands) != 1:
            report.add(
                "pipeline-circuit",
                "arity",
                Severity.ERROR,
                f"{opcode.value} has {len(instruction.operands)} operands "
                "(expected 1)",
                location=where,
            )
        if opcode is Opcode.LOAD_INPUT and not instruction.layout:
            report.add(
                "pipeline-circuit",
                "empty-layout",
                Severity.ERROR,
                "load_input carries an empty packing layout",
                location=where,
            )
        if opcode is Opcode.LOAD_PLAIN and not instruction.values:
            report.add(
                "pipeline-circuit",
                "empty-plain",
                Severity.ERROR,
                "load_plain carries no constant values",
                location=where,
            )
        if (
            opcode is Opcode.ROTATE
            and abs(instruction.step) >= _MAX_ROTATION_STEP
        ):
            report.add(
                "pipeline-circuit",
                "rotation-step-range",
                Severity.ERROR,
                f"rotation step {instruction.step} is implausibly large",
                location=where,
            )

    if not program.outputs:
        report.add(
            "pipeline-circuit",
            "no-outputs",
            Severity.ERROR,
            "circuit declares no outputs",
            location=location,
        )
    seen_names: Set[str] = set()
    for register, name, length in program.outputs:
        if not 0 <= register < len(program.instructions):
            report.add(
                "pipeline-circuit",
                "orphan-output",
                Severity.ERROR,
                f"output {name!r} reads register r{register} that no "
                "instruction defines",
                location=location,
            )
        if name in seen_names:
            report.add(
                "pipeline-circuit",
                "duplicate-output",
                Severity.ERROR,
                f"output name {name!r} declared more than once",
                location=location,
            )
        seen_names.add(name)
        if length < 1:
            report.add(
                "pipeline-circuit",
                "bad-output-length",
                Severity.ERROR,
                f"output {name!r} declares non-positive length {length}",
                location=location,
            )
    report.mark_ran("pipeline-circuit")
    return report


# ---------------------------------------------------------------------------
# stage hook
# ---------------------------------------------------------------------------
def validate_state(state: object, *, stage_name: str = "") -> AnalysisReport:
    """Validate a :class:`~repro.compiler.framework.PipelineState` snapshot.

    Called by ``PassPipeline.compile(verify=True)`` after every stage; the
    returned report's findings carry ``<circuit>/<stage>`` locations so a
    broken invariant names the stage that introduced it.
    """
    name = getattr(state, "name", "circuit")
    where = f"{name}/{stage_name}" if stage_name else name
    report = AnalysisReport()
    expr = getattr(state, "expr", None)
    if expr is not None:
        check_expression(expr, location=f"{where} expr", report=report)
    circuit = getattr(state, "circuit", None)
    if circuit is not None:
        check_circuit(circuit, location=f"{where} circuit", report=report)
    return report
