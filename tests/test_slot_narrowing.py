"""Demand-driven slot narrowing: each tape runs over the slots it needs.

Covers the demanded-slot window ``[L, H)`` that ``compile_tape`` derives
(signed rotation steps stay next to slot 0, hulls of ``n`` or more slots
fall back to the full ring), input validation that does not depend on the
window, the bounded arena pool, a registry sweep proving every shipped
workload runs narrowed, and a hypothesis differential test of random
circuits against the ``reference`` backend through both vector-VM routes
(the specialized function and the profiled dispatch interpreter).
"""

from __future__ import annotations

import math
from contextlib import contextmanager, nullcontext

import pytest
from hypothesis import given, settings, strategies as st

from repro import api
from repro.analysis.tape_check import verify_tape
from repro.backends.tape import set_tape_profiling
from repro.backends.tapeopt import compile_tape
from repro.backends.vector_vm import VectorVMBackend
from repro.compiler.circuit import CircuitProgram, InputSlot, Opcode
from repro.compiler.executor import execute, execute_many
from repro.core.exceptions import CompilationError
from repro.fhe.params import BFVParameters
from repro.workloads import available_workloads, build_workload

PARAMS = BFVParameters.default(1024)
N = PARAMS.slot_count

ACCOUNTING_FIELDS = (
    "latency_ms",
    "operation_counts",
    "encrypted_inputs",
    "consumed_noise_budget",
    "remaining_noise_budget",
    "noise_budget_exhausted",
)


def ct_input(program: CircuitProgram, *names: str) -> int:
    return program.emit(
        Opcode.LOAD_INPUT, layout=[InputSlot(name=name) for name in names]
    )


@contextmanager
def profiled():
    """Route tape execution through the profiled dispatch interpreter."""
    previous = set_tape_profiling(True)
    try:
        yield
    finally:
        set_tape_profiling(previous)


#: The specialized generated function and the profiled ``_interpret`` route.
VM_ROUTES = (("specialized", nullcontext), ("profiled", profiled))


def assert_parity(program: CircuitProgram, inputs_list) -> None:
    """Both VM routes match the reference bit for bit, float for float."""
    reference = [
        execute(program, inputs, params=PARAMS, backend="reference")
        for inputs in inputs_list
    ]
    for label, route in VM_ROUTES:
        with route():
            reports = execute_many(
                program, inputs_list, params=PARAMS, backend=VectorVMBackend()
            )
        for ref, got in zip(reference, reports):
            assert got.outputs == ref.outputs, f"{label} outputs diverge"
            for field in ACCOUNTING_FIELDS:
                assert getattr(got, field) == getattr(ref, field), (
                    f"{label} {field} diverges"
                )


class TestWindow:
    def test_output_slots_alone_set_the_window(self):
        program = CircuitProgram(name="plain-sum")
        packed = ct_input(program, "a", "b", "c")
        total = program.emit(Opcode.ADD, (packed, packed))
        program.mark_output(total, "doubled", 3)
        tape = compile_tape(program, PARAMS)
        assert tape.window == (0, 3) and tape.width == 3
        assert_parity(program, [{"a": 1, "b": -2, "c": 3}])

    def test_negative_steps_stay_next_to_slot_zero(self):
        # A right rotation by 2 demands slots [-2, -1): the window grows
        # below slot 0 instead of wrapping to the top of the ring.
        program = CircuitProgram(name="right-shift")
        packed = ct_input(program, "a", "b", "c")
        shifted = program.emit(Opcode.ROTATE, (packed,), step=-2)
        total = program.emit(Opcode.ADD, (shifted, packed))
        program.mark_output(total, "out", 3)
        tape = compile_tape(program, PARAMS)
        assert tape.window == (-2, 3)
        assert [op.step for op in tape.ops if op.kind.startswith("rot")] == [3]
        assert tape.outputs[0].column == 2
        assert_parity(program, [{"a": 4, "b": 5, "c": 6}, {"a": -1, "b": 0, "c": 9}])

    def test_hull_of_n_slots_keeps_the_full_ring(self):
        # Three left rotations by n/2 - 1 demand slots up to 3n/2: no
        # window narrower than the ring is sound, so the tape is unchanged.
        program = CircuitProgram(name="full-ring")
        value = ct_input(program, "a", "b")
        for _ in range(3):
            value = program.emit(Opcode.ROTATE, (value,), step=N // 2 - 1)
        program.mark_output(value, "out", 2)
        tape = compile_tape(program, PARAMS)
        assert tape.window == (0, N) and tape.width == N
        assert [op.step for op in tape.ops] == [N // 2 - 1] * 3
        assert_parity(program, [{"a": 7, "b": -3}])

    def test_rotations_equal_over_the_window_merge(self):
        # Steps 5 and -5 agree mod the 10-column window, so both rotations
        # are one value with two consumers: fusing either would drop the
        # other consumer, and the verifier (whose terms see one rotation)
        # must find the tape clean.
        program = CircuitProgram(name="window-cse")
        packed = ct_input(program, *(f"v{i}" for i in range(10)))
        left = program.emit(Opcode.ROTATE, (packed,), step=5)
        right = program.emit(Opcode.ROTATE, (packed,), step=-5)
        back = program.emit(Opcode.ROTATE, (right,), step=6)
        far = program.emit(Opcode.ROTATE, (packed,), step=9)
        total = program.emit(Opcode.ADD, (left, back))
        total = program.emit(Opcode.ADD, (total, far))
        program.mark_output(total, "out", 1)
        tape = compile_tape(program, PARAMS)
        assert tape.window == (0, 10)
        assert tape.stats["eliminated"]["cse"] == 1
        assert verify_tape(program, tape).ok
        assert_parity(program, [{f"v{i}": i * i - 7 for i in range(10)}])

    def test_constants_equal_over_the_window_merge(self):
        program = CircuitProgram(name="window-consts")
        a = ct_input(program, "a")
        first = program.emit(Opcode.LOAD_PLAIN, name="vector", values=(3, 1))
        second = program.emit(Opcode.LOAD_PLAIN, name="vector", values=(3, 2))
        m1 = program.emit(Opcode.MUL_PLAIN, (a, first))
        m2 = program.emit(Opcode.MUL_PLAIN, (a, second))
        total = program.emit(Opcode.ADD, (m2, program.emit(Opcode.ADD, (m1, a))))
        program.mark_output(total, "out", 1)
        tape = compile_tape(program, PARAMS)
        assert tape.stats["consts"] == 1 and tape.stats["fused_total"] == 0
        assert verify_tape(program, tape).ok
        assert_parity(program, [{"a": 4}, {"a": -9}])

    def test_render_reports_the_window(self):
        program = api.compile("(+ (* a b) (<< c 2))", compiler="greedy").circuit
        tape = compile_tape(program, PARAMS)
        lo, hi = tape.window
        assert (
            f"x ({tape.width},) rows, window [{lo}, {hi}) of {N}"
            in tape.render().splitlines()[0]
        )


class TestInputValidation:
    @staticmethod
    def _outside_window_program() -> CircuitProgram:
        # ``x`` sits at slot 5 of the only load, but the output reads slot 0:
        # narrowing drops x's column from the tape entirely.
        program = CircuitProgram(name="x-outside")
        layout = [InputSlot(name="y")] + [InputSlot(constant=0)] * 4
        load = program.emit(Opcode.LOAD_INPUT, layout=layout + [InputSlot(name="x")])
        program.mark_output(load, "y", 1)
        return program

    def test_input_outside_the_window_is_still_required(self):
        program = self._outside_window_program()
        tape = compile_tape(program, PARAMS)
        assert tape.width == 1
        assert all(name != "x" for load in tape.loads for _, name in load.var_columns)
        assert tape.input_names == ("y", "x")
        backend = VectorVMBackend()
        for _, route in VM_ROUTES:
            missing = [{"y": 1, "x": 2}, {"y": 3}]
            with route(), pytest.raises(CompilationError, match="missing value for .* 'x'"):
                backend.execute_many(program, missing, params=PARAMS)
            with route(), pytest.raises(CompilationError, match="'x' is packed slot-wise"):
                backend.execute_many(program, [{"y": 1, "x": [2, 3]}], params=PARAMS)

    def test_input_outside_the_window_runs_when_given(self):
        assert_parity(self._outside_window_program(), [{"y": 4, "x": 9}])


class TestArenaPool:
    def test_distinct_batch_sizes_share_power_of_two_arenas(self):
        program = api.compile("(+ (* a b) (<< c 2))", compiler="greedy").circuit
        tape = compile_tape(program, PARAMS)
        inputs = {"a": 2, "b": 3, "c": 4}
        expected = None
        for batch in range(1, 301):
            reports = tape.execute_batch([inputs] * batch)
            outputs = [report.outputs for report in reports]
            expected = expected or outputs[0]
            assert outputs == [expected] * batch
        assert tape.pooled_arenas() <= 2 * math.ceil(math.log2(300))


@pytest.mark.parametrize("compiler", ("greedy", "coyote", "initial"))
def test_every_registry_workload_runs_narrowed(compiler):
    params = BFVParameters.default()
    for name in available_workloads():
        workload = build_workload(name)
        circuit = api.compile(workload.source, compiler, name=name).circuit
        tape = compile_tape(circuit, params)
        assert tape.width < params.slot_count, (name, tape.window)


# -- differential testing of random circuits ----------------------------------
NAMES = ("a", "b", "c")
#: Signed steps: small shifts both ways, wrap-around spellings of them,
#: steps next to n/2 and multiples of n (identity rotations).
STEPS = st.sampled_from(
    [1, 2, 3, -1, -2, -5, N - 1, N + 2, -N - 3, N // 2, N // 2 - 1,
     -(N // 2 - 1), N // 2 + 1, N, -2 * N]
)


@st.composite
def random_circuits(draw):
    program = CircuitProgram(name="random")
    slot = st.one_of(
        st.sampled_from(NAMES).map(lambda name: InputSlot(name=name)),
        st.integers(-9, 9).map(lambda value: InputSlot(constant=value)),
    )
    ciphertexts = [
        program.emit(
            Opcode.LOAD_INPUT, layout=draw(st.lists(slot, min_size=1, max_size=5))
        )
        for _ in range(draw(st.integers(1, 3)))
    ]
    plaintexts = []
    for _ in range(draw(st.integers(1, 2))):
        if draw(st.booleans()):
            plaintexts.append(program.emit(
                Opcode.LOAD_PLAIN, name="broadcast",
                values=(draw(st.integers(-9, 9)),),
            ))
        else:
            values = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=5))
            plaintexts.append(program.emit(
                Opcode.LOAD_PLAIN, name="vector", values=tuple(values)
            ))
    binary = {
        "add": Opcode.ADD, "sub": Opcode.SUB, "mul": Opcode.MUL,
        "add_plain": Opcode.ADD_PLAIN, "sub_plain": Opcode.SUB_PLAIN,
        "mul_plain": Opcode.MUL_PLAIN,
    }
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(sorted(binary) + ["neg", "rot", "rot", "rot"]))
        x = draw(st.sampled_from(ciphertexts))
        if kind == "rot":
            result = program.emit(Opcode.ROTATE, (x,), step=draw(STEPS))
        elif kind == "neg":
            result = program.emit(Opcode.NEGATE, (x,))
        elif kind.endswith("_plain"):
            result = program.emit(binary[kind], (x, draw(st.sampled_from(plaintexts))))
        else:
            result = program.emit(binary[kind], (x, draw(st.sampled_from(ciphertexts))))
        ciphertexts.append(result)
    if draw(st.booleans()):
        # A chain of long rotations: its hull lands just under, at or past
        # n slots, so both narrowed and full-ring tapes get exercised.
        step = draw(st.sampled_from([N // 2 - 1, N // 2, -(N // 2 - 1)]))
        for _ in range(draw(st.integers(2, 3))):
            rotated = program.emit(Opcode.ROTATE, (ciphertexts[-1],), step=step)
            ciphertexts.append(rotated)
    outputs = [ciphertexts[-1]] + draw(
        st.lists(st.sampled_from(ciphertexts), max_size=2)
    )
    for index, register in enumerate(outputs):
        program.mark_output(register, f"out{index}", draw(st.integers(1, 5)))
    if draw(st.booleans()):
        plain = draw(st.sampled_from(plaintexts))
        program.mark_output(plain, "plain", draw(st.integers(1, 5)))
    return program


@settings(max_examples=40, deadline=None)
@given(program=random_circuits(), data=st.data())
def test_random_circuits_match_reference(program, data):
    inputs_list = [
        {name: data.draw(st.integers(-50, 50), label=name) for name in NAMES}
        for _ in range(2)
    ]
    assert_parity(program, inputs_list)
    tape = compile_tape(program, PARAMS)
    analysis = verify_tape(program, tape, input_bounds=(50,))
    assert analysis.ok, [finding.render() for finding in analysis.findings[:3]]
