"""Property test: the tape verifier's interval analysis is sound.

For randomly generated kernels and random inputs within a declared
magnitude bucket, every concrete value a tape op writes — including the
intermediate products fused superinstructions materialize in ``dst``
before accumulating — must stay within the static bound
:func:`repro.analysis.tape_check.iter_op_bounds` derives for that op.
The concrete side is an exact-arithmetic (Python int) re-interpretation
of the scheduled ops, so numpy's int64 wraparound can never mask an
unsound bound.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import api
from repro.analysis.tape_check import iter_op_bounds
from repro.backends.tapeopt import compile_tape
from repro.fhe.params import BFVParameters

PARAMS = BFVParameters.default(1024)

VARIABLES = ("a", "b", "c", "d")


# -- random kernel generation -------------------------------------------------
def _leaf() -> st.SearchStrategy[str]:
    return st.one_of(
        st.sampled_from(VARIABLES),
        st.integers(min_value=-5, max_value=5).map(str),
    )


def _node(children: st.SearchStrategy[str]) -> st.SearchStrategy[str]:
    binary = st.tuples(st.sampled_from("+-*"), children, children).map(
        lambda t: f"({t[0]} {t[1]} {t[2]})"
    )
    rotate = st.tuples(
        children, st.integers(min_value=-4, max_value=4).filter(bool)
    ).map(lambda t: f"(<< {t[0]} {t[1]})")
    negate = children.map(lambda c: f"(- {c})")
    return st.one_of(binary, rotate, negate)


def _kernels() -> st.SearchStrategy[str]:
    # recursive trees, then require at least one variable so the bucket
    # actually parameterizes something
    return st.recursive(_leaf(), _node, max_leaves=12).filter(
        lambda s: any(v in s for v in VARIABLES)
    )


# -- exact concrete interpretation -------------------------------------------
def _rotated(row, step, n):
    return [row[(i + step) % n] for i in range(n)]


def _concrete_rows(tape, inputs):
    """Materialize every buffer's initial row (the tape's window) as exact
    Python ints."""
    t, half = tape.t, tape.half
    rows = [
        [int(v) for v in np.asarray(const).reshape(-1)]
        for const in tape.consts
    ]
    rows.extend([0] * tape.width for _ in range(tape.slot_count))
    for load in tape.loads:
        row = [int(v) for v in np.asarray(load.template).reshape(-1)]
        for column, name in load.var_columns:
            residue = int(inputs[name]) % t
            row[column] = residue - t if residue > half else residue
        rows[load.buffer] = row
    return rows


def _max_abs(row) -> int:
    return max(abs(v) for v in row)


def _check_plan(tape, ops, bucket, inputs) -> None:
    t, half, n = tape.t, tape.half, tape.width
    rows = _concrete_rows(tape, inputs)
    for index, op, product_bound, result_bound in iter_op_bounds(
        tape, ops, bucket=bucket
    ):
        kind = op.kind
        a = rows[op.a] if op.a >= 0 else None
        b = rows[op.b] if op.b >= 0 else None
        c = rows[op.c] if op.c >= 0 else None
        if kind == "add":
            result = [x + y for x, y in zip(a, b)]
        elif kind == "sub":
            result = [x - y for x, y in zip(a, b)]
        elif kind == "mul":
            result = [x * y for x, y in zip(a, b)]
        elif kind == "neg":
            result = [-x for x in a]
        elif kind == "rot":
            result = _rotated(a, op.step, n)
        elif kind == "rot_add":
            result = [x + y for x, y in zip(_rotated(a, op.step, n), b)]
        elif kind == "rot_mul":
            result = [x * y for x, y in zip(_rotated(a, op.step, n), b)]
        elif kind in ("mul_add", "mul_sub_l", "mul_sub_r", "rot_mul_add"):
            lhs = _rotated(a, op.step, n) if kind == "rot_mul_add" else a
            intermediate = [x * y for x, y in zip(lhs, b)]
            assert product_bound is not None
            assert _max_abs(intermediate) <= product_bound, (index, kind)
            if kind == "mul_sub_r":
                result = [z - p for p, z in zip(intermediate, c)]
            elif kind == "mul_sub_l":
                result = [p - z for p, z in zip(intermediate, c)]
            else:
                result = [p + z for p, z in zip(intermediate, c)]
        elif kind == "reduce":
            result = [
                (v % t) - t if (v % t) > half else v % t for v in rows[op.dst]
            ]
        else:
            raise AssertionError(f"unexpected op kind {kind!r}")
        assert _max_abs(result) <= result_bound, (index, kind)
        rows[op.dst] = result


@settings(max_examples=30, deadline=None)
@given(
    source=_kernels(),
    bucket=st.integers(min_value=1, max_value=10_000),
    data=st.data(),
)
def test_concrete_magnitudes_never_exceed_static_bounds(
    source, bucket, data
) -> None:
    report = api.compile(source, "greedy", name="interval-probe")
    tape = compile_tape(report.circuit, PARAMS)
    inputs = {
        name: data.draw(
            st.integers(min_value=-bucket, max_value=bucket), label=name
        )
        for name in VARIABLES
    }
    plan = tape.plan_for(bucket)
    _check_plan(tape, plan.ops, plan.bucket, inputs)
