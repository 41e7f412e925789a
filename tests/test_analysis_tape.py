"""Tape-verifier sweep: every workload × compiler is clean.

The acceptance gate of the static-analysis stack: the full workload
registry, compiled under both real compilers and analyzed through the
pipeline validators and the vector-VM tape verifier, must produce zero
findings — pipeline invariants after every pass, arena safety, output
coverage, reduction-schedule soundness and symbolic circuit equivalence all
hold on everything the repo actually ships.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext

import pytest

from repro import api
from repro.analysis.tape_check import verify_tape
from repro.backends.tape import set_tape_profiling
from repro.backends.tapeopt import compile_tape
from repro.backends.vector_vm import VectorVMBackend
from repro.compiler.executor import execute
from repro.fhe.params import BFVParameters
from repro.workloads import available_workloads, build_workload

PARAMS = BFVParameters.default(1024)
COMPILERS = ("greedy", "coyote")
WORKLOADS = tuple(sorted(available_workloads()))


@pytest.fixture(scope="module")
def compiled():
    """One verified compilation + tape per (workload, compiler)."""
    artifacts = {}
    for workload_name in WORKLOADS:
        workload = build_workload(workload_name)
        for compiler in COMPILERS:
            report = api.compile(
                workload.source, compiler, name=workload.name, verify=True
            )
            tape = compile_tape(report.circuit, PARAMS)
            artifacts[(workload_name, compiler)] = (report, tape)
    return artifacts


@pytest.mark.parametrize("compiler", COMPILERS)
@pytest.mark.parametrize("workload_name", WORKLOADS)
def test_pipeline_validators_clean(compiled, workload_name, compiler) -> None:
    """The per-stage pipeline validators alone (no tape involved)."""
    report, _ = compiled[(workload_name, compiler)]
    assert report.analysis is not None
    assert report.analysis.ok, [
        f.render() for f in report.analysis.findings[:5]
    ]
    assert not report.analysis.findings


@pytest.mark.parametrize("compiler", COMPILERS)
@pytest.mark.parametrize("workload_name", WORKLOADS)
def test_tape_verifier_clean(compiled, workload_name, compiler) -> None:
    """The executed tape is clean; the verifier covers all its plans."""
    report, tape = compiled[(workload_name, compiler)]
    analysis = verify_tape(report.circuit, tape, location=workload_name)
    assert analysis.ok, [f.render() for f in analysis.findings[:5]]
    assert not analysis.findings


@contextmanager
def _profiled():
    previous = set_tape_profiling(True)
    try:
        yield
    finally:
        set_tape_profiling(previous)


#: The vector VM's two execution routes, keyed by the opt-level numbers
#: these cases kept when the level knob was deleted: 1 ran the tape op by op
#: (now the profiled route through ``tape._interpret``), 2 the specialized
#: generated function (the default).
TAPE_ROUTES = {1: _profiled, 2: nullcontext}


@pytest.mark.parametrize("level", sorted(TAPE_ROUTES))
def test_analyze_facade_all_opt_levels(level) -> None:
    """``api.analyze`` always runs the tape checkers, and the analyzed
    circuit executes bit-identically to ``reference`` on each VM route."""
    workload = build_workload("dot-product")
    report, analysis = api.analyze(workload.source, "greedy", name=workload.name)
    assert analysis.ok
    assert not analysis.findings
    checkers = set(analysis.checkers_run)
    assert {"pipeline-expr", "pipeline-circuit"} <= checkers
    assert {"tape-arena", "tape-bounds", "tape-outputs", "tape-equivalence"} <= checkers

    inputs = workload.sample_inputs(seed=0)
    expected = execute(report.circuit, inputs, params=PARAMS, backend="reference")
    with TAPE_ROUTES[level]():
        got = VectorVMBackend().execute(report.circuit, inputs, params=PARAMS)
    assert got.outputs == expected.outputs


@pytest.mark.parametrize("compiler", COMPILERS)
@pytest.mark.parametrize("workload_name", ("dot-product", "l2-distance"))
def test_analyze_facade_clean(workload_name, compiler) -> None:
    """``api.analyze`` end to end (pipeline validators + tape verifier) on a
    rotation-heavy reduction and a fusion-heavy kernel."""
    workload = build_workload(workload_name)
    _, analysis = api.analyze(workload.source, compiler, name=workload.name)
    assert analysis.ok
    assert not analysis.findings, [f.render() for f in analysis.findings[:3]]


def _execute_directly(backend, circuit, inputs):
    return backend.execute_many(circuit, [inputs], params=PARAMS)[0]


def _execute_through_service(backend, circuit, inputs):
    # run_jobs prices the job first (scheduling_cost_ms compiles and
    # memoizes the tape unverified), then executes it: the execute step
    # must still verify the memoized tape.
    from repro.service.execution import ExecutionService

    service = ExecutionService(backend, params=PARAMS)
    return service.run_jobs([(circuit, [inputs])]).reports[0][0]


def test_verified_execution_through_backend() -> None:
    """VectorVMBackend(verify=True) verifies every tape it executes, also
    one already memoized unverified (the ``run_jobs`` route), and still
    executes correctly."""
    from repro.backends.tapeopt import reset_tape_cache, tape_cache_stats

    report = api.compile("(+ (* a b) (<< c 2))", "greedy", name="verified-exec")
    inputs = {"a": 2, "b": 3, "c": 4}
    for run in (_execute_directly, _execute_through_service):
        reset_tape_cache()
        execution = run(VectorVMBackend(verify=True), report.circuit, inputs)
        assert execution.outputs, run.__name__
        stats = tape_cache_stats()
        assert stats["verified"] == 1, run.__name__
        assert stats["findings"] == 0, run.__name__
