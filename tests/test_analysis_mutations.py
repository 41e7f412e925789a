"""Mutation harness: the verifier catches every injected defect class.

This is the verifier's own soundness gate — a checker that never fires on a
bug is indistinguishable from one that always passes, so CI asserts a 100%
detection rate over seeded mutants of all four optimizer defect classes.
"""

from __future__ import annotations

import pytest

from repro import api
from repro.analysis.mutate import (
    DEFECT_CLASSES,
    enumerate_mutations,
    run_mutation_harness,
    verify_mutation,
)
from repro.backends.tapeopt import compile_tape
from repro.fhe.params import BFVParameters
from repro.workloads import build_workload

PARAMS = BFVParameters.default(1024)

@pytest.fixture(scope="module")
def cases():
    """Kernel mix guaranteeing at least one site per defect class: ordered
    subtractions (swap), scheduled reduces at the large bucket
    (drop-reduction), a multi-consumer product (illegal fusion) and
    overlapping register lifetimes (clobber)."""
    built = []
    sources = [
        build_workload("l2-distance").source,
        build_workload("tree-ensemble").source,
        "(+ (+ (* a b) c) (* (* a b) d))",
    ]
    for source in sources:
        report = api.compile(source, "greedy")
        built.append((report.circuit, compile_tape(report.circuit, PARAMS)))
    return built


@pytest.fixture(scope="module")
def harness(cases):
    return run_mutation_harness(cases, seed=11, per_class=3)


def test_every_class_exercised(harness) -> None:
    assert harness.classes_exercised == sorted(DEFECT_CLASSES)


def test_detection_rate_is_total(harness) -> None:
    assert harness.all_detected
    for kind in DEFECT_CLASSES:
        assert harness.detection_rate(kind) == 1.0, harness.summary_lines()


def test_second_draw_detects_every_class(cases) -> None:
    """An independent seed and sample size: still every class, all caught."""
    result = run_mutation_harness(cases, seed=7, per_class=2)
    assert result.classes_exercised == sorted(DEFECT_CLASSES)
    assert result.all_detected, result.summary_lines()


def test_detections_name_a_rule(harness) -> None:
    for outcomes in harness.outcomes.values():
        for outcome in outcomes:
            assert outcome.rules, outcome.mutation.description


def test_same_seed_replays_same_mutants(cases) -> None:
    first = run_mutation_harness(cases, seed=3, per_class=2)
    second = run_mutation_harness(cases, seed=3, per_class=2)
    descr = lambda r: [
        o.mutation.description for v in r.outcomes.values() for o in v
    ]
    assert descr(first) == descr(second)


def test_pristine_plan_is_clean_baseline(cases) -> None:
    """Every enumerated mutant differs from its (clean) source schedule."""
    # swap sites live in the subtraction-heavy kernel, fusion sites in the
    # shared-product kernel
    for case_index, kind in ((0, "swap-operands"), (2, "skip-fusion-check")):
        program, tape = cases[case_index]
        plan = tape.plan_for(1)
        mutations = enumerate_mutations(
            program, tape, kind, ops=plan.ops, bucket=plan.bucket
        )
        assert mutations, kind
        for mutation in mutations:
            assert tuple(mutation.ops) != tuple(plan.ops)
            report = verify_mutation(program, tape, mutation)
            assert not report.ok, mutation.description
