"""Rotation-step normalization: congruent steps behave identically everywhere.

A rotation by ``step`` and by ``step mod n`` is the same Galois automorphism,
so every layer must treat them interchangeably:

* the :class:`~repro.fhe.evaluator.Evaluator` accepts any step congruent to
  a generated Galois key, and rotation by a multiple of ``n`` is a free,
  budget-preserving copy;
* the :class:`~repro.backends.base.NoiseLedger` charges (or skips) the same
  cost for congruent steps, keeping VM noise accounting in lockstep with the
  reference;
* all execution backends produce bit-identical outputs for circuits built
  with pathological steps (negative, ``>= n``, multiples of ``n``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import api
from repro.backends import resolve_backend
from repro.backends.base import NoiseLedger
from repro.fhe.evaluator import FHEContext
from repro.fhe.meter import ExecutionMeter
from repro.fhe.params import BFVParameters

PARAMS = BFVParameters.default(1024)
N = PARAMS.slot_count


@pytest.fixture(scope="module")
def context() -> FHEContext:
    return FHEContext(PARAMS, galois_steps=[1, 3])


class TestEvaluatorNormalization:
    def test_multiple_of_n_is_identity_copy(self, context) -> None:
        ct = context.encryptor.encrypt_values([5, 6, 7, 8])
        for step in (0, N, -N, 2 * N, -3 * N):
            out = context.evaluator.rotate(ct, step)
            assert np.array_equal(out.slots, ct.slots)
            # identity rotations are free: no key needed, no budget charged
            assert out.noise_budget == ct.noise_budget

    @pytest.mark.parametrize("step", [N + 1, 1 - N, 1 + 2 * N, -(N - 1)])
    def test_congruent_step_uses_existing_key(self, context, step) -> None:
        ct = context.encryptor.encrypt_values([5, 6, 7, 8])
        base = context.evaluator.rotate(ct, 1)
        out = context.evaluator.rotate(ct, step)
        assert np.array_equal(out.slots, base.slots)
        assert out.noise_budget == base.noise_budget

    def test_missing_key_still_raises(self, context) -> None:
        from repro.core.exceptions import RotationKeyMissing

        ct = context.encryptor.encrypt_values([5, 6, 7, 8])
        with pytest.raises(RotationKeyMissing):
            context.evaluator.rotate(ct, 2)  # only keys for 1 and 3 exist


class TestLedgerNormalization:
    def test_identity_rotation_charges_nothing(self) -> None:
        ledger = NoiseLedger(ExecutionMeter(PARAMS))
        ledger.load_input(0)
        for step in (N, -N, 2 * N):
            ledger.rotate(1, 0, step)
            assert ledger.budget[1] == ledger.budget[0]

    def test_congruent_steps_charge_identically(self) -> None:
        ledger = NoiseLedger(ExecutionMeter(PARAMS))
        ledger.load_input(0)
        ledger.rotate(1, 0, 3)
        ledger.rotate(2, 0, 3 + N)
        ledger.rotate(3, 0, 3 - N)
        assert ledger.budget[1] == ledger.budget[2] == ledger.budget[3]
        assert ledger.budget[1] < ledger.budget[0]


SOURCE = (
    "(+ (<< (* (Vec a0 a1 a2 a3) (Vec b0 b1 b2 b3)) %d)"
    " (<< (Vec c0 c1 c2 c3) %d))"
)
INPUTS = {
    f"{var}{i}": (i + 2) * (ord(var) - ord("a") + 1)
    for var in "abc"
    for i in range(4)
}
BACKENDS = ("reference", "vector-vm")


@pytest.mark.parametrize(
    "steps",
    [(3, 1), (N + 2, -3), (2 * N + 3, N - 1), (-N, 1)],
    ids=lambda s: f"{s[0]}_{s[1]}",
)
def test_backend_parity_on_pathological_steps(steps) -> None:
    """All backends agree on outputs for negative / >= n / multiple-of-n steps."""
    report = api.compile(
        SOURCE % steps, compiler="greedy", name=f"rot_{steps[0]}_{steps[1]}"
    )
    outputs = {}
    for backend_name in BACKENDS:
        backend, _ = resolve_backend(backend_name)
        execution = backend.execute(report.circuit, INPUTS, params=PARAMS)
        outputs[backend_name] = execution.outputs
    reference = outputs["reference"]
    for backend_name, produced in outputs.items():
        assert produced == reference, backend_name
