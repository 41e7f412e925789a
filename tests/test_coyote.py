"""The Coyote baseline's lane-assignment search and the circuits it emits.

* the batched candidate scorer agrees with the per-candidate loop it
  replaced (kept here as the reference), RNG state included;
* every suite kernel compiles to the circuit recorded before the scorer was
  batched (sha256 digests in ``data/coyote_circuit_digests.json``);
* circuits carry plain ``int`` rotation steps, so they survive the JSONL job
  store and fingerprint like their decoded copies.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.backends.base import program_fingerprint
from repro.baselines import CoyoteCompiler, CoyoteOptions
from repro.baselines.coyote import _Placement
from repro.compiler.registry import available_compilers, build_compiler
from repro.kernels import benchmark_by_name
from repro.kernels.registry import benchmark_suite
from repro.server import Job, JobStore, circuit_from_record, circuit_to_record

#: sha256 of the default ``coyote`` circuit of each suite kernel, recorded
#: with the per-candidate search loop (see :func:`circuit_digest`).
RECORDED_DIGESTS = Path(__file__).parent / "data" / "coyote_circuit_digests.json"


def circuit_digest(program) -> str:
    """Content hash of a circuit: instruction tuples (``int`` steps), then
    outputs and scalar inputs; the program name is left out."""
    digest = hashlib.sha256()
    for ins in program.instructions:
        digest.update(
            repr(
                (ins.result, ins.opcode.value, tuple(ins.operands), int(ins.step),
                 ins.name, ins.layout, tuple(ins.values))
            ).encode()
        )
    digest.update(repr([tuple(entry) for entry in program.outputs]).encode())
    digest.update(repr(list(program.scalar_inputs)).encode())
    return digest.hexdigest()


def reference_search(options, group, dag, placements, rng):
    """The per-candidate search loop the batched scorer replaced:
    ``(assignment, score)`` of the first candidate of minimum cost."""
    width = len(group)
    candidate_count = min(options.max_candidates, max(options.search_candidates, width * width))
    best_assignment, best_score = None, float("inf")
    for candidate in range(candidate_count):
        order = list(range(width)) if candidate == 0 else list(rng.permutation(width))
        assignment = {node_id: order[i] for i, node_id in enumerate(group)}
        score = reference_cost(group, assignment, dag, placements)
        if score < best_score:
            best_score, best_assignment = score, assignment
    return best_assignment, best_score


def reference_cost(group, assignment, dag, placements) -> float:
    """Number of distinct (source register, shift) pairs over all operands."""
    distinct = set()
    for node_id in group:
        for operand_id in dag.nodes[node_id].operands:
            placement = placements[operand_id]
            distinct.add((placement.register, placement.lane - assignment[node_id]))
    return float(len(distinct))


def random_pack(seed: int, width: int, registers: int, lanes: int, tie: bool = False):
    """A group of ``width`` nodes over operands placed in ``registers``
    registers and ``lanes`` lanes (operands may repeat within a node).  With
    ``tie`` every operand sits in its own register, so every candidate
    costs the same and only the tie rule decides."""
    draw = np.random.default_rng(seed)
    operand_ids = list(range(1000, 1000 + 2 * width))
    placements = {
        operand_id: _Placement(
            register=index if tie else int(draw.integers(registers)),
            lane=int(draw.integers(lanes)),
        )
        for index, operand_id in enumerate(operand_ids)
    }
    group = [int(node_id) for node_id in draw.permutation(width) + 10]
    nodes = {}
    for node_id in group:
        arity = int(draw.integers(1, 3))
        nodes[node_id] = SimpleNamespace(
            operands=tuple(int(draw.choice(operand_ids)) for _ in range(arity))
        )
    return group, SimpleNamespace(nodes=nodes), placements


PACKS = [
    # (width, registers, lanes, tie)
    (1, 1, 1, False),
    (1, 3, 5, False),
    (2, 1, 2, False),
    (3, 2, 4, False),
    (4, 1, 4, False),
    (5, 2, 8, False),
    (7, 3, 10, False),
    (12, 2, 16, False),
    (16, 4, 32, False),
    (4, 0, 6, True),
    (9, 0, 3, True),
]
PACK_IDS = [f"w{w}-r{r}-l{l}{'-tie' if t else ''}" for w, r, l, t in PACKS]
OPTIONS = [
    CoyoteOptions(),
    CoyoteOptions(search_candidates=2, max_candidates=4),
    CoyoteOptions(search_candidates=1, max_candidates=1),
]


class TestBatchedScorer:
    @pytest.mark.parametrize("options", OPTIONS, ids=["default", "small", "identity-only"])
    @pytest.mark.parametrize("pack", PACKS, ids=PACK_IDS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_the_per_candidate_loop(self, options, pack, seed):
        width, registers, lanes, tie = pack
        group, dag, placements = random_pack(seed, width, registers, lanes, tie)
        reference_rng = np.random.default_rng(seed)
        expected, expected_score = reference_search(options, group, dag, placements, reference_rng)

        rng = np.random.default_rng(seed)
        assignment = CoyoteCompiler(options)._search_lanes(group, dag, placements, rng)
        assert assignment == expected
        assert all(type(lane) is int for lane in assignment.values())
        assert reference_cost(group, assignment, dag, placements) == expected_score
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    @pytest.mark.parametrize("pack", PACKS, ids=PACK_IDS)
    def test_every_candidate_scored_like_the_reference(self, pack):
        group, dag, placements = random_pack(5, *pack)
        width = len(group)
        orders = np.random.default_rng(5).permuted(np.tile(np.arange(width), (40, 1)), axis=1)
        costs = CoyoteCompiler._movement_costs(orders, group, dag, placements)
        expected = [
            reference_cost(group, dict(zip(group, order.tolist())), dag, placements)
            for order in orders
        ]
        assert costs.tolist() == expected


class TestRecordedCircuits:
    def test_suite_circuits_match_the_recorded_digests(self):
        compiler = build_compiler("coyote")
        observed = {
            benchmark.name: circuit_digest(
                compiler.compile_expression(benchmark.expression(), name=benchmark.name).circuit
            )
            for benchmark in benchmark_suite()
        }
        assert observed == json.loads(RECORDED_DIGESTS.read_text())


KERNELS = ("dot_product_8", "l2_distance_4", "gx_3x3")


@pytest.fixture(scope="module")
def coyote_circuit():
    benchmark = benchmark_by_name("dot_product_32")
    report = build_compiler("coyote").compile_expression(benchmark.expression(), name=benchmark.name)
    return benchmark, report.circuit


class TestIntegerSteps:
    @pytest.mark.parametrize("compiler", available_compilers())
    def test_every_compiler_emits_int_steps(self, compiler):
        built = build_compiler(compiler)
        for name in KERNELS:
            circuit = built.compile_expression(benchmark_by_name(name).expression(), name=name).circuit
            steps = {type(ins.step) for ins in circuit.instructions}
            assert steps == {int}, (name, steps)

    def test_coyote_circuit_survives_json_codec(self, coyote_circuit):
        _, circuit = coyote_circuit
        clone = circuit_from_record(json.loads(json.dumps(circuit_to_record(circuit))))
        assert clone.instructions == circuit.instructions
        assert clone.outputs == circuit.outputs
        assert program_fingerprint(clone) == program_fingerprint(circuit)

    def test_coyote_circuit_survives_job_store(self, tmp_path, coyote_circuit):
        benchmark, circuit = coyote_circuit
        job = Job(program=circuit, inputs=benchmark.sample_inputs(seed=0))
        JobStore(str(tmp_path)).append(job)
        replayed = JobStore(str(tmp_path)).replay()[job.id].program
        assert replayed.instructions == circuit.instructions
        assert program_fingerprint(replayed) == program_fingerprint(circuit)
