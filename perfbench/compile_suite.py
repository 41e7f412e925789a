"""``compile-suite``: the paper's own evaluation, cold.

A fresh process with empty caches trains the seed-0 CHEHAB RL agent, then
compiles the 46-kernel suite (``kernels.registry.benchmark_suite()``) with
``chehab-rl`` and with ``coyote``.  Each circuit is tape-compiled, run once on
the vector VM over a small seeded batch of inputs and checked slot for slot
against the plaintext ``reference_output``.  The server is never touched.

Set-up is agent training, done :data:`SETUP_REPEATS` times; ``setup_s`` is
the median of its speed-normalized user CPU seconds.  Seed-0 training is
deterministic, so the trained policies must be identical, and so must the
simulated FHE latency and noise geomeans of the ``chehab-rl`` code: they are
checked against the values the first run of the same sources recorded.

The gated cost is speed-normalized user-mode CPU per source-to-tape compile
(:class:`common.Meter`); wall times are printed as measured.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import time
from typing import Dict, List

import numpy as np

from common import ROOT, SCRATCH_ROOT, Meter, Result, geomean, peak_rss_mb, percentile, tail_quantile

#: Agent trainings per run; the reported ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Input sets per kernel in the verified vector-VM run.
BATCH = 4
COMPILERS = ("chehab-rl", "coyote")
#: Pipeline stages reported per compiler (``CompilationReport.trace``).
RL_STAGES = ("constant-fold", "optimize", "lower", "dce", "rotation-keys")


def _train(tracer) -> Dict[str, np.ndarray]:
    """Train the seed-0 agent from scratch and return its weights.  The
    harness memoizes agents per configuration, so the memo is cleared first;
    the last trained agent stays memoized for the ``chehab-rl`` compiler."""
    from repro.experiments import harness

    harness._cached_agent.cache_clear()
    with tracer.span("rl.train"):
        agent = harness.make_default_agent()
    return {name: p.data.copy() for name, p in agent.policy.named_parameters()}


def _same_weights(a: Dict[str, np.ndarray], b: Dict[str, np.ndarray]) -> bool:
    return a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)


def _source_digest() -> str:
    """Content hash of the program's sources: records are per program version."""
    digest = hashlib.sha256()
    for directory, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def _check_recorded(result: Result, observed: Dict[str, float]) -> None:
    """Compare with the values the first run of these sources recorded."""
    path = os.path.join(SCRATCH_ROOT, f"compile-suite-{_source_digest()}.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            recorded = json.load(handle)
        if recorded != observed:
            result.problem(f"chehab-rl geomeans {observed} differ from the recorded {recorded}")
        return
    os.makedirs(SCRATCH_ROOT, exist_ok=True)
    with open(path + ".tmp", "w", encoding="utf-8") as handle:
        json.dump(observed, handle)
    os.replace(path + ".tmp", path)  # a concurrent run never reads half a file


def run(seed: int, trace: bool) -> Result:
    """One cold run of the suite (fixed work, so no run length applies)."""
    from repro.api import derive_batch_seeds
    from repro.backends.tapeopt import get_compiled_tape
    from repro.compiler.executor import declared_outputs, execute_many, reference_output
    from repro.fhe.params import BFVParameters
    from repro.ir.evaluate import output_arity
    from repro.kernels.registry import benchmark_suite
    from repro.obs.export import stage_rollup
    from repro.obs.trace import NULL_TRACER, Tracer
    from repro.service import CompilationCache, CompilationService

    result = Result()
    tracer = Tracer(capacity=1 << 16) if trace else NULL_TRACER

    setup = Meter()
    weights = []
    for _ in range(SETUP_REPEATS):
        with setup:
            weights.append(_train(tracer))
    if not all(_same_weights(weights[0], other) for other in weights[1:]):
        result.problem("seed-0 agent training is not deterministic")
    train_s = statistics.median(setup.users)
    tracer.clear()  # the rollup window below is the compile phase alone

    params = BFVParameters.default()
    suite = benchmark_suite()
    cache = CompilationCache()
    meter = Meter()
    #: Per-kernel source-to-tape wall seconds, as measured.
    compile_s: Dict[str, List[float]] = {name: [] for name in COMPILERS}
    fhe_ms: Dict[str, List[float]] = {name: [] for name in COMPILERS}
    noise_bits: Dict[str, List[float]] = {name: [] for name in COMPILERS}
    stage_s: Dict[str, Dict[str, float]] = {name: {} for name in COMPILERS}
    counts = {"tape_ops": 0, "fused_ops": 0, "arena_slots": 0}
    rl_stats = {"ops_total": 0, "rotations": 0, "ct_ct_mults": 0, "mult_depth_max": 0}
    rewrite_steps = 0
    #: Kernels whose simulated noise budget ran out (their slot outputs
    #: still match, so they are reported, not failed).
    exhausted = {name: 0 for name in COMPILERS}
    verify_s: List[float] = []
    window_start = time.perf_counter()
    for compiler in COMPILERS:
        service = CompilationService(compiler, cache=cache)
        for index, benchmark in enumerate(suite):
            expr = benchmark.expression()
            result.attempted += 1
            with meter:
                with tracer.span(f"compile.{compiler}"):
                    report = service.compile_expression(expr, name=benchmark.name)
                with tracer.span("backends.tape_compile"):
                    tape = get_compiled_tape(report.circuit, params)
            compile_s[compiler].append(meter.last_raw_wall)

            seeds = derive_batch_seeds(seed * 1000 + index, BATCH)
            inputs = [benchmark.sample_inputs(s) for s in seeds]
            with tracer.span("backends.execute"):
                executions = execute_many(report.circuit, inputs, params, backend="vector-vm")
            slot_count = max(64, output_arity(expr) + 8)
            mismatches = 0
            for item, execution in zip(inputs, executions):
                t0 = time.perf_counter()
                with tracer.span("compiler.verify"):
                    expected = reference_output(
                        expr, item, slot_count=slot_count, plain_modulus=params.plain_modulus
                    )
                verify_s.append(time.perf_counter() - t0)
                if declared_outputs(report.circuit, execution.outputs) != expected:
                    mismatches += 1
            if mismatches:
                result.failed += 1
                result.problem(f"{compiler} {benchmark.name}: {mismatches} wrong outputs")
            exhausted[compiler] += executions[0].noise_budget_exhausted
            fhe_ms[compiler].append(executions[0].latency_ms)
            noise_bits[compiler].append(executions[0].consumed_noise_budget)

            for stage in report.trace.stages if report.trace else ():
                totals = stage_s[compiler]
                totals[stage.name] = totals.get(stage.name, 0.0) + stage.wall_time_s
            counts["tape_ops"] += int(tape.stats["tape_ops"])
            counts["fused_ops"] += int(tape.stats["fused_total"])
            counts["arena_slots"] += int(tape.stats["arena_slots"])
            if compiler == "chehab-rl":
                stats = report.stats
                rl_stats["ops_total"] += stats.total_operations
                rl_stats["rotations"] += stats.rotations
                rl_stats["ct_ct_mults"] += stats.ct_ct_multiplications
                rl_stats["mult_depth_max"] = max(rl_stats["mult_depth_max"], stats.mult_depth)
                rewrite_steps += len(report.rewrite_steps)
    window_s = time.perf_counter() - window_start

    rl = compile_s["chehab-rl"]
    coyote = compile_s["coyote"]
    kernels = len(suite)
    compiles = kernels * len(COMPILERS)
    tail = tail_quantile(kernels)
    rl_latency = geomean(fhe_ms["chehab-rl"])
    rl_noise = geomean(noise_bits["chehab-rl"])
    _check_recorded(result, {"rl_fhe_latency_geomean_ms": rl_latency,
                             "rl_noise_geomean_bits": rl_noise})

    # The gate's end-to-end metrics.
    result.put("setup_s", train_s, "s",
               f"user CPU, median of {SETUP_REPEATS} agent trainings, speed-normalized, "
               f"last wall {setup.last_raw_wall:.3f} s")
    result.put("peak_rss_mb", peak_rss_mb(), "MB", "ru_maxrss of this process")
    result.put("cpu_ms_per_op", meter.user / compiles * 1e3, "ms",
               f"user CPU per source-to-tape compile, speed-normalized, n={compiles}")
    # The workload's own end-to-end numbers, as measured.
    result.line("rl_compile_s", sum(rl), "s", f"source to executable tape, n={kernels}")
    result.line("rl_compile_p50_ms", percentile(rl, 0.5) * 1e3, "ms", f"n={kernels}")
    result.line(f"rl_compile_p{round(tail * 100)}_ms", percentile(rl, tail) * 1e3, "ms",
                f"n={kernels}")
    result.line("coyote_compile_s", sum(coyote), "s", f"n={kernels}")
    result.line("rl_fhe_latency_geomean_ms", rl_latency, "ms", f"simulated, n={kernels}")
    result.line("rl_noise_geomean_bits", rl_noise, "bits", f"n={kernels}")
    result.line("cpu_system_ms_per_op", meter.system / compiles * 1e3, "ms", "as measured")

    # Per-layer metrics.
    result.put("rl.train_s", train_s, "s", "as setup_s")
    result.put("trs.rewrite_steps", rewrite_steps, "count")
    for name in RL_STAGES:
        result.put(f"compiler.{name}_s", stage_s["chehab-rl"].get(name, 0.0), "s")
    for name, total in sorted(stage_s["coyote"].items()):
        result.put(f"baselines.coyote.{name}_s", total, "s")
    for name, value in rl_stats.items():
        result.put(f"compiler.{name}", value, "count")
    result.put("compiler.verify_ms_per_job", statistics.fmean(verify_s) * 1e3, "ms",
               f"n={len(verify_s)}")
    for name, value in counts.items():
        result.put(f"backends.{name}", value, "count")
    for name, count in exhausted.items():
        result.line(f"{name}.noise_exhausted_kernels", count, "count")
    result.put("service.cache_hits", cache.stats.hits, "count")
    result.put("service.cache_misses", cache.stats.misses, "count")
    result.put("paper.speedup_vs_coyote",
               geomean([c / r for c, r in zip(fhe_ms["coyote"], fhe_ms["chehab-rl"])]), "x",
               "simulated FHE latency, paper: 5.3x")
    result.put("paper.noise_ratio_vs_coyote",
               geomean([c / r for c, r in zip(noise_bits["coyote"], noise_bits["chehab-rl"])]),
               "x", "consumed noise budget, paper: 2.54x")
    result.put("paper.compile_ratio_vs_coyote",
               geomean([c / r for c, r in zip(coyote, rl)]), "x", "paper: 27.9x")
    train_wall_s = setup.raw_wall / SETUP_REPEATS
    result.line("paper.compile_ratio_with_training", sum(coyote) / (sum(rl) + train_wall_s),
                "x", f"suite wall sums, chehab-rl plus a {train_wall_s:.2f} s training")
    if trace:
        rollup = stage_rollup(tracer.spans(), window_s=window_s)
        by_stage = {row["stage"]: row for row in rollup["stages"]}
        result.put("backends.tape_compile_s", by_stage["backends.tape_compile"]["self_s"], "s")
        result.put("backends.execute.self_s", by_stage["backends.execute"]["self_s"], "s")
        result.put("bench.trace_dropped_spans", tracer.stats()["dropped"], "count")
        result.put("bench.trace_coverage", rollup["coverage"], "share",
                   f"of the {window_s:.2f} s compile window")
    return result
