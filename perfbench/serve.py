"""``serve-steady`` and ``serve-burst``: the JobServer under the traffic mix.

Both workloads run ``workloads.traffic.default_mix()`` through a warm
JobServer over a persistent state directory in a fresh scratch directory,
from one process with at most two threads: the load generator and the
server's loop (``workers=1``, ``compile_workers=1``).

* ``serve-steady`` is open loop: Poisson arrivals at :data:`RATE` jobs/s for
  ``--seconds``, in :data:`SEGMENTS` segments that each end once their jobs
  are done; each job is timed from when it was due to its terminal state.
  Batches stay tiny, so per-job serving overhead dominates.
* ``serve-burst`` is closed loop with one batch client: :data:`ROUNDS` rounds
  each submit :data:`BURST_JOBS` jobs at once and drain them.  Coalescing
  forms one large batch per circuit, so execution dominates, and every new
  batch size parks arenas in the tape pool.

Set-up (emptying the process-wide tape memo, server construction and a
verified warm-up job per mix circuit) is repeated :data:`SETUP_REPEATS`
times; ``setup_s`` is the median of its speed-normalized user CPU seconds.  Every job's payload must be ``correct``
and its outputs must match the workload oracle; failed, shed, timed-out and
wrong jobs all count as failed.

The gated cost is speed-normalized user-mode CPU of the process per job
(:class:`common.Meter`, probed between steady segments and burst phases while
the server is idle); latencies and throughput are printed as measured.

The traced run (``--trace 1``) measures the phase untraced first, then again
on a second warm server whose injected Tracer keeps every span, and reports
the per-layer numbers from ``obs.export.stage_rollup``.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import Dict, List, Optional, Tuple

from common import InvalidRun, Meter, Result, peak_rss_mb, percentile, tail_quantile

#: Offered load of ``serve-steady``: about half of what the server sustains
#: one job at a time on a 2-core box, so latency shows service, not overload.
RATE = 150.0
SEGMENTS = 10
BURST_JOBS = 1000
ROUNDS = 5
SETUP_REPEATS = 3
#: A steady run whose generator submitted its p99 job later than this after
#: it was due did not offer the intended load, and is not scored.
LATE_BOUND_MS = 250.0
#: Per-job wait bound after the arrivals end.
RESULT_TIMEOUT_S = 60.0
#: Jobs whose plaintext verification is re-timed in the traced run.
VERIFY_SAMPLE = 1000
#: Tracer ring size: large enough that the traced run drops no span.
TRACE_CAPACITY = 1 << 20
STAGES = ("submit", "persist", "poll_store", "queue_drain", "coalesce", "schedule",
          "backend_compile", "execute", "commit_result")


def _job(arrival):
    from repro.server import Job

    return Job(
        source=arrival.workload.source,
        compiler=arrival.compiler,
        backend=arrival.backend,
        seed=arrival.seed,
        input_range=arrival.workload.input_range,
        priority=arrival.entry.priority,
        name=f"{arrival.workload.name}/{arrival.index}",
    )


class Measured:
    """What the measured phase of one server produced."""

    def __init__(self, meter: Optional[Meter] = None) -> None:
        #: Per-job seconds from due time (round start) to terminal state.
        self.latencies: List[float] = []
        #: Seconds of each submit() call, and open-loop generator lateness.
        self.submit: List[float] = []
        self.late: List[float] = []
        #: Times the measured phase, segment by segment (round phase by phase).
        self.meter = meter
        self.good = 0
        self.arrivals: List[object] = []

    def add(self, server, arrivals, job_ids, origins, result: Result) -> None:
        """Check and count one batch of finished jobs."""
        from repro.server.jobs import JobState

        self.arrivals.extend(arrivals)
        for arrival, job_id, origin in zip(arrivals, job_ids, origins):
            result.attempted += 1
            job = server.get(job_id)
            if job.status is not JobState.COMPLETED:
                result.failed += 1
                result.problem(f"{job.name} ended {job.status.value}: {job.error}")
                continue
            self.latencies.append(job.finished_at - origin)
            payload = job.result or {}
            outputs = payload.get("outputs") or [[]]
            expected = arrival.workload.expected(arrival.inputs())
            if not payload.get("correct", False) or list(outputs[0]) != list(expected):
                result.failed += 1
                result.problem(f"{job.name} wrong output {outputs[0]} != {expected}")
                continue
            self.good += 1


class Bench:
    """One warm server plus the traffic it is driven with."""

    def __init__(self, state_dir: str, tracer=None) -> None:
        from repro.backends.tapeopt import reset_tape_cache
        from repro.server import JobServer
        from repro.workloads.traffic import default_mix, generate_schedule

        # Tapes (and the arenas their pools hold) are process-wide: start
        # each server from an empty memo, as a fresh process would.
        reset_tape_cache()
        self.mix = default_mix()
        self.server = JobServer(state_dir, workers=1, compile_workers=1, tracer=tracer)
        # Warm-up: one verified job per mix circuit compiles every circuit
        # into the server's memo and the tape memo.
        warm = [generate_schedule([entry], 1, seed=10_000)[0] for entry in self.mix]
        ids = [self.server.submit(_job(arrival)) for arrival in warm]
        self.server.drain()
        check = Result()
        Measured().add(self.server, warm, ids, [0.0] * len(warm), check)
        if not check.correct:
            raise RuntimeError(f"warm-up failed: {check.problems}")

    def counters(self) -> Dict[str, float]:
        return dict(self.server.telemetry.snapshot()["counters"])

    def close(self) -> None:
        self.server.close()

    def steady(self, seed: int, seconds: float, result: Result) -> Measured:
        """Open-loop Poisson arrivals for ``seconds`` in :data:`SEGMENTS`
        segments; the meter probes between them, once every job is done."""
        from repro.api import derive_batch_seeds
        from repro.workloads.traffic import generate_schedule

        per_segment = max(1, round(RATE * seconds / SEGMENTS))
        out = Measured(Meter())
        server = self.server
        server.start()
        try:
            for segment_seed in derive_batch_seeds(seed, SEGMENTS):
                schedule = generate_schedule(self.mix, per_segment, seed=segment_seed, rate=RATE)
                job_ids: List[str] = []
                with out.meter:
                    start_wall = time.time()
                    start = time.perf_counter()
                    for arrival in schedule:
                        due = start + arrival.at_s
                        lag = due - time.perf_counter()
                        if lag > 0.0:
                            time.sleep(lag)
                        job = _job(arrival)
                        t0 = time.perf_counter()
                        job_ids.append(server.submit(job))
                        out.submit.append(time.perf_counter() - t0)
                        out.late.append(t0 - due)
                    for job_id in job_ids:
                        try:
                            server.result(job_id, wait=True, timeout=RESULT_TIMEOUT_S)
                        except (RuntimeError, TimeoutError):
                            pass  # counted as failed below
                origins = [start_wall + arrival.at_s for arrival in schedule]
                out.add(server, schedule, job_ids, origins, result)
        finally:
            server.stop()
        return out

    def burst(self, seed: int, result: Result) -> Measured:
        """Closed loop: each round submits a burst and drains it; latency
        runs from the round's start."""
        from repro.api import derive_batch_seeds
        from repro.workloads.traffic import generate_schedule

        out = Measured(Meter())
        server = self.server
        for round_seed in derive_batch_seeds(seed, ROUNDS):
            schedule = generate_schedule(self.mix, BURST_JOBS, seed=round_seed)
            job_ids = []
            start_wall = time.time()
            with out.meter:
                for arrival in schedule:
                    job = _job(arrival)
                    t0 = time.perf_counter()
                    job_ids.append(server.submit(job))
                    out.submit.append(time.perf_counter() - t0)
            with out.meter:
                server.drain()
            out.add(server, schedule, job_ids, [start_wall] * len(schedule), result)
        return out


def _setup(scratch: str) -> Tuple[Bench, Meter]:
    """Build the warm server :data:`SETUP_REPEATS` times and keep the last;
    returns it with its meter, whose per-set-up CPU seconds give ``setup_s``."""
    meter = Meter()
    bench: Optional[Bench] = None
    for index in range(SETUP_REPEATS):
        if bench is not None:
            bench.close()
        with meter:
            bench = Bench(os.path.join(scratch, f"state-{index}"))
    return bench, meter


def _pooled_arenas(bench: Bench) -> int:
    """Arenas parked in the tape pools of every mix circuit."""
    from repro import api
    from repro.backends.tapeopt import get_compiled_tape
    from repro.workloads.registry import build_workload

    total = 0
    for entry in bench.mix:
        workload = build_workload(entry.workload, **dict(entry.options))
        report = api.compile(workload.source, entry.compiler or workload.compiler,
                             cache=bench.server.cache)
        total += get_compiled_tape(report.circuit, bench.server.params).pooled_arenas()
    return total


def run(name: str, seed: int, seconds: float, trace: bool, scratch: str) -> Result:
    result = Result()
    bench, setup = _setup(scratch)
    steady = name == "serve-steady"
    before = bench.counters()
    measured = bench.steady(seed, seconds, result) if steady else bench.burst(seed, result)
    after = bench.counters()
    jobs = len(measured.arrivals)
    meter = measured.meter
    result.put("setup_s", statistics.median(setup.users), "s",
               f"user CPU, median of {SETUP_REPEATS} set-ups, speed-normalized, "
               f"last wall {setup.last_raw_wall:.3f} s")
    result.put("peak_rss_mb", peak_rss_mb(), "MB", "ru_maxrss of this process")
    result.put("cpu_ms_per_op", meter.user / jobs * 1e3, "ms",
               f"user CPU of the process per job, speed-normalized, n={jobs}")
    result.line("cpu_system_ms_per_op", meter.system / jobs * 1e3, "ms", "as measured")
    count = len(measured.latencies)
    tail = tail_quantile(count)
    origin = "due time" if steady else "round start"
    result.line("latency_p50_ms", percentile(measured.latencies, 0.5) * 1e3, "ms",
                f"{origin} to terminal, n={count}")
    result.line(f"latency_p{round(tail * 100)}_ms", percentile(measured.latencies, tail) * 1e3,
                "ms", f"n={count}")
    result.line("throughput_jobs_per_s", measured.good / meter.raw_wall, "1/s",
                f"correct completions over {meter.raw_wall:.2f} s"
                + (f", offered {RATE:g}/s" if steady else " of submits and drains"))
    submit_us = [s * 1e6 for s in measured.submit]
    result.put("server.submit_call_p50_us", percentile(submit_us, 0.5), "us")
    result.put("server.submit_call_p99_us", percentile(submit_us, 0.99), "us",
               f"n={len(submit_us)}")
    if steady:
        late_p99 = percentile(measured.late, 0.99) * 1e3
        result.put("bench.generator_late_p99_ms", late_p99, "ms", f"bound {LATE_BOUND_MS:g} ms")
        if late_p99 > LATE_BOUND_MS:
            raise InvalidRun(f"generator p99 lateness {late_p99:.1f} ms exceeds "
                             f"{LATE_BOUND_MS:g} ms: the offered load was not delivered")
    else:
        result.put("backends.pooled_arenas", _pooled_arenas(bench), "count",
                   "after the last round")
    hits = after.get("circuit_memo_hits", 0) - before.get("circuit_memo_hits", 0)
    misses = after.get("circuit_memo_misses", 0) - before.get("circuit_memo_misses", 0)
    batches = after.get("batches_total", 0) - before.get("batches_total", 0)
    result.put("server.batch_jobs_mean", jobs / batches, "jobs", f"{batches:g} batches")
    result.put("server.circuit_memo_hit_ratio", hits / max(hits + misses, 1), "share")
    bench.close()
    if trace:
        _traced(name, seed, seconds, scratch, measured, result)
    return result


def _traced(name: str, seed: int, seconds: float, scratch: str, untraced: Measured,
            result: Result) -> None:
    """The same phase on a fresh warm server whose tracer keeps every span."""
    from repro.obs.export import stage_rollup
    from repro.obs.trace import Tracer

    tracer = Tracer(capacity=TRACE_CAPACITY)
    bench = Bench(os.path.join(scratch, "state-traced"), tracer=tracer)
    tracer.clear()
    steady = name == "serve-steady"
    measured = bench.steady(seed, seconds, result) if steady else bench.burst(seed, result)
    bench.close()
    spans = tracer.spans()
    window_s = measured.meter.raw_wall
    rollup = stage_rollup(spans, window_s=window_s)
    rows = {row["stage"]: row for row in rollup["stages"]}
    for stage in STAGES:
        row = rows.get(stage, {"self_s": 0.0, "share": 0.0})
        result.put(f"server.{stage}.self_s", row["self_s"], "s")
        result.put(f"server.{stage}.share", row["share"], "share")
    result.put("backends.execute.self_s", rows.get("execute", {"self_s": 0.0})["self_s"], "s")
    waits = {row["stage"]: row for row in stage_rollup(spans, cats=("job",))["stages"]}
    result.put("server.queue_wait_p50_ms", waits["queue_wait"]["p50_s"] * 1e3, "ms")
    result.put("obs.tracing_overhead_share", measured.meter.user / untraced.meter.user - 1.0,
               "share", "extra speed-normalized user CPU of the traced run")
    verify_s = []
    for arrival in measured.arrivals[:VERIFY_SAMPLE]:
        inputs = arrival.inputs()
        t0 = time.perf_counter()
        arrival.workload.reference(inputs)
        verify_s.append(time.perf_counter() - t0)
    result.put("compiler.verify_ms_per_job", statistics.fmean(verify_s) * 1e3, "ms",
               f"reference_output as the server calls it, n={len(verify_s)}")
    result.put("bench.trace_dropped_spans", tracer.stats()["dropped"], "count",
               f"{len(spans)} spans kept")
    result.put("bench.trace_coverage", rollup["coverage"], "share",
               f"named stages over the {window_s:.2f} s traced window")
