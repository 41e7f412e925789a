"""The batched execution service with timer-augmented scheduling.

:class:`ExecutionService` is the execution-side counterpart of
:class:`~repro.service.service.CompilationService`: it wraps any registered
:class:`~repro.backends.base.ExecutionBackend` and schedules batches of
``(circuit, input sets)`` jobs across workers.

Scheduling weights follow the timer-augmented cost-function idea from the
load-balancing literature (McDoniel & Bientinesi): an analytical model gets
the first batch placed, but *measured* per-circuit execution times are
recorded (exponentially-weighted, keyed by circuit content hash and backend
``describe()`` string) and preferred over the model whenever a circuit has
run before.  Model estimates for still-unmeasured circuits are calibrated by
the observed measured/model ratio, so mixed batches keep comparable weights.
Jobs are then packed largest-first (LPT, the same
:func:`~repro.service.scheduler.partition_jobs` the compilation service
uses) so one deep circuit cannot serialize the whole batch.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.backends.base import program_fingerprint
from repro.backends.registry import BackendSpec, resolve_backend
from repro.compiler.circuit import CircuitProgram
from repro.compiler.executor import ExecutionReport, Value
from repro.fhe.latency import LatencyModel
from repro.fhe.params import BFVParameters
from repro.obs.trace import NULL_TRACER, Tracer
from repro.service.scheduler import makespan, partition_jobs

__all__ = ["ExecutionJob", "ExecutionRecord", "ExecutionBatchReport", "ExecutionService"]


@dataclass
class ExecutionJob:
    """One unit of execution work: a circuit plus one or more input sets."""

    program: CircuitProgram
    inputs: Sequence[Mapping[str, Value]]
    name: Optional[str] = None
    #: ``program_fingerprint(program)`` when the caller already holds it;
    #: None hashes the circuit once per :meth:`ExecutionService.run_jobs`.
    fingerprint: Optional[str] = None

    def label(self) -> str:
        return self.name or self.program.name


@dataclass
class ExecutionRecord:
    """Per-job accounting emitted by :meth:`ExecutionService.run_jobs`."""

    name: str
    #: Scheduling weight used for this job (milliseconds, per input set).
    estimate_ms: float
    #: ``"measured"`` when a recorded timer drove the weight, ``"model"``
    #: when the analytical latency model did.
    estimate_source: str
    wall_time_s: float = 0.0
    batch_size: int = 0
    worker: int = 0


@dataclass
class ExecutionBatchReport:
    """Aggregate result of one :meth:`ExecutionService.run_jobs` call."""

    backend: str
    records: List[ExecutionRecord] = field(default_factory=list)
    #: One report list per job, in input order.
    reports: List[List[ExecutionReport]] = field(default_factory=list)
    wall_time_s: float = 0.0
    workers: int = 1
    #: Estimated makespan of the schedule (sum of weights on the largest bin).
    planned_makespan_ms: float = 0.0

    @property
    def total_executions(self) -> int:
        return sum(record.batch_size for record in self.records)

    def as_dict(self) -> Dict[str, object]:
        return {
            "backend": self.backend,
            "jobs": len(self.records),
            "executions": self.total_executions,
            "workers": self.workers,
            "wall_time_s": self.wall_time_s,
            "planned_makespan_ms": self.planned_makespan_ms,
            "measured_estimates": sum(
                1 for record in self.records if record.estimate_source == "measured"
            ),
        }


class ExecutionService:
    """Batched, timer-augmented-scheduled execution on a named backend.

    Parameters
    ----------
    backend:
        Registry name (``"vector-vm"``), :class:`BackendSpec` or live backend
        object; None follows the ``REPRO_BACKEND``/``reference`` default.
    params:
        BFV parameters every execution runs under (defaults to the paper's).
    workers:
        Thread workers for :meth:`run_jobs`.  Execution is numpy-dominated,
        so threads overlap usefully; ``1`` keeps runs serial.
    smoothing:
        EWMA factor for measured execution times (1.0 = keep only the latest
        measurement).
    calibration_smoothing:
        EWMA factor for the measured/model calibration ratio.  The ratio is
        folded in only on a circuit's *first* measurement (re-measurements
        of an already-timed circuit say nothing new about the model), so on
        a long-running server it tracks the current timing regime instead of
        being dominated by stale early history the way a pair of unbounded
        running sums would be.
    max_measured:
        LRU capacity of the measured-time table.  A long-running server
        replays an unbounded stream of circuits through one service, so the
        table is bounded: beyond ``max_measured`` distinct circuits the
        least-recently-touched entry (read *or* updated) is evicted and that
        circuit falls back to the calibrated analytical model until it runs
        again.
    prefer_measured:
        When False the timer augmentation is switched off: every estimate
        comes from the *uncalibrated* analytical latency model, exactly the
        pre-McDoniel baseline.  Measurements are still recorded (the tables
        stay observable) but never drive a scheduling weight.  The ablation
        engine flips this to price the timer-augmented scheduler.
    tracer:
        Span collector for the ``schedule`` (estimate + LPT partition) and
        per-plan-entry ``execute`` stages of :meth:`run_jobs`.  Defaults to
        the disabled singleton: direct-path callers pay nothing.
    """

    def __init__(
        self,
        backend: Union[str, BackendSpec, object, None] = None,
        *,
        params: Optional[BFVParameters] = None,
        workers: int = 1,
        smoothing: float = 0.5,
        calibration_smoothing: float = 0.25,
        max_measured: int = 1024,
        prefer_measured: bool = True,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if not 0.0 < smoothing <= 1.0:
            raise ValueError("smoothing must be in (0, 1]")
        if not 0.0 < calibration_smoothing <= 1.0:
            raise ValueError("calibration_smoothing must be in (0, 1]")
        if max_measured < 1:
            raise ValueError("max_measured must be at least 1")
        self.backend, self.spec = resolve_backend(backend)
        self.backend_name = getattr(self.backend, "name", type(self.backend).__name__)
        self.params = params if params is not None else BFVParameters.default()
        self.workers = workers
        self.smoothing = smoothing
        self.calibration_smoothing = calibration_smoothing
        self.max_measured = max_measured
        self.prefer_measured = prefer_measured
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._latency_model = LatencyModel(self.params)
        #: Measured per-input-set wall seconds, EWMA per circuit, bounded LRU.
        self._measured: "OrderedDict[str, float]" = OrderedDict()  # guarded-by: _measured_lock
        self._measured_lock = threading.Lock()
        #: EWMA of the measured/model ratio, updated on first measurements
        #: only; None until the first circuit has been timed.
        self._calibration: Optional[float] = None  # guarded-by: _measured_lock

    # -- cache keys ---------------------------------------------------------
    def job_key(self, program: CircuitProgram, fingerprint: Optional[str] = None) -> str:
        """Measured-time key: backend ``describe()`` + circuit content hash.

        The backend spec's version-stamped description keys the execution
        side exactly the way compiler ``describe()`` strings key the
        compilation cache: timings never leak across backends, backend
        configurations or package versions.  Every method taking a
        ``fingerprint`` accepts ``program_fingerprint(program)`` from a
        caller that already holds it; None hashes the circuit.
        """
        prefix = self.spec.describe() if self.spec is not None else self.backend_name
        return f"{prefix}::{fingerprint or program_fingerprint(program)}"

    # -- estimates ----------------------------------------------------------
    def static_cost_ms(
        self, program: CircuitProgram, fingerprint: Optional[str] = None
    ) -> float:
        """Analytical scheduling cost of one input set, in milliseconds.

        Backends that run something other than the raw instruction list can
        expose ``scheduling_cost_ms(program, params, latency_model)`` — the
        tape-compiled vector VM scales the model by its fused-tape op ratio —
        and the service prices estimates and calibration against what the
        backend will actually execute.  Everything else falls back to the
        circuit's plain :meth:`~CircuitProgram.estimated_latency_ms`.
        """
        hook = getattr(self.backend, "scheduling_cost_ms", None)
        if hook is not None:
            return hook(program, self.params, self._latency_model, fingerprint=fingerprint)
        return program.estimated_latency_ms(self._latency_model)

    def estimate_ms(
        self, program: CircuitProgram, fingerprint: Optional[str] = None
    ) -> Tuple[float, str]:
        """Scheduling weight for one input set: ``(milliseconds, source)``.

        Prefers the recorded timer for circuits that have executed before;
        falls back to the analytical latency model, scaled by the observed
        measured/model calibration ratio so mixed batches stay comparable.
        With ``prefer_measured=False`` the raw analytical model answers
        unconditionally.
        """
        if not self.prefer_measured:
            return self.static_cost_ms(program, fingerprint), "model"
        fingerprint = fingerprint or program_fingerprint(program)
        key = self.job_key(program, fingerprint)
        with self._measured_lock:
            measured = self._measured.get(key)
            if measured is not None:
                self._measured.move_to_end(key)  # LRU touch
                return measured * 1000.0, "measured"
            calibration = self._calibration
        model_ms = self.static_cost_ms(program, fingerprint)
        if calibration is not None:
            return model_ms * calibration, "model"
        return model_ms, "model"

    def record_measurement(
        self,
        program: CircuitProgram,
        wall_time_s: float,
        batch_size: int,
        fingerprint: Optional[str] = None,
    ) -> None:
        """Fold a measured execution time into the scheduling state."""
        if batch_size <= 0:
            return
        per_item = wall_time_s / batch_size
        fingerprint = fingerprint or program_fingerprint(program)
        key = self.job_key(program, fingerprint)
        with self._measured_lock:
            first = key not in self._measured
        # Only a first measurement feeds the calibration, so only it needs
        # the model (priced outside the lock: it may compile a tape).
        model_ms = self.static_cost_ms(program, fingerprint) if first else 0.0
        with self._measured_lock:
            previous = self._measured.get(key)
            if previous is None:
                self._measured[key] = per_item
                # First measurement of this circuit: fold its measured/model
                # ratio into the calibration EWMA.  Re-measurements are
                # deliberately excluded — they carry no new information
                # about the *model*, and folding them in would let a few
                # hot circuits (or stale early history) dominate the ratio
                # on a long-running server.
                if model_ms > 0.0:
                    ratio = (per_item * 1000.0) / model_ms
                    if self._calibration is None:
                        self._calibration = ratio
                    else:
                        beta = self.calibration_smoothing
                        self._calibration = (
                            beta * ratio + (1.0 - beta) * self._calibration
                        )
            else:
                alpha = self.smoothing
                self._measured[key] = alpha * per_item + (1.0 - alpha) * previous
            self._measured.move_to_end(key)
            while len(self._measured) > self.max_measured:
                self._measured.popitem(last=False)

    @property
    def measured_circuits(self) -> int:
        """How many distinct circuits have recorded timers."""
        with self._measured_lock:
            return len(self._measured)

    # -- execution ----------------------------------------------------------
    def execute(
        self, program: CircuitProgram, inputs: Mapping[str, Value]
    ) -> ExecutionReport:
        """Execute one input set, recording its measured time."""
        start = time.perf_counter()
        report = self.backend.execute(program, inputs, params=self.params)
        self.record_measurement(program, time.perf_counter() - start, 1)
        return report

    def execute_many(
        self, program: CircuitProgram, inputs_list: Sequence[Mapping[str, Value]]
    ) -> List[ExecutionReport]:
        """Execute a batch of input sets, recording the measured time."""
        fingerprint = program_fingerprint(program)
        start = time.perf_counter()
        reports = self.backend.execute_many(
            program, list(inputs_list), params=self.params, fingerprint=fingerprint
        )
        if reports:
            self.record_measurement(
                program, time.perf_counter() - start, len(reports), fingerprint
            )
        return reports

    def run_jobs(
        self,
        jobs: Iterable[Union[ExecutionJob, Tuple[CircuitProgram, Sequence[Mapping[str, Value]]]]],
    ) -> ExecutionBatchReport:
        """Execute many circuits' batches under the timer-augmented schedule.

        Jobs may be :class:`ExecutionJob` or ``(program, inputs_list)``
        pairs.  Reports come back in input order regardless of schedule.
        """
        start = time.perf_counter()
        # Capture the caller's span context up front: plans may run on pool
        # threads whose thread-local span stacks are empty, so the per-plan
        # "execute" spans parent explicitly to whatever was open here (the
        # server's tick envelope) instead of rooting stray traces.
        context = self.tracer.current_span() if self.tracer.enabled else None
        trace_id = context.trace_id if context is not None else None
        parent_id = context.span_id if context is not None else None
        with self.tracer.span(
            "schedule", trace_id=trace_id, parent_id=parent_id
        ) as schedule_span:
            normalized = [self._normalize_job(job) for job in jobs]
            batch = ExecutionBatchReport(backend=self.backend_name, workers=self.workers)
            batch.reports = [[] for _ in normalized]
            weights: List[float] = []
            for job in normalized:
                estimate, source = self.estimate_ms(job.program, job.fingerprint)
                weight = estimate * max(len(job.inputs), 1)
                weights.append(weight)
                batch.records.append(
                    ExecutionRecord(
                        name=job.label(),
                        estimate_ms=estimate,
                        estimate_source=source,
                        batch_size=len(job.inputs),
                    )
                )

            plans = partition_jobs(weights, min(self.workers, max(len(normalized), 1)))
            batch.planned_makespan_ms = makespan(plans)
            schedule_span.set_attr("jobs", len(normalized))
            schedule_span.set_attr("planned_makespan_ms", batch.planned_makespan_ms)

        def run_plan(plan) -> None:
            for index in plan.job_indices:
                job = normalized[index]
                with self.tracer.span(
                    "execute",
                    trace_id=trace_id,
                    parent_id=parent_id,
                    attrs={
                        "backend": self.backend_name,
                        "batch": len(job.inputs),
                        "worker": plan.worker,
                        "name": job.label(),
                    },
                ):
                    job_start = time.perf_counter()
                    reports = self.backend.execute_many(
                        job.program,
                        list(job.inputs),
                        params=self.params,
                        fingerprint=job.fingerprint,
                    )
                    wall = time.perf_counter() - job_start
                if reports:
                    self.record_measurement(job.program, wall, len(reports), job.fingerprint)
                batch.reports[index] = reports
                batch.records[index].wall_time_s = wall
                batch.records[index].worker = plan.worker

        active = [plan for plan in plans if plan.job_indices]
        if self.workers > 1 and len(active) > 1:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=len(active)) as pool:
                list(pool.map(run_plan, active))
        else:
            for plan in active:
                run_plan(plan)

        batch.wall_time_s = time.perf_counter() - start
        return batch

    @staticmethod
    def _normalize_job(
        job: Union[ExecutionJob, Tuple[CircuitProgram, Sequence[Mapping[str, Value]]]]
    ) -> ExecutionJob:
        """An :class:`ExecutionJob` with its circuit fingerprint resolved."""
        if not isinstance(job, ExecutionJob):
            program, inputs = job
            job = ExecutionJob(program=program, inputs=list(inputs))
        if job.fingerprint is None:
            job = replace(job, fingerprint=program_fingerprint(job.program))
        return job
