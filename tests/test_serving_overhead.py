"""Per-job serving overhead guards for the persistent JobServer.

The serving loop's fixed cost per job is bookkeeping, not FHE work, so it
creeps back silently.  These tests pin it with counts instead of timings:

* the serving loop writes ``metrics.json`` at most once per
  ``poll_interval`` and a final, exact snapshot when it stops;
* ``program_fingerprint`` runs once per distinct circuit (the server's
  circuit memo threads it through coalescing, scheduling and the tape
  memo), not once per job or per layer;
* a one-job tick costs a bounded number of file opens.
"""

from __future__ import annotations

import builtins
import os
import threading
import time

import repro.backends.tapeopt as tapeopt_module
import repro.server.coalescer as coalescer_module
import repro.server.server as server_module
import repro.service.execution as execution_module
from repro.backends.base import program_fingerprint
from repro.fhe.params import BFVParameters
from repro.obs.console import read_snapshot
from repro.server import Job, JobServer

PARAMS = BFVParameters.default(1024)
SOURCES = ("(* (+ a b) (+ c d))", "(+ (* a b) c)")
#: One-job ticks driven through the serving loop by the budget guard.
TICKS = 200
#: File opens one job may cost: the submit append (log + generation file),
#: the tick's store poll (log + generation file) and commit append (log +
#: generation file), plus a share of the throttled snapshot.
OPENS_PER_JOB = 7


def _counting(monkeypatch, module, name, counter):
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        with counter["lock"]:
            counter["calls"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def _counter():
    return {"calls": 0, "lock": threading.Lock()}


def _server(tmp_path, poll_interval):
    return JobServer(
        str(tmp_path), backend="vector-vm", params=PARAMS, poll_interval=poll_interval
    )


def _record_snapshots(monkeypatch, server):
    """Wrap the registry's writer; returns the list of written sequences."""
    sequences = []
    original = server.telemetry.write_snapshot

    def write(path):
        payload = original(path)
        sequences.append(payload["meta"]["sequence"])
        return payload

    monkeypatch.setattr(server.telemetry, "write_snapshot", write)
    return sequences


def test_stop_leaves_exact_snapshot_with_increasing_sequence(tmp_path, monkeypatch):
    server = _server(tmp_path, poll_interval=0.02)
    sequences = _record_snapshots(monkeypatch, server)
    server.start()
    jobs = 40
    ids = [server.submit(Job(source=SOURCES[i % 2], seed=i)) for i in range(jobs)]
    for job_id in ids:
        server.result(job_id, wait=True, timeout=60)
    server.stop()
    snapshot = read_snapshot(server.store.metrics_path)
    assert snapshot["counters"]["jobs_completed"] == jobs
    assert snapshot["meta"]["sequence"] == sequences[-1]
    server.close()
    assert sequences == sorted(set(sequences))  # strictly increasing
    assert read_snapshot(server.store.metrics_path)["meta"]["sequence"] == sequences[-1]


def test_one_job_ticks_stay_inside_the_bookkeeping_budget(tmp_path, monkeypatch):
    poll_interval = 0.5
    server = _server(tmp_path, poll_interval=poll_interval)
    sequences = _record_snapshots(monkeypatch, server)
    ticks = _counter()
    original_tick = server.tick

    def tick(timeout=0.0):
        processed = original_tick(timeout=timeout)
        if processed:
            with ticks["lock"]:
                ticks["calls"] += 1
        return processed

    monkeypatch.setattr(server, "tick", tick)
    fingerprints = _counter()
    for module in (server_module, coalescer_module, execution_module, tapeopt_module):
        _counting(monkeypatch, module, "program_fingerprint", fingerprints)
    opens = _counter()

    server.start()
    try:
        start = time.monotonic()
        for index in range(TICKS):
            if index == len(SOURCES):
                # Every circuit is compiled and its tape memoized: count the
                # steady state only.
                _counting(monkeypatch, builtins, "open", opens)
                _counting(monkeypatch, os, "open", opens)
            job_id = server.submit(Job(source=SOURCES[index % len(SOURCES)], seed=index))
            assert server.result(job_id, wait=True, timeout=60)["correct"]
        elapsed = time.monotonic() - start
    finally:
        server.stop()
    monkeypatch.undo()

    assert ticks["calls"] == TICKS  # one job per tick
    assert fingerprints["calls"] == len(SOURCES)  # once per distinct circuit
    assert len(sequences) <= 2 + elapsed / poll_interval
    assert len(sequences) <= TICKS // 4
    steady_jobs = TICKS - len(SOURCES)
    assert opens["calls"] <= OPENS_PER_JOB * steady_jobs, opens["calls"] / steady_jobs
    # The fingerprint the memo threads through equals a fresh hash.
    memo = list(server._circuit_memo.values())
    assert len(memo) == len(SOURCES)
    for circuit, _, _, fingerprint in memo:
        assert fingerprint == program_fingerprint(circuit)
    server.close()


def test_serve_loop_snapshot_flushes_span_sink(tmp_path):
    """Each serve-loop snapshot flushes ``traces.jsonl`` too, so the span
    file keeps up with ``metrics.json`` while the server is still running."""
    poll_interval = 0.01
    server = JobServer(
        str(tmp_path), backend="vector-vm", params=PARAMS,
        poll_interval=poll_interval, tracing=True,
    ).start()
    try:
        job_id = server.submit(Job(source=SOURCES[0], seed=1))
        server.result(job_id, wait=True, timeout=60)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if os.path.exists(server.store.trace_path) and os.path.getsize(
                server.store.trace_path
            ):
                break
            time.sleep(poll_interval)
        assert os.path.getsize(server.store.trace_path) > 0
    finally:
        server.close()
