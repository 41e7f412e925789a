#!/usr/bin/env python3
"""One benchmark for the compiler and the server.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve-steady --seed 0 --seconds 20 --trace 0

Workloads (each run is one fresh process, so peak memory is per workload):

* ``compile-suite`` -- cold: agent training, then the paper's 46-kernel suite
  under ``chehab-rl`` and ``coyote``, tape compile and a verified vector-VM
  run (:mod:`compile_suite`; fixed work, ``--seconds`` does not apply);
* ``serve-steady`` -- open-loop Poisson traffic of ``default_mix()`` into a
  warm JobServer for ``--seconds`` (:mod:`serve`);
* ``serve-burst`` -- closed loop: five rounds of 1000 jobs submitted at once
  and drained (:mod:`serve`; fixed work).

``--trace 0`` measures the end-to-end metrics BENCHMARK.json names, with
tracing off: peak resident memory, and the set-up cost and user-mode CPU per
operation, both in processor seconds scaled to a reference machine speed by
an interleaved probe (``common.Meter``).  Every other number the run measured
-- latencies, throughput, compile times, the paper's ratios -- is printed one
per line with its unit and sample count, as measured.  ``--trace 1`` is the
separate traced run that reports the per-layer metrics; a layer the workload
never exercises reports 0.

The last line of standard output is the JSON result ``{"correct",
"attempted", "failed", "metrics"}`` holding exactly the metrics BENCHMARK.json
declares for the mode; ``failed / attempted`` is the failed share.  The seed
only shapes the generated inputs and arrival schedules; the program under
test receives those and nothing else.  Exit codes: 0 with a result, 1 on an
error, 3 for a run flagged invalid (the open-loop generator fell behind its
bound); the last two print no result line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from common import ROOT, InvalidRun, Result, Scratch

#: Seed a run uses when none is given.  Seed 7 is held out: it was not used
#: while tuning the benchmark and serves to re-check a claimed gain.
DEFAULT_SEED = 0
WORKLOADS = ("compile-suite", "serve-steady", "serve-burst")


def declared_metrics(trace: bool) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {entry["name"]: entry["unit"] for entry in spec["per_layer" if trace else "end_to_end"]}


def run_workload(name: str, seed: int, seconds: float, trace: bool, scratch: str) -> Result:
    if name == "compile-suite":
        import compile_suite

        return compile_suite.run(seed, trace)
    import serve

    return serve.run(name, seed, seconds, trace, scratch)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    declared = declared_metrics(bool(args.trace))
    sys.path.insert(0, os.path.join(ROOT, "src"))

    try:
        with Scratch() as scratch:
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), scratch)
    except InvalidRun as error:
        print(f"INVALID RUN: {error}", file=sys.stderr)
        return 3

    metrics = {}
    for name, unit in declared.items():
        if name in result.metrics:
            value, measured_unit = result.metrics[name]
            if measured_unit != unit:
                raise ValueError(f"{name} measured in {measured_unit}, declared in {unit}")
        elif args.trace:
            value = 0.0
            result.line(name, value, unit, "layer not exercised by this workload")
        else:
            raise ValueError(f"end-to-end metric {name} not measured on {args.workload}")
        metrics[name] = {"value": value, "unit": unit}

    result.line("failed_share", result.failed / max(result.attempted, 1), "share",
                f"failed {result.failed} of {result.attempted} attempted")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for line in result.report:
        print(line)
    for problem in result.problems[:20]:
        print(f"PROBLEM: {problem}")
    if len(result.problems) > 20:
        print(f"PROBLEM: ... and {len(result.problems) - 20} more")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
