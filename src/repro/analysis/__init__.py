"""Static analysis of the compilation stack: checkers, findings, reports.

The repo rewrites circuits aggressively — TRS rewrites and pipeline stages on
the expression side, then :mod:`repro.backends.tapeopt`'s CSE/fusion/register
arena passes on the backend side — and runs the result inside a multithreaded
server.  This package is the correctness tooling that *checks* those
transformations statically instead of relying on end-to-end output parity
alone:

* :mod:`repro.analysis.tape_check` — verifies every optimized
  :class:`~repro.backends.tape.CompiledTape` against its source circuit:
  register-arena safety (def-before-use, no-alias constraints, no writes to
  the constant pool), output coverage, reduction-schedule soundness via an
  independent interval analysis, fusion legality and full symbolic
  translation validation of every output.
* :mod:`repro.analysis.pipeline_check` — structural invariants on the
  expression/circuit after every :class:`~repro.compiler.framework.PassPipeline`
  stage, recorded per stage so a failing *stage* is named.
* :mod:`repro.analysis.lint` — an AST lint over ``src/repro`` enforcing the
  project's concurrency and determinism rules (``# guarded-by:`` lock
  discipline, no wall clock / unseeded RNG in deterministic paths, no bare
  ``except:`` or mutable default arguments).
* :mod:`repro.analysis.mutate` — a seeded mutation harness injecting known
  defect classes into compiled tapes and asserting the verifier catches
  them: the verifier's own test oracle.

Everything reports through one machine-readable model: checkers emit
:class:`Finding` objects (severity, rule id, location, details) collected
into an :class:`AnalysisReport`; ``repro analyze`` / ``repro lint`` render
the same reports on the CLI and exit non-zero on any ERROR.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

__all__ = [
    "Severity",
    "Finding",
    "AnalysisReport",
]


class Severity(enum.Enum):
    """How bad a finding is; ERROR findings gate CI and CLI exit codes."""

    INFO = "info"
    WARNING = "warning"
    ERROR = "error"

    @property
    def rank(self) -> int:
        return {"info": 0, "warning": 1, "error": 2}[self.value]


@dataclass(frozen=True)
class Finding:
    """One issue reported by a checker.

    ``checker`` names the analyzer family (``tape-arena``, ``lint``),
    ``rule`` the specific invariant that failed (``read-after-free``,
    ``guarded-by``), and ``location`` points at the offending site — a tape
    op index, a pipeline stage, or a ``path:line``.
    """

    checker: str
    rule: str
    severity: Severity
    message: str
    location: str = ""
    details: Tuple[Tuple[str, object], ...] = ()

    def as_dict(self) -> Dict[str, object]:
        return {
            "checker": self.checker,
            "rule": self.rule,
            "severity": self.severity.value,
            "message": self.message,
            "location": self.location,
            "details": dict(self.details),
        }

    def render(self) -> str:
        prefix = f"{self.location}: " if self.location else ""
        return (
            f"[{self.severity.value.upper()}] {prefix}{self.message} "
            f"({self.checker}/{self.rule})"
        )


@dataclass
class AnalysisReport:
    """The machine-readable outcome of one analysis run."""

    findings: List[Finding] = field(default_factory=list)
    #: Names of the checkers that actually ran (empty findings then mean
    #: "checked and clean", not "never checked").
    checkers_run: List[str] = field(default_factory=list)

    def add(
        self,
        checker: str,
        rule: str,
        severity: Severity,
        message: str,
        *,
        location: str = "",
        **details: object,
    ) -> Finding:
        finding = Finding(
            checker=checker,
            rule=rule,
            severity=severity,
            message=message,
            location=location,
            details=tuple(sorted(details.items())),
        )
        self.findings.append(finding)
        return finding

    def mark_ran(self, checker: str) -> None:
        if checker not in self.checkers_run:
            self.checkers_run.append(checker)

    def merge(self, other: "AnalysisReport") -> "AnalysisReport":
        self.findings.extend(other.findings)
        for checker in other.checkers_run:
            self.mark_ran(checker)
        return self

    # -- queries -------------------------------------------------------------
    def by_severity(self, severity: Severity) -> List[Finding]:
        return [f for f in self.findings if f.severity is severity]

    @property
    def errors(self) -> int:
        return len(self.by_severity(Severity.ERROR))

    @property
    def warnings(self) -> int:
        return len(self.by_severity(Severity.WARNING))

    @property
    def ok(self) -> bool:
        """True when no ERROR-severity finding was reported."""
        return self.errors == 0

    def counts(self) -> Dict[str, int]:
        counts = {severity.value: 0 for severity in Severity}
        for finding in self.findings:
            counts[finding.severity.value] += 1
        return counts

    def as_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "counts": self.counts(),
            "checkers_run": list(self.checkers_run),
            "findings": [finding.as_dict() for finding in self.findings],
        }

    def summary_lines(self) -> List[str]:
        """Human-readable rendering: worst findings first."""
        lines = [
            finding.render()
            for finding in sorted(
                self.findings, key=lambda f: -f.severity.rank
            )
        ]
        counts = self.counts()
        lines.append(
            "{status}: {errors} error(s), {warnings} warning(s), "
            "{info} info across {n} checker(s)".format(
                status="CLEAN" if self.ok else "FAIL",
                errors=counts["error"],
                warnings=counts["warning"],
                info=counts["info"],
                n=len(self.checkers_run),
            )
        )
        return lines
