"""The component registry of the study engine.

A :class:`Component` names one toggleable piece of the serving stack — the
optimizing compiler, the batched vector backend, the fingerprint
coalescer, the compilation-cache tier, the timer-augmented scheduler,
admission control — together with the configuration delta that switches it
*off*.  A study then runs one baseline (everything on) plus one condition per component
(exactly that component off) and prices each component by the metric
difference, the :mod:`repro.studies.analysis` importance score.

Components are registered with :func:`register_component`, mirroring the
``@register_compiler`` / ``@register_backend`` / ``@register_workload``
idiom used everywhere else in the repo, so downstream code can declare new
ablatable subsystems without touching the engine:

* ``ablated`` — :class:`~repro.studies.spec.RunConfig` field overrides that
  disable the component (applied on top of the study baseline);
* ``baseline`` — overrides the component needs merged into the *baseline*
  configuration for its ablation to be meaningful (e.g. admission control is
  off by default, so its component switches it on in the baseline and off in
  its own condition);
* ``metrics`` — metric names the component is expected to move, surfaced in
  reports as a reading aid (every recorded metric is harvested regardless).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Tuple

__all__ = [
    "Component",
    "register_component",
    "get_component",
    "available_components",
    "default_components",
]


@dataclass(frozen=True)
class Component:
    """One toggleable system component a study can ablate."""

    name: str
    description: str
    #: RunConfig overrides that switch the component OFF.
    ablated: Mapping[str, object] = field(default_factory=dict)
    #: RunConfig overrides required in the BASELINE for this component to be
    #: on in the first place (empty for components that default to on).
    baseline: Mapping[str, object] = field(default_factory=dict)
    #: Metrics this component is expected to move (informational).
    metrics: Tuple[str, ...] = ()
    #: Whether the component belongs in the default study matrix.  Noisy or
    #: situational components (admission control sheds jobs, skewing every
    #: throughput row) register with ``default=False`` and are opted into
    #: explicitly.
    default: bool = True

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "description": self.description,
            "ablated": dict(self.ablated),
            "baseline": dict(self.baseline),
            "metrics": list(self.metrics),
            "default": self.default,
        }


_COMPONENTS: Dict[str, Component] = {}


def register_component(component: Component) -> Component:
    """Register ``component``; later registrations replace earlier ones."""
    _COMPONENTS[component.name] = component
    return component


def get_component(name: str) -> Component:
    """The registered component called ``name``."""
    try:
        return _COMPONENTS[name]
    except KeyError:
        known = ", ".join(sorted(_COMPONENTS)) or "<none>"
        raise KeyError(f"unknown component {name!r}; registered: {known}") from None


def available_components() -> List[str]:
    """Sorted names of every registered component."""
    return sorted(_COMPONENTS)


def default_components() -> List[str]:
    """Sorted names of the components in the default study matrix."""
    return sorted(name for name, comp in _COMPONENTS.items() if comp.default)


# ---------------------------------------------------------------------------
# built-in components — the subsystems this repo's perf claims rest on
# ---------------------------------------------------------------------------
register_component(
    Component(
        name="compiler-opt",
        description=(
            "Optimizing compiler pipeline: ablated runs lower every circuit "
            "with the unoptimized 'initial' compiler instead of the "
            "workload's optimizing default."
        ),
        ablated={"compiler": "initial"},
        metrics=("mean_latency_ms", "mean_run_s"),
    )
)

register_component(
    Component(
        name="vector-backend",
        description=(
            "Batched vector VM: ablated runs execute on the scalar "
            "'reference' interpreter, one input set at a time."
        ),
        ablated={"backend": "reference"},
        metrics=("throughput_jobs_per_s", "mean_run_s"),
    )
)

register_component(
    Component(
        name="coalescing",
        description=(
            "Fingerprint batch coalescer: ablated runs execute every job as "
            "its own backend batch, as if the coalescer never existed."
        ),
        ablated={"coalesce": False},
        metrics=("coalesced_fraction", "throughput_jobs_per_s"),
    )
)

register_component(
    Component(
        name="compile-cache",
        description=(
            "Compilation caching tier: ablated runs disable the "
            "content-addressed CompilationCache (capacity=0) AND the "
            "server's hot-path circuit memo, so every repeat pays a full "
            "compile."
        ),
        ablated={"cache_capacity": 0, "memoize_circuits": False},
        metrics=("memo_hit_rate", "cache_hit_rate", "throughput_jobs_per_s"),
    )
)

register_component(
    Component(
        name="measured-scheduler",
        description=(
            "Timer-augmented scheduling (McDoniel & Bientinesi): ablated "
            "runs weight batches with the raw analytical latency model "
            "instead of measured EWMA execution times."
        ),
        ablated={"prefer_measured": False},
        metrics=("measured_estimate_fraction", "mean_run_s"),
    )
)

register_component(
    Component(
        name="tracing",
        description=(
            "End-to-end span tracing (repro.obs): on in this component's "
            "baseline (tracing=True), off in its ablated condition — the "
            "importance score is therefore the throughput cost of leaving "
            "tracing enabled.  Excluded from the default matrix so the "
            "production rows stay untraced."
        ),
        ablated={"tracing": False},
        baseline={"tracing": True},
        metrics=("throughput_jobs_per_s", "mean_run_s"),
        default=False,
    )
)

register_component(
    Component(
        name="admission-control",
        description=(
            "Cost-aware admission control: on in this component's baseline "
            "(admission='shed'), off in its ablated condition.  Excluded "
            "from the default matrix because shedding changes the completed-"
            "job population of every other row."
        ),
        ablated={"admission": "off"},
        baseline={"admission": "shed"},
        metrics=("jobs_shed", "p99_wait_s"),
        default=False,
    )
)
