"""The workload registry: named end-to-end scenarios behind one decorator.

A *workload* is everything the system needs to run one realistic scenario
end to end: an s-expression **source** (the circuit), a deterministic
**input sampler** (the facade's :func:`~repro.api.sample_named_inputs`
contract, so server jobs and direct calls draw bit-identical inputs from a
seed), an **expected-output oracle**, and the **default compiler/backend**
the scenario is meant to run on.  Workloads are registered under short
names through the same decorator/factory idiom as ``@register_compiler``
and ``@register_backend``::

    @register_workload("dot-product", suite="porcupine")
    def _dot_product(size: int = 8) -> Workload: ...

    build_workload("dot-product", size=16)
    available_workloads()

The built-ins (:mod:`repro.workloads.suites`,
:mod:`repro.workloads.neural`) cover the Coyote and Porcupine kernel
suites, polynomial tree ensembles and a small quantized NN linear layer
lowered through the IR — the scenario pool the mixed-traffic load
generator (:mod:`repro.workloads.traffic`) draws from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.core.registry import Registry
from repro.ir.nodes import Expr

__all__ = [
    "Workload",
    "WorkloadInfo",
    "register_workload",
    "available_workloads",
    "workload_info",
    "build_workload",
    "get_workload",
]


@dataclass
class Workload:
    """One parameterized end-to-end scenario (see module docstring)."""

    name: str
    #: Suite label ("coyote", "porcupine", "trees", "nn").
    suite: str
    #: The circuit as s-expression text (what a client would submit).
    source: str
    #: Generated inputs are uniform over ``[0, input_range]`` per variable
    #: (``1`` restricts to binary inputs, e.g. Hamming distance).
    input_range: int = 7
    #: Default compiler registry name for this scenario.
    compiler: str = "greedy"
    #: Default execution-backend registry name for this scenario.
    backend: str = "vector-vm"
    #: Optional independent expected-output oracle.  When set it must agree
    #: with the plaintext reference evaluation of ``source`` — that agreement
    #: is exactly what makes a lowered workload (the NN layer) trustworthy.
    oracle: Optional[Callable[[Mapping[str, int]], List[int]]] = None
    description: str = ""
    _expr: Optional[Expr] = field(default=None, repr=False, compare=False)

    # -- circuit access -----------------------------------------------------
    def expression(self) -> Expr:
        """The parsed IR expression (parsed once and cached)."""
        if self._expr is None:
            from repro.ir.parser import parse

            self._expr = parse(self.source)
        return self._expr

    @property
    def input_names(self) -> List[str]:
        """Distinct input variables, in first-occurrence order."""
        from repro.ir.analysis import variables

        return variables(self.expression())

    # -- inputs and expected outputs ---------------------------------------
    def sample_inputs(self, seed: int = 0) -> Dict[str, int]:
        """Deterministic inputs via the facade's seed-to-inputs contract."""
        from repro.api import sample_named_inputs

        return sample_named_inputs(self.input_names, seed, self.input_range)

    def reference(self, inputs: Mapping[str, int]) -> List[int]:
        """Plaintext reference evaluation of the circuit on ``inputs``."""
        from repro.compiler.executor import reference_output
        from repro.ir.evaluate import output_arity

        expr = self.expression()
        slots = max(64, output_arity(expr) + 8)
        return reference_output(expr, dict(inputs), slot_count=slots)

    def expected(self, inputs: Mapping[str, int]) -> List[int]:
        """Expected outputs: the oracle when present, else the reference."""
        if self.oracle is not None:
            return self.oracle(inputs)
        return self.reference(inputs)

    # -- adapters -----------------------------------------------------------
    def as_benchmark(self):
        """This workload as a :class:`~repro.kernels.registry.Benchmark`.

        Lets :class:`~repro.experiments.harness.BenchmarkRunner` run
        registered workloads through the exact compile/execute/verify path
        the paper's kernel suites use.  Inputs are registered in
        :attr:`input_names` order, so the adapter's seeded sampling draws
        the same values as :meth:`sample_inputs`.
        """
        from repro.compiler.dsl import Program
        from repro.kernels.registry import Benchmark

        def build(workload: "Workload" = self) -> Program:
            with Program(workload.name) as program:
                program.register_output("result", workload.expression())
                for input_name in workload.input_names:
                    program.register_input(input_name)
            return program

        return Benchmark(
            name=self.name,
            suite=self.suite,
            builder=build,
            input_range=self.input_range,
        )


@dataclass(frozen=True)
class WorkloadInfo:
    """One registry entry."""

    name: str
    #: Builds the :class:`Workload` from keyword options.
    factory: Callable[..., Workload]
    suite: str = ""
    description: str = ""

    def build(self, **options: object) -> Workload:
        workload = self.factory(**options)
        if not workload.description:
            workload.description = self.description
        return workload


WORKLOADS: Registry[WorkloadInfo] = Registry(
    "workload", ("repro.workloads.neural", "repro.workloads.suites")
)


def register_workload(
    name: str, *, suite: str = "", description: str = ""
) -> Callable:
    """Decorator registering a workload factory under ``name``."""

    def decorator(factory: Callable[..., Workload]) -> Callable[..., Workload]:
        doc_lines = (factory.__doc__ or "").strip().splitlines()
        WORKLOADS.add(
            name,
            WorkloadInfo(
                name=name,
                factory=factory,
                suite=suite,
                description=description or (doc_lines[0] if doc_lines else ""),
            ),
        )
        return factory

    return decorator


#: Sorted names of every registered workload.
available_workloads = WORKLOADS.names
#: The registry entry for a workload name.
workload_info = WORKLOADS.get


def build_workload(name: str, **options: object) -> Workload:
    """Build the workload registered under ``name`` with factory options."""
    return workload_info(name).build(**options)


def get_workload(workload: object, **options: object) -> Workload:
    """Normalize a registry name or live :class:`Workload` into an instance."""
    if isinstance(workload, Workload):
        if options:
            raise ValueError("workload options require a registry name, not an instance")
        return workload
    if isinstance(workload, str):
        return build_workload(workload, **options)
    raise TypeError(
        f"expected a workload name or Workload, got {type(workload).__name__}"
    )
