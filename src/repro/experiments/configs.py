"""The nine evaluated configurations (paper §IV).

=============== ======= ===== ======
name            scheme  ACR   errors
=============== ======= ===== ======
NoCkpt          none    no    no
Ckpt_NE         global  no    no
Ckpt_E          global  no    yes
ReCkpt_NE       global  yes   no
ReCkpt_E        global  yes   yes
Ckpt_NE_Loc     local   no    no
Ckpt_E_Loc      local   no    yes
ReCkpt_NE_Loc   local   yes   no
ReCkpt_E_Loc    local   yes   yes
=============== ======= ===== ======

``make_options`` turns a configuration name plus experiment knobs
(checkpoint count, error count, slice threshold) into
:class:`~repro.sim.simulator.SimulationOptions`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

from repro.compiler.policy import SelectionPolicy, ThresholdPolicy
from repro.errors.injection import NoErrors, UniformErrors
from repro.errors.model import ErrorModel
from repro.obs.tracer import Tracer
from repro.sim.results import BaselineProfile
from repro.sim.simulator import SimulationOptions
from repro.util.validation import check_positive, field_names

__all__ = ["CONFIG_NAMES", "ConfigRequest", "make_options"]

CONFIG_NAMES: Tuple[str, ...] = (
    "NoCkpt",
    "Ckpt_NE",
    "Ckpt_E",
    "ReCkpt_NE",
    "ReCkpt_E",
    "Ckpt_NE_Loc",
    "Ckpt_E_Loc",
    "ReCkpt_NE_Loc",
    "ReCkpt_E_Loc",
)


@dataclass(frozen=True)
class ConfigRequest:
    """A configuration name plus its experiment knobs (a cache key).

    Every field that can change a run's outcome **must** live here: the
    frozen dataclass derives ``__eq__``/``__hash__`` over all fields, and
    the persistent result cache keys entries by :meth:`canonical_key`.
    A knob that reaches the simulator without appearing in this class
    would silently alias distinct runs — a test walks the fields and
    pins that every one of them perturbs the key.
    """

    config: str
    num_checkpoints: int = 25
    error_count: int = 1
    threshold: int = 10
    #: Seed of the initial memory image (reaches
    #: :class:`~repro.sim.simulator.SimulationOptions` verbatim).
    memory_seed: int = 0

    def __post_init__(self) -> None:
        if self.config not in CONFIG_NAMES:
            raise ValueError(
                f"unknown configuration {self.config!r}; "
                f"pick one of {CONFIG_NAMES}"
            )
        check_positive("num_checkpoints", self.num_checkpoints)
        check_positive("error_count", self.error_count)
        check_positive("threshold", self.threshold)
        if not isinstance(self.memory_seed, int) or self.memory_seed < 0:
            raise ValueError(
                f"memory_seed must be a non-negative int, "
                f"got {self.memory_seed!r}"
            )

    def canonical_key(self) -> Tuple[Tuple[str, Any], ...]:
        """Every field as sorted (name, value) pairs — the cache-key
        contribution of this request.  Derived from the dataclass fields
        so a newly added knob can never be forgotten."""
        return tuple(
            (name, getattr(self, name))
            for name in sorted(field_names(type(self)))
        )

    @property
    def is_baseline(self) -> bool:
        """True for the checkpoint-free NoCkpt configuration."""
        return self.config == "NoCkpt"

    @property
    def scheme(self) -> str:
        """Checkpointing scheme implied by the name."""
        if self.config == "NoCkpt":
            return "none"
        return "local" if self.config.endswith("_Loc") else "global"

    @property
    def acr(self) -> bool:
        """Whether ACR (recomputation) is enabled."""
        return self.config.startswith("ReCkpt")

    @property
    def with_errors(self) -> bool:
        """Whether errors are injected."""
        return "_E" in self.config and not self.config.startswith("NoCkpt")


def make_options(
    request: ConfigRequest,
    baseline: Optional[BaselineProfile],
    error_model: Optional[ErrorModel] = None,
    slice_policy: Optional[SelectionPolicy] = None,
    tracer: Optional[Tracer] = None,
    collect_metrics: bool = False,
    engine: str = "interp",
) -> SimulationOptions:
    """Build the simulator options for one configuration request.

    ``tracer``/``collect_metrics`` attach the observability layer; they
    are *not* part of the cache key (a traced run must bypass the result
    cache — see :meth:`ExperimentRunner.run_traced`).  ``engine`` selects
    the execution engine; it is deliberately **not** a
    :class:`ConfigRequest` field either, because both engines produce
    bit-identical results (the differential equivalence suite pins this)
    — the cache may serve a result computed by either one.
    """
    if request.is_baseline:
        return SimulationOptions(
            label=request.config,
            scheme="none",
            memory_seed=request.memory_seed,
            tracer=tracer,
            collect_metrics=collect_metrics,
            engine=engine,
        )
    errors = (
        UniformErrors(request.error_count) if request.with_errors else NoErrors()
    )
    return SimulationOptions(
        label=request.config,
        scheme=request.scheme,
        acr=request.acr,
        num_checkpoints=request.num_checkpoints,
        slice_policy=(
            slice_policy
            if slice_policy is not None
            else (ThresholdPolicy(request.threshold) if request.acr else None)
        ),
        errors=errors,
        error_model=error_model or ErrorModel(),
        baseline=baseline,
        memory_seed=request.memory_seed,
        tracer=tracer,
        collect_metrics=collect_metrics,
        engine=engine,
    )
