"""The classic observer-callback path, frozen as an oracle.

Before kernel shapes had generated *timed* steppers, ``_Run`` drove each
core through the plain stepper with two observers.  Per access they
built a :class:`LoadEvent`/:class:`StoreEvent`, walked
:meth:`CoreCacheHierarchy.access`, added
:meth:`CoreTimingModel.stall_time_ns` to the core's pending useful
clock and recorded the access in the directory; a store under
checkpointing then went through :meth:`Mechanism.on_store`, whose flags
charged the log write and then the ASSOC-ADDR slot.

:class:`ClassicRun` is a ``_Run`` that still runs that path, copied
verbatim.  The timed-stepper differential suite
(``tests/sim/test_timed_stepper.py``) compares the production path to
it, and the engine guardrail (``benchmarks/bench_engine_guardrail.py``)
times the vector engine against it.
"""

from __future__ import annotations

from repro.isa.interpreter import Interpreter, LoadEvent, StoreEvent
from repro.sim.mechanism import ASSOCIATED, LOGGED
from repro.sim.results import RunResult
from repro.sim.simulator import SimulationOptions, Simulator, _Run

__all__ = ["ClassicRun", "run_classic"]


class ClassicRun(_Run):
    """One run on observed plain steppers (the engine option is
    ignored: every core runs the classic interpreter)."""

    def __init__(self, sim: Simulator, options: SimulationOptions) -> None:
        super().__init__(sim, options)
        self._mech_on_store = self.mech.on_store
        self.interpreters = [
            Interpreter(
                prog, self.machine.memory, on_load=self._on_load,
                on_store=self._on_store,
            )
            for prog in self.programs
        ]
        self.engines = self.interpreters

    def _on_load(self, ev: LoadEvent) -> None:
        core = ev.thread
        access = self.machine.hierarchies[core].access(ev.address, False)
        self._pending_useful[core] += self.timing.stall_time_ns(access)
        self.machine.directory.record_access(core, ev.address // self._line_bytes)

    def _on_store(self, ev: StoreEvent) -> None:
        core = ev.thread
        access = self.machine.hierarchies[core].access(ev.address, True)
        self._pending_useful[core] += self.timing.stall_time_ns(access)
        self.machine.directory.record_access(core, ev.address // self._line_bytes)

        if self.ckpt_enabled:
            charged = self._mech_on_store(ev)
            if charged:
                # The log write's bandwidth stall, then ASSOC-ADDR's extra
                # instruction slot + AddrMap write, in this order (float
                # addition is not associative).
                if charged & LOGGED:
                    self._pending_overhead[core] += self._log_stall_ns
                if charged & ASSOCIATED:
                    self._pending_overhead[core] += self._cycle_ns


def run_classic(sim: Simulator, options: SimulationOptions) -> RunResult:
    """``sim.run(options)`` on the classic observer-callback path."""
    return ClassicRun(sim, options).execute()
