"""The vectorized execution engine (``--engine vector``).

A second, faster execution engine for the simulator: straight-line
kernel bodies are turned into precomputed *trace plans* (flat address /
line / store-value tuples built by each kernel shape's generated
evaluator, cached on the :class:`~repro.isa.program.Program`) and
replayed through one allocation-free accounting loop instead of each
shape's timed stepper.

The classic interpreter remains the differential reference: any kernel
the planner cannot prove exact (externally-written load addresses,
register files a handler would observe mid-flight) falls back to it, so
results are bit-identical by construction — and a differential harness
(``tests/sim/test_engine_equivalence.py``) pins bit-identity on every
registered workload plus hundreds of randomized programs.  The engine
drives simulator runs only; fault-injection trials run on the classic
interpreter.
"""

from repro.sim.vector.engine import VectorCoreRunner
from repro.sim.vector.plans import KernelPlan, ProgramPlans, plans_for

__all__ = [
    "KernelPlan",
    "ProgramPlans",
    "VectorCoreRunner",
    "plans_for",
]
