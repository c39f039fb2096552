"""A plan-accelerated :class:`Interpreter` for observer-style consumers.

The simulator proper swaps the whole per-core interpreter for a
:class:`~repro.sim.vector.engine.VectorCoreRunner`; consumers that need
the *interpreter interface* — the fault-injection harness builds raw
interpreters with a store observer, snapshots/restores architectural
state mid-run and injects register/memory corruption — get
:class:`VectorInterpreter` instead: a drop-in subclass that replays
validated plan segments (skipping load dispatch entirely, emitting real
:class:`StoreEvent`\\ s from precomputed register rows) and degrades to
the classic per-instruction loop whenever exactness cannot be proven.

Fallback triggers, beyond the engine's plan rules (external-load
addresses already written, in-kernel load/store overlap, unstable
register files under a store observer):

* a load observer is attached — plans skip load dispatch, so every
  ``LoadEvent`` consumer forces the classic loop (tracked under the
  engine-level reason ``observed-loads``: no certificate is involved,
  vector replay is definitionally unavailable);
* the current kernel is *tainted*: ``restore_arch_state`` may install a
  register file that diverges from the plan's rows (fault injection,
  rollback), so the restored-into kernel runs interpreted until it
  completes — **unless** the static certifier proved the kernel
  *register-renewing* (:mod:`repro.verify.absint`: every register is
  defined each iteration before any read, and definitions all precede
  the first store), in which case the entering file is dead and the
  plan rows stay exact whatever corruption the restore installed.

Per-segment coverage lands in ``replayed_iterations`` /
``fallback_iterations`` / ``fallback_reasons`` (rule ids ACR009–ACR012,
mirroring the simulator-side engine); the renewal unlock can be switched
off via the ``use_certificates`` class flag for A/B coverage tests.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.isa.interpreter import (
    ExecChunk,
    Interpreter,
    LoadEvent,
    MemoryImage,
    StoreEvent,
)
from repro.isa.opcodes import MASK64
from repro.isa.program import Program
from repro.sim.vector.plans import KernelPlan, plans_for

__all__ = ["VectorInterpreter", "make_interpreter"]

_INIT_MIX = 0x9E3779B97F4A7C15

#: Plans carry a cache-line stream the interpreter never reads; keying
#: the shared plan cache on the machine default keeps them shareable
#: with simulator runs on the same programs.
_DEFAULT_LINE_BYTES = 64


class VectorInterpreter(Interpreter):
    """Interpreter that fast-forwards through validated plan segments."""

    #: Consult the static register-renewal certificates to replay
    #: through tainted kernels.  Class-level so coverage tests can A/B
    #: the PR 6 behaviour (False) against the certified one (True).
    use_certificates: bool = True

    def __init__(
        self,
        program: Program,
        memory: MemoryImage,
        on_load: Optional[Callable[[LoadEvent], None]] = None,
        on_store: Optional[Callable[[StoreEvent], None]] = None,
        line_bytes: int = _DEFAULT_LINE_BYTES,
    ) -> None:
        super().__init__(program, memory, on_load=on_load, on_store=on_store)
        self._plans = plans_for(program, memory.seed, line_bytes)
        #: Kernel index whose plan is unusable after an external state
        #: restore (-1: none).  Cleared by moving past the kernel.
        self._taint_kernel = -1
        # Per kernel: body offsets (into tmpl/addrs columns) of stores.
        self._store_offsets: Dict[int, List[Tuple[int, int]]] = {}
        # Per-kernel register-renewal flags, computed from the kernel
        # body on first taint: the common golden path never taints.
        self._renewed: Dict[int, bool] = {}
        #: Coverage accounting (iterations), fallbacks keyed by reason.
        self.replayed_iterations = 0
        self.fallback_iterations = 0
        self.fallback_reasons: Dict[str, int] = {}

    def _regs_renewed(self, k: int) -> bool:
        """Did the certifier prove kernel ``k`` register-renewing?"""
        flag = self._renewed.get(k)
        if flag is None:
            from repro.verify.absint.certify import registers_renewed

            flag = self._renewed[k] = registers_renewed(self.program.kernels[k])
        return flag

    def restore_arch_state(self, state: Tuple[int, int, List[int]]) -> None:
        super().restore_arch_state(state)
        self._taint_kernel = self._kernel_index if not self.done else -1

    def adopt_arch_state(self, state: Tuple[int, int, List[int]]) -> None:
        """Install forked-prefix state without tainting the kernel.

        A snapshot fork adopts state captured from a bit-identical
        deterministic prefix, so the entering register file matches the
        plan rows by construction — pessimising to the classic loop
        (as :meth:`restore_arch_state` must, for rollback/injection
        restores) would skew the fork's coverage and speed for no
        soundness gain.
        """
        Interpreter.restore_arch_state(self, state)

    def _count_fallback(self, reason: str, iterations: int) -> None:
        self.fallback_iterations += iterations
        self.fallback_reasons[reason] = (
            self.fallback_reasons.get(reason, 0) + iterations
        )

    def step_iterations(self, max_iterations: int) -> ExecChunk:
        if self.on_load is not None:
            chunk = super().step_iterations(max_iterations)
            self._count_fallback("observed-loads", chunk.iterations)
            return chunk
        if max_iterations <= 0:
            raise ValueError("max_iterations must be positive")
        iterations = alu = loads = stores = assoc = 0
        words = self.memory.words_map()
        on_store = self.on_store
        kernels = self.program.kernels

        while iterations < max_iterations and not self.done:
            k = self._kernel_index
            kernel = kernels[k]
            budget = min(
                kernel.trip_count - self._iteration, max_iterations - iterations
            )
            plan = self._plans.plan(k)
            # The denial chain mirrors the certificate rules; the first
            # reason that applies is charged with the classic segment.
            reason = None
            if k == self._taint_kernel and not (
                self.use_certificates and self._regs_renewed(k)
            ):
                # Restored register file not provably dead on entry.
                reason = "ACR011"
            elif plan.overlap:
                reason = "ACR009"
            elif (
                on_store is not None
                and plan.stores_per_iter != 0
                and not plan.regs_stable
            ):
                reason = "ACR011"
            elif not words.keys().isdisjoint(plan.external_loads):
                reason = "ACR012"
            if reason is not None:
                chunk = super().step_iterations(budget)
                alu += chunk.alu
                loads += chunk.loads
                stores += chunk.stores
                assoc += chunk.assoc
                iterations += chunk.iterations
                self._count_fallback(reason, chunk.iterations)
                continue

            i0 = self._iteration
            i1 = i0 + budget
            if plan.stores_per_iter:
                self._replay_stores(plan, k, i0, i1, words)
            alu += budget * (plan.alu_per_iter + kernel.ghost_alu)
            loads += budget * plan.loads_per_iter
            stores += budget * plan.stores_per_iter
            assoc += budget * plan.assoc_per_iter
            iterations += budget
            self.replayed_iterations += budget
            if i1 >= kernel.trip_count:
                self._kernel_index += 1
                self._prepare_kernel()
            else:
                # Keep the architectural register file live so a later
                # arch_state() snapshot or classic segment is seamless.
                self._iteration = i1
                self._regs = list(plan.rows()[i1 - 1])
        return ExecChunk(iterations, alu, loads, stores, assoc)

    def _replay_stores(
        self,
        plan: KernelPlan,
        k: int,
        i0: int,
        i1: int,
        words: Dict[int, int],
    ) -> None:
        """Apply the store stream of iterations ``[i0, i1)``.

        Old values are read live (they depend on run history); new values
        and the observed register file come from the plan.
        """
        offsets = self._store_offsets.get(k)
        if offsets is None:
            offsets = [
                (j, t[1]) for j, t in enumerate(plan.tmpl) if t[0]
            ]
            self._store_offsets[k] = offsets
        addrs = plan.addrs
        svalues = plan.svalues
        api = plan.accesses_per_iter
        spi = plan.stores_per_iter
        on_store = self.on_store
        thread = self.program.thread_id
        seed = self.memory.seed
        rows = plan.rows() if on_store is not None else None
        s_idx = i0 * spi
        for i in range(i0, i1):
            base = i * api
            for j, site in offsets:
                addr = addrs[base + j]
                value = svalues[s_idx]
                s_idx += 1
                if on_store is None:
                    words[addr] = value
                    continue
                old = words.get(addr)
                if old is None:
                    x = (addr * _INIT_MIX + seed) & MASK64
                    x ^= x >> 29
                    old = (x * _INIT_MIX) & MASK64
                words[addr] = value
                on_store(
                    StoreEvent(thread, site, addr, old, value, i, rows[i])
                )


def make_interpreter(
    engine: str,
    program: Program,
    memory: MemoryImage,
    on_load: Optional[Callable[[LoadEvent], None]] = None,
    on_store: Optional[Callable[[StoreEvent], None]] = None,
) -> Interpreter:
    """Build the interpreter flavour selected by ``engine``."""
    if engine == "interp":
        return Interpreter(program, memory, on_load=on_load, on_store=on_store)
    if engine == "vector":
        return VectorInterpreter(
            program, memory, on_load=on_load, on_store=on_store
        )
    raise ValueError(f"unknown engine {engine!r} (expected 'interp' or 'vector')")
