"""Dataflow queries over a kernel body for the soundness rules.

:class:`KernelDataflow` wraps the compiler's
:class:`~repro.compiler.ddg.DataDependenceGraph` (which answers "which
instruction produced the value this one reads") and adds the register-level
queries the verifier needs on top of it:

* *reaching definitions* — the last definition of a register strictly
  before a body index, answered in O(log defs) via per-register sorted
  definition lists;
* *def-use chains* — for every definition, the body indices whose reads
  bind to it;
* *live-in registers* — registers read before any in-iteration definition
  (loop-carried values, which make a dependent store non-sliceable).

The frontier-aliasing rule (``ACR007``) is the main consumer: an operand
snapshot taken at store time is only sound when the reaching definition of
every frontier register *at the store* is the very load the slice's
backward closure bound it to.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.compiler.ddg import DataDependenceGraph
from repro.isa.instructions import AluInstr, LoadInstr, MoviInstr, StoreInstr
from repro.isa.program import Kernel

__all__ = ["KernelDataflow"]


def _reads_of(ins: object) -> Tuple[int, ...]:
    """Registers an instruction reads."""
    if isinstance(ins, AluInstr):
        return (ins.src_a, ins.src_b)
    if isinstance(ins, StoreInstr):
        return (ins.src,)
    return ()


def _def_of(ins: object) -> Optional[int]:
    """Register an instruction defines, if any."""
    if isinstance(ins, (AluInstr, MoviInstr, LoadInstr)):
        return ins.dst
    return None


class KernelDataflow:
    """Register-level dataflow facts for one kernel body."""

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        self.ddg = DataDependenceGraph(kernel)
        self._defs_by_reg: Dict[int, List[int]] = {}
        self._reads: List[Tuple[int, ...]] = []
        self._defs: List[Optional[int]] = []
        for idx, ins in enumerate(kernel.body):
            self._reads.append(_reads_of(ins))
            reg = _def_of(ins)
            self._defs.append(reg)
            if reg is not None:
                self._defs_by_reg.setdefault(reg, []).append(idx)

    # -- per-instruction facts ----------------------------------------------
    def reads(self, index: int) -> Tuple[int, ...]:
        """Registers read by the instruction at ``index``."""
        return self._reads[index]

    def def_reg(self, index: int) -> Optional[int]:
        """Register defined by the instruction at ``index`` (if any)."""
        return self._defs[index]

    # -- register-level queries ----------------------------------------------
    def defs_of_reg(self, reg: int) -> Tuple[int, ...]:
        """All body indices defining ``reg``, in order."""
        return tuple(self._defs_by_reg.get(reg, ()))

    def reaching_def(self, index: int, reg: int) -> Optional[int]:
        """Last definition of ``reg`` strictly before ``index``.

        ``None`` means the value is live-in at that point (carried from a
        previous iteration or kernel entry).
        """
        defs = self._defs_by_reg.get(reg)
        if not defs:
            return None
        pos = bisect_left(defs, index)
        if pos == 0:
            return None
        return defs[pos - 1]

    def du_chains(self) -> Dict[int, Tuple[int, ...]]:
        """Map definition index -> body indices whose reads bind to it."""
        chains: Dict[int, List[int]] = {}
        for idx in range(len(self._reads)):
            for reg in self._reads[idx]:
                d = self.reaching_def(idx, reg)
                if d is not None:
                    chains.setdefault(d, []).append(idx)
        return {d: tuple(uses) for d, uses in chains.items()}

    @property
    def live_in(self) -> FrozenSet[int]:
        """Registers read before any in-iteration definition."""
        return self.kernel.shape.live_in

    # -- slice-oriented helpers ----------------------------------------------
    def closure_of(self, index: int) -> Tuple[Set[int], Set[int]]:
        """Backward value closure of a body index (see the DDG)."""
        return self.ddg.backward_closure(index)

    def __len__(self) -> int:
        return len(self._reads)
