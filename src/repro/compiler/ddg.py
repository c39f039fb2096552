"""Per-kernel data-dependence graphs.

The graph is over *body indices* of a single kernel iteration: node ``i``
depends on node ``j`` when instruction ``i`` reads a register whose most
recent definition (within the same iteration, scanning backwards) is
instruction ``j``.  A register read with no earlier in-iteration definition
is *live-in* — its value is carried from a previous iteration or kernel
entry, which is what makes a dependent store non-sliceable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro.isa.instructions import AluInstr, LoadInstr, MoviInstr, StoreInstr
from repro.isa.program import Kernel, KernelShape

__all__ = ["DataDependenceGraph"]


@dataclass(slots=True)
class _Node:
    """Dependence info for one body instruction."""

    deps: Tuple[int, ...]
    live_in_reads: Tuple[int, ...]


class DataDependenceGraph:
    """Def-use graph of one kernel body (single iteration scope).

    Accepts a :class:`KernelShape` as well: its template body has the
    same registers as every kernel of the shape.
    """

    def __init__(self, kernel: Kernel | KernelShape) -> None:
        self.kernel = kernel
        self._nodes: List[_Node] = []
        last_def: Dict[int, int] = {}
        for idx, ins in enumerate(kernel.body):
            reads: List[int] = []
            if isinstance(ins, AluInstr):
                reads = [ins.src_a, ins.src_b]
            elif isinstance(ins, StoreInstr):
                reads = [ins.src]
            deps: List[int] = []
            live_in: List[int] = []
            for reg in reads:
                if reg in last_def:
                    deps.append(last_def[reg])
                else:
                    live_in.append(reg)
            self._nodes.append(_Node(tuple(deps), tuple(live_in)))
            if isinstance(ins, (AluInstr, MoviInstr, LoadInstr)):
                last_def[ins.dst] = idx

    def deps_of(self, index: int) -> Tuple[int, ...]:
        """Body indices this instruction directly depends on."""
        return self._nodes[index].deps

    def live_in_reads(self, index: int) -> Tuple[int, ...]:
        """Registers this instruction reads that are live-in (loop-carried)."""
        return self._nodes[index].live_in_reads

    def backward_closure(self, index: int) -> Tuple[Set[int], Set[int]]:
        """Transitive dependence closure of a body index.

        Returns ``(indices, live_in_regs)``: every body index reachable
        backwards through def-use edges (excluding ``index`` itself), and
        the union of live-in registers read anywhere in the closure
        (including by ``index``).
        """
        seen: Set[int] = set()
        live_in: Set[int] = set(self._nodes[index].live_in_reads)
        stack: List[int] = list(self._nodes[index].deps)
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            live_in.update(self._nodes[node].live_in_reads)
            stack.extend(self._nodes[node].deps)
        return seen, live_in

    def __len__(self) -> int:
        return len(self._nodes)
