"""Backward slice extraction (paper Fig. 3).

Starting from a store's source register, the slicer walks def-use edges
backwards through the kernel body.  Loads terminate the walk — their
destination registers become the slice frontier (input operands to be kept
in the operand buffer).  A walk that reaches a *live-in* register (one
defined in a previous iteration: an accumulator) makes the store
non-sliceable, because the slice would have to span loop iterations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Set

from repro.compiler.ddg import DataDependenceGraph
from repro.compiler.slices import Slice
from repro.isa.instructions import AluInstr, LoadInstr, MoviInstr, StoreInstr
from repro.isa.program import Kernel, KernelShape

__all__ = ["SliceRejection", "SliceExtraction", "extract_slice"]


class SliceRejection(enum.Enum):
    """Why a store site could not get a usable slice."""

    #: Backward walk reached a register carried across iterations.
    LOOP_CARRIED = "loop-carried dependence"
    #: The slice recomputes nothing (stored value is a plain loaded value);
    #: buffering the operand equals buffering the value — no benefit.
    TRIVIAL = "trivial (copy of a load)"


@dataclass(frozen=True)
class SliceExtraction:
    """Result of slicing one store site."""

    site: int
    slice: Optional[Slice]
    rejection: Optional[SliceRejection]

    @property
    def sliceable(self) -> bool:
        """True when a non-trivial slice was extracted."""
        return self.slice is not None


def extract_slice(
    kernel: Kernel | KernelShape,
    store_index: int,
    ddg: Optional[DataDependenceGraph] = None,
) -> SliceExtraction:
    """Extract the backward slice of the store at ``kernel.body[store_index]``.

    Returns a :class:`SliceExtraction`; ``slice`` is ``None`` when the site
    is rejected (loop-carried or trivial).
    """
    store = kernel.body[store_index]
    if not isinstance(store, StoreInstr):
        raise ValueError(f"body[{store_index}] is not a store: {store!r}")
    if ddg is None:
        ddg = DataDependenceGraph(kernel)

    closure, live_in = ddg.backward_closure(store_index)
    if live_in:
        return SliceExtraction(store.site, None, SliceRejection.LOOP_CARRIED)

    # Partition the closure: loads form the frontier, ALU/MOVI form the
    # slice body.  Keep body order to preserve execution semantics.
    body_indices: List[int] = sorted(closure)
    instructions: List[object] = []
    frontier: Set[int] = set()
    for idx in body_indices:
        ins = kernel.body[idx]
        if isinstance(ins, LoadInstr):
            frontier.add(ins.dst)
        elif isinstance(ins, (AluInstr, MoviInstr)):
            instructions.append(ins)
        elif isinstance(ins, StoreInstr):  # pragma: no cover
            # Stores define no register, so they can never be in a closure.
            raise AssertionError("store inside a backward value closure")

    if not instructions:
        return SliceExtraction(store.site, None, SliceRejection.TRIVIAL)

    sl = Slice(
        site=store.site,
        instructions=tuple(instructions),
        frontier=tuple(sorted(frontier)),
        result_reg=store.src,
    )
    return SliceExtraction(store.site, sl, None)
