"""Programs, kernels and store-site bookkeeping.

A :class:`Kernel` is a counted loop whose body is a straight-line
instruction sequence.  A :class:`Program` is the per-thread unit of
execution: an ordered list of kernels grouped into *phases* (the workload
generators use phases to shape the temporal distribution of recomputable
values, cf. paper Fig. 10).

Store sites
-----------
Every static ``STORE`` in a program gets a program-unique *site id* at
:class:`Program` construction.  The compiler pass keys extracted Slices on
site ids, and the simulator uses them to find the Slice associated with a
dynamic store.

Long-lived footprint
--------------------
Programs live as long as the runs that share them, so construction keeps
what the cyclic collector must rescan small: equal loads and equal store
address patterns become one object per program, a kernel whose body needs
no rewrite is kept as the object passed in, and store sites are kept as
plain tuples of ints, which the collector untracks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Set, Tuple

from repro.isa.instructions import (
    AddressPattern,
    AluInstr,
    Instruction,
    LoadInstr,
    MoviInstr,
    StoreInstr,
)
from repro.util.validation import check_non_negative, check_positive

__all__ = ["Kernel", "Program", "StoreSite"]


@dataclass(frozen=True, slots=True)
class StoreSite:
    """Location of a static store: (kernel index, body index, site id)."""

    site: int
    kernel_index: int
    instr_index: int


@dataclass(slots=True)
class Kernel:
    """A counted loop with a straight-line body.

    ``phase`` tags the kernel with a program phase (used by experiment
    reports to show per-interval behaviour); kernels run in list order.

    ``ghost_alu`` models the per-iteration computation a real kernel
    performs *around* its stored values — loop control, address
    arithmetic, temporaries that never reach memory.  Ghost instructions
    are charged in timing and energy but carry no dataflow, so they are
    not interpreted and can never appear in a Slice.  This keeps the
    interpreted instruction count (the simulator's hot loop) proportional
    to the *memory-relevant* work while preserving realistic
    compute-to-traffic ratios.
    """

    name: str
    body: List[Instruction]
    trip_count: int
    phase: int = 0
    ghost_alu: int = 0

    def __post_init__(self) -> None:
        check_positive("trip_count", self.trip_count)
        check_non_negative("phase", self.phase)
        check_non_negative("ghost_alu", self.ghost_alu)
        if not self.body:
            raise ValueError(f"kernel {self.name!r} has an empty body")

    # -- static properties --------------------------------------------------
    @property
    def alu_count(self) -> int:
        """Static ALU (incl. MOVI and ghost) instructions per iteration."""
        return self.ghost_alu + sum(
            1 for ins in self.body if isinstance(ins, (AluInstr, MoviInstr))
        )

    @property
    def load_count(self) -> int:
        """Static loads per iteration."""
        return sum(1 for ins in self.body if isinstance(ins, LoadInstr))

    @property
    def store_count(self) -> int:
        """Static stores per iteration."""
        return sum(1 for ins in self.body if isinstance(ins, StoreInstr))

    @property
    def instructions_per_iteration(self) -> int:
        """All instructions per iteration (ASSOC-ADDR flags not counted)."""
        return len(self.body) + self.ghost_alu

    @property
    def dynamic_instructions(self) -> int:
        """Total dynamic instructions over the whole loop."""
        return (len(self.body) + self.ghost_alu) * self.trip_count

    def live_in_registers(self) -> Set[int]:
        """Registers read before being written within one body iteration.

        A live-in register carries a value across iterations (or from
        kernel entry); any store whose backward slice reaches one is not
        sliceable, because the slice would be loop-carried.
        """
        defined: Set[int] = set()
        live_in: Set[int] = set()
        for ins in self.body:
            if isinstance(ins, AluInstr):
                if ins.src_a not in defined:
                    live_in.add(ins.src_a)
                if ins.src_b not in defined:
                    live_in.add(ins.src_b)
                defined.add(ins.dst)
            elif isinstance(ins, MoviInstr):
                defined.add(ins.dst)
            elif isinstance(ins, LoadInstr):
                defined.add(ins.dst)
            elif isinstance(ins, StoreInstr):
                if ins.src not in defined:
                    live_in.add(ins.src)
        return live_in


class Program:
    """Per-thread program: an ordered list of kernels with site numbering.

    Construction rewrites every :class:`StoreInstr` so that ``site`` holds
    a program-unique id (stores arrive from the builder with ``site=-1``).
    Equal loads, and equal store address patterns, are shared
    within the program, and each kernel whose body this leaves unchanged
    is kept as given (kernels are immutable by contract).
    """

    def __init__(self, kernels: Sequence[Kernel], thread_id: int = 0) -> None:
        if not kernels:
            raise ValueError("a program needs at least one kernel")
        check_non_negative("thread_id", thread_id)
        self.thread_id = thread_id
        self.kernels: List[Kernel] = []
        #: Per site id: (kernel index, body index).
        self._sites: List[Tuple[int, int]] = []
        #: Per-kernel precompiled dispatch tuples, filled lazily by
        #: :func:`repro.isa.interpreter.kernel_ops`; keyed by kernel index.
        #: Lives on the program so repeated runs over the same program
        #: skip recompilation.
        self.op_cache: Dict[int, tuple] = {}
        next_site = 0
        loads: Dict[LoadInstr, LoadInstr] = {}
        patterns: Dict[AddressPattern, AddressPattern] = {}
        for k_idx, kernel in enumerate(kernels):
            body: List[Instruction] = []
            changed = False
            for i_idx, ins in enumerate(kernel.body):
                if isinstance(ins, StoreInstr):
                    pattern = patterns.setdefault(ins.pattern, ins.pattern)
                    if ins.site != next_site or pattern is not ins.pattern:
                        ins = StoreInstr(ins.src, pattern, next_site, ins.assoc)
                        changed = True
                    self._sites.append((k_idx, i_idx))
                    next_site += 1
                elif isinstance(ins, LoadInstr):
                    shared = loads.setdefault(ins, ins)
                    if shared is not ins:
                        ins = shared
                        changed = True
                body.append(ins)
            if changed:
                kernel = Kernel(
                    kernel.name, body, kernel.trip_count, kernel.phase,
                    kernel.ghost_alu,
                )
            self.kernels.append(kernel)

    # -- site lookups --------------------------------------------------------
    @property
    def store_sites(self) -> List[StoreSite]:
        """All static store sites, in program order."""
        return [StoreSite(site, k, i) for site, (k, i) in enumerate(self._sites)]

    @property
    def num_sites(self) -> int:
        """Number of static store sites."""
        return len(self._sites)

    def site_position(self, site: int) -> Tuple[int, int]:
        """(kernel index, body index) of a site id."""
        return self._sites[site]

    def site_store(self, site: int) -> StoreInstr:
        """The :class:`StoreInstr` for a site id."""
        k_idx, i_idx = self._sites[site]
        ins = self.kernels[k_idx].body[i_idx]
        assert isinstance(ins, StoreInstr)
        return ins

    def site_kernel(self, site: int) -> Kernel:
        """The kernel containing a site id."""
        return self.kernels[self._sites[site][0]]

    # -- aggregate statistics --------------------------------------------------
    @property
    def dynamic_instructions(self) -> int:
        """Total dynamic instruction count of the program."""
        return sum(k.dynamic_instructions for k in self.kernels)

    @property
    def dynamic_stores(self) -> int:
        """Total dynamic store count of the program."""
        return sum(k.store_count * k.trip_count for k in self.kernels)

    def phases(self) -> List[int]:
        """Sorted list of distinct phase tags."""
        return sorted({k.phase for k in self.kernels})

    def __iter__(self) -> Iterator[Kernel]:
        return iter(self.kernels)

    def __len__(self) -> int:
        return len(self.kernels)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Program(thread={self.thread_id}, kernels={len(self.kernels)}, "
            f"dyn_instrs={self.dynamic_instructions})"
        )
