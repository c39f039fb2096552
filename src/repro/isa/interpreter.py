"""Functional interpreter for IR programs.

The interpreter executes kernels iteration by iteration over a shared
:class:`MemoryImage`, producing real 64-bit values.  It is deliberately
minimal: *timing* and *energy* are not computed here — the simulator
observes memory events through callbacks and accounts for them against its
machine model.  This separation keeps the functional semantics (needed for
recomputation-correctness testing) independent from any particular
microarchitecture.

The interpreter supports chunked execution (`step_iterations`) so the
simulator can pause threads at checkpoint-interval boundaries.  It runs
each kernel from dispatch ops that :func:`kernel_ops` binds once per
kernel: the kernel's parameters and site ids go into its shape's lowered
template, which is built once per shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.isa.opcodes import MASK64
from repro.isa.program import Program

__all__ = [
    "MemoryImage",
    "Interpreter",
    "StoreEvent",
    "LoadEvent",
    "ExecChunk",
    "kernel_ops",
]

_INIT_MIX = 0x9E3779B97F4A7C15


def kernel_ops(program: Program, kernel_index: int) -> Tuple[int, List[tuple]]:
    """The ``(width, ops)`` dispatch form of one kernel of ``program``.

    Each op is a tuple with a small integer tag; the hot loop then avoids
    isinstance checks, dataclass attribute lookups and per-access
    ``AddressPattern.address`` calls.  The single instruction lowering
    both engines use: the kernel's shape holds the lowered template (its
    ALU ops are shared by every kernel of the shape) and this binds the
    kernel's parameters and site ids into it, cached per kernel in
    ``program.op_cache`` so whichever engine touches a kernel first pays
    for it once.
    """
    cached = program.op_cache.get(kernel_index)
    if cached is None:
        kernel = program.kernels[kernel_index]
        shape = kernel.shape
        cached = program.op_cache[kernel_index] = (
            shape.width,
            shape.ops(kernel.params, kernel.site_base),
        )
    return cached


@dataclass(frozen=True, slots=True)
class LoadEvent:
    """A dynamic load: thread id and byte address."""

    thread: int
    address: int


@dataclass(frozen=True, slots=True)
class StoreEvent:
    """A dynamic store.

    ``regs`` is the *live* register file of the executing kernel at the
    moment of the store; observers that need operand values (the ACR
    checkpoint handler snapshotting Slice inputs) must copy them out
    immediately — the list mutates as execution continues.
    """

    thread: int
    site: int
    address: int
    old_value: int
    new_value: int
    iteration: int
    regs: List[int]


@dataclass(frozen=True, slots=True)
class ExecChunk:
    """Dynamic instruction counts for an executed chunk."""

    iterations: int
    alu: int
    loads: int
    stores: int
    assoc: int

    @property
    def instructions(self) -> int:
        """Total dynamic instructions in the chunk (ASSOC-ADDR included)."""
        return self.alu + self.loads + self.stores + self.assoc


class MemoryImage:
    """Word-granular functional memory with deterministic initial contents.

    An untouched word reads as a pseudo-random but reproducible function of
    its address and the image seed, so the "old value" logged on the very
    first write to a line is well defined (and differs per address, which
    keeps checkpoint-content tests honest).
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed & MASK64
        self._words: Dict[int, int] = {}

    def initial_value(self, address: int) -> int:
        """The value an address holds before any store touches it."""
        x = (address * _INIT_MIX + self.seed) & MASK64
        x ^= x >> 29
        return (x * _INIT_MIX) & MASK64

    def read(self, address: int) -> int:
        """Read the word at ``address``."""
        value = self._words.get(address)
        if value is None:
            return self.initial_value(address)
        return value

    def write(self, address: int, value: int) -> int:
        """Write the word at ``address``; returns the *old* value."""
        old = self.read(address)
        self._words[address] = value & MASK64
        return old

    def touched_addresses(self) -> List[int]:
        """All addresses that were ever written (sorted)."""
        return sorted(self._words)

    def words_map(self) -> Dict[int, int]:
        """The live written-word dict, for engines inlining read/write.

        Note :meth:`restore` *rebinds* the dict — engines must re-fetch
        this per execution segment rather than hold it across a rollback.
        """
        return self._words

    def snapshot(self) -> Dict[int, int]:
        """Copy of the written-word map (tests use this for equivalence)."""
        return dict(self._words)

    def restore(self, snap: Dict[int, int]) -> None:
        """Replace the written-word map with ``snap``."""
        self._words = dict(snap)

    def __len__(self) -> int:
        return len(self._words)


class Interpreter:
    """Executes one thread's :class:`Program` over a shared memory image.

    Parameters
    ----------
    program, memory:
        What to run and where values live.
    on_load, on_store:
        Optional observers invoked for every dynamic memory access.  The
        store observer may return ``None``; its return value is ignored.
    """

    def __init__(
        self,
        program: Program,
        memory: MemoryImage,
        on_load: Optional[Callable[[LoadEvent], None]] = None,
        on_store: Optional[Callable[[StoreEvent], None]] = None,
    ) -> None:
        self.program = program
        self.memory = memory
        self.on_load = on_load
        self.on_store = on_store
        self._kernel_index = 0
        self._iteration = 0
        self._regs: List[int] = []
        self._ops: List[tuple] = []
        self._prepare_kernel()

    # -- state ---------------------------------------------------------------
    @property
    def done(self) -> bool:
        """True once every kernel has run to completion."""
        return self._kernel_index >= len(self.program.kernels)

    @property
    def position(self) -> Tuple[int, int]:
        """(kernel index, next iteration) — useful in tests and traces."""
        return (self._kernel_index, self._iteration)

    @property
    def current_phase(self) -> int:
        """Phase tag of the kernel currently executing (last phase if done)."""
        if self.done:
            return self.program.kernels[-1].phase
        return self.program.kernels[self._kernel_index].phase

    def arch_state(self) -> Tuple[int, int, List[int]]:
        """Snapshot of the architectural state: (kernel, iteration, regs).

        Together with a memory restore this is everything a rollback
        needs to resume the thread from a checkpoint — the paper's
        "architectural state" payload of a checkpoint, functionally.
        """
        return (self._kernel_index, self._iteration, list(self._regs))

    def restore_arch_state(self, state: Tuple[int, int, List[int]]) -> None:
        """Rewind (or fast-forward) to a state from :meth:`arch_state`.

        The register file is replaced wholesale; the kernel's compiled
        ops are re-resolved through the program's op cache.
        """
        kernel_index, iteration, regs = state
        if kernel_index < 0 or kernel_index > len(self.program.kernels):
            raise ValueError(f"bad kernel index {kernel_index}")
        self._kernel_index = kernel_index
        self._prepare_kernel()
        if not self.done:
            self._iteration = iteration
            self._regs = list(regs)

    def _prepare_kernel(self) -> None:
        """Size the register file and load the kernel's dispatch ops."""
        if self._kernel_index < len(self.program.kernels):
            width, ops = kernel_ops(self.program, self._kernel_index)
            self._regs = [0] * (width + 1)
            self._ops = ops
            self._iteration = 0

    # -- execution -------------------------------------------------------------
    def step_iterations(self, max_iterations: int) -> ExecChunk:
        """Execute up to ``max_iterations`` loop iterations.

        Crosses kernel boundaries as needed; stops early when the program
        finishes.  Returns the dynamic instruction counts of the chunk.
        """
        if max_iterations <= 0:
            raise ValueError("max_iterations must be positive")
        iterations = alu = loads = stores = assoc = 0
        memory = self.memory
        on_load = self.on_load
        on_store = self.on_store
        thread = self.program.thread_id

        mem_read = memory.read
        mem_write = memory.write
        while iterations < max_iterations and not self.done:
            kernel = self.program.kernels[self._kernel_index]
            ops = self._ops
            remaining_here = kernel.trip_count - self._iteration
            budget = min(remaining_here, max_iterations - iterations)
            # Ghost instructions: charged, never interpreted (see Kernel).
            alu += budget * kernel.ghost_alu
            regs = self._regs
            i = self._iteration
            for _ in range(budget):
                for op in ops:
                    tag = op[0]
                    if tag == 1:  # ALU
                        regs[op[2]] = op[1](regs[op[3]], regs[op[4]])
                        alu += 1
                    elif tag == 2:  # LOAD
                        addr = op[2] + ((op[5] + i * op[3]) % op[4]) * 8
                        regs[op[1]] = mem_read(addr)
                        loads += 1
                        if on_load is not None:
                            on_load(LoadEvent(thread, addr))
                    elif tag == 3:  # STORE
                        addr = op[2] + ((op[5] + i * op[3]) % op[4]) * 8
                        new_value = regs[op[1]]
                        old_value = mem_write(addr, new_value)
                        stores += 1
                        if op[7]:
                            assoc += 1
                        if on_store is not None:
                            on_store(
                                StoreEvent(
                                    thread,
                                    op[6],
                                    addr,
                                    old_value,
                                    new_value,
                                    i,
                                    regs,
                                )
                            )
                    else:  # MOVI
                        regs[op[1]] = op[2]
                        alu += 1
                i += 1
            self._iteration = i
            iterations += budget
            if self._iteration >= kernel.trip_count:
                self._kernel_index += 1
                self._prepare_kernel()
        return ExecChunk(iterations, alu, loads, stores, assoc)

    def run_to_completion(self, chunk: int = 4096) -> ExecChunk:
        """Run the whole program; returns aggregate counts."""
        total_it = total_alu = total_ld = total_st = total_as = 0
        while not self.done:
            c = self.step_iterations(chunk)
            total_it += c.iterations
            total_alu += c.alu
            total_ld += c.loads
            total_st += c.stores
            total_as += c.assoc
        return ExecChunk(total_it, total_alu, total_ld, total_st, total_as)
