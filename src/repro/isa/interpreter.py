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
each kernel through its shape's *stepper*: one ``exec``-compiled loop
per :class:`~repro.isa.program.KernelShape`, with registers in locals
and ALU expressions, addresses and memory accesses inlined, to which a
kernel passes its ``params`` and first site id.  An ``ASSOC-ADDR``
variant shares its plain shape's stepper: the flag changes no value or
event, only the ``assoc`` count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, cast

from repro.isa.opcodes import ALU_EXPR, INIT_MIX, MASK64
from repro.isa.opcodes import address_expr, initial_value_lines
from repro.isa.program import KernelShape, Program

__all__ = [
    "MemoryImage",
    "Interpreter",
    "StoreEvent",
    "LoadEvent",
    "ExecChunk",
]


@dataclass(frozen=True, slots=True)
class LoadEvent:
    """A dynamic load: thread id and byte address."""

    thread: int
    address: int


@dataclass(frozen=True, slots=True)
class StoreEvent:
    """A dynamic store, observed after its memory write.

    ``regs`` is a snapshot of the executing kernel's register file at
    the store (a fresh list per event): the operand values the ACR
    checkpoint handler copies out for a Slice.
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
        x = (address * INIT_MIX + self.seed) & MASK64
        x ^= x >> 29
        return (x * INIT_MIX) & MASK64

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


def _generate_stepper(shape: KernelShape) -> Callable[..., None]:
    """``exec``-compile the stepper of one shape.

    ``step(regs, i0, n, P, words, seed, on_load, on_store, thread,
    site_base)`` runs iterations ``i0 .. i0 + n - 1`` of the kernel with
    parameters ``P`` over the memory image's word dict ``words`` and
    leaves the register file in ``regs``.  Store ``j`` is site
    ``site_base + j`` (-1 throughout when ``site_base`` is).  Each load
    reports after its read, each store after its write, which is masked
    to 64 bits as :meth:`MemoryImage.write` masks it.
    """
    names = "".join(f"r{r}, " for r in range(shape.width + 1))
    lines = ["def step(regs, i0, n, P, words, seed, on_load, on_store, "
             "thread, site_base):"]
    w = lines.append
    if shape.n_params:
        w("    " + "".join(f"p{i}, " for i in range(shape.n_params)) + "= P")
    for part, p in zip(shape.key, shape.param_offsets):
        if part[0] == 0:
            w(f"    p{p} &= {MASK64:#x}")
    for j in range(1, shape.store_count):
        w(f"    s{j} = site_base + {j} if site_base >= 0 else -1")
    w(f"    {names}= regs")
    w("    get = words.get")
    w("    for i in range(i0, i0 + n):")
    site = "site_base"
    j = 0
    for part, p in zip(shape.key, shape.param_offsets):
        tag = part[0]
        if tag == 0:  # MOVI (immediate masked above)
            w(f"        r{part[1]} = p{p}")
        elif tag == 1:  # ALU
            _, op, dst, a, b = part
            w(f"        r{dst} = " + ALU_EXPR[op].format(a=a, b=b))
        elif tag == 2:  # LOAD
            dst = f"r{part[1]}"
            w(f"        a = {address_expr(p)}")
            w(f"        {dst} = get(a)")
            w(f"        if {dst} is None:")
            lines.extend("            " + line for line in initial_value_lines(dst))
            w("        if on_load is not None:")
            w("            on_load(LoadEvent(thread, a))")
        else:  # STORE
            src = f"r{part[1]}"
            w(f"        a = {address_expr(p)}")
            w("        old = get(a)")
            w("        if old is None:")
            lines.extend("            " + line for line in initial_value_lines("old"))
            w(f"        words[a] = {src} & {MASK64:#x}")
            w("        if on_store is not None:")
            w(f"            on_store(StoreEvent(thread, {site}, a, old, {src}, i,"
              f" [{names}]))")
            j += 1
            site = f"s{j}"
    w(f"    regs[:] = {names}")
    namespace: Dict[str, object] = {"LoadEvent": LoadEvent, "StoreEvent": StoreEvent}
    exec("\n".join(lines), namespace)  # noqa: S102 - trusted generated code
    return cast(Callable[..., None], namespace["step"])


def _build_stepper(shape: KernelShape) -> Callable[..., None]:
    """A shape's stepper: its plain shape's, which is generated once."""
    if shape.assoc_count:  # the flag reaches no generated line
        plain = shape.with_assoc((False,) * shape.store_count)
        return plain.prepared("stepper", _build_stepper)
    return _generate_stepper(shape)


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

        The register file is replaced wholesale.
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
        """Size the register file for the current kernel."""
        if self._kernel_index < len(self.program.kernels):
            width = self.program.kernels[self._kernel_index].shape.width
            self._regs = [0] * (width + 1)
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
        kernels = self.program.kernels
        n_kernels = len(kernels)
        thread = self.program.thread_id
        words = self.memory.words_map()
        seed = self.memory.seed
        on_load = self.on_load
        on_store = self.on_store
        k, i, regs = self._kernel_index, self._iteration, self._regs
        while iterations < max_iterations and k < n_kernels:
            kernel = kernels[k]
            shape = kernel.shape
            trip = kernel.trip_count
            budget = min(trip - i, max_iterations - iterations)
            step = shape.stepper or shape.prepared("stepper", _build_stepper)
            step(regs, i, budget, kernel.params, words, seed, on_load,
                 on_store, thread, kernel.site_base)
            # Ghost instructions: charged, never interpreted (see Kernel).
            alu += budget * (shape.alu_count + kernel.ghost_alu)
            loads += budget * shape.load_count
            stores += budget * shape.store_count
            assoc += budget * shape.assoc_count
            iterations += budget
            i += budget
            if i >= trip:
                k += 1
                if k < n_kernels:
                    i = 0
                    regs = [0] * (kernels[k].shape.width + 1)
        self._kernel_index, self._iteration, self._regs = k, i, regs
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
