"""Functional interpreter for IR programs.

The interpreter executes kernels iteration by iteration over a shared
:class:`MemoryImage`, producing real 64-bit values.  It runs each kernel
through its shape's *stepper*: one ``exec``-compiled loop per
:class:`~repro.isa.program.KernelShape`, with registers in locals and
ALU expressions, addresses and memory accesses inlined, to which a
kernel passes its ``params`` and first site id.  An ``ASSOC-ADDR``
variant shares its plain shape's stepper: the flag changes no value or
event, only the ``assoc`` count.

A plain interpreter computes no time or energy: optional callbacks
observe each load and store as a :class:`LoadEvent` or
:class:`StoreEvent` (the fault-injection harness and the tests drive the
checkpointing mechanism this way).  The simulator instead hands each
core's interpreter a :class:`StepTiming`, and the interpreter then runs
each shape's *timed* stepper: the same loop with the core's cache
lookups, stall accumulation, communication tracking and log-bit test
inlined after every access, calling into the mechanism only for a first
write and the ACR handler (DESIGN §4.1).

The interpreter supports chunked execution (`step_iterations`) so the
simulator can pause threads at checkpoint-interval boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple, cast

from repro.isa.opcodes import ALU_EXPR, INIT_MIX, MASK64
from repro.isa.opcodes import address_expr, exec_generated, initial_value_lines
from repro.isa.program import KernelShape, Program

__all__ = [
    "MemoryImage",
    "Interpreter",
    "StoreEvent",
    "LoadEvent",
    "ExecChunk",
    "StepTiming",
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


class StepTiming(NamedTuple):
    """One core's machine, as its timed stepper binds it.

    Built once per core (every member is stable for a run: the caches'
    set lists, dirty sets and the directory's sets are cleared in place
    at boundaries).  ``toucher``/``edges`` are ``None`` unless the run
    tracks communication, ``log_bits`` and ``first_write`` unless it
    checkpoints, ``handler_store`` unless it runs ACR; a store whose
    ``handler_store`` returns ``recorded`` is charged an ASSOC-ADDR slot
    (``assoc_stall``).  ``sync`` publishes the pending stalls before
    each call into the mechanism, for observed runs whose events read
    the core's clock.
    """

    l1: Any
    l1_sets: List[Any]
    l1_nsets: int
    l1_ways: int
    l1_dirty: set
    l2: Any
    l2_sets: List[Any]
    l2_nsets: int
    l2_ways: int
    l2_dirty: set
    hierarchy: Any
    line_bytes: int
    l2_stall: float
    mem_stall: float
    toucher: Optional[Dict[int, int]]
    edges: Optional[set]
    log_bits: Optional[set]
    first_write: Optional[Callable[[int, int, int], bool]]
    log_stall: float
    handler_store: Optional[Callable[..., Any]]
    recorded: Any
    assoc_stall: float
    pending_useful: List[float]
    pending_overhead: List[float]
    sync: bool


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


def _access_lines(is_store: bool) -> List[str]:
    """The timed stepper's accounting of one access to address ``a``
    (indented for the loop body): :meth:`CoreCacheHierarchy.access
    <repro.arch.hierarchy.CoreCacheHierarchy.access>` over the bound set
    lists, then its stall and the directory's communication tracking.

    As in :meth:`SetAssociativeCache.access
    <repro.arch.cache.SetAssociativeCache.access>`, a set's dict holds
    LRU order alone and is created on first touch, and dirtiness lives
    in the dirty sets.  A dirty L1 victim is written into L2 before the
    demand fill.  An L1 hit stalls ``0.0``, which is skipped: ``x + 0.0
    == x`` for the non-negative accumulator.
    """
    lines = [
        "line = a // lb",
        "si = line % l1n",
        "cset = l1s[si]",
        "if cset is None:",
        "    cset = l1s[si] = {}",
        "if line in cset:",
        "    cset[line] = cset.pop(line)",
        "    l1h += 1",
        "else:",
        "    l1m += 1",
        "    if len(cset) >= l1w:",
        "        v = next(iter(cset))",
        "        del cset[v]",
        "        l1e += 1",
        "        if v in l1d:",
        "            l1d.remove(v)",
        "            l1de += 1",
        "            si = v % l2n",
        "            wset = l2s[si]",
        "            if wset is None:",
        "                wset = l2s[si] = {}",
        "            if v in wset:",
        "                wset[v] = wset.pop(v)",
        "                l2h += 1",
        "            else:",
        "                l2m += 1",
        "                if len(wset) >= l2w:",
        "                    x = next(iter(wset))",
        "                    del wset[x]",
        "                    l2e += 1",
        "                    if x in l2d:",
        "                        l2d.remove(x)",
        "                        l2de += 1",
        "                        wb += 1",
        "                wset[v] = None",
        "            l2d.add(v)",
        "    cset[line] = None",
        "    si = line % l2n",
        "    dset = l2s[si]",
        "    if dset is None:",
        "        dset = l2s[si] = {}",
        "    if line in dset:",
        "        dset[line] = dset.pop(line)",
        "        l2h += 1",
        "        pu += l2st",
        "    else:",
        "        l2m += 1",
        "        if len(dset) >= l2w:",
        "            x = next(iter(dset))",
        "            del dset[x]",
        "            l2e += 1",
        "            if x in l2d:",
        "                l2d.remove(x)",
        "                l2de += 1",
        "                wb += 1",
        "        dset[line] = None",
        "        mem += 1",
        "        pu += memst",
    ]
    if is_store:
        lines.append("l1d.add(line)")
    lines += [
        "if track:",
        "    prev = toucher.get(line)",
        "    if prev is None:",
        "        toucher[line] = thread",
        "    elif prev != thread:",
        "        edges.add((prev, thread) if prev < thread else (thread, prev))",
        "        toucher[line] = thread",
    ]
    return ["        " + line for line in lines]


#: The timed stepper's per-access accounting, generated once.
_LOAD_ACCOUNTING = _access_lines(False)
_STORE_ACCOUNTING = _access_lines(True)

#: The timed stepper's first-write protocol and handler call after a
#: store's accounting; ``{site}`` and ``{regs}`` are filled per store.
#: Observed runs (``sync``) publish the pending stalls before each call
#: into the mechanism, whose events read the core's clock.  The log
#: write's stall, then ASSOC-ADDR's slot, is charged after both calls,
#: in this order (float addition is not associative).
_STORE_PROTOCOL = [
    "        lg = rec = False",
    "        if log_bits is not None and a not in log_bits:",
    "            log_bits.add(a)",
    "            if sync:",
    "                PU[thread] = pu",
    "                PO[thread] = po",
    "            lg = first_write(thread, a, old)",
    "        if hstore is not None:",
    "            if sync:",
    "                PU[thread] = pu",
    "                PO[thread] = po",
    "            rec = hstore(thread, {site}, a, ({regs})) is REC",
    "        if lg:",
    "            po += log_st",
    "        if rec:",
    "            po += cyc",
]


def _generate_stepper(shape: KernelShape, timed: bool = False) -> Callable[..., None]:
    """``exec``-compile the stepper, or the timed stepper, of one shape.

    ``step(regs, i0, n, P, words, seed, on_load, on_store, thread,
    site_base)`` runs iterations ``i0 .. i0 + n - 1`` of the kernel with
    parameters ``P`` over the memory image's word dict ``words`` and
    leaves the register file in ``regs``.  Store ``j`` is site
    ``site_base + j`` (-1 throughout when ``site_base`` is).  Each load
    reports after its read, each store after its write, which is masked
    to 64 bits as :meth:`MemoryImage.write` masks it.

    The timed stepper, ``step(regs, i0, n, P, words, seed, T, thread,
    site_base)``, computes the same values and, in place of the reports,
    accounts each access against the core bound in ``T`` (a
    :class:`StepTiming`): its caches and stall, the directory's
    communication tracking, and for a store the log bit,
    :meth:`~repro.sim.mechanism.Mechanism.first_write` and the handler
    call.  Counters batch in locals and are added to the caches once
    per call; the pending stalls are read from and written back to
    ``T``'s lists.
    """
    names = "".join(f"r{r}, " for r in range(shape.width + 1))
    if timed:
        lines = ["def step(regs, i0, n, P, words, seed, T, thread, site_base):",
                 "    (l1c, l1s, l1n, l1w, l1d, l2c, l2s, l2n, l2w, l2d, hier,"
                 " lb, l2st, memst, toucher, edges, log_bits, first_write,"
                 " log_st, hstore, REC, cyc, PU, PO, sync) = T",
                 "    track = toucher is not None",
                 "    pu = PU[thread]",
                 "    po = PO[thread]",
                 "    l1h = l1m = l1e = l1de = l2h = l2m = l2e = l2de = mem"
                 " = wb = 0"]
    else:
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
            if timed:
                lines.extend(_LOAD_ACCOUNTING)
            else:
                w("        if on_load is not None:")
                w("            on_load(LoadEvent(thread, a))")
        else:  # STORE
            src = f"r{part[1]}"
            w(f"        a = {address_expr(p)}")
            w("        old = get(a)")
            w("        if old is None:")
            lines.extend("            " + line for line in initial_value_lines("old"))
            w(f"        words[a] = {src} & {MASK64:#x}")
            if timed:
                lines.extend(_STORE_ACCOUNTING)
                lines.extend(line.format(site=site, regs=names)
                             for line in _STORE_PROTOCOL)
            else:
                w("        if on_store is not None:")
                w(f"            on_store(StoreEvent(thread, {site}, a, old, {src}, i,"
                  f" [{names}]))")
            j += 1
            site = f"s{j}"
    w(f"    regs[:] = {names}")
    if timed:
        lines += [
            "    PU[thread] = pu",
            "    PO[thread] = po",
            "    l1c.hits += l1h",
            "    l1c.misses += l1m",
            "    l1c.evictions += l1e",
            "    l1c.dirty_evictions += l1de",
            "    l2c.hits += l2h",
            "    l2c.misses += l2m",
            "    l2c.evictions += l2e",
            "    l2c.dirty_evictions += l2de",
            "    hier.memory_accesses += mem",
            "    hier.writebacks += wb",
        ]
        namespace: Dict[str, object] = {}
        exec_generated("timed-stepper", "\n".join(lines), namespace)
        return cast(Callable[..., None], namespace["step"])
    namespace = {"LoadEvent": LoadEvent, "StoreEvent": StoreEvent}
    exec_generated("stepper", "\n".join(lines), namespace)
    return cast(Callable[..., None], namespace["step"])


def _build_stepper(shape: KernelShape) -> Callable[..., None]:
    """A shape's stepper: its plain shape's, which is generated once."""
    if shape.assoc_count:  # the flag reaches no generated line
        plain = shape.with_assoc((False,) * shape.store_count)
        return plain.prepared("stepper", _build_stepper)
    return _generate_stepper(shape)


def _build_timed_stepper(shape: KernelShape) -> Callable[..., None]:
    """A shape's timed stepper: its plain shape's, generated once."""
    if shape.assoc_count:
        plain = shape.with_assoc((False,) * shape.store_count)
        return plain.prepared("timed_stepper", _build_timed_stepper)
    return _generate_stepper(shape, timed=True)


class Interpreter:
    """Executes one thread's :class:`Program` over a shared memory image.

    Parameters
    ----------
    program, memory:
        What to run and where values live.
    on_load, on_store:
        Optional observers invoked for every dynamic memory access.  The
        store observer may return ``None``; its return value is ignored.
    timing:
        The core this thread runs on, for the simulator's timed
        steppers (no observers then).
    """

    def __init__(
        self,
        program: Program,
        memory: MemoryImage,
        on_load: Optional[Callable[[LoadEvent], None]] = None,
        on_store: Optional[Callable[[StoreEvent], None]] = None,
        timing: Optional[StepTiming] = None,
    ) -> None:
        if timing is not None and (on_load is not None or on_store is not None):
            raise ValueError("a timed interpreter takes no observers")
        self.program = program
        self.memory = memory
        self.on_load = on_load
        self.on_store = on_store
        self.timing = timing
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

        The iteration and the register file are replaced wholesale, a
        finished core's too, so :meth:`arch_state` then returns ``state``.
        """
        kernel_index, iteration, regs = state
        if kernel_index < 0 or kernel_index > len(self.program.kernels):
            raise ValueError(f"bad kernel index {kernel_index}")
        self._kernel_index = kernel_index
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
        timing = self.timing
        k, i, regs = self._kernel_index, self._iteration, self._regs
        while iterations < max_iterations and k < n_kernels:
            kernel = kernels[k]
            shape = kernel.shape
            trip = kernel.trip_count
            budget = min(trip - i, max_iterations - iterations)
            if timing is None:
                step = shape.stepper or shape.prepared("stepper", _build_stepper)
                step(regs, i, budget, kernel.params, words, seed, on_load,
                     on_store, thread, kernel.site_base)
            else:
                step = shape.timed_stepper or shape.prepared(
                    "timed_stepper", _build_timed_stepper
                )
                step(regs, i, budget, kernel.params, words, seed, timing,
                     thread, kernel.site_base)
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
