"""Programs, kernels, kernel shapes and store-site bookkeeping.

A :class:`Kernel` is a counted loop whose body is a straight-line
instruction sequence.  A :class:`Program` is the per-thread unit of
execution: an ordered list of kernels grouped into *phases* (the workload
generators use phases to shape the temporal distribution of recomputable
values, cf. paper Fig. 10).

Kernel shapes
-------------
A kernel is a :class:`KernelShape` plus a flat ``params`` tuple.  The
shape is the body's structure — opcodes, registers, which stores carry
``ASSOC-ADDR`` — and everything derived from structure alone: the
instruction counts, the register-file width and stability, the live-in
set, the compiler's per-store slicing, the plan evaluator and the
interpreter's steppers, plain and timed (each one ``exec``-compiled
loop, which an ``ASSOC-ADDR`` variant shares with its plain shape).  ``params`` holds
what varies between kernels of one shape, in body order: each MOVI's
immediate, and each load's and store's ``(base, stride, length,
offset)``.  Shapes are interned in one process-wide table, so each
layer prepares a shape once and every kernel of it only binds its
parameters.

Store sites
-----------
Every static ``STORE`` in a program gets a program-unique *site id*:
:class:`Program` numbers sites by a prefix sum of each kernel's store
count, and a kernel's stores are sites ``site_base, site_base + 1, ...``.
The compiler pass keys extracted Slices on site ids, and the simulator
uses them to find the Slice associated with a dynamic store.

Long-lived footprint
--------------------
Programs live as long as the runs that share them, so a kernel keeps no
instruction objects: it holds its shared shape and a tuple of ints,
which the cyclic collector untracks.  ``Kernel.body`` materialises the
instructions on demand for the analyses that walk them.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, Iterator, List, Optional
from typing import Sequence, Tuple

from repro.isa.instructions import (
    AddressPattern,
    AluInstr,
    Instruction,
    LoadInstr,
    MoviInstr,
    StoreInstr,
)
from repro.util.validation import check_non_negative, check_positive

__all__ = ["Kernel", "KernelShape", "Program", "StoreSite", "shape_count"]

#: Placeholder pattern of a template body's loads and stores.
_NO_PATTERN = AddressPattern(0, 0, 1)

#: Structural key -> its one :class:`KernelShape`.  Bounded by the number
#: of distinct body structures a process builds.
_SHAPES: Dict[tuple, "KernelShape"] = {}


def shape_count() -> int:
    """Number of distinct kernel shapes this process has created."""
    return len(_SHAPES)


@dataclass(frozen=True, slots=True)
class StoreSite:
    """Location of a static store: (kernel index, body index, site id)."""

    site: int
    kernel_index: int
    instr_index: int


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class KernelShape:
    """The structure of a kernel body, shared by every kernel of it.

    ``key`` holds one entry per body instruction: ``(0, dst)`` for MOVI,
    ``(1, op, dst, src_a, src_b)`` for ALU, ``(2, dst)`` for LOAD and
    ``(3, src, assoc)`` for STORE.  ``body`` is the template (its ALU
    objects are every kernel's; MOVI, LOAD and STORE are placeholders),
    ``param_offsets`` each instruction's first index into ``params``
    (-1 for ALU).  ``store_flags`` marks, per load and store in body
    order, the stores.  ``regs_stable``: no register is defined after
    the first store, so the register file a store observes is the
    end-of-iteration row (``unstable_span`` is ``(first store, first
    later definition)`` otherwise).  ``renewed``: every register in
    ``[0, width]`` is defined before it is read, so an iteration's
    register file never depends on the entering one.

    Obtain shapes through :meth:`intern`; fields are read-only.  Layers
    keep their per-shape preparation in the write-once ``slicing``,
    ``evaluator``, ``stepper`` and ``timed_stepper`` slots through
    :meth:`prepared`.
    """

    key: tuple
    body: Tuple[Instruction, ...] = field(init=False)
    param_offsets: Tuple[int, ...] = field(init=False)
    n_params: int = field(init=False)
    store_positions: Tuple[int, ...] = field(init=False)
    alu_count: int = field(init=False)
    load_count: int = field(init=False)
    store_count: int = field(init=False)
    assoc_count: int = field(init=False)
    width: int = field(init=False)
    store_flags: Tuple[bool, ...] = field(init=False)
    regs_stable: bool = field(init=False)
    unstable_span: Optional[Tuple[int, int]] = field(init=False)
    live_in: FrozenSet[int] = field(init=False)
    renewed: bool = field(init=False)
    slicing: Any = field(init=False)
    evaluator: Any = field(init=False)
    stepper: Any = field(init=False)
    timed_stepper: Any = field(init=False)

    def __post_init__(self) -> None:
        key = self.key
        body: List[Instruction] = []
        offsets: List[int] = []
        stores: List[int] = []
        n_params = width = 0
        defined: set = set()
        live_in: set = set()
        unstable: Optional[Tuple[int, int]] = None
        for pos, part in enumerate(key):
            tag = part[0]
            offsets.append(-1 if tag == 1 else n_params)
            n_params += (1, 0, 4, 4)[tag]
            reads: Tuple[int, ...] = ()
            if tag == 1:
                _, op, dst, a, b = part
                body.append(AluInstr(op, dst, a, b))
                reads = (a, b)
            elif tag == 3:
                dst, reads = -1, (part[1],)
                body.append(StoreInstr(part[1], _NO_PATTERN, -1, part[2]))
                stores.append(pos)
            else:
                dst = part[1]
                body.append(
                    MoviInstr(dst, 0) if tag == 0 else LoadInstr(dst, _NO_PATTERN)
                )
            live_in.update(r for r in reads if r not in defined)
            width = max(width, dst, *reads)
            if dst >= 0:
                defined.add(dst)
                if stores and unstable is None:
                    unstable = (stores[0], pos)
        tags = [part[0] for part in key]
        for name, value in (
            ("body", tuple(body)),
            ("param_offsets", tuple(offsets)),
            ("n_params", n_params),
            ("store_positions", tuple(stores)),
            ("alu_count", tags.count(0) + tags.count(1)),
            ("load_count", tags.count(2)),
            ("store_count", len(stores)),
            ("assoc_count", sum(key[pos][2] for pos in stores)),
            ("width", width),
            ("store_flags", tuple(tag == 3 for tag in tags if tag >= 2)),
            ("regs_stable", unstable is None),
            ("unstable_span", unstable),
            ("live_in", frozenset(live_in)),
            ("renewed", not live_in and defined >= set(range(width + 1))),
            ("slicing", None),
            ("evaluator", None),
            ("stepper", None),
            ("timed_stepper", None),
        ):
            object.__setattr__(self, name, value)

    @classmethod
    def intern(cls, key: tuple) -> "KernelShape":
        """The one shape of ``key``, created on first sight."""
        shape = _SHAPES.get(key)
        if shape is None:
            # setdefault: concurrent first sightings still share one shape.
            shape = _SHAPES.setdefault(key, cls(key))
        return shape

    def __repr__(self) -> str:
        return f"KernelShape({len(self.key)} instrs, {self.n_params} params)"

    def prepared(self, slot: str, build: Callable[["KernelShape"], Any]) -> Any:
        """A layer's preparation of this shape, built on first use.

        ``slot`` is ``"slicing"``, ``"evaluator"``, ``"stepper"`` or
        ``"timed_stepper"``;
        ``build`` must be a pure function of the shape, so a second
        caller reads the first's result.
        """
        value = getattr(self, slot)
        if value is None:
            value = build(self)
            object.__setattr__(self, slot, value)
        return value

    def with_assoc(self, flags: Sequence[bool]) -> "KernelShape":
        """This shape with store ``j``'s ``ASSOC-ADDR`` flag set to
        ``flags[j]``."""
        key = list(self.key)
        for pos, flag in zip(self.store_positions, flags):
            key[pos] = (3, key[pos][1], bool(flag))
        return KernelShape.intern(tuple(key))

    def __reduce__(self) -> tuple:
        return (KernelShape.intern, (self.key,))


def _pattern_params(p: AddressPattern) -> Tuple[int, int, int, int]:
    return (p.base, p.stride, p.length, p.offset)


def _shape_and_params(
    body: Sequence[Instruction],
) -> Tuple[KernelShape, Tuple[int, ...], int]:
    """One walk over a body: its shape, its parameters and the site id
    of its first store (-1 when unnumbered or store-free)."""
    key: List[tuple] = []
    params: List[int] = []
    site_base: Optional[int] = None
    for ins in body:
        if isinstance(ins, AluInstr):
            key.append((1, ins.op, ins.dst, ins.src_a, ins.src_b))
        elif isinstance(ins, MoviInstr):
            key.append((0, ins.dst))
            params.append(ins.imm)
        elif isinstance(ins, LoadInstr):
            key.append((2, ins.dst))
            params.extend(_pattern_params(ins.pattern))
        elif isinstance(ins, StoreInstr):
            key.append((3, ins.src, bool(ins.assoc)))
            params.extend(_pattern_params(ins.pattern))
            if site_base is None:
                site_base = ins.site
        else:
            raise TypeError(f"not an instruction: {ins!r}")
    return (
        KernelShape.intern(tuple(key)),
        tuple(params),
        -1 if site_base is None else site_base,
    )


@dataclass(frozen=True, slots=True, init=False)
class Kernel:
    """A counted loop with a straight-line body: a shape plus parameters.

    ``Kernel(name, body, trip_count, phase, ghost_alu)`` walks ``body``
    once to find (or create) its shape; builders that already know the
    shape use :meth:`bind`.  ``site_base`` is the site id of the first
    store (-1 outside a program).

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

    Kernels are immutable, since kernels of one shape share it.
    """

    name: str
    shape: KernelShape
    params: Tuple[int, ...]
    trip_count: int
    phase: int
    ghost_alu: int
    site_base: int

    def __init__(
        self,
        name: str,
        body: Sequence[Instruction],
        trip_count: int,
        phase: int = 0,
        ghost_alu: int = 0,
    ) -> None:
        if not body:
            raise ValueError(f"kernel {name!r} has an empty body")
        shape, params, site_base = _shape_and_params(body)
        self._fill(shape, params, name, trip_count, phase, ghost_alu, site_base)

    @classmethod
    def bind(
        cls,
        shape: KernelShape,
        params: Tuple[int, ...],
        name: str,
        trip_count: int,
        phase: int = 0,
        ghost_alu: int = 0,
        site_base: int = -1,
    ) -> "Kernel":
        """A kernel of a known shape: no body walk."""
        kernel = object.__new__(cls)
        kernel._fill(shape, params, name, trip_count, phase, ghost_alu, site_base)
        return kernel

    def _fill(self, shape: KernelShape, params: Tuple[int, ...], name: str,
              trip_count: int, phase: int, ghost_alu: int,
              site_base: int) -> None:
        if trip_count < 1 or phase < 0 or ghost_alu < 0:
            check_positive("trip_count", trip_count)
            check_non_negative("phase", phase)
            check_non_negative("ghost_alu", ghost_alu)
        if len(params) != shape.n_params:
            raise ValueError(
                f"kernel {name!r}: {len(params)} params for a shape that "
                f"takes {shape.n_params}"
            )
        put = object.__setattr__
        put(self, "name", name)
        put(self, "shape", shape)
        put(self, "params", params)
        put(self, "trip_count", trip_count)
        put(self, "phase", phase)
        put(self, "ghost_alu", ghost_alu)
        put(self, "site_base", site_base)

    # -- the body, on demand -------------------------------------------------
    @property
    def body(self) -> List[Instruction]:
        """The instructions, materialised from the shape and ``params``.

        ALU instructions are the shape's own objects; MOVI, LOAD and
        STORE are built per call.
        """
        params = self.params
        site = self.site_base
        out: List[Instruction] = []
        for ins, p in zip(self.shape.body, self.shape.param_offsets):
            if isinstance(ins, MoviInstr):
                ins = MoviInstr(ins.dst, params[p])
            elif isinstance(ins, LoadInstr):
                ins = LoadInstr(ins.dst, AddressPattern(*params[p:p + 4]))
            elif isinstance(ins, StoreInstr):
                ins = StoreInstr(
                    ins.src, AddressPattern(*params[p:p + 4]), site, ins.assoc
                )
                if site >= 0:
                    site += 1
            out.append(ins)
        return out

    # -- static properties --------------------------------------------------
    @property
    def alu_count(self) -> int:
        """Static ALU (incl. MOVI and ghost) instructions per iteration."""
        return self.ghost_alu + self.shape.alu_count

    @property
    def load_count(self) -> int:
        """Static loads per iteration."""
        return self.shape.load_count

    @property
    def store_count(self) -> int:
        """Static stores per iteration."""
        return self.shape.store_count

    @property
    def instructions_per_iteration(self) -> int:
        """All instructions per iteration (ASSOC-ADDR flags not counted)."""
        return len(self.shape.key) + self.ghost_alu

    @property
    def dynamic_instructions(self) -> int:
        """Total dynamic instructions over the whole loop."""
        return (len(self.shape.key) + self.ghost_alu) * self.trip_count

    def live_in_registers(self) -> FrozenSet[int]:
        """Registers read before being written within one body iteration.

        A live-in register carries a value across iterations (or from
        kernel entry); any store whose backward slice reaches one is not
        sliceable, because the slice would be loop-carried.
        """
        return self.shape.live_in


class Program:
    """Per-thread program: an ordered list of kernels with site numbering.

    A kernel whose ``site_base`` is not its first site id in this program
    is re-bound with the right one (same shape and parameters); every
    other kernel is kept as given.
    """

    def __init__(self, kernels: Sequence[Kernel], thread_id: int = 0) -> None:
        if not kernels:
            raise ValueError("a program needs at least one kernel")
        check_non_negative("thread_id", thread_id)
        self.thread_id = thread_id
        self.kernels: List[Kernel] = []
        #: Per kernel: the site id of its first store (a prefix sum).
        self._starts: List[int] = []
        next_site = 0
        append = self.kernels.append
        for kernel in kernels:
            n = kernel.shape.store_count
            if n and kernel.site_base != next_site:
                kernel = Kernel.bind(
                    kernel.shape, kernel.params, kernel.name,
                    kernel.trip_count, kernel.phase, kernel.ghost_alu,
                    next_site,
                )
            append(kernel)
            self._starts.append(next_site)
            next_site += n
        self._num_sites = next_site

    # -- site lookups --------------------------------------------------------
    @property
    def store_sites(self) -> List[StoreSite]:
        """All static store sites, in program order."""
        return [
            StoreSite(start + j, k, pos)
            for k, (kernel, start) in enumerate(zip(self.kernels, self._starts))
            for j, pos in enumerate(kernel.shape.store_positions)
        ]

    @property
    def num_sites(self) -> int:
        """Number of static store sites."""
        return self._num_sites

    def site_position(self, site: int) -> Tuple[int, int]:
        """(kernel index, body index) of a site id."""
        if not 0 <= site < self._num_sites:
            raise IndexError(f"site {site} out of range")
        k = bisect_right(self._starts, site) - 1
        return k, self.kernels[k].shape.store_positions[site - self._starts[k]]

    def site_store(self, site: int) -> StoreInstr:
        """The :class:`StoreInstr` for a site id."""
        k_idx, i_idx = self.site_position(site)
        ins = self.kernels[k_idx].body[i_idx]
        assert isinstance(ins, StoreInstr)
        return ins

    def site_kernel(self, site: int) -> Kernel:
        """The kernel containing a site id."""
        return self.kernels[self.site_position(site)[0]]

    # -- aggregate statistics --------------------------------------------------
    @property
    def dynamic_instructions(self) -> int:
        """Total dynamic instruction count of the program."""
        return sum(k.dynamic_instructions for k in self.kernels)

    @property
    def dynamic_stores(self) -> int:
        """Total dynamic store count of the program."""
        return sum(k.shape.store_count * k.trip_count for k in self.kernels)

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
