"""Per-segment vector-safety certificates over kernel footprints.

The vector engine replays a kernel's precomputed trace plan only when
four invariants hold for the segment; PR 6 checked them dynamically.
This module proves (or refutes) each statically from the IR alone:

ACR009 ``vector-unsafe-overlap``
    The kernel's load footprint intersects its *own* store footprint —
    replayed loads would read stale precomputed values.
ACR010 ``cross-core-aliasing-race``
    The kernel's load footprint intersects the store footprint of some
    *other core's* program — another thread may write a loaded word.
ACR011 ``unstable-observed-register``
    A register is (re)defined after the kernel's first store, so the
    register file observed at store time is not the end-of-iteration
    row the plan carries; observers (the ACR checkpoint handler
    snapshotting slice operands) would see different values.
ACR012 ``external-load-intersection``
    The kernel's load footprint intersects a store footprint of an
    *earlier kernel of the same program* — replayed loads would miss
    values the program itself wrote before this segment.

A kernel with none of these is issued a SAFE certificate: replaying its
plan is bit-identical to classic execution under any interleaving the
simulator can produce (cores execute their kernels strictly in order,
and recovery is cost-only — it never re-executes stores functionally).
Denials carry the rule id, a message with a witness address where one
exists, and the offending instruction span, so every runtime fallback
is attributable.

Orthogonally, :class:`KernelSummary` proves **register renewal**: every
register in the kernel's file is defined in the body and no register is
read before its same-iteration definition.  A renewal kernel's register
file after any full iteration is a pure function of the iteration index
— independent of the file it entered with — so the kernel's plan rows
stay exact even after an architectural-state restore installs a
different entering file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple
from weakref import WeakKeyDictionary

from repro.isa.instructions import LoadInstr, StoreInstr
from repro.isa.program import Kernel, Program
from repro.verify.absint.shapes import AccessRange, range_of

__all__ = [
    "Denial",
    "KernelSummary",
    "ProgramSummary",
    "SegmentCertificate",
    "certify_run",
    "summarize_kernel",
    "summarize_program",
]

RULE_OVERLAP = "ACR009"
RULE_CROSS_CORE = "ACR010"
RULE_UNSTABLE = "ACR011"
RULE_EXTERNAL = "ACR012"


@dataclass(frozen=True)
class KernelSummary:
    """Everything the certifier proved about one kernel in isolation.

    ``loads``/``stores`` pair each stream's body instruction index with
    its footprint; the flags are the kernel-local invariants.  Spans are
    inclusive ``(first, last)`` body-instruction indices implicating the
    finding (None when the corresponding invariant holds).
    """

    index: int
    name: str
    trip: int
    width: int
    loads: Tuple[Tuple[int, AccessRange], ...]
    stores: Tuple[Tuple[int, AccessRange], ...]
    load_addrs: FrozenSet[int]
    store_addrs: FrozenSet[int]
    overlap: bool
    overlap_span: Optional[Tuple[int, int]]
    regs_stable: bool
    unstable_span: Optional[Tuple[int, int]]
    regs_renewed: bool


@dataclass(frozen=True)
class ProgramSummary:
    """Per-kernel summaries plus the cross-kernel store prefix unions."""

    kernels: Tuple[KernelSummary, ...]
    #: All store addresses of the whole program.
    store_union: FrozenSet[int]
    #: ``prefix_stores[k]`` = stores of kernels strictly before ``k``.
    prefix_stores: Tuple[FrozenSet[int], ...]


@dataclass(frozen=True)
class Denial:
    """One reason a segment may not replay unconditionally."""

    rule_id: str
    message: str
    span: Tuple[int, int]


@dataclass(frozen=True)
class SegmentCertificate:
    """The certified verdict for one (core, kernel) trace segment."""

    core: int
    kernel_index: int
    kernel: str
    trip: int
    safe: bool
    denials: Tuple[Denial, ...]

    @property
    def reason(self) -> Optional[str]:
        """The leading denial's rule id (None when SAFE)."""
        return self.denials[0].rule_id if self.denials else None


def summarize_kernel(index: int, kernel: Kernel) -> KernelSummary:
    """Abstractly interpret one kernel body.

    Each load's and store's footprint comes from its pattern; the
    register-file width, stability (no definition after the first store)
    and renewal are read from the kernel's shape, which the plan builder
    reads too.
    """
    trip = kernel.trip_count
    loads: List[Tuple[int, AccessRange]] = []
    stores: List[Tuple[int, AccessRange]] = []
    for pos, ins in enumerate(kernel.body):
        if isinstance(ins, (LoadInstr, StoreInstr)):
            footprints = stores if isinstance(ins, StoreInstr) else loads
            footprints.append((pos, range_of(ins.pattern, trip)))
    load_addrs = frozenset().union(*(r.addresses for _, r in loads)) \
        if loads else frozenset()
    store_addrs = frozenset().union(*(r.addresses for _, r in stores)) \
        if stores else frozenset()
    overlap = bool(load_addrs) and not load_addrs.isdisjoint(store_addrs)
    overlap_span: Optional[Tuple[int, int]] = None
    if overlap:
        offending = [
            pos for pos, r in loads if not r.addresses.isdisjoint(store_addrs)
        ] + [
            pos for pos, r in stores if not r.addresses.isdisjoint(load_addrs)
        ]
        overlap_span = (min(offending), max(offending))
    shape = kernel.shape
    return KernelSummary(
        index=index,
        name=kernel.name,
        trip=trip,
        width=shape.width,
        loads=tuple(loads),
        stores=tuple(stores),
        load_addrs=load_addrs,
        store_addrs=store_addrs,
        overlap=overlap,
        overlap_span=overlap_span,
        regs_stable=shape.regs_stable,
        unstable_span=shape.unstable_span,
        regs_renewed=shape.renewed,
    )


_SUMMARY_CACHE: "WeakKeyDictionary[Program, ProgramSummary]" = (
    WeakKeyDictionary()
)


def summarize_program(program: Program) -> ProgramSummary:
    """The (cached) per-kernel summaries and store prefixes of a program."""
    cached = _SUMMARY_CACHE.get(program)
    if cached is not None:
        return cached
    kernels = tuple(
        summarize_kernel(k, kernel)
        for k, kernel in enumerate(program.kernels)
    )
    prefix: List[FrozenSet[int]] = []
    running: FrozenSet[int] = frozenset()
    for ks in kernels:
        prefix.append(running)
        running = running | ks.store_addrs
    summary = ProgramSummary(
        kernels=kernels,
        store_union=running,
        prefix_stores=tuple(prefix),
    )
    _SUMMARY_CACHE[program] = summary
    return summary


def _load_span(
    ks: KernelSummary, words: FrozenSet[int]
) -> Tuple[int, int]:
    """Span of the load instructions whose footprints touch ``words``."""
    offending = [
        pos for pos, r in ks.loads if not r.addresses.isdisjoint(words)
    ]
    return (min(offending), max(offending))


def _certify_kernel(
    core: int,
    ks: KernelSummary,
    peer_stores: FrozenSet[int],
    earlier_stores: FrozenSet[int],
) -> SegmentCertificate:
    """Check the four invariants for one segment; SAFE iff all hold."""
    denials: List[Denial] = []
    if ks.overlap:
        witness = min(ks.load_addrs & ks.store_addrs)
        assert ks.overlap_span is not None
        denials.append(
            Denial(
                RULE_OVERLAP,
                f"kernel {ks.name!r} loads and stores share word "
                f"0x{witness:x}; replayed loads would read stale values",
                ks.overlap_span,
            )
        )
    if ks.stores and not ks.regs_stable:
        assert ks.unstable_span is not None
        denials.append(
            Denial(
                RULE_UNSTABLE,
                f"kernel {ks.name!r} redefines a register after its first "
                f"store; observed register files diverge from plan rows",
                ks.unstable_span,
            )
        )
    if ks.load_addrs and not ks.load_addrs.isdisjoint(peer_stores):
        witness = min(ks.load_addrs & peer_stores)
        denials.append(
            Denial(
                RULE_CROSS_CORE,
                f"kernel {ks.name!r} loads word 0x{witness:x} which another "
                f"core's program stores to",
                _load_span(ks, peer_stores),
            )
        )
    if ks.load_addrs and not ks.load_addrs.isdisjoint(earlier_stores):
        witness = min(ks.load_addrs & earlier_stores)
        denials.append(
            Denial(
                RULE_EXTERNAL,
                f"kernel {ks.name!r} loads word 0x{witness:x} stored by an "
                f"earlier kernel of the same program",
                _load_span(ks, earlier_stores),
            )
        )
    return SegmentCertificate(
        core=core,
        kernel_index=ks.index,
        kernel=ks.name,
        trip=ks.trip,
        safe=not denials,
        denials=tuple(denials),
    )


def certify_run(
    programs: Sequence[Program],
) -> List[Tuple[SegmentCertificate, ...]]:
    """Certificates for every segment of a multi-core run.

    Pass A summarises each program (cached per ``Program``); pass B
    checks each kernel against its own footprint, its program's store
    prefix and the union of every *other* core's stores.  The heavy
    footprint sets live only in the cached summaries — certificates keep
    flags, spans and messages.
    """
    summaries = [summarize_program(p) for p in programs]
    result: List[Tuple[SegmentCertificate, ...]] = []
    for core, summary in enumerate(summaries):
        peer_stores: FrozenSet[int] = frozenset().union(
            *(
                s.store_union
                for c, s in enumerate(summaries)
                if c != core
            )
        ) if len(summaries) > 1 else frozenset()
        result.append(
            tuple(
                _certify_kernel(
                    core, ks, peer_stores, summary.prefix_stores[k]
                )
                for k, ks in enumerate(summary.kernels)
            )
        )
    return result


def fallback_reasons(
    certificates: Sequence[SegmentCertificate],
) -> Dict[int, str]:
    """kernel index -> leading denial rule id, for denied segments only."""
    return {
        cert.kernel_index: cert.denials[0].rule_id
        for cert in certificates
        if not cert.safe
    }
