"""Binary embedding: attach ``ASSOC-ADDR`` to covered stores.

``compile_program`` runs the full pass: slice every store site, filter
through the selection policy, build the :class:`SliceTable`, and rewrite
the program so every covered store carries its ``ASSOC-ADDR`` companion
(the ``assoc`` flag — costed as one extra instruction by the simulator,
modelled after a store to L1-D per the paper's evaluation setup).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.compiler.ddg import DataDependenceGraph
from repro.compiler.policy import SelectionPolicy, ThresholdPolicy
from repro.compiler.slicer import SliceRejection, extract_slice
from repro.compiler.slices import Slice, SliceTable
from repro.isa.instructions import AluInstr, Instruction, MoviInstr, StoreInstr
from repro.isa.program import Kernel, Program

__all__ = ["CompileStats", "CompiledProgram", "compile_program"]


@dataclass(frozen=True)
class CompileStats:
    """Aggregate statistics of one compile-pass run."""

    sites_total: int
    sites_sliceable: int
    sites_embedded: int
    sites_loop_carried: int
    sites_trivial: int
    embedded_bytes: int

    @property
    def coverage(self) -> float:
        """Fraction of store sites with an embedded slice."""
        if self.sites_total == 0:
            return 0.0
        return self.sites_embedded / self.sites_total

    def rejection_counts(self) -> "dict[SliceRejection, int]":
        """Per-:class:`SliceRejection` reason counts (CLI statistics)."""
        return {
            SliceRejection.LOOP_CARRIED: self.sites_loop_carried,
            SliceRejection.TRIVIAL: self.sites_trivial,
        }


@dataclass(frozen=True)
class CompiledProgram:
    """A program with embedded slices.

    ``program`` is a rewritten copy: covered stores have ``assoc=True``;
    site ids are preserved (the rewrite keeps store order unchanged).

    ``peers`` names the other cores' programs of the run this program
    belongs to (empty for single-core compilation).  They feed the
    cross-core half of the vector-safety certificates and the ACR010
    lint rule; the compile pass itself never reads them.
    """

    program: Program
    slices: SliceTable
    stats: CompileStats
    peers: Tuple[Program, ...] = ()

    @property
    def certificates(self) -> "Tuple[object, ...]":
        """Vector-safety certificates for this program's segments.

        Computed lazily from the rewritten program (the ``assoc`` flag
        does not affect addresses or dataflow) against ``peers`` as the
        other cores; per-program summaries are cached, so repeated
        access is cheap.
        """
        # Imported here: repro.verify sits above the compiler layer.
        from repro.verify.absint.certify import certify_run

        run = certify_run([self.program, *self.peers])
        return run[0]


class _StoreSlicing(NamedTuple):
    """How one store of a dataflow shape slices: its body index, and
    either the rejection or the slice's ALU/MOVI body indices, frontier
    and result register."""

    store_index: int
    rejection: Optional[SliceRejection]
    body_indices: Tuple[int, ...] = ()
    frontier: Tuple[int, ...] = ()
    result_reg: int = -1


#: Register-dataflow shape -> the slicing of each store, in body order.
#: Slicing reads only which registers each instruction defines and reads,
#: so every kernel of one shape (whatever its immediates, opcodes and
#: address patterns) slices alike.  Bounded by the number of distinct
#: shapes a process compiles.
_SLICINGS: Dict[tuple, Tuple[_StoreSlicing, ...]] = {}


def _dataflow_shape(kernel: Kernel) -> tuple:
    """Per instruction: its class and the registers it defines and reads."""
    shape: List[tuple] = []
    for ins in kernel.body:
        if isinstance(ins, AluInstr):
            shape.append((AluInstr, ins.dst, ins.src_a, ins.src_b))
        elif isinstance(ins, StoreInstr):
            shape.append((StoreInstr, ins.src))
        else:
            shape.append((type(ins), ins.dst))
    return tuple(shape)


def _slicing(kernel: Kernel) -> Tuple[_StoreSlicing, ...]:
    """The store slicings of ``kernel``'s shape, extracted on first sight."""
    shape = _dataflow_shape(kernel)
    hit = _SLICINGS.get(shape)
    if hit is not None:
        return hit
    ddg = DataDependenceGraph(kernel)
    outcomes = []
    for idx, ins in enumerate(kernel.body):
        if not isinstance(ins, StoreInstr):
            continue
        extraction = extract_slice(kernel, idx, ddg)
        if extraction.slice is None:
            outcomes.append(_StoreSlicing(idx, extraction.rejection))
            continue
        closure, _ = ddg.backward_closure(idx)
        body_indices = tuple(
            i for i in sorted(closure)
            if isinstance(kernel.body[i], (AluInstr, MoviInstr))
        )
        sl = extraction.slice
        assert tuple(kernel.body[i] for i in body_indices) == sl.instructions
        outcomes.append(
            _StoreSlicing(idx, None, body_indices, sl.frontier, sl.result_reg)
        )
    hit = _SLICINGS[shape] = tuple(outcomes)
    return hit


def compile_program(
    program: Program,
    policy: SelectionPolicy | None = None,
    *,
    verify: bool = False,
) -> CompiledProgram:
    """Run the ACR compiler pass over ``program``.

    With ``policy=None`` the paper's default greedy threshold of 10 is
    used.  Returns a new :class:`CompiledProgram`; the input is untouched.

    With ``verify=True`` the slice soundness verifier
    (:func:`repro.verify.verify_program`) runs as a post-pass over the
    static rules (the differential oracle is left to ``repro lint``) and
    a :class:`repro.verify.SliceVerificationError` is raised on any
    error-severity finding.
    """
    if policy is None:
        policy = ThresholdPolicy()

    table = SliceTable()
    embedded_sites: set[int] = set()
    loop_carried = trivial = sliceable = 0

    for kernel in program.kernels:
        for outcome in _slicing(kernel):
            if outcome.rejection is SliceRejection.LOOP_CARRIED:
                loop_carried += 1
                continue
            if outcome.rejection is SliceRejection.TRIVIAL:
                trivial += 1
                continue
            sliceable += 1
            sl = Slice(
                site=kernel.body[outcome.store_index].site,
                instructions=tuple(
                    kernel.body[i] for i in outcome.body_indices
                ),
                frontier=outcome.frontier,
                result_reg=outcome.result_reg,
            )
            if policy.accept(sl):
                table.add(sl)
                embedded_sites.add(sl.site)

    new_kernels: List[Kernel] = []
    for kernel in program.kernels:
        body: List[Instruction] = []
        changed = False
        for ins in kernel.body:
            if isinstance(ins, StoreInstr) and ins.site in embedded_sites:
                ins = StoreInstr(ins.src, ins.pattern, ins.site, True)
                changed = True
            body.append(ins)
        # A kernel with no embedded store is shared with the input
        # program (kernels are immutable by contract).
        new_kernels.append(
            Kernel(
                kernel.name, body, kernel.trip_count, kernel.phase,
                kernel.ghost_alu,
            )
            if changed
            else kernel
        )

    rewritten = Program(new_kernels, program.thread_id)
    # The rewrite preserves store order, so site ids are stable.
    assert rewritten.num_sites == program.num_sites

    stats = CompileStats(
        sites_total=program.num_sites,
        sites_sliceable=sliceable,
        sites_embedded=len(embedded_sites),
        sites_loop_carried=loop_carried,
        sites_trivial=trivial,
        embedded_bytes=table.encoded_bytes,
    )
    compiled = CompiledProgram(rewritten, table, stats)
    if verify:
        # Imported here: repro.verify sits above the compiler layer.
        from repro.verify.engine import SliceVerificationError, verify_program

        report = verify_program(compiled, policy=policy, oracle=False)
        if not report.ok:
            raise SliceVerificationError(report)
    return compiled
