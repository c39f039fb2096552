"""Binary embedding: attach ``ASSOC-ADDR`` to covered stores.

``compile_program`` runs the full pass: slice every store site, filter
through the selection policy, build the :class:`SliceTable`, and rewrite
the program so every covered store carries its ``ASSOC-ADDR`` companion
(the ``assoc`` flag — costed as one extra instruction by the simulator,
modelled after a store to L1-D per the paper's evaluation setup).

Slicing and embedding are facts of a kernel's shape: each shape is
sliced once per process, and the policy decides each of its stores once
per pass, on the shape's first kernel (a policy reads a slice's length
and frontier, which every kernel of the shape shares).  Per kernel the
pass only binds that kernel's immediates into its Slices and re-binds
the kernel to the shape's ``ASSOC-ADDR`` variant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from repro.compiler.ddg import DataDependenceGraph
from repro.compiler.policy import SelectionPolicy, ThresholdPolicy
from repro.compiler.slicer import SliceRejection, extract_slice
from repro.compiler.slices import Slice, SliceTable
from repro.isa.instructions import AluInstr, MoviInstr
from repro.isa.program import Kernel, KernelShape, Program

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

    ``program`` is a rewritten copy: kernels with a covered store are
    bound to their shape's variant with ``assoc=True`` on those stores,
    with the same parameters and site ids.

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
    """How one store of a shape slices: either the rejection or the
    slice's frontier, result register and instruction template (per
    instruction: the shape's ALU object, or a MOVI's ``(dst, parameter
    offset)``)."""

    rejection: Optional[SliceRejection]
    template: Tuple[Union[AluInstr, Tuple[int, int]], ...] = ()
    frontier: Tuple[int, ...] = ()
    result_reg: int = -1


def _slice_shape(shape: KernelShape) -> Tuple[_StoreSlicing, ...]:
    """The slicing of each store of ``shape``, in body order.

    Slicing reads only which registers each instruction defines and
    reads, so it runs once on the shape's template body.
    """
    ddg = DataDependenceGraph(shape)
    outcomes = []
    for idx in shape.store_positions:
        extraction = extract_slice(shape, idx, ddg)
        sl = extraction.slice
        if sl is None:
            outcomes.append(_StoreSlicing(extraction.rejection))
            continue
        closure, _ = ddg.backward_closure(idx)
        template = tuple(
            ins if isinstance(ins, AluInstr)
            else (ins.dst, shape.param_offsets[i])
            for i, ins in ((i, shape.body[i]) for i in sorted(closure))
            if isinstance(ins, (AluInstr, MoviInstr))
        )
        outcomes.append(
            _StoreSlicing(None, template, sl.frontier, sl.result_reg)
        )
    return tuple(outcomes)


def _bind_slice(outcome: _StoreSlicing, kernel: Kernel, j: int) -> Slice:
    """Store ``j``'s Slice for one kernel: the shape's slice template with
    the kernel's immediates and site id."""
    params = kernel.params
    return Slice(
        site=kernel.site_base + j,
        instructions=tuple([
            ins if isinstance(ins, AluInstr) else MoviInstr(ins[0], params[ins[1]])
            for ins in outcome.template
        ]),
        frontier=outcome.frontier,
        result_reg=outcome.result_reg,
    )


def _decide(
    shape: KernelShape,
    slicing: Tuple[_StoreSlicing, ...],
    kernel: Kernel,
    policy: SelectionPolicy,
) -> Tuple[List[bool], KernelShape]:
    """Per store of ``shape``: embed it?  Asked of the policy on one of
    its kernels' slices.  Also the shape its kernels then run as: stores
    that are embedded, or already carry ASSOC-ADDR, carry it."""
    flags = [
        outcome.rejection is None
        and bool(policy.accept(_bind_slice(outcome, kernel, j)))
        for j, outcome in enumerate(slicing)
    ]
    return flags, shape.with_assoc([
        flag or shape.key[pos][2]
        for flag, pos in zip(flags, shape.store_positions)
    ])


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
    loop_carried = trivial = sliceable = 0
    #: shape -> (per store: embed it?, the shape its kernels run as).
    decisions: Dict[KernelShape, Tuple[List[bool], KernelShape]] = {}
    new_kernels: List[Kernel] = []
    for kernel in program.kernels:
        shape = kernel.shape
        slicing = shape.prepared("slicing", _slice_shape)
        decided = decisions.get(shape)
        if decided is None:
            decided = decisions[shape] = _decide(shape, slicing, kernel, policy)
        flags, variant = decided
        for j, (outcome, flag) in enumerate(zip(slicing, flags)):
            if outcome.rejection is SliceRejection.LOOP_CARRIED:
                loop_carried += 1
            elif outcome.rejection is SliceRejection.TRIVIAL:
                trivial += 1
            else:
                sliceable += 1
            if flag:
                table.add(_bind_slice(outcome, kernel, j))
        if variant is not shape:
            kernel = Kernel.bind(
                variant, kernel.params, kernel.name, kernel.trip_count,
                kernel.phase, kernel.ghost_alu, kernel.site_base,
            )
        new_kernels.append(kernel)

    # Kernels keep their site ids, so the program numbers sites alike.
    rewritten = Program(new_kernels, program.thread_id)

    stats = CompileStats(
        sites_total=program.num_sites,
        sites_sliceable=sliceable,
        sites_embedded=len(table),
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
