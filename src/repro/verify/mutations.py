"""Mutation corpus: seed one known defect class into a compiled program.

Each mutator takes a clean :class:`~repro.compiler.embed.CompiledProgram`
and returns a copy carrying exactly one defect, chosen so that *only* the
matching rule fires — the corpus doubles as the verifier's
false-positive regression suite.

Because :class:`~repro.compiler.slices.Slice` validates at construction
(a satellite of the same invariant), defective slices are *forged* through
``object.__new__``, bypassing ``__post_init__`` — which models precisely
the threat the verifier exists for: a hand-built slice, a buggy policy, or
a future IR change that sidesteps the constructor's checks.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Tuple

from repro.arch.config import MachineConfig
from repro.compiler.embed import CompiledProgram
from repro.compiler.slices import Slice, SliceTable
from repro.isa.instructions import (
    AddressPattern,
    AluInstr,
    Instruction,
    LoadInstr,
    MoviInstr,
    StoreInstr,
)
from repro.isa.opcodes import Opcode
from repro.isa.program import Kernel, Program
from repro.verify.rules import slice_required_inputs

__all__ = ["DEFECT_RULE_IDS", "seed_defect"]

#: Registers far above anything the builders allocate; forged defects use
#: them so they never collide with live program registers.
_FORGE_REG_BASE = 1_000_000

#: Opcode substitution used by the recompute-divergence mutator: each op
#: maps to one with different semantics on generic operands.
_OP_SWAP = {
    Opcode.ADD: Opcode.SUB,
    Opcode.SUB: Opcode.ADD,
    Opcode.MUL: Opcode.ADD,
    Opcode.AND: Opcode.OR,
    Opcode.OR: Opcode.AND,
    Opcode.XOR: Opcode.ADD,
    Opcode.SHL: Opcode.SHR,
    Opcode.SHR: Opcode.SHL,
}


def _forge_slice(
    site: int,
    instructions: Tuple[object, ...],
    frontier: Tuple[int, ...],
    result_reg: int,
) -> Slice:
    """Construct a Slice without running its validation."""
    sl = object.__new__(Slice)
    object.__setattr__(sl, "site", site)
    object.__setattr__(sl, "instructions", instructions)
    object.__setattr__(sl, "frontier", frontier)
    object.__setattr__(sl, "result_reg", result_reg)
    return sl


def _rebuild_table(
    compiled: CompiledProgram,
    replace: Optional[Slice] = None,
    drop_site: Optional[int] = None,
) -> SliceTable:
    """Copy the slice table, replacing or dropping one entry."""
    table = SliceTable()
    for sl in compiled.slices:
        if drop_site is not None and sl.site == drop_site:
            continue
        if replace is not None and sl.site == replace.site:
            sl = replace
        table._slices[sl.site] = sl  # bypass add(): forged slices allowed
    if replace is not None and replace.site not in table._slices:
        table._slices[replace.site] = replace
    return table


def _with_table(compiled: CompiledProgram, table: SliceTable) -> CompiledProgram:
    return dataclasses.replace(compiled, slices=table)


def _victim(compiled: CompiledProgram, need_frontier: bool = False) -> Slice:
    """Deterministically pick the slice a mutator corrupts."""
    for site in compiled.slices.sites:
        sl = compiled.slices.get(site)
        assert sl is not None
        if not need_frontier:
            return sl
        if slice_required_inputs(sl) & (set(sl.frontier) - {sl.result_reg}):
            return sl
    raise ValueError("program has no embedded slice suitable for this defect")


def _impure(compiled: CompiledProgram) -> CompiledProgram:
    """ACR001: smuggle a load into a slice body."""
    sl = _victim(compiled)
    bad = _forge_slice(
        sl.site,
        sl.instructions
        + (LoadInstr(_FORGE_REG_BASE, AddressPattern(0, 1, 1)),),
        sl.frontier,
        sl.result_reg,
    )
    return _with_table(compiled, _rebuild_table(compiled, replace=bad))


def _frontier_incomplete(compiled: CompiledProgram) -> CompiledProgram:
    """ACR002: drop a frontier slot the slice actually consumes."""
    sl = _victim(compiled, need_frontier=True)
    required = slice_required_inputs(sl)
    dropped = next(
        r for r in sl.frontier if r in required and r != sl.result_reg
    )
    bad = _forge_slice(
        sl.site,
        sl.instructions,
        tuple(r for r in sl.frontier if r != dropped),
        sl.result_reg,
    )
    return _with_table(compiled, _rebuild_table(compiled, replace=bad))


def _dangling_assoc(compiled: CompiledProgram) -> CompiledProgram:
    """ACR003: drop a covered site's slice, leaving its ASSOC_ADDR flag."""
    sl = _victim(compiled)
    return _with_table(compiled, _rebuild_table(compiled, drop_site=sl.site))


def _operand_budget(compiled: CompiledProgram) -> CompiledProgram:
    """ACR004: pad the frontier past the Table-I operand-buffer budget."""
    sl = _victim(compiled)
    capacity = MachineConfig().operand_buffer_capacity
    pad = tuple(
        range(_FORGE_REG_BASE, _FORGE_REG_BASE + capacity + 1 - len(sl.frontier))
    )
    bad = _forge_slice(
        sl.site, sl.instructions, sl.frontier + pad, sl.result_reg
    )
    return _with_table(compiled, _rebuild_table(compiled, replace=bad))


def _threshold_violation(compiled: CompiledProgram) -> CompiledProgram:
    """ACR005: pad a slice with pure dead code past any sane threshold.

    The padding reads only registers it defines itself, so the slice stays
    pure, complete and result-defined — only its length breaks the policy.
    (Assumes the active threshold is below ``length + 24``.)
    """
    sl = _victim(compiled)
    pad: List[object] = [MoviInstr(_FORGE_REG_BASE, 1)]
    for i in range(23):
        pad.append(
            AluInstr(
                Opcode.ADD,
                _FORGE_REG_BASE + i + 1,
                _FORGE_REG_BASE + i,
                _FORGE_REG_BASE + i,
            )
        )
    bad = _forge_slice(
        sl.site, sl.instructions + tuple(pad), sl.frontier, sl.result_reg
    )
    return _with_table(compiled, _rebuild_table(compiled, replace=bad))


def _result_undefined(compiled: CompiledProgram) -> CompiledProgram:
    """ACR006: point the result register at one nothing defines."""
    sl = _victim(compiled)
    bad = _forge_slice(
        sl.site, sl.instructions, sl.frontier, _FORGE_REG_BASE
    )
    return _with_table(compiled, _rebuild_table(compiled, replace=bad))


def _aliasing_hazard(compiled: CompiledProgram) -> CompiledProgram:
    """ACR007: clobber a frontier register between its load and the store.

    The inserted MOVI is dead code for the stored value (every slice use
    binds to the earlier load), but the ASSOC_ADDR snapshot — taken at
    store time — now captures the clobbered value.
    """
    sl = _victim(compiled, need_frontier=True)
    required = slice_required_inputs(sl)
    reg = next(r for r in sl.frontier if r in required and r != sl.result_reg)
    loc = compiled.program.store_sites[sl.site]

    kernels: List[Kernel] = []
    for k_idx, kernel in enumerate(compiled.program.kernels):
        body: List[Instruction] = list(kernel.body)
        if k_idx == loc.kernel_index:
            body.insert(loc.instr_index, MoviInstr(reg, 0xDEAD))
        kernels.append(
            Kernel(kernel.name, body, kernel.trip_count, kernel.phase,
                   kernel.ghost_alu)
        )
    # Store order is unchanged, so Program re-assigns identical site ids.
    program = Program(kernels, compiled.program.thread_id)
    return dataclasses.replace(compiled, program=program)


def _fresh_register(program: Program) -> int:
    """One register above everything the program touches.

    Vector-safety mutators insert *body* instructions; a tiny fresh
    index (instead of ``_FORGE_REG_BASE``) keeps the interpreter's
    register file — sized ``max register + 1`` — from ballooning when
    the differential oracle replays the mutated program.
    """
    return max(kernel.shape.width for kernel in program.kernels) + 1


def _replace_kernel_body(
    program: Program, kernel_index: int, body: List[Instruction]
) -> Program:
    """Rebuild ``program`` with one kernel's body swapped out."""
    kernels = [
        Kernel(k.name, body if i == kernel_index else list(k.body),
               k.trip_count, k.phase, k.ghost_alu)
        for i, k in enumerate(program.kernels)
    ]
    return Program(kernels, program.thread_id)


def _vector_overlap(compiled: CompiledProgram) -> CompiledProgram:
    """ACR009: load the footprint a store of the same kernel writes.

    The load lands *before* the store into a fresh register, so the
    kernel stays register-stable and no slice's frontier is clobbered —
    only the self-aliasing invariant breaks.
    """
    sl = _victim(compiled)
    loc = compiled.program.store_sites[sl.site]
    kernel = compiled.program.kernels[loc.kernel_index]
    store = kernel.body[loc.instr_index]
    assert isinstance(store, StoreInstr)
    body: List[Instruction] = list(kernel.body)
    body.insert(
        loc.instr_index,
        LoadInstr(_fresh_register(compiled.program), store.pattern),
    )
    # Store order is unchanged, so Program re-assigns identical site ids.
    program = _replace_kernel_body(compiled.program, loc.kernel_index, body)
    return dataclasses.replace(compiled, program=program)


def _cross_core_alias(compiled: CompiledProgram) -> CompiledProgram:
    """ACR010: forge a peer program storing to a word this one loads."""
    pattern = next(
        (
            ins.pattern
            for kernel in compiled.program.kernels
            for ins in kernel.body
            if isinstance(ins, LoadInstr)
        ),
        None,
    )
    if pattern is None:
        raise ValueError("program has no load for a peer to race against")
    peer = Program(
        [
            Kernel(
                "forged-peer",
                [MoviInstr(0, 1), StoreInstr(0, pattern)],
                1,
            )
        ],
        compiled.program.thread_id + 1,
    )
    return dataclasses.replace(compiled, peers=compiled.peers + (peer,))


def _unstable_register(compiled: CompiledProgram) -> CompiledProgram:
    """ACR011: redefine a (fresh) register after a covered store.

    The MOVI is dead code — it writes a register nothing reads — so
    stored values, slices and frontiers are untouched; only the
    store-time-observed register file stops matching the
    end-of-iteration row.
    """
    sl = _victim(compiled)
    loc = compiled.program.store_sites[sl.site]
    kernel = compiled.program.kernels[loc.kernel_index]
    body: List[Instruction] = list(kernel.body)
    body.insert(
        loc.instr_index + 1,
        MoviInstr(_fresh_register(compiled.program), 1),
    )
    program = _replace_kernel_body(compiled.program, loc.kernel_index, body)
    return dataclasses.replace(compiled, program=program)


def _external_load(compiled: CompiledProgram) -> CompiledProgram:
    """ACR012: append a load-only kernel reading an earlier store's words.

    The new kernel stores nothing, so every existing site id survives;
    its load intersecting a *previous* kernel's store footprint is the
    one new fact the certifier must refuse.
    """
    pattern = next(
        (
            ins.pattern
            for kernel in compiled.program.kernels
            for ins in kernel.body
            if isinstance(ins, StoreInstr)
        ),
        None,
    )
    if pattern is None:
        raise ValueError("program has no store for a later kernel to read")
    kernels = [
        Kernel(k.name, list(k.body), k.trip_count, k.phase, k.ghost_alu)
        for k in compiled.program.kernels
    ]
    kernels.append(
        Kernel(
            "forged-reader",
            [LoadInstr(_fresh_register(compiled.program), pattern)],
            1,
        )
    )
    program = Program(kernels, compiled.program.thread_id)
    return dataclasses.replace(compiled, program=program)


def _recompute_divergence(compiled: CompiledProgram) -> CompiledProgram:
    """ACR008: corrupt slice semantics while staying structurally clean."""
    sl = _victim(compiled)
    instructions = list(sl.instructions)
    for pos, ins in enumerate(instructions):
        if isinstance(ins, AluInstr) and ins.op in _OP_SWAP:
            instructions[pos] = dataclasses.replace(ins, op=_OP_SWAP[ins.op])
            break
    else:
        for pos, ins in enumerate(instructions):
            if isinstance(ins, MoviInstr):
                instructions[pos] = dataclasses.replace(ins, imm=ins.imm ^ 1)
                break
        else:
            raise ValueError("slice has no instruction to corrupt")
    bad = _forge_slice(
        sl.site, tuple(instructions), sl.frontier, sl.result_reg
    )
    return _with_table(compiled, _rebuild_table(compiled, replace=bad))


_MUTATORS: Dict[str, Callable[[CompiledProgram], CompiledProgram]] = {
    "ACR001": _impure,
    "ACR002": _frontier_incomplete,
    "ACR003": _dangling_assoc,
    "ACR004": _operand_budget,
    "ACR005": _threshold_violation,
    "ACR006": _result_undefined,
    "ACR007": _aliasing_hazard,
    # Advisory vector-safety defects, in registry order (the oracle's
    # ACR008 stays last, mirroring ``ALL_RULE_IDS``).
    "ACR009": _vector_overlap,
    "ACR010": _cross_core_alias,
    "ACR011": _unstable_register,
    "ACR012": _external_load,
    "ACR008": _recompute_divergence,
}

#: Rule ids the corpus can seed, in rule order.
DEFECT_RULE_IDS: Tuple[str, ...] = tuple(_MUTATORS)


def seed_defect(compiled: CompiledProgram, rule_id: str) -> CompiledProgram:
    """Return a copy of ``compiled`` carrying the defect for ``rule_id``.

    The input is never mutated.  Raises ``ValueError`` for unknown rule
    ids or programs without a suitable embedded slice.
    """
    try:
        mutator = _MUTATORS[rule_id]
    except KeyError:
        raise ValueError(
            f"no mutator for {rule_id!r}; corpus covers "
            f"{', '.join(DEFECT_RULE_IDS)}"
        ) from None
    return mutator(compiled)
