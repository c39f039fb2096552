"""Kernel construction helpers.

:class:`KernelBuilder` is a tiny assembler: it allocates virtual registers
and appends instructions.  :func:`chain_kernel` is the workhorse used by the
workload generators — it emits a loop whose store value is produced by an
ALU chain of a *chosen depth*, which is exactly the knob that controls the
extracted Slice length, and hence a benchmark's recomputability profile.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.isa.instructions import (
    AddressPattern,
    AluInstr,
    Instruction,
    LoadInstr,
    MoviInstr,
    StoreInstr,
)
from repro.isa.interpreter import share_lowering
from repro.isa.opcodes import Opcode
from repro.isa.program import Kernel
from repro.util.validation import check_non_negative, check_positive

__all__ = ["KernelBuilder", "chain_kernel"]

#: Opcode rotation used for synthetic chains. MUL appears to make values
#: order-sensitive; SUB/XOR keep them from saturating.
_CHAIN_OPS = (Opcode.ADD, Opcode.XOR, Opcode.MUL, Opcode.SUB, Opcode.ADD, Opcode.XOR)

#: (inputs, chain_depth, salt, accumulate, copy_store) -> interned chain
#: body and value register.  Bounded by the number of distinct chain
#: shapes a process builds (a workload has one per thread and site).
_CHAINS: Dict[tuple, Tuple[Tuple[Instruction, ...], int]] = {}

#: Chain instruction -> its one shared object.  Chains that differ only
#: in their salt MOVI hold the same ALU instructions; interning them by
#: value leaves one object per distinct instruction for every kernel,
#: compile and plan to share.  Bounded like ``_CHAINS``.
_INSTRS: Dict[Instruction, Instruction] = {}


class KernelBuilder:
    """Incrementally builds a kernel body, allocating registers on demand."""

    def __init__(self, name: str, phase: int = 0) -> None:
        self.name = name
        self.phase = phase
        self._body: List[Instruction] = []
        self._next_reg = 0

    def fresh_reg(self) -> int:
        """Allocate a fresh virtual register."""
        reg = self._next_reg
        self._next_reg += 1
        return reg

    def movi(self, imm: int) -> int:
        """Append ``dst <- imm``; returns ``dst``."""
        dst = self.fresh_reg()
        self._body.append(MoviInstr(dst, imm))
        return dst

    def alu(self, op: Opcode, src_a: int, src_b: int) -> int:
        """Append ``dst <- op(src_a, src_b)``; returns ``dst``."""
        dst = self.fresh_reg()
        self._body.append(AluInstr(op, dst, src_a, src_b))
        return dst

    def alu_into(self, op: Opcode, dst: int, src_a: int, src_b: int) -> int:
        """Append ``dst <- op(src_a, src_b)`` into an existing register."""
        self._body.append(AluInstr(op, dst, src_a, src_b))
        return dst

    def load(self, pattern: AddressPattern) -> int:
        """Append ``dst <- mem[pattern]``; returns ``dst``."""
        dst = self.fresh_reg()
        self._body.append(LoadInstr(dst, pattern))
        return dst

    def store(self, src: int, pattern: AddressPattern) -> None:
        """Append ``mem[pattern] <- src``."""
        self._body.append(StoreInstr(src, pattern))

    def build(self, trip_count: int, ghost_alu: int = 0) -> Kernel:
        """Finalize into a :class:`Kernel`."""
        return Kernel(self.name, self._body, trip_count, self.phase, ghost_alu)


def chain_kernel(
    name: str,
    store_pattern: AddressPattern,
    input_patterns: Sequence[AddressPattern],
    chain_depth: int,
    trip_count: int,
    phase: int = 0,
    salt: int = 1,
    accumulate: bool = False,
    copy_store: bool = False,
    extra_stores: Optional[Sequence[AddressPattern]] = None,
    ghost_alu: int = 0,
) -> Kernel:
    """Build a loop that stores a value produced by an ALU chain.

    Parameters
    ----------
    store_pattern:
        Address stream of the store.
    input_patterns:
        Address streams of the loads that feed the chain (the Slice's input
        operands). At least one is required unless ``chain_depth`` is 0 and
        ``copy_store`` is false (a pure-immediate chain).
    chain_depth:
        Number of binary ALU instructions between the inputs and the store.
        The extracted Slice length is ``chain_depth`` plus one MOVI when a
        salt constant is mixed in.
    accumulate:
        If true, the chain folds in a register carried across iterations,
        making the store's backward slice loop-carried — deliberately
        *not* sliceable.
    copy_store:
        If true the loaded value is stored unmodified (slice length 0 — the
        paper's non-beneficial case, never embedded).
    extra_stores:
        Additional stores of the same chain value (model multi-output
        kernels without growing register pressure).
    """
    check_non_negative("chain_depth", chain_depth)
    check_positive("trip_count", trip_count)
    if copy_store and not input_patterns:
        raise ValueError("copy_store requires at least one input pattern")
    if accumulate and copy_store:
        raise ValueError("accumulate and copy_store are mutually exclusive")

    chain, value = _chain(
        len(input_patterns), chain_depth, salt, accumulate, copy_store
    )
    # The loads take registers 0..n-1, as KernelBuilder.load allocates them.
    body: List[Instruction] = [
        LoadInstr(reg, pattern) for reg, pattern in enumerate(input_patterns)
    ]
    body.extend(chain)
    body.append(StoreInstr(value, store_pattern))
    for extra in extra_stores or ():
        body.append(StoreInstr(value, extra))
    return Kernel(name, body, trip_count, phase, ghost_alu)


def _chain(
    n_inputs: int,
    chain_depth: int,
    salt: int,
    accumulate: bool,
    copy_store: bool,
) -> Tuple[Tuple[Instruction, ...], int]:
    """The interned MOVI/ALU chain of one shape and its value register.

    The chain reads the input registers ``0..n_inputs-1`` and depends on
    nothing else, so every kernel of one shape (each rep of a workload
    site) shares the same frozen instruction objects, and equal
    instructions of different chains are one object too.
    """
    key = (n_inputs, chain_depth, salt, accumulate, copy_store)
    hit = _CHAINS.get(key)
    if hit is not None:
        return hit
    builder = KernelBuilder("chain")
    inputs = [builder.fresh_reg() for _ in range(n_inputs)]

    if copy_store:
        value = inputs[0]
    else:
        if inputs:
            value = inputs[0]
            depth_left = chain_depth
        else:
            value = builder.movi(salt & ((1 << 64) - 1))
            depth_left = chain_depth
        if depth_left > 0:
            salt_reg = builder.movi((salt * 0x9E3779B97F4A7C15) & ((1 << 64) - 1))
            for step in range(depth_left):
                op = _CHAIN_OPS[step % len(_CHAIN_OPS)]
                operand = (
                    inputs[step % len(inputs)] if len(inputs) > 1 and step % 2 else salt_reg
                )
                value = builder.alu(op, value, operand)
        if accumulate:
            # Fold in a register that is never initialised inside the body:
            # it is live-in, i.e. loop-carried, so the slice is unbounded.
            acc = builder.fresh_reg()
            value = builder.alu_into(Opcode.ADD, acc, acc, value)

    chain = (tuple(_INSTRS.setdefault(ins, ins) for ins in builder._body), value)
    share_lowering(chain[0])
    _CHAINS[key] = chain
    return chain
