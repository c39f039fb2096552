"""Kernel construction helpers.

:class:`KernelBuilder` is a tiny assembler: it allocates virtual registers
and appends instructions.  :func:`chain_kernel` is the workhorse used by the
workload generators — it emits a loop whose store value is produced by an
ALU chain of a *chosen depth*, which is exactly the knob that controls the
extracted Slice length, and hence a benchmark's recomputability profile.

A chain's structure depends only on its input count, depth, flavour and
store count: :func:`chain_shape` assembles it once, and
:func:`chain_kernel` binds each kernel's salt and address patterns as
parameters without building instructions.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from repro.isa.instructions import (
    AddressPattern,
    AluInstr,
    Instruction,
    LoadInstr,
    MoviInstr,
    StoreInstr,
)
from repro.isa.opcodes import MASK64, Opcode
from repro.isa.program import Kernel, KernelShape
from repro.util.validation import check_non_negative

__all__ = ["KernelBuilder", "chain_immediates", "chain_kernel", "chain_shape"]

#: Opcode rotation used for synthetic chains. MUL appears to make values
#: order-sensitive; SUB/XOR keep them from saturating.
_CHAIN_OPS = (Opcode.ADD, Opcode.XOR, Opcode.MUL, Opcode.SUB, Opcode.ADD, Opcode.XOR)

#: Multiplier mixing a chain's salt into its second immediate.
_SALT_MIX = 0x9E3779B97F4A7C15

#: Address pattern of a template body (parameters replace it).
_PLACEHOLDER = AddressPattern(0, 0, 1)


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
    stores = [store_pattern, *(extra_stores or ())]
    shape = chain_shape(
        len(input_patterns), chain_depth, accumulate, copy_store, len(stores)
    )
    params: List[int] = []
    for p in input_patterns:
        params += (p.base, p.stride, p.length, p.offset)
    params += chain_immediates(
        salt, bool(input_patterns), chain_depth, copy_store
    )
    for p in stores:
        params += (p.base, p.stride, p.length, p.offset)
    return Kernel.bind(
        shape, tuple(params), name, trip_count, phase, ghost_alu
    )


def chain_immediates(
    salt: int, has_inputs: bool, chain_depth: int, copy_store: bool
) -> Tuple[int, ...]:
    """The MOVI immediates of a chain, in body order."""
    if copy_store:
        return ()
    imms: Tuple[int, ...] = () if has_inputs else (salt & MASK64,)
    if chain_depth > 0:
        imms += ((salt * _SALT_MIX) & MASK64,)
    return imms


@lru_cache(maxsize=None)
def chain_shape(
    n_inputs: int,
    chain_depth: int,
    accumulate: bool,
    copy_store: bool,
    n_stores: int,
) -> KernelShape:
    """The shape of a chain kernel: ``n_inputs`` loads (registers
    ``0..n_inputs-1``), the MOVI/ALU chain, then ``n_stores`` stores of
    its value."""
    check_non_negative("chain_depth", chain_depth)
    if copy_store and not n_inputs:
        raise ValueError("copy_store requires at least one input pattern")
    if accumulate and copy_store:
        raise ValueError("accumulate and copy_store are mutually exclusive")
    builder = KernelBuilder("chain")
    inputs = [builder.load(_PLACEHOLDER) for _ in range(n_inputs)]
    if copy_store:
        value = inputs[0]
    else:
        value = inputs[0] if inputs else builder.movi(0)
        if chain_depth > 0:
            salt_reg = builder.movi(0)
            for step in range(chain_depth):
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
    for _ in range(n_stores):
        builder.store(value, _PLACEHOLDER)
    return builder.build(1).shape
