"""Opcode definitions and arithmetic semantics for the IR.

All arithmetic is over 64-bit unsigned integers with wrap-around, which
keeps interpretation fast (plain Python ints masked to 64 bits) while still
producing *real*, order-sensitive values — the property recomputation
correctness tests rely on.
It also spells those semantics, an access's address and the memory
image's initialiser as source for the per-shape functions other layers
generate (the interpreter's steppers, the plan evaluators), and
compiles that source (:func:`exec_generated`).
"""

from __future__ import annotations

import enum
import hashlib
import linecache
from typing import Callable, Dict, List

__all__ = ["Opcode", "ALU_OPCODES", "apply_alu", "MASK64", "INIT_MIX",
           "ALU_EXPR", "address_expr", "initial_value_lines",
           "exec_generated"]

MASK64 = (1 << 64) - 1

#: Multiplier of the memory image's deterministic initial-value mix.
INIT_MIX = 0x9E3779B97F4A7C15


class Opcode(enum.Enum):
    """Instruction opcodes.

    ``MOVI`` materialises an immediate; the remaining ALU opcodes are
    binary.  ``LOAD``/``STORE`` are the only memory opcodes; ``ASSOC_ADDR``
    is the paper's special instruction that associates a store's effective
    address with its Slice (executed atomically with the store — in our IR
    it is a flag on :class:`~repro.isa.instructions.StoreInstr` rather than
    a separate instruction object, but it is costed as an instruction).
    """

    MOVI = "movi"
    MOV = "mov"
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    SHR = "shr"
    LOAD = "load"
    STORE = "store"
    ASSOC_ADDR = "assoc_addr"


def _add(a: int, b: int) -> int:
    return (a + b) & MASK64


def _sub(a: int, b: int) -> int:
    return (a - b) & MASK64


def _mul(a: int, b: int) -> int:
    return (a * b) & MASK64


def _and(a: int, b: int) -> int:
    return a & b


def _or(a: int, b: int) -> int:
    return a | b


def _xor(a: int, b: int) -> int:
    return a ^ b


def _shl(a: int, b: int) -> int:
    return (a << (b & 63)) & MASK64


def _shr(a: int, b: int) -> int:
    return a >> (b & 63)


_BINARY_SEMANTICS: Dict[Opcode, Callable[[int, int], int]] = {
    Opcode.ADD: _add,
    Opcode.SUB: _sub,
    Opcode.MUL: _mul,
    Opcode.AND: _and,
    Opcode.OR: _or,
    Opcode.XOR: _xor,
    Opcode.SHL: _shl,
    Opcode.SHR: _shr,
}

#: The binary ALU opcodes eligible to appear inside a Slice.
ALU_OPCODES = frozenset(_BINARY_SEMANTICS)


def apply_alu(op: Opcode, a: int, b: int) -> int:
    """Evaluate a binary ALU opcode over two 64-bit values."""
    try:
        return _BINARY_SEMANTICS[op](a, b)
    except KeyError:
        raise ValueError(f"{op} is not a binary ALU opcode") from None


# -- generated-code vocabulary: registers are locals ``r0, r1, ...``,
# parameters ``p0, p1, ...``, the iteration ``i``, the access's address
# ``a`` and the (masked) memory seed ``seed``.
_MASK_LIT = hex(MASK64)
_MIX_LIT = hex(INIT_MIX)

#: Opcode -> inlined expression template over ``r{a}`` and ``r{b}``
#: (the semantics of :func:`apply_alu`).
ALU_EXPR: Dict[Opcode, str] = {
    Opcode.ADD: "(r{a} + r{b}) & " + _MASK_LIT,
    Opcode.SUB: "(r{a} - r{b}) & " + _MASK_LIT,
    Opcode.MUL: "(r{a} * r{b}) & " + _MASK_LIT,
    Opcode.AND: "r{a} & r{b}",
    Opcode.OR: "r{a} | r{b}",
    Opcode.XOR: "r{a} ^ r{b}",
    Opcode.SHL: "(r{a} << (r{b} & 63)) & " + _MASK_LIT,
    Opcode.SHR: "r{a} >> (r{b} & 63)",
}


def address_expr(p: int) -> str:
    """The byte address at iteration ``i`` of the load or store whose
    ``(base, stride, length, offset)`` are ``p{p}`` to ``p{p + 3}``
    (:meth:`~repro.isa.instructions.AddressPattern.address`)."""
    return f"p{p} + ((p{p + 3} + i * p{p + 1}) % p{p + 2}) * 8"


def initial_value_lines(target: str) -> List[str]:
    """Statements setting ``target`` to the initial value of address
    ``a`` (:meth:`~repro.isa.interpreter.MemoryImage.initial_value`);
    they clobber ``x``."""
    return [
        f"x = (a * {_MIX_LIT} + seed) & {_MASK_LIT}",
        "x ^= x >> 29",
        f"{target} = (x * {_MIX_LIT}) & {_MASK_LIT}",
    ]


def exec_generated(kind: str, source: str, namespace: Dict[str, object]) -> None:
    """Compile and run generated ``source`` into ``namespace`` under a
    filename of its own, ``<kind:digest>``.

    The source is registered with :mod:`linecache` (mtime ``None``, so
    ``checkcache`` keeps it): a traceback through generated code quotes
    the generated line, and a profile keeps each function its own row
    instead of folding every one into ``<string>:1``.
    """
    digest = hashlib.sha256(source.encode()).hexdigest()[:12]
    filename = f"<{kind}:{digest}>"
    linecache.cache[filename] = (
        len(source), None, source.splitlines(True), filename
    )
    exec(compile(source, filename, "exec"), namespace)  # noqa: S102
