"""Shared chain shapes.

``chain_kernel`` binds every kernel of one chain structure to the same
interned :class:`~repro.isa.program.KernelShape` (chains that differ
only in their salt, patterns, trip or phase share it, and with it its
ALU instruction objects).  These tests pin it against a from-scratch
reference that lives only here, a plain ``KernelBuilder`` build:
compile output, trace plans and interpreted memory of shape-built
programs must equal those of the instruction-by-instruction build, and
plan streams must be tuples of ints equal to the scalar oracle's.
"""

from __future__ import annotations

import gc

from hypothesis import given, settings, strategies as st

from repro.compiler.embed import compile_program
from repro.compiler.policy import ThresholdPolicy
from repro.isa.builder import KernelBuilder, chain_kernel
from repro.isa.instructions import (
    LINE_BYTES,
    AddressPattern,
    AluInstr,
    MoviInstr,
)
from repro.isa.interpreter import Interpreter, MemoryImage
from repro.isa.opcodes import MASK64, Opcode
from repro.isa.program import Program
from repro.sim.vector.plans import KernelPlan, _build_plan
from tests.compiler.test_compile_memo import _reference_compile, _table_rows
from tests.compiler.test_slice_properties import random_kernels
from tests.sim.test_vector_plans import _scalar_reference

_CHAIN_OPS = (Opcode.ADD, Opcode.XOR, Opcode.MUL, Opcode.SUB, Opcode.ADD,
              Opcode.XOR)


def _fresh_chain_kernel(name, store_pattern, input_patterns, chain_depth,
                        trip_count, phase=0, salt=1, accumulate=False,
                        copy_store=False, extra_stores=None, ghost_alu=0):
    """``chain_kernel`` built instruction by instruction, nothing shared."""
    builder = KernelBuilder(name, phase)
    inputs = [builder.load(p) for p in input_patterns]
    if copy_store:
        value = inputs[0]
    else:
        value = inputs[0] if inputs else builder.movi(salt & MASK64)
        if chain_depth > 0:
            salt_reg = builder.movi((salt * 0x9E3779B97F4A7C15) & MASK64)
            for step in range(chain_depth):
                operand = (
                    inputs[step % len(inputs)]
                    if len(inputs) > 1 and step % 2 else salt_reg
                )
                value = builder.alu(_CHAIN_OPS[step % 6], value, operand)
        if accumulate:
            acc = builder.fresh_reg()
            value = builder.alu_into(Opcode.ADD, acc, acc, value)
    builder.store(value, store_pattern)
    for extra in extra_stores or ():
        builder.store(value, extra)
    return builder.build(trip_count, ghost_alu=ghost_alu)


def _pattern(draw, base):
    return AddressPattern(base + 8 * draw(st.integers(0, 64)),
                          draw(st.integers(0, 5)), draw(st.integers(1, 64)),
                          draw(st.integers(0, 8)))


@st.composite
def chain_args(draw):
    n_inputs = draw(st.integers(0, 3))
    copy_store = n_inputs > 0 and draw(st.booleans())
    accumulate = not copy_store and draw(st.booleans())
    return dict(
        store_pattern=_pattern(draw, 0),
        input_patterns=[_pattern(draw, (i + 1) << 20)
                        for i in range(n_inputs)],
        chain_depth=draw(st.integers(0, 14)),
        trip_count=draw(st.integers(1, 40)),
        phase=draw(st.integers(0, 5)),
        salt=draw(st.integers(0, 2**70)),
        accumulate=accumulate,
        copy_store=copy_store,
        extra_stores=[_pattern(draw, 9 << 20)
                      for _ in range(draw(st.integers(0, 2)))],
        ghost_alu=draw(st.integers(0, 4)),
    )


def _shared(ins):
    """Instructions a shape holds itself (the rest carry parameters)."""
    return isinstance(ins, AluInstr)


class TestChainInterning:
    @given(chain_args())
    @settings(max_examples=150, deadline=None)
    def test_equals_fresh_build(self, args):
        assert chain_kernel("k", **args) == _fresh_chain_kernel("k", **args)

    @given(chain_args(), st.integers(1, 30))
    @settings(max_examples=60, deadline=None)
    def test_reps_share_chain_objects(self, args, trip):
        rep0 = chain_kernel("rep0", **args)
        moved = dict(
            args, trip_count=trip, phase=args["phase"] + 1,
            store_pattern=AddressPattern(1 << 30, 1, 8),
            input_patterns=[AddressPattern((2 << 30) + (i << 12), 1, 8)
                            for i in range(len(args["input_patterns"]))],
        )
        rep1 = chain_kernel("rep1", **moved)
        assert rep0.shape is rep1.shape
        assert len(rep0.body) == len(rep1.body)
        pairs = list(zip(rep0.body, rep1.body))
        for a, b in pairs:
            if _shared(a):
                assert a is b
            else:
                assert a is not b
        if args["chain_depth"] and not args["copy_store"]:
            assert any(_shared(a) for a, _ in pairs)

    @given(chain_args(), st.integers(0, 2**70))
    @settings(max_examples=80, deadline=None)
    def test_salt_variants_share_alu_objects(self, args, salt):
        a = chain_kernel("a", **args)
        b = chain_kernel("b", **dict(args, salt=salt))
        assert len(a.body) == len(b.body)
        for x, y in zip(a.body, b.body):
            if isinstance(x, AluInstr):
                assert x is y
            elif isinstance(x, MoviInstr) and x != y:
                assert x is not y  # the salt MOVI differs; nothing else

    def test_program_keeps_the_shared_objects(self):
        args = dict(store_pattern=AddressPattern(0, 1, 8),
                    input_patterns=[AddressPattern(1 << 20, 1, 8)],
                    chain_depth=4, trip_count=3, salt=77)
        a = Program([chain_kernel("a", **args)]).kernels[0]
        b = Program([chain_kernel("b", **args)]).kernels[0]
        assert a.shape is b.shape
        alu = [(x, y) for x, y in zip(a.body, b.body) if _shared(x)]
        assert alu and all(x is y for x, y in alu)


class TestSharedLowering:
    def test_interpreter_runs_interned_kernels(self):
        args = dict(store_pattern=AddressPattern(0, 1, 16),
                    input_patterns=[AddressPattern(1 << 20, 1, 16),
                                    AddressPattern(2 << 20, 1, 16)],
                    chain_depth=6, trip_count=16, salt=99)
        fresh, interned = MemoryImage(3), MemoryImage(3)
        Interpreter(Program([_fresh_chain_kernel("f", **args)]),
                    fresh).run_to_completion()
        Interpreter(Program([chain_kernel("i", **args)]),
                    interned).run_to_completion()
        assert fresh.snapshot() == interned.snapshot()


#: Plan attributes compared field by field (the lazy caches are not).
_PLAN_FIELDS = tuple(
    name for name in KernelPlan.__slots__
    if name != "kernel" and not name.startswith("_")
)


def _plan_doc(plan):
    return {name: getattr(plan, name) for name in _PLAN_FIELDS}


def _assert_int_tuples(plan):
    for stream in (plan.addrs, plan.lines, plan.svalues):
        assert type(stream) is tuple
        assert all(type(v) is int for v in stream)
    rows = plan.rows
    assert type(rows) is tuple and len(rows) == plan.trip
    for row in rows:
        assert type(row) is tuple
        assert all(type(v) is int for v in row)


@st.composite
def salted_programs(draw):
    """Chain argument sets, each built under two or three salts."""
    chains = []
    for args in draw(st.lists(chain_args(), min_size=1, max_size=3)):
        for salt in draw(st.lists(st.integers(0, 2**70), min_size=2,
                                  max_size=3)):
            chains.append(dict(args, salt=salt))
    return chains


class TestInternedBuildMatchesReference:
    """Interned and un-interned builds are indistinguishable downstream."""

    @given(salted_programs(), st.integers(1, 12), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_compile_ops_and_plans(self, chains, threshold, seed):
        """Compile output, plans and interpreted memory."""
        interned = Program(
            [chain_kernel(f"k{i}", **a) for i, a in enumerate(chains)], 1
        )
        fresh = Program(
            [_fresh_chain_kernel(f"k{i}", **a) for i, a in enumerate(chains)],
            1,
        )
        policy = ThresholdPolicy(threshold)
        compiled = compile_program(interned, policy)
        ref_program, ref_table, ref_stats = _reference_compile(fresh, policy)
        assert _table_rows(compiled.slices) == _table_rows(ref_table)
        assert compiled.stats == ref_stats
        assert compiled.program.kernels == ref_program.kernels
        memories = (MemoryImage(seed), MemoryImage(seed))
        for program, memory in zip((interned, fresh), memories):
            Interpreter(program, memory).run_to_completion()
        assert memories[0].snapshot() == memories[1].snapshot()
        for k in range(len(chains)):
            plan = _build_plan(interned.kernels[k], seed, LINE_BYTES)
            ref = _build_plan(fresh.kernels[k], seed, LINE_BYTES)
            _assert_int_tuples(plan)
            assert _plan_doc(plan) == _plan_doc(ref)

    @given(st.lists(st.one_of(random_kernels(),
                              chain_args().map(
                                  lambda a: chain_kernel("c", **a))),
                    min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_plan_streams_are_int_tuples_equal_to_oracle(self, kernels):
        program = Program(kernels, 0)
        for kernel in program.kernels:
            plan = _build_plan(kernel, 0, LINE_BYTES)
            oracle = _scalar_reference(kernel)
            _assert_int_tuples(plan)
            _assert_int_tuples(oracle)
            for name in ("addrs", "lines", "svalues", "external_loads",
                         "overlap", "rows"):
                assert getattr(plan, name) == getattr(oracle, name)

    def test_collector_untracks_plan_streams(self):
        args = dict(store_pattern=AddressPattern(0, 1, 64),
                    input_patterns=[AddressPattern(1 << 20, 1, 64)],
                    chain_depth=4, salt=5)
        for trip in (8, 48):
            program = Program([chain_kernel("gc", trip_count=trip, **args)])
            plan = _build_plan(program.kernels[0], 0, LINE_BYTES)
            gc.collect()
            for stream in (plan.addrs, plan.lines, plan.svalues,
                           *plan.rows):
                assert not gc.is_tracked(stream)
