"""Shape-keyed compile against a from-scratch reference.

``compile_program`` slices each kernel shape once and rebuilds every
kernel's Slices from that kernel's own immediates and site ids.  The
reference here is the per-kernel pass: a fresh ``DataDependenceGraph``
and ``extract_slice`` for every store of every kernel.  Both must agree
on the Slice table, the statistics and the rewritten program, including
for kernels that share a register-dataflow shape but differ in
immediates, opcodes and address patterns, and for programs compiled
after their shapes are already sliced.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.compiler.ddg import DataDependenceGraph
from repro.compiler.embed import CompileStats, compile_program
from repro.compiler.policy import CostModelPolicy, ThresholdPolicy
from repro.compiler.slicer import SliceRejection, extract_slice
from repro.compiler.slices import SliceTable
from repro.isa.builder import chain_kernel
from repro.isa.instructions import (
    AddressPattern,
    AluInstr,
    LoadInstr,
    MoviInstr,
    StoreInstr,
)
from repro.isa.opcodes import Opcode
from repro.isa.program import Kernel, Program
from repro.workloads import get_workload
from tests.compiler.test_slice_properties import OPS, random_kernels


def _reference_compile(program, policy):
    """The compile pass without any memo: one DDG and one extraction per
    store of every kernel."""
    table = SliceTable()
    embedded = set()
    loop_carried = trivial = sliceable = 0
    for kernel in program.kernels:
        ddg = DataDependenceGraph(kernel)
        for idx, ins in enumerate(kernel.body):
            if not isinstance(ins, StoreInstr):
                continue
            ex = extract_slice(kernel, idx, ddg)
            if ex.rejection is SliceRejection.LOOP_CARRIED:
                loop_carried += 1
            elif ex.rejection is SliceRejection.TRIVIAL:
                trivial += 1
            else:
                sliceable += 1
                if policy.accept(ex.slice):
                    table.add(ex.slice)
                    embedded.add(ex.site)
    kernels = [
        Kernel(
            k.name,
            [
                dataclasses.replace(ins, assoc=True)
                if isinstance(ins, StoreInstr) and ins.site in embedded
                else ins
                for ins in k.body
            ],
            k.trip_count, k.phase, k.ghost_alu,
        )
        for k in program.kernels
    ]
    stats = CompileStats(
        sites_total=len(program.store_sites),
        sites_sliceable=sliceable,
        sites_embedded=len(embedded),
        sites_loop_carried=loop_carried,
        sites_trivial=trivial,
        embedded_bytes=table.encoded_bytes,
    )
    return Program(kernels, program.thread_id), table, stats


def _table_rows(table):
    return [
        (sl.site, sl.instructions, sl.frontier, sl.result_reg)
        for sl in sorted(table, key=lambda s: s.site)
    ]


def _assert_matches_reference(program, policy):
    compiled = compile_program(program, policy)
    ref_program, ref_table, ref_stats = _reference_compile(program, policy)
    assert _table_rows(compiled.slices) == _table_rows(ref_table)
    assert compiled.stats == ref_stats
    assert compiled.program.kernels == ref_program.kernels
    assert compiled.program.thread_id == ref_program.thread_id
    assert compiled.program.store_sites == ref_program.store_sites
    # A kernel with no embedded store is the input program's object.
    for plain, rewritten in zip(program.kernels, compiled.program.kernels):
        embedded = any(
            isinstance(ins, StoreInstr) and ins.assoc for ins in rewritten.body
        )
        assert (rewritten is plain) == (not embedded)
    return compiled


def _same_shape_variant(kernel, rng_seed):
    """``kernel`` with new MOVI immediates, ALU opcodes and address
    patterns: every register stays put, so the dataflow shape is equal."""
    body = []
    for pos, ins in enumerate(kernel.body):
        tweak = rng_seed * 31 + pos
        if isinstance(ins, MoviInstr):
            ins = MoviInstr(ins.dst, (ins.imm * 7 + tweak) % (1 << 64))
        elif isinstance(ins, AluInstr):
            ins = AluInstr(OPS[(OPS.index(ins.op) + tweak) % len(OPS)],
                           ins.dst, ins.src_a, ins.src_b)
        elif isinstance(ins, LoadInstr):
            ins = LoadInstr(ins.dst, AddressPattern(
                (3 << 24) + 8 * tweak, 1 + tweak % 3, 32))
        else:
            ins = StoreInstr(ins.src, AddressPattern(
                (5 << 24) + 8 * tweak, 1, 16))
        body.append(ins)
    return Kernel(kernel.name + "'", body, kernel.trip_count + 1,
                  kernel.phase, kernel.ghost_alu)


POLICIES = st.one_of(
    st.integers(min_value=1, max_value=12).map(ThresholdPolicy),
    st.sampled_from(
        [CostModelPolicy(metric=m) for m in ("energy", "latency", "both")]
    ),
)


class TestShapeKeyedCompile:
    @given(st.lists(random_kernels(), min_size=1, max_size=4), POLICIES,
           st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference(self, kernels, policy, seed):
        # Originals and same-shape variants interleaved: the variants hit
        # the memo entries their originals created in this very call.
        mixed = []
        for k in kernels:
            mixed += [k, _same_shape_variant(k, seed)]
        _assert_matches_reference(Program(mixed, 1), policy)

    @given(st.lists(random_kernels(), min_size=1, max_size=3),
           st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_second_program_after_warm_memo(self, kernels, seed):
        policy = ThresholdPolicy(5)
        _assert_matches_reference(Program(kernels, 0), policy)
        # Every shape of the second program is already sliced.
        variants = [_same_shape_variant(k, seed + 1) for k in kernels]
        _assert_matches_reference(Program(variants[::-1], 2), policy)

    def test_variant_slices_carry_their_own_immediates(self):
        a = chain_kernel("a", AddressPattern(0, 1, 8),
                         [AddressPattern(1 << 20, 1, 8)], 3, 4, salt=1)
        b = chain_kernel("b", AddressPattern(64, 1, 8),
                         [AddressPattern(2 << 20, 1, 8)], 3, 4, salt=2)
        compiled = _assert_matches_reference(Program([a, b]),
                                             ThresholdPolicy())
        first, second = sorted(compiled.slices, key=lambda s: s.site)
        imm = [i.imm for i in first.instructions if isinstance(i, MoviInstr)]
        imm2 = [i.imm for i in second.instructions
                if isinstance(i, MoviInstr)]
        assert imm != imm2

    def test_rejections_and_mixed_kernels(self):
        st_a, st_b = AddressPattern(0, 1, 8), AddressPattern(4096, 1, 8)
        ld = [AddressPattern(1 << 20, 1, 8), AddressPattern(2 << 20, 1, 8)]
        kernels = [
            chain_kernel("acc", st_a, ld, 2, 3, accumulate=True),
            chain_kernel("copy", st_a, ld, 0, 3, copy_store=True),
            chain_kernel("imm", st_a, [], 3, 3, salt=9),
            chain_kernel("deep", st_b, ld, 12, 3, salt=4,
                         extra_stores=[st_a]),
            chain_kernel("two", st_b, ld, 5, 3, salt=5, extra_stores=[st_a]),
            Kernel("xor", [MoviInstr(0, 1), AluInstr(Opcode.XOR, 1, 0, 0),
                           StoreInstr(1, st_b)], 2),
        ]
        for policy in (ThresholdPolicy(), ThresholdPolicy(1),
                       CostModelPolicy()):
            compiled = _assert_matches_reference(Program(kernels), policy)
            assert compiled.stats.sites_loop_carried == 1
            assert compiled.stats.sites_trivial == 1

    def test_workload_programs(self):
        for name in ("cg", "dc", "is"):
            spec = get_workload(name)
            for program in spec.build_programs(2, region_scale=0.05, reps=2):
                _assert_matches_reference(
                    program, ThresholdPolicy(spec.default_threshold))
